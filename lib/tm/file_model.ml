(* Per byte, the values the file may hold there (one when settled); the
   file is at least [lo] and at most [hi] bytes long.  Bytes at or past
   the length have never been written, so they read as zero once a
   later write extends the file over them. *)
type t = { cells : char list array; mutable lo : int; mutable hi : int }

let create ~size = { cells = Array.make size [ '\000' ]; lo = 0; hi = 0 }

let write t ~off data r =
  match r with
  | Error Abi.Errno.EAGAIN -> true
  | Ok _ | Error _ ->
      let len = Bytes.length data in
      let confirmed = match r with Ok n -> max 0 (min n len) | Error _ -> 0 in
      for i = 0 to len - 1 do
        let c = Bytes.get data i and cell = t.cells.(off + i) in
        t.cells.(off + i) <-
          (if i < confirmed then [ c ]
           else if List.mem c cell then cell
           else c :: cell)
      done;
      if confirmed > 0 then t.lo <- max t.lo (off + confirmed);
      t.hi <- max t.hi (off + len);
      confirmed = len

type verdict = Exact | Prefix | Mismatch of string

let read t ~off buf n ~cqe_forged =
  let want = Bytes.length buf in
  let clip x = max 0 (min want (x - off)) in
  let lo = clip t.lo and hi = clip t.hi in
  let rec admitted i =
    i >= n || (List.mem (Bytes.get buf i) t.cells.(off + i) && admitted (i + 1))
  in
  if n > hi || (n < lo && not cqe_forged) then
    Mismatch
      (Printf.sprintf "file read length %d, expected %d" n
         (if n > hi then hi else lo))
  else if not (admitted 0) then Mismatch "file read-back mismatch"
  else begin
    for i = 0 to n - 1 do
      t.cells.(off + i) <- [ Bytes.get buf i ]
    done;
    if n >= lo && n < want then begin
      (* A read that stops short of its request ends at the end of the
         file, which pins the length. *)
      let len = if n > 0 then off + n else min t.hi off in
      for p = len to t.hi - 1 do
        t.cells.(p) <- [ '\000' ]
      done;
      t.hi <- len;
      if n > 0 then t.lo <- len
    end
    else t.lo <- max t.lo (off + n);
    if n < lo then Prefix else Exact
  end
