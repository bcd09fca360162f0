type t = { mutable state : int64 }

let create ~seed = { state = seed }

(* SplitMix64 (Steele, Lea, Flood 2014): tiny, fast, passes BigCrush when
   used as a 64-bit generator; ideal for reproducible simulation. *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be > 0";
  (* Keep 62 bits: a 63-bit value does not fit OCaml's native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992. (* 2^53 *))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let byte t = Char.chr (int t 256)

let fill_bytes t b =
  for i = 0 to Bytes.length b - 1 do
    Bytes.set b i (byte t)
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
