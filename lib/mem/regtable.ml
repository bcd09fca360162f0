type entry = { off : int; len : int }

type t = { entries : entry array }

type error =
  | Empty
  | Out_of_range of int
  | Zero_len of int
  | Overlapping of int * int

let pp_error ppf = function
  | Empty -> Format.pp_print_string ppf "empty registration"
  | Out_of_range i -> Format.fprintf ppf "entry %d out of region range" i
  | Zero_len i -> Format.fprintf ppf "entry %d has non-positive length" i
  | Overlapping (i, j) -> Format.fprintf ppf "entries %d and %d overlap" i j

let create region entries =
  match entries with
  | [] -> Error Empty
  | _ -> (
      let arr = Array.of_list (List.map (fun (off, len) -> { off; len }) entries) in
      let bad = ref None in
      Array.iteri
        (fun i e ->
          if !bad = None then
            if e.len <= 0 then bad := Some (Zero_len i)
            else if not (Ptr.valid (Ptr.v region e.off) ~len:e.len) then
              bad := Some (Out_of_range i))
        arr;
      match !bad with
      | Some e -> Error e
      | None ->
          let n = Array.length arr in
          let overlap = ref None in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              if
                !overlap = None
                && Ptr.overlaps (Ptr.v region arr.(i).off) ~len1:arr.(i).len
                     (Ptr.v region arr.(j).off) ~len2:arr.(j).len
              then overlap := Some (Overlapping (i, j))
            done
          done;
          (match !overlap with
          | Some e -> Error e
          | None -> Ok { entries = arr }))

let find t idx =
  if idx < 0 || idx >= Array.length t.entries then None
  else
    let e = t.entries.(idx) in
    Some (e.off, e.len)

let covers t idx ~addr ~len =
  match find t idx with
  | None -> false
  | Some (off, blen) -> len >= 0 && addr >= off && addr + len <= off + blen
