include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash (k : int) = k land max_int
end)
