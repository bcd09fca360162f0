module Mac = struct
  type t = string (* exactly 6 bytes *)

  let of_string s =
    if String.length s <> 6 then invalid_arg "Mac.of_string: need 6 bytes";
    s

  let to_string t = t

  let of_repr s =
    match String.split_on_char ':' s with
    | [ a; b; c; d; e; f ] ->
        let byte x =
          match int_of_string_opt ("0x" ^ x) with
          | Some v when v >= 0 && v <= 255 -> Char.chr v
          | _ -> invalid_arg ("Mac.of_repr: bad octet " ^ x)
        in
        let buf = Bytes.create 6 in
        List.iteri (fun i x -> Bytes.set buf i (byte x)) [ a; b; c; d; e; f ];
        Bytes.unsafe_to_string buf
    | _ -> invalid_arg ("Mac.of_repr: " ^ s)

  let broadcast = "\xff\xff\xff\xff\xff\xff"

  let zero = "\x00\x00\x00\x00\x00\x00"

  let is_broadcast t = String.equal t broadcast

  let equal = String.equal

  let pp ppf t =
    for i = 0 to 5 do
      if i > 0 then Format.pp_print_char ppf ':';
      Format.fprintf ppf "%02x" (Char.code t.[i])
    done
end

module Ip = struct
  type t = int (* 32-bit value in host order, 0 <= t < 2^32 *)

  let of_int v = v land 0xFFFFFFFF

  let to_int t = t

  let of_repr s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] ->
        let octet x =
          match int_of_string_opt x with
          | Some v when v >= 0 && v <= 255 -> v
          | _ -> invalid_arg ("Ip.of_repr: bad octet " ^ x)
        in
        (octet a lsl 24) lor (octet b lsl 16) lor (octet c lsl 8) lor octet d
    | _ -> invalid_arg ("Ip.of_repr: " ^ s)

  let equal = Int.equal

  let to_repr t =
    Printf.sprintf "%d.%d.%d.%d"
      ((t lsr 24) land 0xff)
      ((t lsr 16) land 0xff)
      ((t lsr 8) land 0xff)
      (t land 0xff)

end
