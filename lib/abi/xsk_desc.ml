let entry_size = 8

let offset_mask = 0xFFFF_FFFF_FFFFL (* 48 bits *)

let encode ~offset ~len =
  if offset < 0 || Int64.compare (Int64.of_int offset) offset_mask > 0 then
    invalid_arg "Xsk_desc.encode: offset out of range";
  if len < 0 || len > 0xFFFF then invalid_arg "Xsk_desc.encode: len out of range";
  Int64.logor (Int64.of_int offset) (Int64.shift_left (Int64.of_int len) 48)

let decode_offset d = Int64.to_int (Int64.logand d offset_mask)

let decode_len d = Int64.to_int (Int64.shift_right_logical d 48) land 0xFFFF

let decode d = (decode_offset d, decode_len d)

let encode_offset offset = encode ~offset ~len:0
