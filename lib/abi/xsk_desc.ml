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

(* In-place access, little-endian like the [u64] it spells: offset bits
   0..31 at [off], 32..47 at [off + 4], the length at [off + 6].  Native
   ints throughout, so no [int64] is boxed. *)

let get_offset r off =
  Mem.Region.get_u32 r off lor (Mem.Region.get_u16 r (off + 4) lsl 32)

let get_len r off = Mem.Region.get_u16 r (off + 6)

let set r off ~offset ~len =
  if offset < 0 || offset > 0xFFFF_FFFF_FFFF then
    invalid_arg "Xsk_desc.set: offset out of range";
  if len < 0 || len > 0xFFFF then invalid_arg "Xsk_desc.set: len out of range";
  Mem.Region.set_u32 r off offset;
  Mem.Region.set_u16 r (off + 4) (offset lsr 32);
  Mem.Region.set_u16 r (off + 6) len

let set_offset r off offset = set r off ~offset ~len:0
