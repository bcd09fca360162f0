type kind = Trusted | Untrusted

exception Out_of_bounds of string

type t = { kind : kind; name : string; data : Bytes.t }

let create ~kind ~name ~size =
  if size < 0 then invalid_arg "Region.create: negative size";
  { kind; name; data = Bytes.make size '\000' }

let name t = t.name

let size t = Bytes.length t.data

let is_trusted t = t.kind = Trusted

let same a b = a.data == b.data

let in_bounds t ~off ~len =
  off >= 0 && len >= 0 && off + len >= 0 && off + len <= Bytes.length t.data

let check t off len op =
  if not (in_bounds t ~off ~len) then
    raise
      (Out_of_bounds
         (Printf.sprintf "%s: %s [%d, +%d) outside region of %d bytes" t.name
            op off len (Bytes.length t.data)))

let get_u8 t off =
  check t off 1 "get_u8";
  Char.code (Bytes.unsafe_get t.data off)

let set_u8 t off v =
  check t off 1 "set_u8";
  Bytes.unsafe_set t.data off (Char.chr (v land 0xff))

let get_u16 t off =
  check t off 2 "get_u16";
  Bytes.get_uint16_le t.data off

let set_u16 t off v =
  check t off 2 "set_u16";
  Bytes.set_uint16_le t.data off (v land 0xffff)

let get_u32 t off =
  check t off 4 "get_u32";
  Int32.to_int (Bytes.get_int32_le t.data off) land 0xFFFFFFFF

let set_u32 t off v =
  check t off 4 "set_u32";
  Bytes.set_int32_le t.data off (Int32.of_int v)

let get_u64 t off =
  check t off 8 "get_u64";
  Bytes.get_int64_le t.data off

let set_u64 t off v =
  check t off 8 "set_u64";
  Bytes.set_int64_le t.data off v

let blit_from_bytes src soff dst doff len =
  check dst doff len "blit_from_bytes";
  Bytes.blit src soff dst.data doff len

let blit_to_bytes src soff dst doff len =
  check src soff len "blit_to_bytes";
  Bytes.blit src.data soff dst doff len

let blit src soff dst doff len =
  check src soff len "blit(src)";
  check dst doff len "blit(dst)";
  Bytes.blit src.data soff dst.data doff len

let read_string t off len =
  check t off len "read_string";
  Bytes.sub_string t.data off len

let write_string t off s =
  check t off (String.length s) "write_string";
  Bytes.blit_string s 0 t.data off (String.length s)

let fill t off len c =
  check t off len "fill";
  Bytes.fill t.data off len c
