type ethertype = Ipv4 | Arp | Unknown of int

type t = {
  dst : Addr.Mac.t;
  src : Addr.Mac.t;
  ethertype : ethertype;
  payload : Bytes.t;
}

type error = Truncated of int

let header_size = 14

let ethertype_to_int = function
  | Ipv4 -> 0x0800
  | Arp -> 0x0806
  | Unknown v -> v land 0xffff

let ethertype_of_int = function
  | 0x0800 -> Ipv4
  | 0x0806 -> Arp
  | v -> Unknown v

let write_header b ~off ~dst ~src ethertype =
  Bytes.blit_string (Addr.Mac.to_string dst) 0 b off 6;
  Bytes.blit_string (Addr.Mac.to_string src) 0 b (off + 6) 6;
  Bytes.set_uint16_be b (off + 12) (ethertype_to_int ethertype)

let build t =
  let len = header_size + Bytes.length t.payload in
  let b = Bytes.create len in
  write_header b ~off:0 ~dst:t.dst ~src:t.src t.ethertype;
  Bytes.blit t.payload 0 b header_size (Bytes.length t.payload);
  b

let validate b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Eth.validate: range out of bounds";
  if len < header_size then -1 else len - header_size

let dst_at b off = Addr.Mac.of_string (Bytes.sub_string b off 6)

let rec same_mac b off m i =
  i = 6 || (Bytes.get b (off + i) = String.get m i && same_mac b off m (i + 1))

let dst_is b off mac = same_mac b off (Addr.Mac.to_string mac) 0

let src_at b off = Addr.Mac.of_string (Bytes.sub_string b (off + 6) 6)

let ethertype_at b off = ethertype_of_int (Bytes.get_uint16_be b (off + 12))

let parse_sub b ~len =
  match validate b ~off:0 ~len with
  | -1 -> Error (Truncated len)
  | n ->
      Ok
        {
          dst = dst_at b 0;
          src = src_at b 0;
          ethertype = ethertype_at b 0;
          payload = Bytes.sub b header_size n;
        }

let parse b = parse_sub b ~len:(Bytes.length b)

let pp_error ppf (Truncated n) =
  Format.fprintf ppf "truncated ethernet frame (%d bytes)" n
