type t = { src_port : int; dst_port : int; payload : Bytes.t }

type error =
  | Truncated of int
  | Bad_length of int * int
  | Bad_checksum of int * int
  | Bad_port

let header_size = 8

let max_payload = 1500 - Ipv4.header_size - header_size

let pseudo ~src ~dst len =
  Checksum.pseudo_header_sum ~src:(Addr.Ip.to_int src)
    ~dst:(Addr.Ip.to_int dst) ~proto:17 ~len

(* The checksum field value for the [len]-byte datagram at [off], summed
   around the field itself (bytes 6-7) so it need not be zeroed first.
   [finish] folds the carries of the three partial sums.  An all-zero
   computed checksum is transmitted as 0xffff (RFC 768). *)
let checksum_of ~src ~dst b off len =
  let c =
    Checksum.finish
      (pseudo ~src ~dst len
      + Checksum.ones_sum b off 6
      + Checksum.ones_sum b (off + header_size) (len - header_size))
  in
  if c = 0 then 0xffff else c

let write_header ~src ~dst b ~off ~src_port ~dst_port ~payload_len =
  let len = header_size + payload_len in
  Bytes.set_uint16_be b off (src_port land 0xffff);
  Bytes.set_uint16_be b (off + 2) (dst_port land 0xffff);
  Bytes.set_uint16_be b (off + 4) len;
  Bytes.set_uint16_be b (off + 6) (checksum_of ~src ~dst b off len)

let build ~src ~dst t =
  let payload_len = Bytes.length t.payload in
  let b = Bytes.create (header_size + payload_len) in
  Bytes.blit t.payload 0 b header_size payload_len;
  write_header ~src ~dst b ~off:0 ~src_port:t.src_port ~dst_port:t.dst_port
    ~payload_len;
  b

let src_port_at b off = Bytes.get_uint16_be b off

let dst_port_at b off = Bytes.get_uint16_be b (off + 2)

let validate ~src ~dst b ~off ~len:blen =
  if off < 0 || blen < 0 || off > Bytes.length b - blen then
    invalid_arg "Udp.validate: range out of bounds";
  if blen < header_size then Error (Truncated blen)
  else
    let len = Bytes.get_uint16_be b (off + 4) in
    if len < header_size || len > blen then Error (Bad_length (len, blen))
    else if src_port_at b off = 0 || dst_port_at b off = 0 then Error Bad_port
    else
      let stored = Bytes.get_uint16_be b (off + 6) in
      (* With the stored checksum included, a correct datagram plus its
         pseudo-header sums to 0xffff, whose complement is 0 — RFC 1071's
         in-place check. *)
      if
        stored <> 0
        && Checksum.finish (pseudo ~src ~dst len + Checksum.ones_sum b off len)
           <> 0
      then Error (Bad_checksum (checksum_of ~src ~dst b off len, stored))
      else Ok (len - header_size)

let parse ~src ~dst b =
  match validate ~src ~dst b ~off:0 ~len:(Bytes.length b) with
  | Error e -> Error e
  | Ok n ->
      Ok
        {
          src_port = src_port_at b 0;
          dst_port = dst_port_at b 0;
          payload = Bytes.sub b header_size n;
        }

let pp_error ppf = function
  | Truncated n -> Format.fprintf ppf "truncated udp datagram (%d bytes)" n
  | Bad_length (c, h) ->
      Format.fprintf ppf "bad udp length %d (buffer %d)" c h
  | Bad_checksum (e, f) ->
      Format.fprintf ppf "bad udp checksum: expected %#x, found %#x" e f
  | Bad_port -> Format.fprintf ppf "udp port 0 rejected"
