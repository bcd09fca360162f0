type proto = Udp | Tcp | Icmp | Other of int

type t = {
  src : Addr.Ip.t;
  dst : Addr.Ip.t;
  proto : proto;
  ttl : int;
  ident : int;
  payload : Bytes.t;
}

type error =
  | Truncated of int
  | Bad_version of int
  | Bad_ihl of int
  | Bad_total_length of int * int
  | Bad_checksum of int * int
  | Fragmented
  | Ttl_expired

let header_size = 20

let proto_to_int = function
  | Icmp -> 1
  | Tcp -> 6
  | Udp -> 17
  | Other v -> v land 0xff

let proto_of_int = function
  | 1 -> Icmp
  | 6 -> Tcp
  | 17 -> Udp
  | v -> Other v

let set_ip b off ip =
  Bytes.set_int32_be b off (Int32.of_int (Addr.Ip.to_int ip))

let get_ip b off =
  Addr.Ip.of_int (Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF)

type fragment = { packet : t; frag_offset : int; more : bool }

let write_header b ~off ~src ~dst ~proto ~ttl ~ident ~flags_frag ~payload_len =
  Bytes.set_uint8 b off 0x45 (* version 4, ihl 5 *);
  Bytes.set_uint8 b (off + 1) 0 (* dscp/ecn *);
  Bytes.set_uint16_be b (off + 2) (header_size + payload_len);
  Bytes.set_uint16_be b (off + 4) (ident land 0xffff);
  Bytes.set_uint16_be b (off + 6) flags_frag;
  Bytes.set_uint8 b (off + 8) (ttl land 0xff);
  Bytes.set_uint8 b (off + 9) (proto_to_int proto);
  Bytes.set_uint16_be b (off + 10) 0 (* checksum placeholder *);
  set_ip b (off + 12) src;
  set_ip b (off + 16) dst;
  Bytes.set_uint16_be b (off + 10) (Checksum.compute b off header_size)

let build_with_frag t ~flags_frag =
  let payload_len = Bytes.length t.payload in
  let b = Bytes.create (header_size + payload_len) in
  write_header b ~off:0 ~src:t.src ~dst:t.dst ~proto:t.proto ~ttl:t.ttl
    ~ident:t.ident ~flags_frag ~payload_len;
  Bytes.blit t.payload 0 b header_size payload_len;
  b

let build t = build_with_frag t ~flags_frag:0

let build_fragment t ~frag_offset ~more =
  if frag_offset < 0 || frag_offset mod 8 <> 0 || frag_offset lsr 3 > 0x1fff
  then invalid_arg "Ipv4.build_fragment: offset must be a multiple of 8";
  build_with_frag t
    ~flags_frag:((if more then 0x2000 else 0) lor (frag_offset lsr 3))

let src_at b off = get_ip b (off + 12)

let dst_at b off = get_ip b (off + 16)

let proto_at b off = proto_of_int (Bytes.get_uint8 b (off + 9))

let is_fragment_at b off = Bytes.get_uint16_be b (off + 6) land 0x3fff <> 0

(* The header checksum the sender should have written: the header summed
   around its stored field, computed only to report a mismatch. *)
let expected_checksum b off =
  Checksum.finish
    (Checksum.ones_sum b off 10 + Checksum.ones_sum b (off + 12) 8)

let validate ~fragments b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Ipv4.validate: range out of bounds";
  if len < header_size then Error (Truncated len)
  else
    let vihl = Bytes.get_uint8 b off in
    let version = vihl lsr 4 and ihl = vihl land 0xf in
    if version <> 4 then Error (Bad_version version)
    else if ihl <> 5 then Error (Bad_ihl ihl)
    else
      let total = Bytes.get_uint16_be b (off + 2) in
      if total < header_size || total > len then
        Error (Bad_total_length (total, len))
      else if not (Checksum.valid b off header_size) then
        Error
          (Bad_checksum
             (expected_checksum b off, Bytes.get_uint16_be b (off + 10)))
      else if (not fragments) && is_fragment_at b off then Error Fragmented
      else if Bytes.get_uint8 b (off + 8) = 0 then Error Ttl_expired
      else Ok (total - header_size)

let fragment_at b off ~payload_len =
  let flags_frag = Bytes.get_uint16_be b (off + 6) in
  {
    packet =
      {
        src = src_at b off;
        dst = dst_at b off;
        proto = proto_at b off;
        ttl = Bytes.get_uint8 b (off + 8);
        ident = Bytes.get_uint16_be b (off + 4);
        payload = Bytes.sub b (off + header_size) payload_len;
      };
    frag_offset = (flags_frag land 0x1fff) * 8;
    more = flags_frag land 0x2000 <> 0;
  }

let parse b =
  match validate ~fragments:false b ~off:0 ~len:(Bytes.length b) with
  | Error e -> Error e
  | Ok payload_len -> Ok (fragment_at b 0 ~payload_len).packet

let parse_fragment b =
  match validate ~fragments:true b ~off:0 ~len:(Bytes.length b) with
  | Error e -> Error e
  | Ok payload_len -> Ok (fragment_at b 0 ~payload_len)

let pp_error ppf = function
  | Truncated n -> Format.fprintf ppf "truncated ipv4 packet (%d bytes)" n
  | Bad_version v -> Format.fprintf ppf "bad ip version %d" v
  | Bad_ihl v -> Format.fprintf ppf "unsupported ihl %d" v
  | Bad_total_length (t, l) ->
      Format.fprintf ppf "bad total length %d (buffer %d)" t l
  | Bad_checksum (e, f) ->
      Format.fprintf ppf "bad ip checksum: expected %#x, found %#x" e f
  | Fragmented -> Format.fprintf ppf "fragmented packet (unsupported)"
  | Ttl_expired -> Format.fprintf ppf "ttl expired"
