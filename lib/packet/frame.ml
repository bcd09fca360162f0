type udp_info = {
  src_mac : Addr.Mac.t;
  dst_mac : Addr.Mac.t;
  src_ip : Addr.Ip.t;
  dst_ip : Addr.Ip.t;
  src_port : int;
  dst_port : int;
}

type dissect_error =
  | Eth of Eth.error
  | Not_ipv4
  | Ip of Ipv4.error
  | Not_udp
  | Udp_err of Udp.error

let frame_overhead = Eth.header_size + Ipv4.header_size + Udp.header_size

let ident_counter = ref 0

let ip_off = Eth.header_size

let udp_off = ip_off + Ipv4.header_size

(* One buffer of the final length: headers written in place, the
   payload blitted once, the UDP checksum summed over it where it lies. *)
let build_udp info payload =
  let payload_len = Bytes.length payload in
  let b = Bytes.create (frame_overhead + payload_len) in
  Eth.write_header b ~off:0 ~dst:info.dst_mac ~src:info.src_mac Ipv4;
  incr ident_counter;
  Ipv4.write_header b ~off:ip_off ~src:info.src_ip ~dst:info.dst_ip
    ~proto:Ipv4.Udp ~ttl:64 ~ident:!ident_counter ~flags_frag:0
    ~payload_len:(Udp.header_size + payload_len);
  Bytes.blit payload 0 b frame_overhead payload_len;
  Udp.write_header ~src:info.src_ip ~dst:info.dst_ip b ~off:udp_off
    ~src_port:info.src_port ~dst_port:info.dst_port ~payload_len;
  b

let validate_udp frame =
  match Eth.validate frame ~off:0 ~len:(Bytes.length frame) with
  | -1 -> Error (Eth (Truncated (Bytes.length frame)))
  | eth_len -> (
      match Eth.ethertype_at frame 0 with
      | Arp | Unknown _ -> Error Not_ipv4
      | Ipv4 -> (
          match
            Ipv4.validate ~fragments:false frame ~off:ip_off ~len:eth_len
          with
          | Error e -> Error (Ip e)
          | Ok ip_len -> (
              match Ipv4.proto_at frame ip_off with
              | Tcp | Icmp | Other _ -> Error Not_udp
              | Udp -> (
                  match
                    Udp.validate ~src:(Ipv4.src_at frame ip_off)
                      ~dst:(Ipv4.dst_at frame ip_off) frame ~off:udp_off
                      ~len:ip_len
                  with
                  | Error e -> Error (Udp_err e)
                  | Ok _ as ok -> ok))))

let udp_info frame =
  {
    src_mac = Eth.src_at frame 0;
    dst_mac = Eth.dst_at frame 0;
    src_ip = Ipv4.src_at frame ip_off;
    dst_ip = Ipv4.dst_at frame ip_off;
    src_port = Udp.src_port_at frame udp_off;
    dst_port = Udp.dst_port_at frame udp_off;
  }

let dissect_udp frame =
  match validate_udp frame with
  | Error e -> Error e
  | Ok payload_len ->
      Ok (udp_info frame, Bytes.sub frame frame_overhead payload_len)

let build_arp ~src_mac ~dst_mac arp =
  Eth.build
    {
      Eth.dst = dst_mac;
      src = src_mac;
      ethertype = Arp;
      payload = Arp.build arp;
    }

let pp_dissect_error ppf = function
  | Eth e -> Eth.pp_error ppf e
  | Not_ipv4 -> Format.fprintf ppf "not an ipv4 frame"
  | Ip e -> Ipv4.pp_error ppf e
  | Not_udp -> Format.fprintf ppf "not a udp packet"
  | Udp_err e -> Udp.pp_error ppf e

(* Cheap un-validated reads used for steering, mirroring hardware RSS
   and the XDP program; full validation happens later in whichever
   stack consumes the frame.  [peek_udp_off frame] is where the UDP
   header starts, or -1 unless the frame is long enough to be IPv4/UDP
   with both ports present. *)
let peek_udp_off frame =
  if Bytes.length frame < frame_overhead then -1
  else if Bytes.get_uint16_be frame 12 <> 0x0800 then -1
  else if Bytes.get_uint8 frame 23 <> 17 then -1
  else
    let off = Eth.header_size + ((Bytes.get_uint8 frame 14 land 0xf) * 4) in
    if Bytes.length frame < off + 4 then -1 else off

let udp_dst_port frame =
  let off = peek_udp_off frame in
  if off < 0 then -1 else Bytes.get_uint16_be frame (off + 2)

(* An IPv4 address in host order, straight from the header. *)
let ip32_at frame o =
  (Bytes.get_uint16_be frame o lsl 16) lor Bytes.get_uint16_be frame (o + 2)

let rss_queue ~queues frame =
  let off = peek_udp_off frame in
  if off < 0 then -1
  else
    Rss.queue ~queues
      ~src_ip:(ip32_at frame (Eth.header_size + 12))
      ~dst_ip:(ip32_at frame (Eth.header_size + 16))
      ~src_port:(Bytes.get_uint16_be frame off)
      ~dst_port:(Bytes.get_uint16_be frame (off + 2))
