(* Tests for address parsing, checksums and the Ethernet/ARP/IPv4/UDP
   codecs, including property-based roundtrips and total parsing. *)

open Packet

let mac = Addr.Mac.of_repr "02:00:00:00:00:01"

let mac2 = Addr.Mac.of_repr "02:00:00:00:00:02"

let ip = Addr.Ip.of_repr "10.0.0.1"

let ip2 = Addr.Ip.of_repr "10.0.0.2"

(* {1 Addresses} *)

let test_mac_repr () =
  Alcotest.(check string) "pp" "02:00:00:00:00:01"
    (Format.asprintf "%a" Addr.Mac.pp mac);
  Alcotest.(check bool) "equal" true
    (Addr.Mac.equal mac (Addr.Mac.of_string (Addr.Mac.to_string mac)))

let test_mac_broadcast () =
  Alcotest.(check bool) "broadcast" true
    (Addr.Mac.is_broadcast Addr.Mac.broadcast);
  Alcotest.(check bool) "unicast" false (Addr.Mac.is_broadcast mac)

let test_mac_bad_repr () =
  (match Addr.Mac.of_repr "02:00" with
  | _ -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> ());
  match Addr.Mac.of_string "abc" with
  | _ -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> ()

let test_ip_repr () =
  Alcotest.(check string) "roundtrip" "10.0.0.1" (Addr.Ip.to_repr ip);
  Alcotest.(check int) "int value" 0x0A000001 (Addr.Ip.to_int ip)

let test_ip_bad_repr () =
  List.iter
    (fun s ->
      match Addr.Ip.of_repr s with
      | _ -> Alcotest.fail ("accepted " ^ s)
      | exception Invalid_argument _ -> ())
    [ "10.0.0"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d" ]

(* {1 Checksum} *)

let test_checksum_rfc1071_example () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, cksum 220d. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "checksum" 0x220d (Checksum.compute b 0 8)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* 0x0102 + 0x0300 = 0x0402; ~ = 0xFBFD *)
  Alcotest.(check int) "odd bytes padded" 0xFBFD (Checksum.compute b 0 3)

let test_checksum_self_verifies () =
  let b = Bytes.of_string "\x12\x34\x00\x00\x56\x78" in
  let c = Checksum.compute b 0 6 in
  Bytes.set_uint16_be b 2 c;
  Alcotest.(check bool) "valid" true (Checksum.valid b 0 6)

(* {1 Ethernet} *)

let test_eth_roundtrip () =
  let frame =
    Eth.build { Eth.dst = mac2; src = mac; ethertype = Ipv4; payload = Bytes.of_string "hi" }
  in
  match Eth.parse frame with
  | Error _ -> Alcotest.fail "parse"
  | Ok e ->
      Alcotest.(check bool) "dst" true (Addr.Mac.equal e.dst mac2);
      Alcotest.(check bool) "src" true (Addr.Mac.equal e.src mac);
      Alcotest.(check string) "payload" "hi" (Bytes.to_string e.payload)

let test_eth_truncated () =
  match Eth.parse (Bytes.create 13) with
  | Error (Eth.Truncated 13) -> ()
  | _ -> Alcotest.fail "expected Truncated 13"

let test_eth_ethertype_codes () =
  Alcotest.(check int) "ipv4" 0x0800 (Eth.ethertype_to_int Ipv4);
  Alcotest.(check int) "arp" 0x0806 (Eth.ethertype_to_int Arp);
  Alcotest.(check bool) "unknown roundtrip" true
    (Eth.ethertype_of_int 0x86dd = Eth.Unknown 0x86dd)

(* {1 ARP} *)

let arp_req =
  {
    Arp.op = Request;
    sender_mac = mac;
    sender_ip = ip;
    target_mac = Addr.Mac.zero;
    target_ip = ip2;
  }

let test_arp_roundtrip () =
  match Arp.parse (Arp.build arp_req) with
  | Error _ -> Alcotest.fail "parse"
  | Ok a ->
      Alcotest.(check bool) "op" true (a.op = Arp.Request);
      Alcotest.(check bool) "sender ip" true (Addr.Ip.equal a.sender_ip ip);
      Alcotest.(check bool) "target ip" true (Addr.Ip.equal a.target_ip ip2)

let test_arp_bad_fields () =
  let b = Arp.build arp_req in
  let case mutate expect =
    let b' = Bytes.copy b in
    mutate b';
    match Arp.parse b' with
    | Error e when expect e -> ()
    | _ -> Alcotest.fail "bad field accepted"
  in
  case (fun b -> Bytes.set_uint16_be b 0 7)
    (function Arp.Bad_hardware_type 7 -> true | _ -> false);
  case (fun b -> Bytes.set_uint16_be b 2 0x86dd)
    (function Arp.Bad_protocol_type _ -> true | _ -> false);
  case (fun b -> Bytes.set_uint8 b 4 8)
    (function Arp.Bad_sizes (8, 4) -> true | _ -> false);
  case (fun b -> Bytes.set_uint16_be b 6 3)
    (function Arp.Bad_op 3 -> true | _ -> false)

let test_arp_truncated () =
  match Arp.parse (Bytes.create 27) with
  | Error (Arp.Truncated 27) -> ()
  | _ -> Alcotest.fail "expected truncated"

(* {1 IPv4} *)

let ipv4_pkt payload =
  { Ipv4.src = ip; dst = ip2; proto = Udp; ttl = 64; ident = 7; payload }

let test_ipv4_roundtrip () =
  let b = Ipv4.build (ipv4_pkt (Bytes.of_string "data")) in
  match Ipv4.parse b with
  | Error _ -> Alcotest.fail "parse"
  | Ok p ->
      Alcotest.(check bool) "src" true (Addr.Ip.equal p.src ip);
      Alcotest.(check bool) "proto" true (p.proto = Ipv4.Udp);
      Alcotest.(check int) "ttl" 64 p.ttl;
      Alcotest.(check string) "payload" "data" (Bytes.to_string p.payload)

let test_ipv4_checksum_detects_corruption () =
  let b = Ipv4.build (ipv4_pkt (Bytes.of_string "data")) in
  Bytes.set_uint8 b 8 13 (* flip TTL without fixing checksum *);
  match Ipv4.parse b with
  | Error (Ipv4.Bad_checksum _) -> ()
  | _ -> Alcotest.fail "corrupted header accepted"

let test_ipv4_bad_version () =
  let b = Ipv4.build (ipv4_pkt Bytes.empty) in
  Bytes.set_uint8 b 0 0x65;
  match Ipv4.parse b with
  | Error (Ipv4.Bad_version 6) -> ()
  | _ -> Alcotest.fail "expected bad version"

let test_ipv4_options_rejected () =
  let b = Ipv4.build (ipv4_pkt Bytes.empty) in
  Bytes.set_uint8 b 0 0x46 (* ihl 6 *);
  match Ipv4.parse b with
  | Error (Ipv4.Bad_ihl 6) -> ()
  | _ -> Alcotest.fail "expected bad ihl"

let test_ipv4_total_length_bounds () =
  let b = Ipv4.build (ipv4_pkt (Bytes.of_string "data")) in
  Bytes.set_uint16_be b 2 (Bytes.length b + 1);
  Bytes.set_uint16_be b 10 0;
  Bytes.set_uint16_be b 10 (Checksum.compute b 0 20);
  match Ipv4.parse b with
  | Error (Ipv4.Bad_total_length _) -> ()
  | _ -> Alcotest.fail "oversize total length accepted"

let test_ipv4_payload_trimmed_to_total () =
  (* A frame padded past the IP total length (Ethernet minimum padding)
     must have its payload trimmed. *)
  let b = Ipv4.build (ipv4_pkt (Bytes.of_string "data")) in
  let padded = Bytes.cat b (Bytes.make 10 '\xAA') in
  match Ipv4.parse padded with
  | Ok p -> Alcotest.(check string) "trimmed" "data" (Bytes.to_string p.payload)
  | Error _ -> Alcotest.fail "padded frame rejected"

let test_ipv4_fragment_rejected () =
  let b = Ipv4.build (ipv4_pkt (Bytes.of_string "data")) in
  Bytes.set_uint16_be b 6 0x2000 (* MF set *);
  Bytes.set_uint16_be b 10 0;
  Bytes.set_uint16_be b 10 (Checksum.compute b 0 20);
  match Ipv4.parse b with
  | Error Ipv4.Fragmented -> ()
  | _ -> Alcotest.fail "fragment accepted"

let test_ipv4_ttl_zero () =
  let b = Ipv4.build { (ipv4_pkt Bytes.empty) with ttl = 0 } in
  match Ipv4.parse b with
  | Error Ipv4.Ttl_expired -> ()
  | _ -> Alcotest.fail "ttl 0 accepted"

(* {1 UDP} *)

let test_udp_roundtrip () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 1234; dst_port = 5678; payload = Bytes.of_string "xyz" }
  in
  match Udp.parse ~src:ip ~dst:ip2 b with
  | Error _ -> Alcotest.fail "parse"
  | Ok u ->
      Alcotest.(check int) "src port" 1234 u.src_port;
      Alcotest.(check int) "dst port" 5678 u.dst_port;
      Alcotest.(check string) "payload" "xyz" (Bytes.to_string u.payload)

let test_udp_checksum_covers_pseudo_header () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "xyz" }
  in
  (* Same datagram claimed from a different source must fail. *)
  match Udp.parse ~src:ip2 ~dst:ip2 b with
  | Error (Udp.Bad_checksum _) -> ()
  | _ -> Alcotest.fail "pseudo-header not covered"

let test_udp_corrupt_payload () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "xyz" }
  in
  Bytes.set b (Bytes.length b - 1) 'Q';
  match Udp.parse ~src:ip ~dst:ip2 b with
  | Error (Udp.Bad_checksum _) -> ()
  | _ -> Alcotest.fail "corruption undetected"

let test_udp_zero_checksum_accepted () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "abc" }
  in
  Bytes.set_uint16_be b 6 0 (* checksum disabled *);
  Bytes.set b (Bytes.length b - 1) 'Q' (* corruption invisible *);
  match Udp.parse ~src:ip ~dst:ip2 b with
  | Ok u -> Alcotest.(check string) "payload" "abQ" (Bytes.to_string u.payload)
  | Error _ -> Alcotest.fail "zero checksum rejected"

let test_udp_port_zero_rejected () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 0; dst_port = 2; payload = Bytes.empty }
  in
  match Udp.parse ~src:ip ~dst:ip2 b with
  | Error Udp.Bad_port -> ()
  | _ -> Alcotest.fail "port 0 accepted"

let test_udp_length_field_bounds () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "abc" }
  in
  Bytes.set_uint16_be b 4 100 (* longer than the buffer *);
  match Udp.parse ~src:ip ~dst:ip2 b with
  | Error (Udp.Bad_length (100, 11)) -> ()
  | _ -> Alcotest.fail "bogus length accepted"

(* {1 Frame} *)

let info =
  {
    Frame.src_mac = mac;
    dst_mac = mac2;
    src_ip = ip;
    dst_ip = ip2;
    src_port = 1111;
    dst_port = 2222;
  }

let test_frame_roundtrip () =
  let frame = Frame.build_udp info (Bytes.of_string "payload!") in
  match Frame.dissect_udp frame with
  | Error e -> Alcotest.failf "dissect: %a" Frame.pp_dissect_error e
  | Ok (info', payload) ->
      Alcotest.(check int) "src port" 1111 info'.src_port;
      Alcotest.(check int) "dst port" 2222 info'.dst_port;
      Alcotest.(check bool) "src ip" true (Addr.Ip.equal info'.src_ip ip);
      Alcotest.(check string) "payload" "payload!" (Bytes.to_string payload)

let test_frame_overhead () =
  let frame = Frame.build_udp info (Bytes.of_string "1234") in
  Alcotest.(check int) "overhead" (4 + Frame.frame_overhead)
    (Bytes.length frame)

let test_frame_peek_ports () =
  let frame = Frame.build_udp info (Bytes.of_string "1234") in
  Alcotest.(check int) "dst port" 2222 (Frame.udp_dst_port frame);
  Alcotest.(check int) "arp has none" (-1)
    (Frame.udp_dst_port (Frame.build_arp ~src_mac:mac ~dst_mac:mac2 arp_req));
  Alcotest.(check int) "arp has no queue" (-1)
    (Frame.rss_queue ~queues:4 (Frame.build_arp ~src_mac:mac ~dst_mac:mac2 arp_req))

let test_frame_dissect_rejects_arp () =
  let frame = Frame.build_arp ~src_mac:mac ~dst_mac:mac2 arp_req in
  match Frame.dissect_udp frame with
  | Error Frame.Not_ipv4 -> ()
  | _ -> Alcotest.fail "arp dissected as udp"

(* {1 Properties} *)

let bytes_gen = QCheck.Gen.(map Bytes.of_string (string_size (0 -- 256)))

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp: build/parse roundtrip for any payload"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         triple (1 -- 0xffff) (1 -- 0xffff) bytes_gen))
    (fun (sp, dp, payload) ->
      let b =
        Udp.build ~src:ip ~dst:ip2
          { Udp.src_port = sp; dst_port = dp; payload }
      in
      match Udp.parse ~src:ip ~dst:ip2 b with
      | Ok u ->
          u.src_port = sp && u.dst_port = dp
          && Bytes.equal u.payload payload
      | Error _ -> false)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame: full-stack roundtrip for any payload"
    ~count:300
    (QCheck.make bytes_gen)
    (fun payload ->
      match Frame.dissect_udp (Frame.build_udp info payload) with
      | Ok (_, p) -> Bytes.equal p payload
      | Error _ -> false)

let mac_gen =
  QCheck.Gen.(
    map
      (fun n -> Addr.Mac.of_repr (Printf.sprintf "02:00:00:00:%02x:%02x"
                                    (n lsr 8) (n land 0xff)))
      (0 -- 0xffff))

let ip_gen =
  QCheck.Gen.(
    map
      (fun n -> Addr.Ip.of_repr (Printf.sprintf "10.0.%d.%d" (n lsr 8) (n land 0xff)))
      (0 -- 0xffff))

let prop_eth_roundtrip =
  QCheck.Test.make ~name:"eth: build/parse roundtrip for any header" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (pair mac_gen mac_gen) (pair (0 -- 0xffff) bytes_gen)))
    (fun ((dst, src), (ety, payload)) ->
      let ethertype = Eth.ethertype_of_int ety in
      match Eth.parse (Eth.build { Eth.dst; src; ethertype; payload }) with
      | Ok e ->
          Addr.Mac.equal e.dst dst && Addr.Mac.equal e.src src
          && e.ethertype = ethertype
          && Bytes.equal e.payload payload
      | Error _ -> false)

let prop_arp_roundtrip =
  QCheck.Test.make ~name:"arp: build/parse roundtrip for any addresses"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (pair mac_gen mac_gen) (pair (pair ip_gen ip_gen) bool)))
    (fun ((sender_mac, target_mac), ((sender_ip, target_ip), is_req)) ->
      let pkt =
        { Arp.op = (if is_req then Arp.Request else Arp.Reply);
          sender_mac; sender_ip; target_mac; target_ip }
      in
      match Arp.parse (Arp.build pkt) with
      | Ok p ->
          p.op = pkt.op
          && Addr.Mac.equal p.sender_mac sender_mac
          && Addr.Mac.equal p.target_mac target_mac
          && Addr.Ip.equal p.sender_ip sender_ip
          && Addr.Ip.equal p.target_ip target_ip
      | Error _ -> false)

let prop_ipv4_fragment_roundtrip =
  QCheck.Test.make
    ~name:"ipv4: build_fragment/parse_fragment roundtrip for any geometry"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair
           (pair (0 -- 1000) bool)
           (pair (pair (1 -- 255) (0 -- 0xffff)) bytes_gen)))
    (fun ((off8, more), ((ttl, ident), payload)) ->
      let frag_offset = off8 * 8 in
      let pkt = { Ipv4.src = ip; dst = ip2; proto = Ipv4.Udp; ttl; ident; payload } in
      match Ipv4.parse_fragment (Ipv4.build_fragment pkt ~frag_offset ~more) with
      | Ok f ->
          f.frag_offset = frag_offset && f.more = more
          && Addr.Ip.equal f.packet.src ip
          && Addr.Ip.equal f.packet.dst ip2
          && f.packet.proto = Ipv4.Udp && f.packet.ttl = ttl
          && f.packet.ident = ident
          && Bytes.equal f.packet.payload payload
      | Error _ -> false)

let prop_parsers_total =
  QCheck.Test.make ~name:"parsers: total on arbitrary bytes" ~count:2000
    (QCheck.make bytes_gen)
    (fun b ->
      (match Eth.parse b with Ok _ | Error _ -> ());
      (match Eth.parse_sub b ~len:(Bytes.length b) with Ok _ | Error _ -> ());
      (match Arp.parse b with Ok _ | Error _ -> ());
      (match Ipv4.parse b with Ok _ | Error _ -> ());
      (match Ipv4.parse_fragment b with Ok _ | Error _ -> ());
      (match Udp.parse ~src:ip ~dst:ip2 b with Ok _ | Error _ -> ());
      (match Frame.dissect_udp b with Ok _ | Error _ -> ());
      ignore (Frame.udp_dst_port b);
      ignore (Frame.rss_queue ~queues:4 b);
      true)

let prop_checksum_word_equals_scalar =
  (* The word-parallel ones_sum must agree with the 16-bit reference loop
     for every buffer, offset, length and initial sum.  Buffers reach
     2048 bytes, so the 64-byte block loop runs and leaves every tail
     (whole words, a 32-bit and a 16-bit piece, an odd last byte);
     offsets take every residue mod 8, as the unaligned rx path does. *)
  QCheck.Test.make
    ~name:"checksum: word-at-a-time ones_sum == scalar reference" ~count:2000
    (QCheck.make
       ~print:(fun (b, off, len, init) ->
         Printf.sprintf "n=%d off=%d len=%d init=%d" (Bytes.length b) off len
           init)
       QCheck.Gen.(
         map Bytes.of_string (string_size (0 -- 2048)) >>= fun b ->
         let n = Bytes.length b in
         0 -- 7 >>= fun r ->
         let r = min r n in
         0 -- ((n - r) / 8) >>= fun k ->
         let off = r + (8 * k) in
         pair (0 -- (n - off)) (0 -- 0x1000000) >|= fun (len, init) ->
         (b, off, len, init)))
    (fun (b, off, len, init) ->
      Checksum.ones_sum ~init b off len
      = Checksum.ones_sum_scalar ~init b off len)

let prop_checksum_detects_single_flip =
  QCheck.Test.make
    ~name:"checksum: any single-bit flip in an even-sized buffer is caught"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (map Bytes.of_string (string_size (2 -- 64))) (0 -- 1000)))
    (fun (b, pos) ->
      let b = if Bytes.length b mod 2 = 1 then Bytes.cat b (Bytes.make 1 'x') else b in
      let with_cksum = Bytes.cat b (Bytes.make 2 '\000') in
      let n = Bytes.length with_cksum in
      Bytes.set_uint16_be with_cksum (n - 2) (Checksum.compute with_cksum 0 n);
      let i = pos mod (n - 2) in
      Bytes.set with_cksum i (Char.chr (Char.code (Bytes.get with_cksum i) lxor 1));
      not (Checksum.valid with_cksum 0 n))

let prop_checksum_incremental_chaining =
  (* Summing a prefix and feeding the folded result through [~init] for
     the suffix must equal the one-shot sum — the incremental pattern
     the tx path uses (header sum chained into the payload sum).  The
     split point must be even: RFC 1071's trailing-byte pad only applies
     at the true end of the data. *)
  QCheck.Test.make ~name:"checksum: incremental ~init chaining == one-shot"
    ~count:2000
    (QCheck.make
       QCheck.Gen.(pair (map Bytes.of_string (string_size (0 -- 300))) (0 -- 300)))
    (fun (b, split) ->
      let n = Bytes.length b in
      let k = min n split land lnot 1 in
      Checksum.ones_sum ~init:(Checksum.ones_sum b 0 k) b k (n - k)
      = Checksum.ones_sum b 0 n)

let prop_checksum_odd_pad_equivalence =
  (* An odd-length buffer sums exactly as if zero-padded to even length
     (RFC 1071's virtual trailing zero byte). *)
  QCheck.Test.make ~name:"checksum: odd length == explicit zero pad"
    ~count:1000
    (QCheck.make QCheck.Gen.(map Bytes.of_string (string_size (1 -- 129))))
    (fun b ->
      let b = if Bytes.length b mod 2 = 0 then Bytes.sub b 0 (Bytes.length b - 1) else b in
      let n = Bytes.length b in
      let padded = Bytes.cat b (Bytes.make 1 '\000') in
      Checksum.compute b 0 n = Checksum.compute padded 0 (n + 1)
      && Checksum.ones_sum b 0 n = Checksum.ones_sum padded 0 (n + 1))

let prop_checksum_carries_fold =
  (* Both implementations fold end-around carries completely: any bytes
     and any (even absurdly large) initial sum give a 16-bit result, and
     embedding [compute]'s output makes the region verify. *)
  QCheck.Test.make ~name:"checksum: carries fold to 16 bits, compute/valid roundtrip"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         pair (map Bytes.of_string (string_size (0 -- 200))) (0 -- 0xFFFFFF)))
    (fun (b, init) ->
      let n = Bytes.length b in
      let s = Checksum.ones_sum ~init b 0 n in
      let s' = Checksum.ones_sum_scalar ~init b 0 n in
      (* The embedded field must sit at an even offset (as in every real
         header): pad odd buffers before appending it. *)
      let b = if n mod 2 = 1 then Bytes.cat b (Bytes.make 1 '\000') else b in
      let n' = Bytes.length b in
      let with_cksum = Bytes.cat b (Bytes.make 2 '\000') in
      Bytes.set_uint16_be with_cksum n' (Checksum.compute with_cksum 0 (n' + 2));
      s = s' && s >= 0 && s < 0x10000
      && Checksum.finish s < 0x10000
      && Checksum.valid with_cksum 0 (n' + 2))

(* {1 Differential: in-place validators vs the copying reference}

   [Ref] keeps the copying parsers and the three-stage builder the
   in-place codecs replaced, verbatim in behaviour: every check in the
   same order, every error carrying the same values.  The properties
   below assert identical verdicts, errors and payloads on mutated
   frames. *)

module Ref = struct
  let eth_parse_sub b ~len =
    if len < 0 || len > Bytes.length b then
      invalid_arg "Eth.parse_sub: len out of bounds";
    if len < Eth.header_size then Error (Eth.Truncated len)
    else
      Ok
        {
          Eth.dst = Addr.Mac.of_string (Bytes.sub_string b 0 6);
          src = Addr.Mac.of_string (Bytes.sub_string b 6 6);
          ethertype = Eth.ethertype_of_int (Bytes.get_uint16_be b 12);
          payload = Bytes.sub b Eth.header_size (len - Eth.header_size);
        }

  let eth_parse b = eth_parse_sub b ~len:(Bytes.length b)

  let eth_build (t : Eth.t) =
    let len = Eth.header_size + Bytes.length t.payload in
    let b = Bytes.create len in
    Bytes.blit_string (Addr.Mac.to_string t.dst) 0 b 0 6;
    Bytes.blit_string (Addr.Mac.to_string t.src) 0 b 6 6;
    Bytes.set_uint16_be b 12 (Eth.ethertype_to_int t.ethertype);
    Bytes.blit t.payload 0 b Eth.header_size (Bytes.length t.payload);
    b

  let get_ip b off =
    Addr.Ip.of_int (Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF)

  let set_ip b off ip =
    Bytes.set_int32_be b off (Int32.of_int (Addr.Ip.to_int ip))

  let ipv4_parse_any b =
    let len = Bytes.length b in
    if len < 20 then Error (Ipv4.Truncated len)
    else
      let vihl = Bytes.get_uint8 b 0 in
      let version = vihl lsr 4 and ihl = vihl land 0xf in
      if version <> 4 then Error (Ipv4.Bad_version version)
      else if ihl <> 5 then Error (Ipv4.Bad_ihl ihl)
      else
        let total = Bytes.get_uint16_be b 2 in
        if total < 20 || total > len then
          Error (Ipv4.Bad_total_length (total, len))
        else
          let flags_frag = Bytes.get_uint16_be b 6 in
          let stored = Bytes.get_uint16_be b 10 in
          if not (Checksum.valid b 0 20) then (
            let b' = Bytes.sub b 0 20 in
            Bytes.set_uint16_be b' 10 0;
            Error (Ipv4.Bad_checksum (Checksum.compute b' 0 20, stored)))
          else
            Ok
              {
                Ipv4.packet =
                  {
                    Ipv4.src = get_ip b 12;
                    dst = get_ip b 16;
                    proto = Ipv4.proto_of_int (Bytes.get_uint8 b 9);
                    ttl = Bytes.get_uint8 b 8;
                    ident = Bytes.get_uint16_be b 4;
                    payload = Bytes.sub b 20 (total - 20);
                  };
                frag_offset = (flags_frag land 0x1fff) * 8;
                more = flags_frag land 0x2000 <> 0;
              }

  let ipv4_parse b =
    match ipv4_parse_any b with
    | Error e -> Error e
    | Ok (frag : Ipv4.fragment) ->
        if frag.more || frag.frag_offset <> 0 then Error Ipv4.Fragmented
        else if frag.packet.ttl = 0 then Error Ipv4.Ttl_expired
        else Ok frag.packet

  let ipv4_parse_fragment b =
    match ipv4_parse_any b with
    | Error e -> Error e
    | Ok (frag : Ipv4.fragment) ->
        if frag.packet.ttl = 0 then Error Ipv4.Ttl_expired else Ok frag

  let ipv4_build (t : Ipv4.t) =
    let total = 20 + Bytes.length t.payload in
    let b = Bytes.create total in
    Bytes.set_uint8 b 0 0x45;
    Bytes.set_uint8 b 1 0;
    Bytes.set_uint16_be b 2 total;
    Bytes.set_uint16_be b 4 (t.ident land 0xffff);
    Bytes.set_uint16_be b 6 0;
    Bytes.set_uint8 b 8 (t.ttl land 0xff);
    Bytes.set_uint8 b 9 (Ipv4.proto_to_int t.proto);
    Bytes.set_uint16_be b 10 0;
    set_ip b 12 t.src;
    set_ip b 16 t.dst;
    Bytes.set_uint16_be b 10 (Checksum.compute b 0 20);
    Bytes.blit t.payload 0 b 20 (Bytes.length t.payload);
    b

  let udp_checksum_of ~src ~dst b len =
    let pseudo =
      Checksum.pseudo_header_sum ~src:(Addr.Ip.to_int src)
        ~dst:(Addr.Ip.to_int dst) ~proto:17 ~len
    in
    let c = Checksum.finish (Checksum.ones_sum ~init:pseudo b 0 len) in
    if c = 0 then 0xffff else c

  let udp_build ~src ~dst (t : Udp.t) =
    let len = 8 + Bytes.length t.payload in
    let b = Bytes.create len in
    Bytes.set_uint16_be b 0 (t.src_port land 0xffff);
    Bytes.set_uint16_be b 2 (t.dst_port land 0xffff);
    Bytes.set_uint16_be b 4 len;
    Bytes.set_uint16_be b 6 0;
    Bytes.blit t.payload 0 b 8 (Bytes.length t.payload);
    Bytes.set_uint16_be b 6 (udp_checksum_of ~src ~dst b len);
    b

  let udp_parse ~src ~dst b =
    let blen = Bytes.length b in
    if blen < 8 then Error (Udp.Truncated blen)
    else
      let len = Bytes.get_uint16_be b 4 in
      if len < 8 || len > blen then Error (Udp.Bad_length (len, blen))
      else
        let src_port = Bytes.get_uint16_be b 0 in
        let dst_port = Bytes.get_uint16_be b 2 in
        if src_port = 0 || dst_port = 0 then Error Udp.Bad_port
        else
          let stored = Bytes.get_uint16_be b 6 in
          let ok () =
            Ok { Udp.src_port; dst_port; payload = Bytes.sub b 8 (len - 8) }
          in
          if stored <> 0 then (
            let b' = Bytes.sub b 0 len in
            Bytes.set_uint16_be b' 6 0;
            let expected = udp_checksum_of ~src ~dst b' len in
            if expected <> stored then Error (Udp.Bad_checksum (expected, stored))
            else ok ())
          else ok ()

  let build_udp (info : Frame.udp_info) ~ident payload =
    let udp =
      udp_build ~src:info.src_ip ~dst:info.dst_ip
        { Udp.src_port = info.src_port; dst_port = info.dst_port; payload }
    in
    let ip =
      ipv4_build
        {
          Ipv4.src = info.src_ip;
          dst = info.dst_ip;
          proto = Ipv4.Udp;
          ttl = 64;
          ident;
          payload = udp;
        }
    in
    eth_build
      { Eth.dst = info.dst_mac; src = info.src_mac; ethertype = Ipv4; payload = ip }

  let dissect_udp frame =
    match eth_parse frame with
    | Error e -> Error (Frame.Eth e)
    | Ok eth -> (
        match eth.ethertype with
        | Arp | Unknown _ -> Error Frame.Not_ipv4
        | Ipv4 -> (
            match ipv4_parse eth.payload with
            | Error e -> Error (Frame.Ip e)
            | Ok ip -> (
                match ip.proto with
                | Tcp | Icmp | Other _ -> Error Frame.Not_udp
                | Udp -> (
                    match udp_parse ~src:ip.src ~dst:ip.dst ip.payload with
                    | Error e -> Error (Frame.Udp_err e)
                    | Ok udp ->
                        Ok
                          ( {
                              Frame.src_mac = eth.src;
                              dst_mac = eth.dst;
                              src_ip = ip.src;
                              dst_ip = ip.dst;
                              src_port = udp.src_port;
                              dst_port = udp.dst_port;
                            },
                            udp.payload )))))
end

let info_gen =
  QCheck.Gen.(
    map
      (fun ((src_mac, dst_mac), ((src_ip, dst_ip), (src_port, dst_port))) ->
        { Frame.src_mac; dst_mac; src_ip; dst_ip; src_port; dst_port })
      (pair (pair mac_gen mac_gen)
         (pair (pair ip_gen ip_gen) (pair (1 -- 0xffff) (1 -- 0xffff)))))

(* Rewrite a frame's IPv4 header checksum so a mutation reaches the
   checks behind it. *)
let fix_ip_checksum f =
  if Bytes.length f >= 34 then (
    Bytes.set_uint16_be f 24 0;
    Bytes.set_uint16_be f 24 (Checksum.compute f 14 20))

(* Adjust the first two payload bytes so the datagram's computed UDP
   checksum is 0, which RFC 768 transmits as 0xffff. *)
let zero_sum_payload (info : Frame.udp_info) payload =
  let p = if Bytes.length payload < 2 then Bytes.make 2 '\000' else Bytes.copy payload in
  let udp =
    Udp.build ~src:info.src_ip ~dst:info.dst_ip
      { Udp.src_port = info.src_port; dst_port = info.dst_port; payload = p }
  in
  Bytes.set_uint16_be udp 6 0;
  let s =
    Checksum.ones_sum
      ~init:
        (Checksum.pseudo_header_sum ~src:(Addr.Ip.to_int info.src_ip)
           ~dst:(Addr.Ip.to_int info.dst_ip) ~proto:17 ~len:(Bytes.length udp))
      udp 0 (Bytes.length udp)
  in
  let w = Bytes.get_uint16_be p 0 in
  Bytes.set_uint16_be p 0 ((w + (0xffff - s)) mod 0xffff);
  p

type mutation =
  | Intact
  | Header_byte of int * int  (** offset in 0..41, value *)
  | Truncate of int
  | Udp_cksum_zero
  | Udp_cksum_ffff_zero_sum
  | Udp_cksum_off_by_one of int
  | Ttl_zero
  | Ihl of int
  | Total_over_len
  | Udp_len_over_ip
  | Port_zero of bool
  | More_fragments
  | Frag_offset of int

let mutation_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Intact);
        (8, map2 (fun o v -> Header_byte (o, v)) (0 -- 41) (0 -- 255));
        (3, map (fun n -> Truncate n) (0 -- 1600));
        (1, return Udp_cksum_zero);
        (1, return Udp_cksum_ffff_zero_sum);
        (1, map (fun d -> Udp_cksum_off_by_one d) (oneofl [ -1; 1 ]));
        (1, return Ttl_zero);
        (1, map (fun v -> Ihl v) (oneof [ 0 -- 4; 6 -- 15 ]));
        (1, return Total_over_len);
        (1, return Udp_len_over_ip);
        (1, map (fun b -> Port_zero b) bool);
        (1, return More_fragments);
        (1, map (fun o -> Frag_offset o) (1 -- 0x1fff));
      ])

let apply_mutation f = function
  | Intact | Udp_cksum_ffff_zero_sum -> f
  | Truncate k -> Bytes.sub f 0 (min k (Bytes.length f))
  | _ when Bytes.length f < Frame.frame_overhead -> f
  | Header_byte (o, v) -> Bytes.set_uint8 f o v; f
  | Udp_cksum_zero -> Bytes.set_uint16_be f 40 0; f
  | Udp_cksum_off_by_one d ->
      Bytes.set_uint16_be f 40 ((Bytes.get_uint16_be f 40 + d) land 0xffff);
      f
  | Ttl_zero -> Bytes.set_uint8 f 22 0; f
  | Ihl v -> Bytes.set_uint8 f 14 (0x40 lor v); f
  | Total_over_len -> Bytes.set_uint16_be f 16 (Bytes.length f - 14 + 1); f
  | Udp_len_over_ip -> Bytes.set_uint16_be f 38 (Bytes.length f - 34 + 1); f
  | Port_zero src -> Bytes.set_uint16_be f (if src then 34 else 36) 0; f
  | More_fragments ->
      Bytes.set_uint16_be f 20 (Bytes.get_uint16_be f 20 lor 0x2000);
      f
  | Frag_offset o ->
      Bytes.set_uint16_be f 20 (Bytes.get_uint16_be f 20 land 0xe000 lor o);
      f

(* A built frame, one to three mutations — so that checks meet in every
   order — and whether the IPv4 checksum is repaired afterwards (so
   later checks are reached). *)
let mutated_frame_gen =
  QCheck.Gen.(
    map
      (fun ((info, payload), (ms, fix)) ->
        let payload =
          if List.mem Udp_cksum_ffff_zero_sum ms then
            zero_sum_payload info payload
          else payload
        in
        let f = List.fold_left apply_mutation (Frame.build_udp info payload) ms in
        if fix then fix_ip_checksum f;
        (info, f))
      (pair
         (pair info_gen
            (map Bytes.of_string
               (string_size (frequency [ (4, 0 -- 64); (1, 0 -- 1472) ]))))
         (pair (list_size (1 -- 3) mutation_gen) bool)))

let tail b k =
  if Bytes.length b >= k then Bytes.sub b k (Bytes.length b - k) else Bytes.empty

let prop_codecs_match_reference =
  QCheck.Test.make
    ~name:"codecs: in-place validators match the copying reference"
    ~count:5000
    (QCheck.make QCheck.Gen.(pair mutated_frame_gen (0 -- 1600)))
    (fun (((info : Frame.udp_info), f), cut) ->
      let ip_part = tail f 14 and udp_part = tail f 34 in
      let len = min cut (Bytes.length f) in
      Eth.parse f = Ref.eth_parse f
      && Eth.parse_sub f ~len = Ref.eth_parse_sub f ~len
      && Ipv4.parse ip_part = Ref.ipv4_parse ip_part
      && Ipv4.parse_fragment ip_part = Ref.ipv4_parse_fragment ip_part
      && Udp.parse ~src:info.src_ip ~dst:info.dst_ip udp_part
         = Ref.udp_parse ~src:info.src_ip ~dst:info.dst_ip udp_part
      (* A wrong pseudo-header must fail the same way too. *)
      && Udp.parse ~src:info.dst_ip ~dst:info.dst_ip udp_part
         = Ref.udp_parse ~src:info.dst_ip ~dst:info.dst_ip udp_part
      && Frame.dissect_udp f = Ref.dissect_udp f)

let prop_codecs_match_reference_on_noise =
  QCheck.Test.make
    ~name:"codecs: in-place validators match the reference on raw bytes"
    ~count:2000 (QCheck.make bytes_gen)
    (fun b ->
      Eth.parse b = Ref.eth_parse b
      && Ipv4.parse b = Ref.ipv4_parse b
      && Ipv4.parse_fragment b = Ref.ipv4_parse_fragment b
      && Udp.parse ~src:ip ~dst:ip2 b = Ref.udp_parse ~src:ip ~dst:ip2 b
      && Frame.dissect_udp b = Ref.dissect_udp b)

let prop_build_udp_matches_reference =
  QCheck.Test.make
    ~name:"frame: one-buffer build_udp is byte-identical to the reference"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         pair info_gen
           (map Bytes.of_string
              (string_size (frequency [ (3, 0 -- 64); (1, 0 -- 1472) ])))))
    (fun (info, payload) ->
      let f = Frame.build_udp info payload in
      let ident = Bytes.get_uint16_be f 18 in
      let next = Frame.build_udp info payload in
      Bytes.equal f (Ref.build_udp info ~ident payload)
      && Bytes.get_uint16_be next 18 = (ident + 1) land 0xffff)

(* Every header byte, every value class: the differential check above
   samples offsets; this sweeps them all. *)
let test_codecs_every_header_offset () =
  let payload = Bytes.of_string "every header byte" in
  List.iter
    (fun v ->
      for o = 0 to Frame.frame_overhead - 1 do
        let f = Frame.build_udp info payload in
        Bytes.set_uint8 f o (Bytes.get_uint8 f o lxor v);
        let fixed = Bytes.copy f in
        fix_ip_checksum fixed;
        List.iter
          (fun f ->
            if Frame.dissect_udp f <> Ref.dissect_udp f then
              Alcotest.failf "dissect_udp diverges: byte %d xor %#x" o v)
          [ f; fixed ]
      done)
    [ 0x01; 0x80; 0xff ]

let test_udp_checksum_edge_cases () =
  (* 0xffff standing for a computed 0 is accepted; 0xffff on a datagram
     whose sum is not 0 is rejected with today's expected value. *)
  let p = zero_sum_payload info (Bytes.of_string "zero-sum payload") in
  let f = Frame.build_udp info p in
  Alcotest.(check int) "sent as 0xffff" 0xffff (Bytes.get_uint16_be f 40);
  (match Frame.dissect_udp f with
  | Ok (_, payload) -> Alcotest.(check bytes) "payload" p payload
  | Error e -> Alcotest.failf "rejected: %a" Frame.pp_dissect_error e);
  let f = Frame.build_udp info (Bytes.of_string "ordinary payload") in
  let stored = Bytes.get_uint16_be f 40 in
  Bytes.set_uint16_be f 40 0xffff;
  match Frame.dissect_udp f with
  | Error (Frame.Udp_err (Udp.Bad_checksum (expected, 0xffff))) ->
      Alcotest.(check int) "expected" stored expected
  | _ -> Alcotest.fail "0xffff over a non-zero sum accepted"

let test_build_udp_allocates_one_frame () =
  let payload = Bytes.make Udp.max_payload 'x' in
  let frame_words = (Bytes.length (Frame.build_udp info payload) / 8) + 2 in
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Frame.build_udp info payload))
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  if per > float_of_int (frame_words + 8) then
    Alcotest.failf "build_udp allocated %.1f words (frame %d words)" per
      frame_words

let test_checksum_empty_range_returns_init () =
  let b = Bytes.make 16 '\xff' in
  List.iter
    (fun (init, off, len) ->
      Alcotest.(check int)
        (Printf.sprintf "init %#x, off %d, len %d" init off len)
        (Checksum.ones_sum_scalar ~init b off len)
        (Checksum.ones_sum ~init b off len))
    [ (0, 0, 0); (0x12345, 3, 0); (0xffff, 16, 0); (0x1ffff, 100, -4);
      (7, -1, -1) ];
  Alcotest.(check int) "folded" 0x2346 (Checksum.ones_sum ~init:0x12345 b 3 0)

let test_checksum_range_checked () =
  let b = Bytes.make 64 'x' in
  List.iter
    (fun (off, len) ->
      match Checksum.ones_sum b off len with
      | s -> Alcotest.failf "off %d, len %d summed to %#x" off len s
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, 65); (60, 5); (64, 1); (65, 1); (1, max_int);
      (max_int, 1); (min_int, 8) ]

let test_checksum_allocates_nothing () =
  let b = Bytes.init 1480 (fun i -> Char.chr (i * 7 land 0xff)) in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    ignore (Sys.opaque_identity (Checksum.ones_sum b (i land 7) 1472))
  done;
  ignore (Sys.opaque_identity (Checksum.ones_sum b 0 1480));
  let words = Gc.minor_words () -. w0 in
  if words > 0. then Alcotest.failf "ones_sum allocated %.0f minor words" words

let props =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Flake.rand ()))
    [
      prop_udp_roundtrip;
      prop_frame_roundtrip;
      prop_eth_roundtrip;
      prop_arp_roundtrip;
      prop_ipv4_fragment_roundtrip;
      prop_parsers_total;
      prop_checksum_word_equals_scalar;
      prop_checksum_detects_single_flip;
      prop_checksum_incremental_chaining;
      prop_checksum_odd_pad_equivalence;
      prop_checksum_carries_fold;
    ]

let differential =
  [
    ("codecs: every header offset matches the reference", `Quick,
     test_codecs_every_header_offset);
    ("udp: all-ones checksum edge cases", `Quick, test_udp_checksum_edge_cases);
    ("frame: build_udp allocates one frame", `Quick,
     test_build_udp_allocates_one_frame);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~rand:(Flake.rand ()))
      [
        prop_codecs_match_reference;
        prop_codecs_match_reference_on_noise;
        prop_build_udp_matches_reference;
      ]

(* The steering reads against a reference: the 4-tuple parse the NIC and
   the XDP program used before they read in place (an option and a
   tuple per frame), fed to [Rss.queue].  Frames are built UDP frames
   with random addressing, then truncated or with one of the bytes the
   parse looks at (ethertype, IHL, protocol) overwritten, or plain
   random bytes. *)
let ref_flow frame =
  if Bytes.length frame < Frame.frame_overhead then None
  else if Bytes.get_uint16_be frame 12 <> 0x0800 then None
  else if Bytes.get_uint8 frame 23 <> 17 then None
  else
    let udp_off = Eth.header_size + ((Bytes.get_uint8 frame 14 land 0xf) * 4) in
    if Bytes.length frame < udp_off + 4 then None
    else
      let ip32 off =
        (Bytes.get_uint16_be frame off lsl 16) lor Bytes.get_uint16_be frame (off + 2)
      in
      Some
        ( ip32 (Eth.header_size + 12),
          ip32 (Eth.header_size + 16),
          Bytes.get_uint16_be frame udp_off,
          Bytes.get_uint16_be frame (udp_off + 2) )

let steering_frame_gen =
  let open QCheck.Gen in
  let built =
    map
      (fun (((src_ip, dst_ip), (src_port, dst_port)), (plen, (cut, (at, v)))) ->
        let frame =
          Frame.build_udp
            {
              info with
              Frame.src_ip = Addr.Ip.of_int src_ip;
              dst_ip = Addr.Ip.of_int dst_ip;
              src_port;
              dst_port;
            }
            (Bytes.make plen 'p')
        in
        (match at with
        | 0 -> ()
        | 1 -> Bytes.set_uint8 frame 12 v
        | 2 -> Bytes.set_uint8 frame 14 v
        | _ -> Bytes.set_uint8 frame 23 v);
        Bytes.sub frame 0 (min cut (Bytes.length frame)))
      (pair
         (pair
            (pair (0 -- 0x3FFFFFFF) (0 -- 0x3FFFFFFF))
            (pair (1 -- 0xffff) (1 -- 0xffff)))
         (pair (0 -- 64) (pair (0 -- 200) (pair (0 -- 3) (0 -- 255)))))
  in
  frequency [ (4, built); (1, bytes_gen) ]

let prop_steering_matches_reference =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make
       ~name:"frame: rss_queue and udp_dst_port match the 4-tuple parse"
       ~count:2000
       (QCheck.make ~print:(fun b -> Bytes.to_string b |> String.escaped)
          steering_frame_gen)
       (fun frame ->
         List.for_all
           (fun queues ->
             match ref_flow frame with
             | None ->
                 Frame.rss_queue ~queues frame = -1
                 && Frame.udp_dst_port frame = -1
             | Some (src_ip, dst_ip, src_port, dst_port) ->
                 Frame.rss_queue ~queues frame
                 = Rss.queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port
                 && Frame.udp_dst_port frame = dst_port)
           [ 1; 2; 4; 7 ]))

let suite =
  [
    ("mac: repr roundtrip", `Quick, test_mac_repr);
    ("mac: broadcast", `Quick, test_mac_broadcast);
    ("mac: bad inputs rejected", `Quick, test_mac_bad_repr);
    ("ip: repr roundtrip", `Quick, test_ip_repr);
    ("ip: bad inputs rejected", `Quick, test_ip_bad_repr);
    ("checksum: RFC 1071 example", `Quick, test_checksum_rfc1071_example);
    ("checksum: odd length padded", `Quick, test_checksum_odd_length);
    ("checksum: self-verification", `Quick, test_checksum_self_verifies);
    ("eth: roundtrip", `Quick, test_eth_roundtrip);
    ("eth: truncated", `Quick, test_eth_truncated);
    ("eth: ethertype codes", `Quick, test_eth_ethertype_codes);
    ("arp: roundtrip", `Quick, test_arp_roundtrip);
    ("arp: bad fields rejected", `Quick, test_arp_bad_fields);
    ("arp: truncated", `Quick, test_arp_truncated);
    ("ipv4: roundtrip", `Quick, test_ipv4_roundtrip);
    ("ipv4: checksum detects corruption", `Quick,
     test_ipv4_checksum_detects_corruption);
    ("ipv4: bad version", `Quick, test_ipv4_bad_version);
    ("ipv4: options rejected", `Quick, test_ipv4_options_rejected);
    ("ipv4: total length bounds", `Quick, test_ipv4_total_length_bounds);
    ("ipv4: payload trimmed to total length", `Quick,
     test_ipv4_payload_trimmed_to_total);
    ("ipv4: fragments rejected", `Quick, test_ipv4_fragment_rejected);
    ("ipv4: ttl zero rejected", `Quick, test_ipv4_ttl_zero);
    ("udp: roundtrip", `Quick, test_udp_roundtrip);
    ("udp: pseudo-header coverage", `Quick,
     test_udp_checksum_covers_pseudo_header);
    ("udp: payload corruption detected", `Quick, test_udp_corrupt_payload);
    ("udp: zero checksum accepted", `Quick, test_udp_zero_checksum_accepted);
    ("udp: port zero rejected", `Quick, test_udp_port_zero_rejected);
    ("udp: length field bounds", `Quick, test_udp_length_field_bounds);
    ("frame: roundtrip", `Quick, test_frame_roundtrip);
    ("frame: header overhead", `Quick, test_frame_overhead);
    ("frame: port peek", `Quick, test_frame_peek_ports);
    ("frame: dissect rejects non-UDP", `Quick, test_frame_dissect_rejects_arp);
  ]
  @ props @ differential
  @ [ prop_steering_matches_reference ]
  @ [
      ("checksum: len <= 0 returns the folded init", `Quick,
       test_checksum_empty_range_returns_init);
      ("checksum: an out-of-range (off, len) raises Invalid_argument", `Quick,
       test_checksum_range_checked);
      ("checksum: a 1480-byte sum allocates 0 minor words", `Quick,
       test_checksum_allocates_nothing);
    ]
