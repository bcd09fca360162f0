(* Tests for the in-enclave UDP/IP stack: ARP, delivery, validation
   drops, sockets and locking disciplines. *)

open Netstack

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:01"

let peer_mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:02"

let ip = Packet.Addr.Ip.of_repr "10.0.0.1"

let peer_ip = Packet.Addr.Ip.of_repr "10.0.0.2"

let make_stack ?locking () =
  let engine = Sim.Engine.create () in
  let stack = Stack.create engine ~mac ~ip ?locking () in
  let sent = ref [] in
  Stack.set_transmit stack (fun frame -> sent := frame :: !sent);
  Arp_cache.learn (Stack.arp stack) peer_ip peer_mac;
  (engine, stack, sent)

let udp_frame ?(dst_mac = mac) ?(dst_ip = ip) ?(dst_port = 5201) payload =
  Packet.Frame.build_udp
    {
      Packet.Frame.src_mac = peer_mac;
      dst_mac;
      src_ip = peer_ip;
      dst_ip;
      src_port = 40000;
      dst_port;
    }
    (Bytes.of_string payload)

(* {1 Delivery} *)

let test_delivery_to_bound_socket () =
  let _, stack, _ = make_stack () in
  let sock = Result.get_ok (Stack.bind stack ~port:5201) in
  Stack.input stack (udp_frame "hello enclave");
  check "delivered" 1 (Stack.rx_delivered stack);
  let payload, (src_ip, src_port) = Udp_socket.recvfrom sock ~max:100 in
  Alcotest.(check string) "payload" "hello enclave" (Bytes.to_string payload);
  check "src port" 40000 src_port;
  check_bool "src ip" true (Packet.Addr.Ip.equal src_ip peer_ip)

let test_no_socket_drop () =
  let _, stack, _ = make_stack () in
  Stack.input stack (udp_frame ~dst_port:9 "nobody home");
  check "dropped" 1 (Stack.rx_dropped stack);
  Alcotest.(check (list (pair string int))) "reason" [ ("no-socket", 1) ]
    (Stack.drop_reasons stack)

let test_wrong_mac_dropped () =
  let _, stack, _ = make_stack () in
  ignore (Stack.bind stack ~port:5201);
  Stack.input stack (udp_frame ~dst_mac:peer_mac "not ours");
  check "nothing delivered" 0 (Stack.rx_delivered stack);
  check_bool "not-ours counted" true
    (List.mem_assoc "not-ours" (Stack.drop_reasons stack))

let test_broadcast_mac_accepted () =
  let _, stack, _ = make_stack () in
  let sock = Result.get_ok (Stack.bind stack ~port:5201) in
  Stack.input stack (udp_frame ~dst_mac:Packet.Addr.Mac.broadcast "bcast");
  check "delivered" 1 (Udp_socket.pending sock)

let test_wrong_ip_dropped () =
  let _, stack, _ = make_stack () in
  ignore (Stack.bind stack ~port:5201);
  Stack.input stack (udp_frame ~dst_ip:peer_ip "wrong ip");
  check "nothing delivered" 0 (Stack.rx_delivered stack)

let test_corrupt_ip_checksum_dropped () =
  let _, stack, _ = make_stack () in
  ignore (Stack.bind stack ~port:5201);
  let frame = udp_frame "x" in
  Bytes.set_uint8 frame 22 7 (* corrupt TTL inside IP header *);
  Stack.input stack frame;
  check_bool "bad-ip counted" true
    (List.mem_assoc "bad-ip" (Stack.drop_reasons stack))

let test_corrupt_udp_checksum_dropped () =
  let _, stack, _ = make_stack () in
  ignore (Stack.bind stack ~port:5201);
  let frame = udp_frame "payload" in
  Bytes.set frame (Bytes.length frame - 1) 'Z';
  Stack.input stack frame;
  check_bool "bad-udp counted" true
    (List.mem_assoc "bad-udp" (Stack.drop_reasons stack))

let test_truncated_frame_dropped () =
  let _, stack, _ = make_stack () in
  Stack.input stack (Bytes.create 7);
  check_bool "bad-eth counted" true
    (List.mem_assoc "bad-eth" (Stack.drop_reasons stack))

let test_queue_full_drops () =
  let _, stack, _ = make_stack () in
  let _sock =
    match Stack.bind stack ~port:5201 with
    | Ok s -> s
    | Error _ -> Alcotest.fail "bind"
  in
  (* Default socket queue capacity is 4096. *)
  for _ = 1 to 4097 do
    Stack.input stack (udp_frame "flood")
  done;
  check "delivered to capacity" 4096 (Stack.rx_delivered stack);
  check_bool "queue-full counted" true
    (List.mem_assoc "queue-full" (Stack.drop_reasons stack))

(* {1 ARP} *)

let test_arp_request_answered () =
  let _, stack, sent = make_stack () in
  let req =
    Packet.Frame.build_arp ~src_mac:peer_mac ~dst_mac:Packet.Addr.Mac.broadcast
      {
        Packet.Arp.op = Request;
        sender_mac = peer_mac;
        sender_ip = peer_ip;
        target_mac = Packet.Addr.Mac.zero;
        target_ip = ip;
      }
  in
  Stack.input stack req;
  match !sent with
  | [ frame ] -> (
      match Packet.Eth.parse frame with
      | Ok { ethertype = Arp; payload; _ } -> (
          match Packet.Arp.parse payload with
          | Ok { op = Reply; sender_ip; _ } ->
              check_bool "replies with our ip" true
                (Packet.Addr.Ip.equal sender_ip ip)
          | _ -> Alcotest.fail "not an arp reply")
      | _ -> Alcotest.fail "not an arp frame")
  | _ -> Alcotest.fail "expected exactly one reply"

let test_arp_request_for_other_ip_ignored () =
  let _, stack, sent = make_stack () in
  let req =
    Packet.Frame.build_arp ~src_mac:peer_mac ~dst_mac:Packet.Addr.Mac.broadcast
      {
        Packet.Arp.op = Request;
        sender_mac = peer_mac;
        sender_ip = peer_ip;
        target_mac = Packet.Addr.Mac.zero;
        target_ip = peer_ip;
      }
  in
  Stack.input stack req;
  check "no reply" 0 (List.length !sent)

let test_arp_reply_learned () =
  let _, stack, _ = make_stack () in
  let other_ip = Packet.Addr.Ip.of_repr "10.0.0.3" in
  let other_mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:03" in
  let reply =
    Packet.Frame.build_arp ~src_mac:other_mac ~dst_mac:mac
      {
        Packet.Arp.op = Reply;
        sender_mac = other_mac;
        sender_ip = other_ip;
        target_mac = mac;
        target_ip = ip;
      }
  in
  Stack.input stack reply;
  match Arp_cache.lookup (Stack.arp stack) other_ip with
  | Some m -> check_bool "learned" true (Packet.Addr.Mac.equal m other_mac)
  | None -> Alcotest.fail "not learned"

(* {1 ARP cache bounds (DESIGN.md §16)} *)

let cache_ip n = Packet.Addr.Ip.of_repr (Printf.sprintf "10.0.1.%d" n)

let cache_mac n = Packet.Addr.Mac.of_repr (Printf.sprintf "02:00:00:00:01:%02x" n)

let test_arp_cache_lru_eviction () =
  let engine = Sim.Engine.create () in
  let cache = Arp_cache.create ~capacity:3 engine () in
  for n = 1 to 3 do
    Arp_cache.learn cache (cache_ip n) (cache_mac n)
  done;
  check "full" 3 (Arp_cache.entries cache);
  Arp_cache.learn cache (cache_ip 4) (cache_mac 4);
  check "still bounded" 3 (Arp_cache.entries cache);
  check "one eviction" 1 (Arp_cache.evictions cache);
  check_bool "oldest entry gone" true (Arp_cache.lookup cache (cache_ip 1) = None);
  check_bool "newest entry present" true
    (Arp_cache.lookup cache (cache_ip 4) = Some (cache_mac 4))

let test_arp_cache_lookup_refreshes_lru () =
  let engine = Sim.Engine.create () in
  let cache = Arp_cache.create ~capacity:3 engine () in
  for n = 1 to 3 do
    Arp_cache.learn cache (cache_ip n) (cache_mac n)
  done;
  (* Touch the oldest entry: the next eviction must pick entry 2. *)
  ignore (Arp_cache.lookup cache (cache_ip 1));
  Arp_cache.learn cache (cache_ip 4) (cache_mac 4);
  check_bool "refreshed entry survives" true
    (Arp_cache.lookup cache (cache_ip 1) = Some (cache_mac 1));
  check_bool "unrefreshed entry evicted" true
    (Arp_cache.lookup cache (cache_ip 2) = None)

let test_arp_cache_conflict_keeps_first () =
  let engine = Sim.Engine.create () in
  let cache = Arp_cache.create engine () in
  Arp_cache.learn cache (cache_ip 1) (cache_mac 1);
  (* A spoofed re-learn must not repoint the live binding. *)
  Arp_cache.learn cache (cache_ip 1) (cache_mac 99);
  check_bool "first binding kept" true
    (Arp_cache.lookup cache (cache_ip 1) = Some (cache_mac 1));
  check "conflict counted" 1 (Arp_cache.conflicts cache);
  (* Re-learning the same binding is a refresh, not a conflict. *)
  Arp_cache.learn cache (cache_ip 1) (cache_mac 1);
  check "refresh not counted" 1 (Arp_cache.conflicts cache)

let test_arp_cache_placeholder_semantics () =
  let engine = Sim.Engine.create () in
  let cache = Arp_cache.create engine () in
  (* The failover path parks a broadcast placeholder; real sender
     information must overwrite it without counting a conflict. *)
  Arp_cache.learn cache (cache_ip 1) Packet.Addr.Mac.broadcast;
  Arp_cache.learn cache (cache_ip 1) (cache_mac 1);
  check_bool "placeholder upgraded" true
    (Arp_cache.lookup cache (cache_ip 1) = Some (cache_mac 1));
  (* ...and a placeholder never downgrades a resolved entry. *)
  Arp_cache.learn cache (cache_ip 1) Packet.Addr.Mac.broadcast;
  check_bool "real entry kept" true
    (Arp_cache.lookup cache (cache_ip 1) = Some (cache_mac 1));
  check "no conflicts counted" 0 (Arp_cache.conflicts cache)

(* {1 Fragment reassembly (DESIGN.md §16)} *)

let frag ?(src = peer_ip) ?(ident = 7) ~off ~more payload =
  {
    Packet.Ipv4.packet =
      {
        Packet.Ipv4.src;
        dst = ip;
        proto = Packet.Ipv4.Udp;
        ttl = 64;
        ident;
        payload = Bytes.of_string payload;
      };
    frag_offset = off;
    more;
  }

let check_verdict name expected got =
  let pp = function
    | Reassembly.Complete p -> "complete:" ^ Bytes.to_string p.Packet.Ipv4.payload
    | Reassembly.Pending -> "pending"
    | Reassembly.Rejected r -> "rejected:" ^ Reassembly.reject_name r
  in
  Alcotest.(check string) name (pp expected) (pp got)

let test_reassembly_in_order () =
  let r = Reassembly.create () in
  check_verdict "first half pending" Reassembly.Pending
    (Reassembly.insert r (frag ~off:0 ~more:true "01234567"));
  check_verdict "second half completes"
    (Reassembly.Complete
       ((frag ~off:0 ~more:false "0123456789abcdef").Packet.Ipv4.packet))
    (Reassembly.insert r (frag ~off:8 ~more:false "89abcdef"));
  check "nothing left open" 0 (Reassembly.active r)

let test_reassembly_out_of_order_and_dup () =
  let r = Reassembly.create () in
  let tail = frag ~off:8 ~more:false "89abcdef" in
  check_verdict "tail first pending" Reassembly.Pending (Reassembly.insert r tail);
  check_verdict "exact duplicate absorbed" Reassembly.Pending
    (Reassembly.insert r tail);
  check_verdict "head completes"
    (Reassembly.Complete
       ((frag ~off:0 ~more:false "0123456789abcdef").Packet.Ipv4.packet))
    (Reassembly.insert r (frag ~off:0 ~more:true "01234567"))

let test_reassembly_overlap_poisons () =
  let r = Reassembly.create () in
  ignore (Reassembly.insert r (frag ~off:0 ~more:true "0123456789abcdef"));
  check_verdict "partial overlap rejected" (Reassembly.Rejected Frag_overlap)
    (Reassembly.insert r (frag ~off:8 ~more:false "XXXXXXXX"));
  (* The poisoned reassembly is discarded whole — nothing stitched from
     attacker-chosen overlaps survives; a later fragment starts fresh. *)
  check "poisoned reassembly discarded" 0 (Reassembly.active r);
  check_verdict "later fragment starts fresh" Reassembly.Pending
    (Reassembly.insert r (frag ~off:16 ~more:true "fresh-88"))

let test_reassembly_quotas () =
  let r = Reassembly.create () in
  (* Per-source quota first: one source may hold open at most
     [reassembly_max_per_source] reassemblies. *)
  for ident = 1 to Sgx.Params.reassembly_max_per_source do
    check_verdict "opens under quota" Reassembly.Pending
      (Reassembly.insert r (frag ~ident ~off:0 ~more:true "01234567"))
  done;
  check_verdict "per-source quota enforced"
    (Reassembly.Rejected Frag_src_quota)
    (Reassembly.insert r (frag ~ident:999 ~off:0 ~more:true "01234567"));
  (* Fill the global table from distinct sources... *)
  let src n = Packet.Addr.Ip.of_repr (Printf.sprintf "10.0.2.%d" n) in
  let opened = ref (Reassembly.active r) in
  let n = ref 1 in
  while !opened < Sgx.Params.reassembly_max_datagrams do
    for ident = 1 to Sgx.Params.reassembly_max_per_source do
      if !opened < Sgx.Params.reassembly_max_datagrams then begin
        check_verdict "opens under table cap" Reassembly.Pending
          (Reassembly.insert r (frag ~src:(src !n) ~ident ~off:0 ~more:true "01234567"));
        incr opened
      end
    done;
    incr n
  done;
  (* ...then a fresh source is refused outright. *)
  check_verdict "table quota enforced" (Reassembly.Rejected Frag_table_full)
    (Reassembly.insert r
       (frag ~src:(Packet.Addr.Ip.of_repr "10.0.3.1") ~off:0 ~more:true
          "01234567"))

let test_reassembly_timeout_sweep () =
  let now = ref 0L in
  let r = Reassembly.create ~clock:(fun () -> !now) () in
  ignore (Reassembly.insert r (frag ~ident:1 ~off:0 ~more:true "01234567"));
  check "open" 1 (Reassembly.active r);
  now := Int64.add Sgx.Params.reassembly_timeout 1L;
  (* The sweep is lazy: any insert after the deadline collects it. *)
  ignore (Reassembly.insert r (frag ~ident:2 ~off:0 ~more:true "01234567"));
  check "stale reassembly expired" 1 (Reassembly.expired r);
  check "only the fresh one open" 1 (Reassembly.active r)

(* {1 Reliable datagrams (DESIGN.md §16)} *)

let rdp_addr = (peer_ip, 4242)

let test_rdp_roundtrip () =
  let tx = Rdp.create () and rx = Rdp.create () in
  let wire = Rdp.send tx ~now:0L ~dst:rdp_addr (Bytes.of_string "ping") in
  check "pending until acked" 1 (Rdp.pending tx);
  (match Rdp.input rx ~now:1L ~src:(ip, 4242) wire with
  | Rdp.Deliver (payload, ack) ->
      Alcotest.(check string) "payload" "ping" (Bytes.to_string payload);
      (match Rdp.input tx ~now:2L ~src:rdp_addr ack with
      | Rdp.Acked -> ()
      | _ -> Alcotest.fail "ack not recognised")
  | _ -> Alcotest.fail "data not delivered");
  check "nothing pending" 0 (Rdp.pending tx);
  check "acked counted" 1 (Rdp.acked tx)

let test_rdp_duplicate_suppressed () =
  let tx = Rdp.create () and rx = Rdp.create () in
  let wire = Rdp.send tx ~now:0L ~dst:rdp_addr (Bytes.of_string "once") in
  (match Rdp.input rx ~now:1L ~src:(ip, 4242) wire with
  | Rdp.Deliver _ -> ()
  | _ -> Alcotest.fail "first copy must deliver");
  (match Rdp.input rx ~now:2L ~src:(ip, 4242) wire with
  | Rdp.Duplicate _ -> ()
  | _ -> Alcotest.fail "replayed copy must be suppressed");
  check "dup counted" 1 (Rdp.dups rx)

let test_rdp_retransmit_then_give_up () =
  let tx = Rdp.create ~max_attempts:3 () in
  ignore (Rdp.send tx ~now:0L ~dst:rdp_addr (Bytes.of_string "void"));
  (* Never ack it: each pass of [due] past the deadline retransmits,
     until the attempt budget is spent and the datagram is abandoned. *)
  let now = ref 0L in
  let guard = ref 0 in
  while Rdp.pending tx > 0 && !guard < 100 do
    now := Int64.add !now (Sim.Cycles.of_ms 10.);
    ignore (Rdp.due tx ~now:!now);
    incr guard
  done;
  check "gave up" 1 (Rdp.gave_up tx);
  check "nothing pending" 0 (Rdp.pending tx);
  check "retransmits = attempts - 1" 2 (Rdp.retransmits tx)

let test_rdp_junk_tolerated () =
  let rx = Rdp.create () in
  List.iter
    (fun s ->
      match Rdp.input rx ~now:0L ~src:rdp_addr (Bytes.of_string s) with
      | Rdp.Junk -> ()
      | _ -> Alcotest.fail "junk must be classified as junk")
    [ ""; "R"; "RD"; "RX123"; "QD\x00\x00\x00\x01"; "RD\x00\x00" ];
  check "junk counted" 6 (Rdp.junk rx)

let test_rdp_abandon_accounts () =
  let tx = Rdp.create () in
  for i = 1 to 3 do
    ignore (Rdp.send tx ~now:(Int64.of_int i) ~dst:rdp_addr (Bytes.of_string "x"))
  done;
  Rdp.abandon tx;
  check "all pending abandoned" 0 (Rdp.pending tx);
  check "every give-up accounted" 3 (Rdp.gave_up tx)

(* {1 Send path} *)

let test_sendto_builds_valid_frame () =
  let _, stack, sent = make_stack () in
  (match Stack.sendto stack ~src_port:5201 ~dst:(peer_ip, 6000)
           (Bytes.of_string "outbound")
   with
  | Ok 8 -> ()
  | _ -> Alcotest.fail "sendto");
  match !sent with
  | [ frame ] -> (
      match Packet.Frame.dissect_udp frame with
      | Ok (info, payload) ->
          check "dst port" 6000 info.dst_port;
          check "src port" 5201 info.src_port;
          Alcotest.(check string) "payload" "outbound" (Bytes.to_string payload);
          check_bool "dst mac resolved" true
            (Packet.Addr.Mac.equal info.dst_mac peer_mac)
      | Error e -> Alcotest.failf "invalid frame: %a" Packet.Frame.pp_dissect_error e)
  | _ -> Alcotest.fail "expected one frame"

let test_sendto_too_big () =
  let _, stack, _ = make_stack () in
  match
    Stack.sendto stack ~src_port:1 ~dst:(peer_ip, 6000)
      (Bytes.create (Packet.Udp.max_payload + 1))
  with
  | Error Stack.Payload_too_big -> ()
  | _ -> Alcotest.fail "oversize accepted"

let test_sendto_without_transmit_hook () =
  let engine = Sim.Engine.create () in
  let stack = Stack.create engine ~mac ~ip () in
  match Stack.sendto stack ~src_port:1 ~dst:(peer_ip, 6000) (Bytes.of_string "x") with
  | Error Stack.No_transmit -> ()
  | _ -> Alcotest.fail "expected No_transmit"

(* {1 Sockets / binding} *)

let test_bind_conflict () =
  let _, stack, _ = make_stack () in
  ignore (Stack.bind stack ~port:5201);
  match Stack.bind stack ~port:5201 with
  | Error `Port_in_use -> ()
  | Ok _ -> Alcotest.fail "double bind"

let test_bind_ephemeral () =
  let _, stack, _ = make_stack () in
  let a = Result.get_ok (Stack.bind stack ~port:0) in
  let b = Result.get_ok (Stack.bind stack ~port:0) in
  check_bool "distinct ephemeral ports" true
    (Udp_socket.port a <> Udp_socket.port b)

let test_unbind_frees_port () =
  let _, stack, _ = make_stack () in
  let s = Result.get_ok (Stack.bind stack ~port:5201) in
  Stack.unbind stack s;
  match Stack.bind stack ~port:5201 with
  | Ok _ -> ()
  | Error `Port_in_use -> Alcotest.fail "port not freed"

let test_socket_activity_condition () =
  let engine, stack, _ = make_stack () in
  let sock = Result.get_ok (Stack.bind stack ~port:5201) in
  let woken = ref false in
  Sim.Engine.spawn engine (fun () ->
      Sim.Condition.wait (Udp_socket.activity sock);
      woken := true);
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.delay 100L;
      Stack.input stack (udp_frame "wake"));
  Sim.Engine.run engine;
  check_bool "poller woken" true !woken

(* {1 Locking disciplines} *)

let run_under locking =
  (* Two FM threads feeding the stack concurrently, one user thread
     draining: both disciplines must deliver everything. *)
  let engine = Sim.Engine.create () in
  let stack = Stack.create engine ~mac ~ip ~locking () in
  Stack.set_transmit stack (fun _ -> ());
  let sock = Result.get_ok (Stack.bind stack ~port:5201) in
  let packets = 200 in
  for _ = 1 to 2 do
    Sim.Engine.spawn engine (fun () ->
        for _ = 1 to packets / 2 do
          Stack.input stack (udp_frame "concurrent")
        done)
  done;
  let received = ref 0 in
  Sim.Engine.spawn engine (fun () ->
      for _ = 1 to packets do
        ignore (Udp_socket.recvfrom sock ~max:100);
        incr received
      done;
      Sim.Engine.stop engine);
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 5.) engine;
  (!received, Stack.lock_contention stack)

let test_fine_locking_delivers () =
  let received, _ = run_under `Fine in
  check "all delivered" 200 received

let test_global_locking_delivers () =
  let received, _ = run_under `Global in
  check "all delivered" 200 received

let test_global_lock_contends_more () =
  let _, fine = run_under `Fine in
  let _, global = run_under `Global in
  check_bool "global-lock contention dominates (the paper's LWIP issue)"
    true
    (global > fine)

(* {1 Properties} *)

let prop_stack_total =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"stack: input is total on arbitrary frames"
       ~count:1000
       (QCheck.make QCheck.Gen.(map Bytes.of_string (string_size (0 -- 200))))
       (fun frame ->
         let _, stack, _ = make_stack () in
         ignore (Stack.bind stack ~port:5201);
         Stack.input stack frame;
         true))

let prop_accounting_consistent =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make
       ~name:"stack: every input is delivered, dropped or ARP" ~count:200
       (QCheck.make
          QCheck.Gen.(list_size (1 -- 50) (map Bytes.of_string (string_size (0 -- 100)))))
       (fun frames ->
         let _, stack, _ = make_stack () in
         ignore (Stack.bind stack ~port:5201);
         let valid = List.length frames in
         List.iter (fun f -> Stack.input stack f) frames;
         (* Also mix in some valid traffic. *)
         Stack.input stack (udp_frame "valid");
         Stack.rx_delivered stack + Stack.rx_dropped stack >= 1
         && Stack.rx_delivered stack + Stack.rx_dropped stack <= valid + 1))

(* The receive path validates the staging frame in place: a delivered
   datagram costs its payload copy plus a small constant, never a copy
   per layer. *)
let test_input_borrowed_alloc_budget () =
  let _, stack, _ = make_stack () in
  let sock = Result.get_ok (Stack.bind stack ~port:5201) in
  let frame = udp_frame (String.make Packet.Udp.max_payload 'x') in
  let staging = Bytes.cat frame (Bytes.make 512 '\000') in
  let len = Bytes.length frame in
  let payload_words = (Packet.Udp.max_payload / 8) + 2 in
  let drain () =
    while Udp_socket.pending sock > 0 do
      ignore (Udp_socket.recvfrom sock ~max:2048)
    done
  in
  for _ = 1 to 64 do
    Stack.input_borrowed stack staging ~len
  done;
  drain ();
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Stack.input_borrowed stack staging ~len
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  check "all delivered" (64 + n) (Stack.rx_delivered stack);
  drain ();
  if per > float_of_int (payload_words + 64) then
    Alcotest.failf "input_borrowed allocated %.1f words (payload %d words)" per
      payload_words

(* A dropped frame costs its drop counter bump and nothing else: the
   reason is a constant whose counter handle sits in an array, and the
   Ethernet checks read the frame in place.  The first drop of each
   reason registers its counter; the steady state allocates 0 words. *)
let test_dropped_frame_alloc_free () =
  let _, stack, _ = make_stack () in
  let foreign =
    udp_frame ~dst_mac:(Packet.Addr.Mac.of_repr "02:00:00:00:00:99") "x"
  and runt = Bytes.make 10 '\000' in
  let n = 1000 in
  let words frame =
    Stack.input stack frame;
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      Stack.input stack frame
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let not_ours = words foreign and bad_eth = words runt in
  check "all dropped" (2 * (n + 1)) (Stack.rx_dropped stack);
  Alcotest.(check (list (pair string int)))
    "reasons" [ ("bad-eth", n + 1); ("not-ours", n + 1) ]
    (Stack.drop_reasons stack);
  Alcotest.(check (float 0.)) "not-ours words" 0. not_ours;
  Alcotest.(check (float 0.)) "bad-eth words" 0. bad_eth

let suite =
  [
    ("delivery: bound socket receives", `Quick, test_delivery_to_bound_socket);
    ("delivery: no socket drop", `Quick, test_no_socket_drop);
    ("delivery: wrong mac dropped", `Quick, test_wrong_mac_dropped);
    ("delivery: broadcast mac accepted", `Quick, test_broadcast_mac_accepted);
    ("delivery: wrong ip dropped", `Quick, test_wrong_ip_dropped);
    ("delivery: corrupt ip header dropped", `Quick,
     test_corrupt_ip_checksum_dropped);
    ("delivery: corrupt udp checksum dropped", `Quick,
     test_corrupt_udp_checksum_dropped);
    ("delivery: truncated frame dropped", `Quick, test_truncated_frame_dropped);
    ("delivery: queue-full drops", `Quick, test_queue_full_drops);
    ("arp: request answered", `Quick, test_arp_request_answered);
    ("arp: foreign request ignored", `Quick,
     test_arp_request_for_other_ip_ignored);
    ("arp: reply learned", `Quick, test_arp_reply_learned);
    ("arp-cache: LRU eviction at capacity", `Quick, test_arp_cache_lru_eviction);
    ("arp-cache: lookup refreshes recency", `Quick,
     test_arp_cache_lookup_refreshes_lru);
    ("arp-cache: conflicting re-learn refused", `Quick,
     test_arp_cache_conflict_keeps_first);
    ("arp-cache: failover placeholder semantics", `Quick,
     test_arp_cache_placeholder_semantics);
    ("reassembly: in-order completion", `Quick, test_reassembly_in_order);
    ("reassembly: out-of-order and duplicate", `Quick,
     test_reassembly_out_of_order_and_dup);
    ("reassembly: overlap poisons", `Quick, test_reassembly_overlap_poisons);
    ("reassembly: quotas enforced", `Quick, test_reassembly_quotas);
    ("reassembly: timeout sweep", `Quick, test_reassembly_timeout_sweep);
    ("rdp: send/deliver/ack roundtrip", `Quick, test_rdp_roundtrip);
    ("rdp: duplicate suppressed", `Quick, test_rdp_duplicate_suppressed);
    ("rdp: retransmit then give up", `Quick, test_rdp_retransmit_then_give_up);
    ("rdp: junk tolerated", `Quick, test_rdp_junk_tolerated);
    ("rdp: abandon accounts pending", `Quick, test_rdp_abandon_accounts);
    ("send: builds valid frames", `Quick, test_sendto_builds_valid_frame);
    ("send: oversize rejected", `Quick, test_sendto_too_big);
    ("send: no transmit hook", `Quick, test_sendto_without_transmit_hook);
    ("socket: bind conflict", `Quick, test_bind_conflict);
    ("socket: ephemeral ports", `Quick, test_bind_ephemeral);
    ("socket: unbind frees port", `Quick, test_unbind_frees_port);
    ("socket: activity condition wakes pollers", `Quick,
     test_socket_activity_condition);
    ("locking: fine-grained delivers", `Quick, test_fine_locking_delivers);
    ("locking: global delivers", `Quick, test_global_locking_delivers);
    ("locking: global contends more", `Quick, test_global_lock_contends_more);
    prop_stack_total;
    prop_accounting_consistent;
    ("alloc: input_borrowed copies only the payload", `Quick,
     test_input_borrowed_alloc_budget);
    ("alloc: a dropped frame allocates nothing", `Quick,
     test_dropped_frame_alloc_free);
  ]
