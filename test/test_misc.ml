(* Additional edge-case coverage: NIC steering/pacing/overflow, VFS
   namespace operations, kernel poll corner cases, malice arming, ARP
   emission from the enclave stack, and io_uring FM boundary behaviour. *)

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let ip = Packet.Addr.Ip.of_repr

(* {1 NIC} *)

let nic_fixture () =
  let engine = Sim.Engine.create () in
  let mk id mac_s ip_s =
    Hostos.Nic.create engine ~id
      ~mac:(Packet.Addr.Mac.of_repr mac_s)
      ~ip:(ip ip_s) ~queues:4
  in
  let a = mk 0 "02:00:00:00:00:01" "10.0.0.1" in
  let b = mk 1 "02:00:00:00:00:02" "10.0.0.2" in
  Hostos.Nic.wire a b;
  (engine, a, b)

let udp_frame ~src_port =
  Packet.Frame.build_udp
    {
      Packet.Frame.src_mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:02";
      dst_mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:01";
      src_ip = ip "10.0.0.2";
      dst_ip = ip "10.0.0.1";
      src_port;
      dst_port = 9;
    }
    (Bytes.make 100 'n')

let test_nic_steering_by_source_port () =
  let _, a, _ = nic_fixture () in
  (* RSS: every UDP flow lands on one in-range queue, deterministically. *)
  let queues = Hostos.Nic.queue_count a in
  let spread = Hashtbl.create 8 in
  for src_port = 40000 to 40063 do
    let q = Hostos.Nic.steer a (udp_frame ~src_port) in
    check_bool "queue in range" true (q >= 0 && q < queues);
    check (Printf.sprintf "port %d stable" src_port) q
      (Hostos.Nic.steer a (udp_frame ~src_port));
    Hashtbl.replace spread q ()
  done;
  check_bool "flows spread over >1 queue" true (Hashtbl.length spread > 1);
  check "non-udp -> queue 0" 0 (Hostos.Nic.steer a (Bytes.create 60));
  (* The hash is symmetric: both directions of a flow share a queue, so
     the steer must match Rss.queue with swapped endpoints. *)
  let ip32 s = Packet.Addr.Ip.to_int (ip s) in
  let fwd =
    Packet.Rss.queue ~queues ~src_ip:(ip32 "10.0.0.2")
      ~dst_ip:(ip32 "10.0.0.1") ~src_port:40007 ~dst_port:9
  in
  let rev =
    Packet.Rss.queue ~queues ~src_ip:(ip32 "10.0.0.1")
      ~dst_ip:(ip32 "10.0.0.2") ~src_port:9 ~dst_port:40007
  in
  check "symmetric hash" fwd rev;
  check "steer matches Rss.queue" fwd
    (Hostos.Nic.steer a (udp_frame ~src_port:40007))

let test_nic_wire_pacing () =
  (* One 1500-byte frame at 25 Gbps should take ~1152 cycles on the
     wire: the receive timestamp must reflect it. *)
  let engine, a, b = nic_fixture () in
  let arrived_at = ref 0L in
  Hostos.Nic.set_rx_handler b ~queue:0 (fun _ ~next _ ->
      arrived_at := Sim.Engine.now engine;
      next ());
  let frame = Bytes.create 1500 in
  Sim.Engine.spawn engine (fun () -> Hostos.Nic.transmit a frame);
  Sim.Engine.run ~until:(Sim.Cycles.of_ms 1.) engine;
  let expected = Int64.of_float (1500. *. Sgx.Params.wire_cycles_per_byte) in
  check_bool "paced at the link rate" true
    (Int64.compare !arrived_at expected >= 0
    && Int64.compare !arrived_at (Int64.add expected 100L) <= 0)

let test_nic_counts_traffic () =
  let engine, a, b = nic_fixture () in
  Hostos.Nic.set_rx_handler b ~queue:0 (fun _ ~next _ -> next ());
  Sim.Engine.spawn engine (fun () ->
      for _ = 1 to 5 do
        Hostos.Nic.transmit a (Bytes.create 64)
      done);
  Sim.Engine.run ~until:(Sim.Cycles.of_ms 1.) engine;
  check "tx counted" 5 (Hostos.Nic.tx_packets a);
  check "rx counted" 5 (Hostos.Nic.rx_packets b);
  check "no drops" 0 (Hostos.Nic.drops b)

(* {1 VFS} *)

let test_vfs_unlink () =
  let vfs = Hostos.Vfs.create () in
  ignore (Hostos.Vfs.open_file vfs ~create:true "/a");
  ignore (Hostos.Vfs.open_file vfs ~create:true "/b");
  check "two files" 2 (Hostos.Vfs.file_count vfs);
  (match Hostos.Vfs.unlink vfs "/a" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unlink");
  check "one left" 1 (Hostos.Vfs.file_count vfs);
  match Hostos.Vfs.unlink vfs "/a" with
  | Error Abi.Errno.ENOENT -> ()
  | _ -> Alcotest.fail "double unlink"

let test_vfs_trunc_on_open () =
  let vfs = Hostos.Vfs.create () in
  let inode = Result.get_ok (Hostos.Vfs.open_file vfs ~create:true "/t") in
  ignore (Hostos.Vfs.write vfs inode ~off:0 (Bytes.of_string "data") 0 4);
  let inode' = Result.get_ok (Hostos.Vfs.open_file vfs ~trunc:true "/t") in
  check "truncated" 0 (Hostos.Vfs.size inode');
  Alcotest.(check string) "same inode" (Hostos.Vfs.path inode)
    (Hostos.Vfs.path inode')

(* {1 Kernel poll corner cases} *)

let in_kernel f =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
  let fin = ref false in
  Sim.Engine.spawn engine (fun () ->
      f kernel;
      fin := true;
      Sim.Engine.stop engine);
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 20.) engine;
  if not !fin then Alcotest.fail "kernel script deadlocked"

let test_poll_listener_readable_on_connect () =
  in_kernel (fun k ->
      let l = Hostos.Kernel.tcp_socket k in
      ignore (Hostos.Kernel.bind k l (ip "10.0.0.1") 8200);
      ignore (Hostos.Kernel.listen k l);
      let c = Hostos.Kernel.tcp_socket k in
      Sim.Engine.spawn (Hostos.Kernel.engine k) (fun () ->
          Sim.Engine.delay (Sim.Cycles.of_us 100.);
          ignore (Hostos.Kernel.connect k c (ip "10.0.0.1") 8200));
      match Hostos.Kernel.poll k [ (l, [ `In ]) ] ~timeout:None with
      | Ok [ (_, [ `In ]) ] -> ()
      | _ -> Alcotest.fail "listener never became readable")

let test_poll_tcp_writable_immediately () =
  in_kernel (fun k ->
      let l = Hostos.Kernel.tcp_socket k in
      ignore (Hostos.Kernel.bind k l (ip "10.0.0.1") 8201);
      ignore (Hostos.Kernel.listen k l);
      let c = Hostos.Kernel.tcp_socket k in
      Sim.Engine.spawn (Hostos.Kernel.engine k) (fun () ->
          ignore (Hostos.Kernel.accept k l));
      ignore (Hostos.Kernel.connect k c (ip "10.0.0.1") 8201);
      match
        Hostos.Kernel.poll k [ (c, [ `Out ]) ] ~timeout:None
      with
      | Ok [ (_, [ `Out ]) ] -> ()
      | _ -> Alcotest.fail "fresh connection not writable")

(* No POLLNVAL in this model: an fd that is not open fails the poll at
   once, timed or not, instead of sleeping out the timeout (or, untimed,
   delaying forever). *)
let test_poll_unknown_fd_ebadf () =
  in_kernel (fun k ->
      let e = Hostos.Kernel.engine k in
      let expect_ebadf what specs ~timeout =
        let t0 = Sim.Engine.now e in
        (match Hostos.Kernel.poll k specs ~timeout with
        | Error Abi.Errno.EBADF -> ()
        | _ -> Alcotest.failf "%s: expected EBADF" what);
        check_bool (what ^ ": no wait") true
          (Int64.sub (Sim.Engine.now e) t0 <= Sgx.Params.syscall_cycles)
      in
      expect_ebadf "unknown, timed" [ (424242, [ `In ]) ]
        ~timeout:(Some 1_000_000L);
      let s = Hostos.Kernel.udp_socket k in
      ignore (Hostos.Kernel.close k s);
      expect_ebadf "closed, untimed" [ (s, [ `In ]) ] ~timeout:None;
      let live = Hostos.Kernel.udp_socket k in
      expect_ebadf "one closed of two" [ (live, [ `In ]); (s, [ `In ]) ]
        ~timeout:None)

(* {1 Malice arming} *)

let test_malice_zero_probability_never_fires () =
  let m = Hostos.Malice.create ~seed:1L () in
  Hostos.Malice.arm m (Hostos.Injector.Probability 0.0) Hostos.Malice.Corrupt_packet;
  for _ = 1 to 1000 do
    if Hostos.Malice.roll (Some m) Hostos.Malice.Corrupt_packet then
      Alcotest.fail "p=0 fired"
  done

let test_malice_disarm () =
  let m = Hostos.Malice.create ~seed:1L () in
  Hostos.Malice.arm m (Hostos.Injector.Probability 1.0)
    Hostos.Malice.Prod_overshoot;
  check_bool "armed fires" true (Hostos.Malice.roll (Some m) Prod_overshoot);
  Hostos.Malice.disarm m Hostos.Malice.Prod_overshoot;
  check_bool "disarmed silent" false (Hostos.Malice.roll (Some m) Prod_overshoot);
  check_bool "none adversary silent" false
    (Hostos.Malice.roll None Prod_overshoot)

let test_malice_probability_roughly_respected () =
  let m = Hostos.Malice.create ~seed:3L () in
  Hostos.Malice.arm m (Hostos.Injector.Probability 0.25) Hostos.Malice.Cqe_bogus_res;
  let fired = ref 0 in
  for _ = 1 to 10_000 do
    if Hostos.Malice.roll (Some m) Hostos.Malice.Cqe_bogus_res then incr fired
  done;
  check_bool "close to 25%" true (!fired > 2200 && !fired < 2800)

(* {1 Netstack ARP emission} *)

let test_stack_emits_arp_for_unknown_destination () =
  let engine = Sim.Engine.create () in
  let stack =
    Netstack.Stack.create engine
      ~mac:(Packet.Addr.Mac.of_repr "02:aa:00:00:00:01")
      ~ip:(ip "192.168.0.1") ()
  in
  let sent = ref [] in
  Netstack.Stack.set_transmit stack (fun f -> sent := f :: !sent);
  let result = ref (Error Netstack.Stack.No_transmit) in
  Sim.Engine.spawn engine (fun () ->
      result :=
        Netstack.Stack.sendto stack ~src_port:5000
          ~dst:(ip "192.168.0.99", 6000)
          (Bytes.of_string "x"));
  (* Nobody answers: the resolve gives up after its retries. *)
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 2.) engine;
  (match !result with
  | Error Netstack.Stack.Unresolvable -> ()
  | _ -> Alcotest.fail "expected Unresolvable");
  let arp_requests =
    List.filter
      (fun f ->
        match Packet.Eth.parse f with
        | Ok { ethertype = Arp; _ } -> true
        | _ -> false)
      !sent
  in
  check_bool "arp requests were emitted and retried" true
    (List.length arp_requests >= 2)

(* {1 io_uring FM: short reads at EOF} *)

let test_iouring_fm_short_read_at_eof () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
  let config =
    { Rakis.Config.default with ring_size = 64; umem_size = 256 * 2048 }
  in
  let runtime = Result.get_ok (Rakis.Runtime.boot kernel ~sgx:true ~config ()) in
  let fin = ref false in
  Sim.Engine.spawn engine (fun () ->
      (match Rakis.Runtime.new_thread runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          let fd =
            Result.get_ok (Hostos.Kernel.openf kernel ~create:true "/eof")
          in
          let data = Bytes.of_string "short" in
          ignore
            (Rakis.Syncproxy.io proxy Write ~fd ~off:0 ~buf:data ~pos:0 ~len:5);
          let buf = Bytes.create 100 in
          (match
             Rakis.Syncproxy.io proxy Read ~fd ~off:0 ~buf ~pos:0 ~len:100
           with
          | Ok 5 -> ()
          | Ok n -> Alcotest.failf "expected 5 bytes, got %d" n
          | Error e -> Alcotest.failf "read: %a" Abi.Errno.pp e);
          match
            Rakis.Syncproxy.io proxy Read ~fd ~off:5 ~buf ~pos:0 ~len:100
          with
          | Ok 0 -> ()
          | _ -> Alcotest.fail "expected EOF");
      fin := true;
      Sim.Engine.stop engine);
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 10.) engine;
  check_bool "finished" true !fin

let suite =
  [
    ("nic: RSS steering by source port", `Quick,
     test_nic_steering_by_source_port);
    ("nic: wire pacing at link rate", `Quick, test_nic_wire_pacing);
    ("nic: traffic counters", `Quick, test_nic_counts_traffic);
    ("vfs: unlink", `Quick, test_vfs_unlink);
    ("vfs: truncate on open", `Quick, test_vfs_trunc_on_open);
    ("poll: listener readable on connect", `Quick,
     test_poll_listener_readable_on_connect);
    ("poll: fresh tcp connection writable", `Quick,
     test_poll_tcp_writable_immediately);
    ("poll: unknown fd is EBADF", `Quick, test_poll_unknown_fd_ebadf);
    ("malice: p=0 never fires", `Quick, test_malice_zero_probability_never_fires);
    ("malice: disarm", `Quick, test_malice_disarm);
    ("malice: probability respected", `Quick,
     test_malice_probability_roughly_respected);
    ("netstack: arp emitted and retried for unknown dst", `Quick,
     test_stack_emits_arp_for_unknown_destination);
    ("iouring fm: short read and EOF", `Quick, test_iouring_fm_short_read_at_eof);
  ]
