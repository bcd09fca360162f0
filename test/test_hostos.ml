(* Tests for the simulated host OS: VFS, NIC, kernel UDP/TCP, poll,
   kernel-side XDP/XSK and io_uring. *)

module K = Hostos.Kernel

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let ip = Packet.Addr.Ip.of_repr

(* Run a single scripted process against a fresh kernel. *)
let in_kernel f =
  let engine = Sim.Engine.create () in
  let kernel = K.create engine () in
  let result = ref None in
  Sim.Engine.spawn engine (fun () ->
      result := Some (f kernel);
      Sim.Engine.stop engine);
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 20.) engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "kernel script did not finish (deadlock?)"

let expect label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" label Abi.Errno.pp e

(* {1 Fbuf} *)

let test_fbuf_write_read () =
  let b = Hostos.Fbuf.create () in
  ignore (Hostos.Fbuf.write b ~off:0 (Bytes.of_string "hello") 0 5);
  let out = Bytes.create 5 in
  check "read" 5 (Hostos.Fbuf.read b ~off:0 out 0 5);
  Alcotest.(check string) "content" "hello" (Bytes.to_string out)

let test_fbuf_sparse_hole () =
  let b = Hostos.Fbuf.create () in
  ignore (Hostos.Fbuf.write b ~off:10 (Bytes.of_string "x") 0 1);
  check "length includes hole" 11 (Hostos.Fbuf.length b);
  let out = Bytes.make 1 'q' in
  ignore (Hostos.Fbuf.read b ~off:5 out 0 1);
  Alcotest.(check char) "hole is zero" '\000' (Bytes.get out 0)

let test_fbuf_read_past_eof () =
  let b = Hostos.Fbuf.create () in
  ignore (Hostos.Fbuf.write b ~off:0 (Bytes.of_string "abc") 0 3);
  let out = Bytes.create 10 in
  check "partial read" 3 (Hostos.Fbuf.read b ~off:0 out 0 10);
  check "eof" 0 (Hostos.Fbuf.read b ~off:3 out 0 10)

let test_fbuf_truncate () =
  let b = Hostos.Fbuf.create () in
  ignore (Hostos.Fbuf.write b ~off:0 (Bytes.of_string "abcdef") 0 6);
  Hostos.Fbuf.truncate b 3;
  Alcotest.(check string) "truncated" "abc" (Hostos.Fbuf.to_string b);
  Hostos.Fbuf.truncate b 5;
  check "extended with zeros" 5 (Hostos.Fbuf.length b)

(* {1 Files via the kernel} *)

let test_file_write_read_roundtrip () =
  let content =
    in_kernel (fun k ->
        let fd = expect "open" (K.openf k ~create:true ~trunc:true "/f") in
        ignore (expect "write" (K.write k fd (Bytes.of_string "payload") 0 7));
        ignore (expect "close" (K.close k fd));
        let fd = expect "reopen" (K.openf k "/f") in
        let buf = Bytes.create 16 in
        let n = expect "read" (K.read k fd buf 0 16) in
        Bytes.sub_string buf 0 n)
  in
  Alcotest.(check string) "roundtrip" "payload" content

let test_file_positions_and_lseek () =
  in_kernel (fun k ->
      let fd = expect "open" (K.openf k ~create:true ~trunc:true "/f") in
      ignore (expect "w1" (K.write k fd (Bytes.of_string "aaaa") 0 4));
      ignore (expect "w2" (K.write k fd (Bytes.of_string "bbbb") 0 4));
      check "size" 8 (expect "fsize" (K.fsize k fd));
      ignore (expect "lseek" (K.lseek k fd 2));
      let buf = Bytes.create 4 in
      ignore (expect "read" (K.read k fd buf 0 4));
      Alcotest.(check string) "seeked read" "aabb" (Bytes.to_string buf))

let test_file_pread_pwrite () =
  in_kernel (fun k ->
      let fd = expect "open" (K.openf k ~create:true ~trunc:true "/f") in
      ignore (expect "pwrite" (K.pwrite k fd ~off:4 (Bytes.of_string "zz") 0 2));
      let buf = Bytes.create 2 in
      ignore (expect "pread" (K.pread k fd ~off:4 buf 0 2));
      Alcotest.(check string) "at offset" "zz" (Bytes.to_string buf);
      ignore (expect "lseek0" (K.lseek k fd 0));
      check "pos unaffected by pread" 0 (expect "lseek" (K.lseek k fd 0)))

let test_file_open_missing () =
  in_kernel (fun k ->
      match K.openf k "/missing" with
      | Error Abi.Errno.ENOENT -> ()
      | _ -> Alcotest.fail "missing file must be ENOENT")

let test_file_io_costs_time () =
  in_kernel (fun k ->
      let fd = expect "open" (K.openf k ~create:true ~trunc:true "/f") in
      let t0 = Sim.Engine.now (K.engine k) in
      ignore (expect "write" (K.write k fd (Bytes.make 4096 'x') 0 4096));
      check_bool "time advanced" true
        (Int64.compare (Sim.Engine.now (K.engine k)) t0 > 0))

let test_close_invalid_fd () =
  in_kernel (fun k ->
      match K.close k 9999 with
      | Error Abi.Errno.EBADF -> ()
      | _ -> Alcotest.fail "expected EBADF")

(* {1 UDP through the kernel + NIC pair} *)

let test_udp_end_to_end () =
  let payload =
    in_kernel (fun k ->
        let server = K.udp_socket k in
        ignore (expect "bind" (K.bind k server (ip "10.0.0.1") 7777));
        let client = K.udp_socket k in
        ignore
          (expect "sendto"
             (K.sendto k client (Bytes.of_string "ping") ~dst:(ip "10.0.0.1", 7777)));
        let data, (src_ip, _) = expect "recv" (K.recvfrom k server ~max:100) in
        check_bool "source is client side" true
          (Packet.Addr.Ip.equal src_ip (ip "10.0.0.2"));
        Bytes.to_string data)
  in
  Alcotest.(check string) "payload" "ping" payload

let test_udp_reply_path () =
  in_kernel (fun k ->
      let server = K.udp_socket k in
      ignore (expect "bind" (K.bind k server (ip "10.0.0.1") 7777));
      let client = K.udp_socket k in
      ignore
        (expect "req" (K.sendto k client (Bytes.of_string "req") ~dst:(ip "10.0.0.1", 7777)));
      let _, src = expect "server recv" (K.recvfrom k server ~max:100) in
      ignore (expect "reply" (K.sendto k server (Bytes.of_string "resp") ~dst:src));
      let data, _ = expect "client recv" (K.recvfrom k client ~max:100) in
      Alcotest.(check string) "reply" "resp" (Bytes.to_string data))

let test_udp_truncation () =
  in_kernel (fun k ->
      let server = K.udp_socket k in
      ignore (expect "bind" (K.bind k server (ip "10.0.0.1") 7777));
      let client = K.udp_socket k in
      ignore
        (expect "send" (K.sendto k client (Bytes.make 100 'x') ~dst:(ip "10.0.0.1", 7777)));
      let data, _ = expect "recv" (K.recvfrom k server ~max:10) in
      check "truncated to max" 10 (Bytes.length data))

let test_udp_oversize_datagram () =
  in_kernel (fun k ->
      let client = K.udp_socket k in
      match K.sendto k client (Bytes.make 3000 'x') ~dst:(ip "10.0.0.1", 7777) with
      | Error Abi.Errno.EMSGSIZE -> ()
      | _ -> Alcotest.fail "expected EMSGSIZE")

let test_udp_port_conflict () =
  in_kernel (fun k ->
      let a = K.udp_socket k and b = K.udp_socket k in
      ignore (expect "bind a" (K.bind k a (ip "10.0.0.1") 7777));
      match K.bind k b (ip "10.0.0.1") 7777 with
      | Error Abi.Errno.EADDRINUSE -> ()
      | _ -> Alcotest.fail "expected EADDRINUSE")

let test_udp_arp_learned () =
  in_kernel (fun k ->
      let server = K.udp_socket k in
      ignore (expect "bind" (K.bind k server (ip "10.0.0.1") 7777));
      let client = K.udp_socket k in
      ignore
        (expect "send" (K.sendto k client (Bytes.of_string "x") ~dst:(ip "10.0.0.1", 7777)));
      ignore (expect "recv" (K.recvfrom k server ~max:10));
      check_bool "wire was used" true (Hostos.Nic.tx_packets (K.nic k 0) > 0))

(* {1 TCP} *)

let test_tcp_connect_send_recv () =
  in_kernel (fun k ->
      let listener = K.tcp_socket k in
      ignore (expect "bind" (K.bind k listener (ip "10.0.0.1") 8080));
      ignore (expect "listen" (K.listen k listener));
      let client = K.tcp_socket k in
      let server_side = ref (-1) in
      Sim.Engine.spawn (K.engine k) (fun () ->
          server_side := expect "accept" (K.accept k listener));
      ignore (expect "connect" (K.connect k client (ip "10.0.0.1") 8080));
      ignore (expect "send" (K.send k client (Bytes.of_string "hello tcp") 0 9));
      Sim.Engine.delay (Sim.Cycles.of_us 100.);
      let buf = Bytes.create 32 in
      let n = expect "recv" (K.recv k !server_side buf 0 32) in
      Alcotest.(check string) "data" "hello tcp" (Bytes.sub_string buf 0 n))

let test_tcp_connect_refused () =
  in_kernel (fun k ->
      let client = K.tcp_socket k in
      match K.connect k client (ip "10.0.0.1") 9 with
      | Error Abi.Errno.ECONNREFUSED -> ()
      | _ -> Alcotest.fail "expected ECONNREFUSED")

let test_tcp_eof_on_close () =
  in_kernel (fun k ->
      let listener = K.tcp_socket k in
      ignore (expect "bind" (K.bind k listener (ip "10.0.0.1") 8081));
      ignore (expect "listen" (K.listen k listener));
      let client = K.tcp_socket k in
      let server_side = ref (-1) in
      Sim.Engine.spawn (K.engine k) (fun () ->
          server_side := expect "accept" (K.accept k listener));
      ignore (expect "connect" (K.connect k client (ip "10.0.0.1") 8081));
      Sim.Engine.delay (Sim.Cycles.of_us 50.);
      ignore (expect "close" (K.close k client));
      let buf = Bytes.create 8 in
      check "eof" 0 (expect "recv" (K.recv k !server_side buf 0 8)))

let test_tcp_partial_reads () =
  in_kernel (fun k ->
      let listener = K.tcp_socket k in
      ignore (expect "bind" (K.bind k listener (ip "10.0.0.1") 8082));
      ignore (expect "listen" (K.listen k listener));
      let client = K.tcp_socket k in
      let server_side = ref (-1) in
      Sim.Engine.spawn (K.engine k) (fun () ->
          server_side := expect "accept" (K.accept k listener));
      ignore (expect "connect" (K.connect k client (ip "10.0.0.1") 8082));
      ignore (expect "send" (K.send k client (Bytes.of_string "abcdef") 0 6));
      Sim.Engine.delay (Sim.Cycles.of_us 50.);
      let buf = Bytes.create 2 in
      let n1 = expect "r1" (K.recv k !server_side buf 0 2) in
      let first = Bytes.sub_string buf 0 n1 in
      let n2 = expect "r2" (K.recv k !server_side buf 0 2) in
      let second = Bytes.sub_string buf 0 n2 in
      Alcotest.(check string) "chunked" "abcd" (first ^ second))

(* {1 Poll} *)

let test_poll_ready_immediately () =
  in_kernel (fun k ->
      let server = K.udp_socket k in
      ignore (expect "bind" (K.bind k server (ip "10.0.0.1") 7000));
      let client = K.udp_socket k in
      ignore (expect "send" (K.sendto k client (Bytes.of_string "x") ~dst:(ip "10.0.0.1", 7000)));
      Sim.Engine.delay (Sim.Cycles.of_us 100.);
      match K.poll k [ (server, [ K.Pollin ]) ] ~timeout:None with
      | Ok [ (_, [ K.Pollin ]) ] -> ()
      | _ -> Alcotest.fail "expected readable")

let test_poll_timeout () =
  in_kernel (fun k ->
      let server = K.udp_socket k in
      ignore (expect "bind" (K.bind k server (ip "10.0.0.1") 7001));
      let t0 = Sim.Engine.now (K.engine k) in
      (match K.poll k [ (server, [ K.Pollin ]) ] ~timeout:(Some 10_000L) with
      | Ok [] -> ()
      | _ -> Alcotest.fail "expected timeout");
      check_bool "waited" true
        (Int64.compare (Sim.Engine.now (K.engine k)) (Int64.add t0 10_000L) >= 0))

let test_poll_wakes_on_arrival () =
  in_kernel (fun k ->
      let server = K.udp_socket k in
      ignore (expect "bind" (K.bind k server (ip "10.0.0.1") 7002));
      let client = K.udp_socket k in
      Sim.Engine.spawn (K.engine k) (fun () ->
          Sim.Engine.delay (Sim.Cycles.of_us 50.);
          ignore (K.sendto k client (Bytes.of_string "x") ~dst:(ip "10.0.0.1", 7002)));
      match K.poll k [ (server, [ K.Pollin ]) ] ~timeout:None with
      | Ok ((_, _) :: _) -> ()
      | _ -> Alcotest.fail "poll never woke")

(* {1 Kernel-side XSK} *)

let make_xsk k =
  let region = Mem.Region.create ~kind:Untrusted ~name:"xsk" ~size:(1 lsl 20) in
  let alloc = Mem.Alloc.create region () in
  K.xsk_create k ~alloc ~umem_size:(64 * 2048) ~frame_size:2048 ~ring_size:16

let test_xsk_create_geometry () =
  in_kernel (fun k ->
      let _, xsk = make_xsk k in
      check "fill size" 16 (Hostos.Xdp.fill_layout xsk).Rings.Layout.size;
      check "frame" 2048 (Hostos.Xdp.frame_size xsk);
      check "umem" (64 * 2048) (Hostos.Xdp.umem_size xsk);
      check_bool "umem untrusted" true
        (Mem.Ptr.is_untrusted (Hostos.Xdp.umem_ptr xsk)))

(* Redirect UDP only: ARP must still reach the kernel stack so the
   client's address resolution works. *)
let udp_only frame =
  match Packet.Frame.peek_udp_ports frame with
  | Some _ -> Hostos.Xdp.Redirect
  | None -> Hostos.Xdp.Pass

let test_xsk_redirect_rx_path () =
  in_kernel (fun k ->
      let _, xsk = make_xsk k in
      K.xsk_attach k ~xsk ~nic_id:0 ~queue:0 ~prog:udp_only;
      (* Stock xFill with one frame at offset 0 (acting as the user). *)
      ignore
        (Rings.Raw.produce (Hostos.Xdp.fill_layout xsk) ~write:(fun ~slot_off ->
             Mem.Region.set_u64 (Hostos.Xdp.fill_layout xsk).Rings.Layout.region
               slot_off (Abi.Xsk_desc.encode_offset 0)));
      (* Drive a frame at queue 0 via the client NIC (steered by source
         port: pick one that lands on queue 0 of a 4-queue NIC). *)
      let client = K.udp_socket k in
      ignore (expect "bind" (K.bind k client (ip "10.0.0.2") 40000));
      ignore
        (expect "send"
           (K.sendto k client (Bytes.of_string "xdp!") ~dst:(ip "10.0.0.1", 4242)));
      Sim.Engine.delay (Sim.Cycles.of_ms 1.);
      check "delivered to xsk" 1 (Hostos.Xdp.rx_delivered xsk);
      check "xRX has one entry" 1 (Rings.Raw.available (Hostos.Xdp.rx_layout xsk));
      (* The packet body must be in UMem at the fill offset. *)
      let umem = Hostos.Xdp.umem_ptr xsk in
      let desc =
        Rings.Raw.consume (Hostos.Xdp.rx_layout xsk) ~read:(fun ~slot_off ->
            Mem.Region.get_u64 (Hostos.Xdp.rx_layout xsk).Rings.Layout.region slot_off)
      in
      match desc with
      | None -> Alcotest.fail "no descriptor"
      | Some d ->
          let offset, len = Abi.Xsk_desc.decode d in
          check "offset" 0 offset;
          let frame = Bytes.create len in
          Mem.Region.blit_to_bytes umem.Mem.Ptr.region
            (umem.Mem.Ptr.off + offset) frame 0 len;
          (match Packet.Frame.dissect_udp frame with
          | Ok (_, payload) ->
              Alcotest.(check string) "payload" "xdp!" (Bytes.to_string payload)
          | Error e -> Alcotest.failf "bad frame: %a" Packet.Frame.pp_dissect_error e))

let test_xsk_drop_without_fill () =
  in_kernel (fun k ->
      let _, xsk = make_xsk k in
      K.xsk_attach k ~xsk ~nic_id:0 ~queue:0 ~prog:udp_only;
      let client = K.udp_socket k in
      ignore (expect "bind" (K.bind k client (ip "10.0.0.2") 40000));
      ignore
        (expect "send"
           (K.sendto k client (Bytes.of_string "lost") ~dst:(ip "10.0.0.1", 4242)));
      Sim.Engine.delay (Sim.Cycles.of_ms 1.);
      check "dropped (QoS: empty xFill)" 1 (Hostos.Xdp.rx_dropped xsk))

let test_xsk_pass_falls_through () =
  in_kernel (fun k ->
      let _, xsk = make_xsk k in
      K.xsk_attach k ~xsk ~nic_id:0 ~queue:0 ~prog:(fun _ -> Hostos.Xdp.Pass);
      let server = K.udp_socket k in
      ignore (expect "bind" (K.bind k server (ip "10.0.0.1") 4242));
      let client = K.udp_socket k in
      ignore (expect "bindc" (K.bind k client (ip "10.0.0.2") 40000));
      ignore
        (expect "send"
           (K.sendto k client (Bytes.of_string "stack") ~dst:(ip "10.0.0.1", 4242)));
      let data, _ = expect "recv" (K.recvfrom k server ~max:100) in
      Alcotest.(check string) "via kernel stack" "stack" (Bytes.to_string data);
      check "xsk untouched" 0 (Hostos.Xdp.rx_delivered xsk))

let test_xsk_tx_path () =
  in_kernel (fun k ->
      let _, xsk = make_xsk k in
      K.xsk_attach k ~xsk ~nic_id:0 ~queue:0 ~prog:(fun _ -> Hostos.Xdp.Pass);
      (* A native socket on the peer side to catch the transmission. *)
      let peer = K.udp_socket k in
      ignore (expect "bind" (K.bind k peer (ip "10.0.0.2") 5555));
      (* Act as the user: craft a frame in UMem, enqueue on xTX. *)
      let frame =
        Packet.Frame.build_udp
          {
            Packet.Frame.src_mac = Hostos.Nic.mac (K.nic k 0);
            dst_mac = Hostos.Nic.mac (K.nic k 1);
            src_ip = ip "10.0.0.1";
            dst_ip = ip "10.0.0.2";
            src_port = 6666;
            dst_port = 5555;
          }
          (Bytes.of_string "from-xsk")
      in
      let umem = Hostos.Xdp.umem_ptr xsk in
      Mem.Region.blit_from_bytes frame 0 umem.Mem.Ptr.region umem.Mem.Ptr.off
        (Bytes.length frame);
      ignore
        (Rings.Raw.produce (Hostos.Xdp.tx_layout xsk) ~write:(fun ~slot_off ->
             Mem.Region.set_u64 (Hostos.Xdp.tx_layout xsk).Rings.Layout.region
               slot_off
               (Abi.Xsk_desc.encode ~offset:0 ~len:(Bytes.length frame))));
      K.xsk_tx_wakeup k xsk;
      let data, _ = expect "peer recv" (K.recvfrom k peer ~max:100) in
      Alcotest.(check string) "transmitted" "from-xsk" (Bytes.to_string data);
      check "tx counted" 1 (Hostos.Xdp.tx_sent xsk);
      check "completion recycled" 1
        (Rings.Raw.available (Hostos.Xdp.compl_layout xsk)))

(* {1 Kernel-side io_uring} *)

let make_uring k =
  let region = Mem.Region.create ~kind:Untrusted ~name:"uring" ~size:(1 lsl 20) in
  let alloc = Mem.Alloc.create region () in
  let fd, uring = K.uring_create k ~alloc ~entries:8 in
  (region, fd, uring)

let submit_and_wait k uring sqe =
  let sq = Hostos.Io_uring.sq_layout uring in
  ignore
    (Rings.Raw.produce sq ~write:(fun ~slot_off ->
         Abi.Uring_abi.write_sqe sq.Rings.Layout.region slot_off sqe));
  K.uring_enter k uring;
  let cq = Hostos.Io_uring.cq_layout uring in
  let deadline = Int64.add (Sim.Engine.now (K.engine k)) (Sim.Cycles.of_sec 5.) in
  let rec wait () =
    match
      Rings.Raw.consume cq ~read:(fun ~slot_off ->
          Abi.Uring_abi.read_cqe cq.Rings.Layout.region slot_off)
    with
    | Some cqe -> cqe
    | None ->
        if Int64.compare (Sim.Engine.now (K.engine k)) deadline > 0 then
          Alcotest.fail "no completion";
        Sim.Engine.delay 1000L;
        wait ()
  in
  wait ()

let base_sqe op fd =
  {
    Abi.Uring_abi.opcode = op;
    fd;
    file_off = 0L;
    addr = 0;
    len = 0;
    poll_events = 0;
    user_data = 77L;
    buf_index = 0;
    fixed = false;
  }

let test_uring_nop () =
  in_kernel (fun k ->
      let _, _, uring = make_uring k in
      let cqe = submit_and_wait k uring (base_sqe Abi.Uring_abi.Nop (-1)) in
      check "res" 0 cqe.res;
      Alcotest.(check int64) "user_data" 77L cqe.user_data)

let test_uring_file_write_read () =
  in_kernel (fun k ->
      let region, _, uring = make_uring k in
      let fd = expect "open" (K.openf k ~create:true ~trunc:true "/u") in
      Mem.Region.write_string region 0x1000 "uring-data";
      let cqe =
        submit_and_wait k uring
          { (base_sqe Abi.Uring_abi.Write fd) with addr = 0x1000; len = 10 }
      in
      check "written" 10 cqe.res;
      let cqe =
        submit_and_wait k uring
          { (base_sqe Abi.Uring_abi.Read fd) with addr = 0x2000; len = 10 }
      in
      check "read" 10 cqe.res;
      Alcotest.(check string) "contents" "uring-data"
        (Mem.Region.read_string region 0x2000 10))

let test_uring_bad_fd () =
  in_kernel (fun k ->
      let _, _, uring = make_uring k in
      let cqe =
        submit_and_wait k uring
          { (base_sqe Abi.Uring_abi.Read 9999) with addr = 0; len = 8 }
      in
      check "EBADF" (Abi.Uring_abi.res_of_errno EBADF) cqe.res)

let test_uring_efault_on_bad_buffer () =
  in_kernel (fun k ->
      let region, _, uring = make_uring k in
      let fd = expect "open" (K.openf k ~create:true ~trunc:true "/u") in
      let cqe =
        submit_and_wait k uring
          {
            (base_sqe Abi.Uring_abi.Write fd) with
            addr = Mem.Region.size region - 4;
            len = 64;
          }
      in
      check "EFAULT" (Abi.Uring_abi.res_of_errno EFAULT) cqe.res)

let test_uring_garbage_sqe () =
  in_kernel (fun k ->
      let _, _, uring = make_uring k in
      let sq = Hostos.Io_uring.sq_layout uring in
      ignore
        (Rings.Raw.produce sq ~write:(fun ~slot_off ->
             Mem.Region.set_u8 sq.Rings.Layout.region slot_off 200));
      K.uring_enter k uring;
      Sim.Engine.delay (Sim.Cycles.of_ms 1.);
      let cq = Hostos.Io_uring.cq_layout uring in
      match
        Rings.Raw.consume cq ~read:(fun ~slot_off ->
            Abi.Uring_abi.read_cqe cq.Rings.Layout.region slot_off)
      with
      | Some cqe -> check "EINVAL" (Abi.Uring_abi.res_of_errno EINVAL) cqe.res
      | None -> Alcotest.fail "no completion for garbage sqe")

let test_uring_poll_blocks_until_ready () =
  in_kernel (fun k ->
      let _, _, uring = make_uring k in
      let server = K.udp_socket k in
      ignore (expect "bind" (K.bind k server (ip "10.0.0.1") 7100));
      let client = K.udp_socket k in
      Sim.Engine.spawn (K.engine k) (fun () ->
          Sim.Engine.delay (Sim.Cycles.of_us 200.);
          ignore
            (K.sendto k client (Bytes.of_string "x") ~dst:(ip "10.0.0.1", 7100)));
      let cqe =
        submit_and_wait k uring
          {
            (base_sqe Abi.Uring_abi.Poll_add server) with
            poll_events = Abi.Uring_abi.pollin;
          }
      in
      check "POLLIN" Abi.Uring_abi.pollin cqe.res)

(* {1 The machine's registry} *)

(* Every kernel and enclave on one engine counts into the engine's
   registry: one cell per name, however many register it. *)
let test_machine_registry_shared () =
  let engine = Sim.Engine.create () in
  let kernels = [ K.create engine (); K.create engine () ] in
  let enclaves =
    [ Sgx.Enclave.create engine ~sgx:true ~name:"a";
      Sgx.Enclave.create engine ~sgx:false ~name:"b" ]
  in
  Sim.Engine.spawn engine (fun () ->
      List.iter
        (fun k ->
          (* no socket on the far port: the host stack drops it *)
          ignore
            (expect "send"
               (K.sendto k (K.udp_socket k) (Bytes.of_string "x")
                  ~dst:(ip "10.0.0.1", 7999))))
        kernels;
      List.iter Sgx.Enclave.ocall enclaves);
  Sim.Engine.run ~until:(Sim.Cycles.of_ms 1.) engine;
  let m = Sim.Engine.stats engine in
  check "both kernels' drops in one cell" 2
    (Obs.Metrics.get_counter m "udp.no_socket_drops");
  check "both enclaves' exits in one cell" 2
    (Obs.Metrics.get_counter m "sgx.exits");
  List.iter
    (fun e -> check "each enclave reads the one cell" 2 (Sgx.Enclave.exits e))
    enclaves;
  let names = List.map fst (Obs.Metrics.counters m) in
  List.iter
    (fun name ->
      check name 1 (List.length (List.filter (String.equal name) names)))
    [ "udp.no_socket_drops"; "udp.buffer_drops"; "sgx.exits";
      "sgx.boundary_bytes" ]

let suite =
  [
    ("fbuf: write/read", `Quick, test_fbuf_write_read);
    ("fbuf: sparse holes are zero", `Quick, test_fbuf_sparse_hole);
    ("fbuf: eof", `Quick, test_fbuf_read_past_eof);
    ("fbuf: truncate", `Quick, test_fbuf_truncate);
    ("file: write/read roundtrip", `Quick, test_file_write_read_roundtrip);
    ("file: positions and lseek", `Quick, test_file_positions_and_lseek);
    ("file: pread/pwrite", `Quick, test_file_pread_pwrite);
    ("file: open missing is ENOENT", `Quick, test_file_open_missing);
    ("file: IO charges simulated time", `Quick, test_file_io_costs_time);
    ("fd: close invalid", `Quick, test_close_invalid_fd);
    ("udp: end-to-end over the wire", `Quick, test_udp_end_to_end);
    ("udp: reply path", `Quick, test_udp_reply_path);
    ("udp: truncation to max", `Quick, test_udp_truncation);
    ("udp: oversize datagram", `Quick, test_udp_oversize_datagram);
    ("udp: port conflict", `Quick, test_udp_port_conflict);
    ("udp: wire and ARP used", `Quick, test_udp_arp_learned);
    ("tcp: connect/send/recv", `Quick, test_tcp_connect_send_recv);
    ("tcp: connection refused", `Quick, test_tcp_connect_refused);
    ("tcp: EOF on close", `Quick, test_tcp_eof_on_close);
    ("tcp: partial reads", `Quick, test_tcp_partial_reads);
    ("poll: immediate readiness", `Quick, test_poll_ready_immediately);
    ("poll: timeout", `Quick, test_poll_timeout);
    ("poll: wakes on arrival", `Quick, test_poll_wakes_on_arrival);
    ("xsk: create geometry", `Quick, test_xsk_create_geometry);
    ("xsk: redirect rx path into UMem", `Quick, test_xsk_redirect_rx_path);
    ("xsk: drop when xFill empty", `Quick, test_xsk_drop_without_fill);
    ("xsk: PASS falls through to kernel stack", `Quick,
     test_xsk_pass_falls_through);
    ("xsk: tx path transmits and completes", `Quick, test_xsk_tx_path);
    ("uring: nop", `Quick, test_uring_nop);
    ("uring: file write/read", `Quick, test_uring_file_write_read);
    ("uring: bad fd", `Quick, test_uring_bad_fd);
    ("uring: EFAULT on bad buffer", `Quick, test_uring_efault_on_bad_buffer);
    ("uring: garbage SQE gets EINVAL", `Quick, test_uring_garbage_sqe);
    ("uring: poll blocks until ready", `Quick,
     test_uring_poll_blocks_until_ready);
    ("machine registry: kernels and enclaves share cells", `Quick,
     test_machine_registry_shared);
  ]
