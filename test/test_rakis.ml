(* Tests for RAKIS proper: UMem ownership allocator, the XSK and
   io_uring FastPath Modules (including initialization validation and
   behaviour under the adversarial kernel), SyncProxy and the Monitor
   Module. *)

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* {1 UMem allocator} *)

let umem () = Rakis.Umem.create ~size:(8 * 64) ~frame_size:64 ()

let test_umem_initially_owned () =
  let u = umem () in
  check "all free" 8 (Rakis.Umem.free_frames u);
  check "frame count" 8 (Rakis.Umem.frame_count u)

let test_umem_alloc_commit_reclaim_cycle () =
  let u = umem () in
  let off = Option.get (Rakis.Umem.alloc u) in
  check "one taken" 7 (Rakis.Umem.free_frames u);
  Rakis.Umem.commit u off Rakis.Umem.Rx;
  check "outstanding rx" 1 (Rakis.Umem.outstanding u Rakis.Umem.Rx);
  (match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off ~len:60 () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reclaim: %a" Rakis.Umem.pp_reject e);
  check "back in pool" 8 (Rakis.Umem.free_frames u)

let test_umem_exhaustion () =
  let u = umem () in
  for _ = 1 to 8 do
    ignore (Option.get (Rakis.Umem.alloc u))
  done;
  check_bool "exhausted" true (Rakis.Umem.alloc u = None)

let test_umem_cancel () =
  let u = umem () in
  let off = Option.get (Rakis.Umem.alloc u) in
  Rakis.Umem.cancel u off;
  check "returned" 8 (Rakis.Umem.free_frames u)

let test_umem_reclaim_out_of_range () =
  let u = umem () in
  (match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:(8 * 64) () with
  | Error (Rakis.Umem.Out_of_range _) -> ()
  | _ -> Alcotest.fail "oob accepted");
  match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:(-64) () with
  | Error (Rakis.Umem.Out_of_range _) -> ()
  | _ -> Alcotest.fail "negative accepted"

let test_umem_reclaim_misaligned () =
  let u = umem () in
  match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:3 () with
  | Error (Rakis.Umem.Misaligned 3) -> ()
  | _ -> Alcotest.fail "misaligned accepted"

let test_umem_reclaim_wrong_routine () =
  (* A frame handed to the send routine must not be accepted back from
     the receive routine — the cross-routine confusion attack. *)
  let u = umem () in
  let off = Option.get (Rakis.Umem.alloc u) in
  Rakis.Umem.commit u off Rakis.Umem.Tx;
  (match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off () with
  | Error (Rakis.Umem.Wrong_owner _) -> ()
  | _ -> Alcotest.fail "cross-routine reclaim accepted");
  check "reject counted" 1 (Rakis.Umem.rejects u)

let test_umem_double_reclaim () =
  (* The kernel claiming the same frame twice must be refused the
     second time (double-ownership attack). *)
  let u = umem () in
  let off = Option.get (Rakis.Umem.alloc u) in
  Rakis.Umem.commit u off Rakis.Umem.Rx;
  ignore (Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off ());
  match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off () with
  | Error (Rakis.Umem.Wrong_owner _) -> ()
  | _ -> Alcotest.fail "double reclaim accepted"

let test_umem_never_owned_reclaim () =
  let u = umem () in
  match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:0 () with
  | Error (Rakis.Umem.Wrong_owner _) -> ()
  | _ -> Alcotest.fail "unowned frame accepted"

let test_umem_oversize_len () =
  let u = umem () in
  let off = Option.get (Rakis.Umem.alloc u) in
  Rakis.Umem.commit u off Rakis.Umem.Rx;
  match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off ~len:65 () with
  | Error (Rakis.Umem.Oversize _) -> ()
  | _ -> Alcotest.fail "oversize descriptor accepted"

let test_umem_no_duplicate_free_frames () =
  (* After arbitrary (valid) traffic, the free pool never contains the
     same frame twice. *)
  let u = umem () in
  let rng = Sim.Rng.create ~seed:11L in
  let outstanding = ref [] in
  for _ = 1 to 500 do
    if Sim.Rng.bool rng then (
      match Rakis.Umem.alloc u with
      | Some off ->
          let r = if Sim.Rng.bool rng then Rakis.Umem.Rx else Rakis.Umem.Tx in
          Rakis.Umem.commit u off r;
          outstanding := (off, r) :: !outstanding
      | None -> ())
    else
      match !outstanding with
      | [] -> ()
      | (off, r) :: rest ->
          outstanding := rest;
          ignore (Rakis.Umem.reclaim u r ~offset:off ())
  done;
  check "conservation" 8 (Rakis.Umem.free_frames u + List.length !outstanding);
  check "no rejects in honest run" 0 (Rakis.Umem.rejects u)

(* The free list the UMem allocator kept before it became an int ring:
   a [Queue] of frame indices beside the ownership states.  Only what
   decides the order frames are handed out in is kept. *)
module Ref_umem = struct
  type st = Owned | Allocated | Kernel of Rakis.Umem.routine

  type t = { frame_size : int; st : st array; free : int Queue.t }

  let create ~frames ~frame_size =
    let free = Queue.create () in
    for i = 0 to frames - 1 do
      Queue.add i free
    done;
    { frame_size; st = Array.make frames Owned; free }

  let alloc t =
    match Queue.take_opt t.free with
    | None -> None
    | Some i ->
        t.st.(i) <- Allocated;
        Some (i * t.frame_size)

  let commit t off r =
    let i = off / t.frame_size in
    t.st.(i) = Allocated && (t.st.(i) <- Kernel r; true)

  let cancel t off =
    let i = off / t.frame_size in
    t.st.(i) = Allocated
    && (t.st.(i) <- Owned;
        Queue.add i t.free;
        true)

  let reclaim t r off =
    let i = off / t.frame_size in
    t.st.(i) = Kernel r
    && (t.st.(i) <- Owned;
        Queue.add i t.free;
        true)

  let reclaim_outstanding ?only t =
    let n = ref 0 in
    Array.iteri
      (fun i s ->
        match s with
        | Kernel r when Option.fold ~none:true ~some:(( = ) r) only ->
            t.st.(i) <- Owned;
            Queue.add i t.free;
            incr n
        | Kernel _ | Owned | Allocated -> ())
      t.st;
    !n
end

type umem_op =
  | Alloc
  | Commit of int * Rakis.Umem.routine
  | Cancel of int
  | Reclaim of int * Rakis.Umem.routine
  | Reclaim_outstanding of Rakis.Umem.routine option

let prop_umem_free_ring_order =
  (* 5 frames: the ring's capacity is no power of two, and a few hundred
     operations wrap it many times over. *)
  let frames = 5 and frame_size = 64 in
  let routine = QCheck.Gen.oneofl [ Rakis.Umem.Rx; Rakis.Umem.Tx ] in
  let frame = QCheck.Gen.(0 -- (frames - 1)) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, return Alloc);
          (3, map2 (fun f r -> Commit (f, r)) frame routine);
          (1, map (fun f -> Cancel f) frame);
          (3, map2 (fun f r -> Reclaim (f, r)) frame routine);
          (1, map (fun r -> Reclaim_outstanding r) (opt routine));
        ])
  in
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make
       ~name:"umem: free ring hands out frames in the old Queue's order"
       ~count:300
       (QCheck.make QCheck.Gen.(list_size (0 -- 300) op))
       (fun ops ->
         let u = Rakis.Umem.create ~size:(frames * frame_size) ~frame_size () in
         let m = Ref_umem.create ~frames ~frame_size in
         let succeeds f =
           match f () with () -> true | exception Invalid_argument _ -> false
         in
         List.for_all
           (fun op ->
             (match op with
             | Alloc -> Rakis.Umem.alloc u = Ref_umem.alloc m
             | Commit (f, r) ->
                 let off = f * frame_size in
                 succeeds (fun () -> Rakis.Umem.commit u off r)
                 = Ref_umem.commit m off r
             | Cancel f ->
                 let off = f * frame_size in
                 succeeds (fun () -> Rakis.Umem.cancel u off)
                 = Ref_umem.cancel m off
             | Reclaim (f, r) ->
                 let offset = f * frame_size in
                 Result.is_ok (Rakis.Umem.reclaim u r ~offset ())
                 = Ref_umem.reclaim m r offset
             | Reclaim_outstanding only ->
                 Rakis.Umem.reclaim_outstanding ?only u
                 = Ref_umem.reclaim_outstanding ?only m)
             && Rakis.Umem.free_frames u = Queue.length m.Ref_umem.free
             && Rakis.Umem.conservation_holds u)
           ops))

(* {1 Full-system fixtures} *)

type fixture = {
  engine : Sim.Engine.t;
  kernel : Hostos.Kernel.t;
  runtime : Rakis.Runtime.t;
}

let boot ?config ?(nic_queues = 1) () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine ~nic_queues () in
  match Rakis.Runtime.boot kernel ~sgx:true ?config () with
  | Error e -> Alcotest.fail e
  | Ok runtime -> { engine; kernel; runtime }

let small_config =
  {
    Rakis.Config.default with
    ring_size = 64;
    umem_size = 256 * 2048;
    uring_entries = 16;
    max_io_size = 1 lsl 16;
  }

let run_script fx f =
  let finished = ref false in
  Sim.Engine.spawn fx.engine (fun () ->
      f ();
      finished := true;
      Sim.Engine.stop fx.engine);
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 30.) fx.engine;
  if not !finished then Alcotest.fail "script did not finish (deadlock?)"

let native_client fx = Libos.Hostapi.native fx.kernel

(* {1 Boot-time validation (Table 2, initialization rows)} *)

(* The shard wiring a standalone FM is created with: a real (unstarted)
   Monitor and XSK breaker on [kernel], no overload controller. *)
let fm_wiring engine kernel =
  ( Rakis.Monitor.create engine ~kernel,
    Rakis.Health.create ~name:"xsk" ~clock:(fun () -> Sim.Engine.now engine) () )

let test_boot_rejects_trusted_pointers () =
  (* An XSK whose rings live in trusted memory must be refused. *)
  let engine = Sim.Engine.create () in
  let region = Mem.Region.create ~kind:Trusted ~name:"evil" ~size:(1 lsl 22) in
  let alloc = Mem.Alloc.create region () in
  let kernel = Hostos.Kernel.create engine () in
  let xdp = Hostos.Xdp.create engine ~malice:(ref None) in
  let xsk =
    Hostos.Xdp.create_xsk xdp ~alloc ~umem_size:(64 * 2048) ~frame_size:2048
      ~ring_size:64
  in
  let enclave = Sgx.Enclave.create engine ~sgx:true ~name:"t" in
  let stack =
    Netstack.Stack.create engine ~mac:Rakis.Config.default.mac
      ~ip:Rakis.Config.default.ip ()
  in
  let monitor, breaker = fm_wiring engine kernel in
  match
    Rakis.Xsk_fm.create ~enclave ~kernel
      ~config:{ small_config with umem_size = 64 * 2048 }
      ~stack ~monitor ~breaker ~overload:None ~fd:3 ~xsk ()
  with
  | Error (Rakis.Xsk_fm.Pointer_in_trusted _) -> ()
  | Ok _ -> Alcotest.fail "trusted pointers accepted (Appendix A attack)"
  | Error e -> Alcotest.failf "unexpected: %a" Rakis.Xsk_fm.pp_init_error e

let test_boot_rejects_negative_fd () =
  let engine = Sim.Engine.create () in
  let region = Mem.Region.create ~kind:Untrusted ~name:"sh" ~size:(1 lsl 22) in
  let alloc = Mem.Alloc.create region () in
  let xdp = Hostos.Xdp.create engine ~malice:(ref None) in
  let xsk =
    Hostos.Xdp.create_xsk xdp ~alloc ~umem_size:(64 * 2048) ~frame_size:2048
      ~ring_size:64
  in
  let enclave = Sgx.Enclave.create engine ~sgx:true ~name:"t" in
  let stack =
    Netstack.Stack.create engine ~mac:Rakis.Config.default.mac
      ~ip:Rakis.Config.default.ip ()
  in
  let kernel = Hostos.Kernel.create engine () in
  let monitor, breaker = fm_wiring engine kernel in
  match
    Rakis.Xsk_fm.create ~enclave ~kernel
      ~config:{ small_config with umem_size = 64 * 2048 }
      ~stack ~monitor ~breaker ~overload:None ~fd:(-1) ~xsk ()
  with
  | Error (Rakis.Xsk_fm.Bad_fd _) -> ()
  | _ -> Alcotest.fail "negative fd accepted"

let test_boot_validates_config () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
  match
    Rakis.Runtime.boot kernel ~sgx:true
      ~config:{ Rakis.Config.default with ring_size = 100 }
      ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-pow2 ring accepted"

(* One bad value per [Config.validate] rule; the default passes. *)
let test_config_validate_rules () =
  let d = Rakis.Config.default in
  let frame = Sgx.Params.umem_frame_size in
  (match Rakis.Config.validate d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default rejected: %s" e);
  List.iter
    (fun (what, cfg) ->
      match Rakis.Config.validate cfg with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted" what)
    [
      ("num_xsks = 0", { d with num_xsks = 0 });
      ("num_queues = 0", { d with num_queues = 0 });
      ("ring_size = 100", { d with ring_size = 100 });
      ("uring_entries = 100", { d with uring_entries = 100 });
      ("umem_size not whole frames", { d with umem_size = d.umem_size + 1 });
      ( "umem below 2 * ring_size frames",
        { d with umem_size = ((2 * d.ring_size) - 1) * frame } );
      ("max_io_size = 0", { d with max_io_size = 0 });
      ("max_pending = 0", { d with max_pending = 0 });
    ]

let test_iouring_fm_rejects_trusted_bounce () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
  let region = Mem.Region.create ~kind:Untrusted ~name:"sh" ~size:(1 lsl 20) in
  let alloc = Mem.Alloc.create region () in
  let _, uring = Hostos.Kernel.uring_create kernel ~alloc ~entries:16 in
  let enclave = Sgx.Enclave.create engine ~sgx:true ~name:"t" in
  let trusted = Mem.Region.create ~kind:Trusted ~name:"tr" ~size:(1 lsl 20) in
  let monitor, breaker = fm_wiring engine kernel in
  match
    Rakis.Iouring_fm.create ~enclave ~config:small_config ~monitor ~breaker
      ~fd:4 ~uring ~bounce:(Mem.Ptr.v trusted 0) ()
  with
  | Error (Rakis.Iouring_fm.Pointer_in_trusted _) -> ()
  | _ -> Alcotest.fail "trusted bounce buffer accepted"

(* {1 End-to-end RAKIS UDP} *)

let test_rakis_udp_echo_roundtrip () =
  let fx = boot ~config:small_config () in
  let client = native_client fx in
  (* Enclave-side echo server. *)
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket fx.runtime in
      (match Rakis.Runtime.udp_bind fx.runtime sock 5201 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bind: %a" Abi.Errno.pp e);
      let rec loop () =
        match Rakis.Runtime.udp_recvfrom fx.runtime sock ~max:2048 with
        | Ok (payload, src) ->
            ignore (Rakis.Runtime.udp_sendto fx.runtime sock payload ~dst:src);
            loop ()
        | Error _ -> ()
      in
      loop ());
  run_script fx (fun () ->
      let fd = client.Libos.Api.udp_socket () in
      (match
         client.Libos.Api.sendto fd (Bytes.of_string "through the rings!")
           (Rakis.Config.default.ip, 5201)
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "client send: %a" Abi.Errno.pp e);
      match client.Libos.Api.recvfrom fd 2048 with
      | Ok (reply, _) ->
          Alcotest.(check string) "echo" "through the rings!"
            (Bytes.to_string reply)
      | Error e -> Alcotest.failf "client recv: %a" Abi.Errno.pp e);
  (* The whole exchange must not have used data-path enclave exits:
     only the boot-time setup ocalls are allowed. *)
  (* The FM also carried the client's ARP request in and the enclave's
     ARP reply out, hence 2 each. *)
  let fm = (Rakis.Runtime.xsk_fms fx.runtime).(0) in
  check "fm received" 2 (Rakis.Xsk_fm.rx_packets fm);
  check "fm sent" 2 (Rakis.Xsk_fm.tx_packets fm);
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds fx.runtime)

let test_rakis_udp_no_exits_on_data_path () =
  let fx = boot ~config:small_config () in
  let client = native_client fx in
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket fx.runtime in
      ignore (Rakis.Runtime.udp_bind fx.runtime sock 5201);
      let rec loop () =
        match Rakis.Runtime.udp_recvfrom fx.runtime sock ~max:2048 with
        | Ok _ -> loop ()
        | Error _ -> ()
      in
      loop ());
  let exits_after_boot = Sgx.Enclave.exits (Rakis.Runtime.enclave fx.runtime) in
  run_script fx (fun () ->
      let fd = client.Libos.Api.udp_socket () in
      for _ = 1 to 100 do
        ignore
          (client.Libos.Api.sendto fd (Bytes.make 512 'd')
             (Rakis.Config.default.ip, 5201))
      done;
      Sim.Engine.delay (Sim.Cycles.of_ms 1.));
  (* 100 data frames + the client's ARP request. *)
  let fm = (Rakis.Runtime.xsk_fms fx.runtime).(0) in
  check "all received" 101 (Rakis.Xsk_fm.rx_packets fm);
  check "zero data-path exits" exits_after_boot
    (Sgx.Enclave.exits (Rakis.Runtime.enclave fx.runtime))

let test_rakis_batched_path_counts_match_single_op () =
  (* The bursted rx/tx datapath must move exactly the packets the
     per-op path moved: N data frames + 1 ARP in, N echoes + 1 ARP
     reply out, with every frame back in the FM's pool afterwards. *)
  let packets = 37 in
  let fx = boot ~config:small_config () in
  let client = native_client fx in
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket fx.runtime in
      ignore (Rakis.Runtime.udp_bind fx.runtime sock 5201);
      let rec loop () =
        match Rakis.Runtime.udp_recvfrom fx.runtime sock ~max:2048 with
        | Ok (payload, src) ->
            ignore (Rakis.Runtime.udp_sendto fx.runtime sock payload ~dst:src);
            loop ()
        | Error _ -> ()
      in
      loop ());
  run_script fx (fun () ->
      let fd = client.Libos.Api.udp_socket () in
      for i = 1 to packets do
        (match
           client.Libos.Api.sendto fd
             (Bytes.make 200 (Char.chr (Char.code 'a' + (i mod 26))))
             (Rakis.Config.default.ip, 5201)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "send %d: %a" i Abi.Errno.pp e);
        match client.Libos.Api.recvfrom fd 2048 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "recv %d: %a" i Abi.Errno.pp e
      done;
      Sim.Engine.delay (Sim.Cycles.of_ms 1.));
  let fm = (Rakis.Runtime.xsk_fms fx.runtime).(0) in
  check "rx count matches per-op path" (packets + 1) (Rakis.Xsk_fm.rx_packets fm);
  check "tx count matches per-op path" (packets + 1) (Rakis.Xsk_fm.tx_packets fm);
  (* Burst accounting is consistent: slot totals cover what moved, and
     the rx side needed no more bursts than packets. *)
  let counters = Rakis.Xsk_fm.burst_counters fm in
  let bursts ring = fst (List.assoc ring counters) in
  let slots ring = snd (List.assoc ring counters) in
  check "xRX slots = packets in" (packets + 1) (slots "xRX");
  check_bool "xRX amortized (bursts <= slots)" true
    (bursts "xRX" <= slots "xRX");
  check_bool "xFill bursts ran" true (bursts "xFill" > 0);
  (* Completions reap lazily on the next send, so the final one may
     still be in flight when the script stops. *)
  check_bool "xCompl slots cover the packets out" true
    (slots "xCompl" >= packets);
  (* Ownership drained back: the in-flight counters (satellite of the
     O(1) Umem.outstanding) net out against the free pool. *)
  let u = Rakis.Xsk_fm.umem fm in
  check "conservation"
    (Rakis.Umem.frame_count u)
    (Rakis.Umem.free_frames u
    + Rakis.Umem.outstanding u Rakis.Umem.Rx
    + Rakis.Umem.outstanding u Rakis.Umem.Tx);
  check_bool "at most the final tx frame unreaped" true
    (Rakis.Umem.outstanding u Rakis.Umem.Tx <= 1);
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds fx.runtime)

(* {1 The XSK FM against a hand-played kernel}

   No NIC, no kernel workers and no engine processes: the test itself
   consumes xFill and xTX and produces xRX and xCompl through the raw
   ring layouts, and calls the FM directly.  Outside a process every
   cycle charge is free, so nothing but the FM's own work runs. *)

type hand = {
  fm : Rakis.Xsk_fm.t;
  xsk : Hostos.Xdp.xsk;
  stack : Netstack.Stack.t;
}

let hand_fm ~frames =
  let engine = Sim.Engine.create () in
  let region = Mem.Region.create ~kind:Untrusted ~name:"sh" ~size:(1 lsl 22) in
  let alloc = Mem.Alloc.create region () in
  let xdp = Hostos.Xdp.create engine ~malice:(ref None) in
  let umem_size = frames * 2048 in
  let xsk =
    Hostos.Xdp.create_xsk xdp ~alloc ~umem_size ~frame_size:2048 ~ring_size:64
  in
  let enclave = Sgx.Enclave.create engine ~sgx:true ~name:"t" in
  let stack =
    Netstack.Stack.create engine ~mac:Rakis.Config.default.mac
      ~ip:Rakis.Config.default.ip ()
  in
  let kernel = Hostos.Kernel.create engine () in
  let monitor, breaker = fm_wiring engine kernel in
  match
    Rakis.Xsk_fm.create ~enclave ~kernel ~config:{ small_config with umem_size }
      ~stack ~monitor ~breaker ~overload:None ~fd:3 ~xsk ()
  with
  | Ok fm -> { fm; xsk; stack }
  | Error e -> Alcotest.failf "fm: %a" Rakis.Xsk_fm.pp_init_error e

(* The kernel's side of one ring: take the entry at the consumer index,
   or add one at the producer index. *)
let kernel_take (l : Rings.Layout.t) =
  let c = Rings.Layout.read_cons l in
  let d = Mem.Region.get_u64 l.region (Rings.Layout.slot_off l c) in
  Rings.Layout.write_cons l (c + 1);
  d

let kernel_put (l : Rings.Layout.t) d =
  let p = Rings.Layout.read_prod l in
  Mem.Region.set_u64 l.region (Rings.Layout.slot_off l p) d;
  Rings.Layout.write_prod l (p + 1)

(* Receive [frame] into the next xFill frame and announce it on xRX. *)
let kernel_rx h frame =
  let offset =
    Abi.Xsk_desc.decode_offset (kernel_take (Hostos.Xdp.fill_layout h.xsk))
  in
  let umem = Hostos.Xdp.umem_ptr h.xsk in
  Mem.Region.blit_from_bytes frame 0 umem.Mem.Ptr.region
    (umem.Mem.Ptr.off + offset) (Bytes.length frame);
  kernel_put (Hostos.Xdp.rx_layout h.xsk)
    (Abi.Xsk_desc.encode ~offset ~len:(Bytes.length frame))

(* Send what xTX holds and complete it on xCompl. *)
let kernel_tx h =
  let tx = Hostos.Xdp.tx_layout h.xsk in
  while Rings.Layout.read_cons tx <> Rings.Layout.read_prod tx do
    let offset = Abi.Xsk_desc.decode_offset (kernel_take tx) in
    kernel_put
      (Hostos.Xdp.compl_layout h.xsk)
      (Abi.Xsk_desc.encode_offset offset)
  done

(* A frame addressed to another host: the stack drops it after the MAC
   check, so its input does the least work a frame can. *)
let foreign_frame len = Bytes.make len '\x02'

let test_fm_failover_resends_in_offset_order () =
  (* 68 frames behind a 64-slot xFill: the first pass stocks frames
     0..63.  The kernel returns 0..3 in reverse, so the next pass takes
     them home as 3, 2, 1, 0 and restocks xFill with 64..67.  Four sends
     then draw frames 3, 2, 1, 0, and failover must resend them
     reversed. *)
  let h = hand_fm ~frames:68 in
  ignore (Rakis.Xsk_fm.step h.fm);
  let fill = Hostos.Xdp.fill_layout h.xsk in
  let taken = List.init 4 (fun _ -> kernel_take fill) in
  let umem = Hostos.Xdp.umem_ptr h.xsk in
  List.iter
    (fun d ->
      let offset = Abi.Xsk_desc.decode_offset d in
      Mem.Region.blit_from_bytes (foreign_frame 64) 0 umem.Mem.Ptr.region
        (umem.Mem.Ptr.off + offset) 64;
      kernel_put (Hostos.Xdp.rx_layout h.xsk)
        (Abi.Xsk_desc.encode ~offset ~len:64))
    (List.rev taken);
  check "four frames in" 4 (Rakis.Xsk_fm.step h.fm);
  List.iter
    (fun c ->
      check_bool "sent" true
        (Rakis.Xsk_fm.transmit h.fm (Bytes.make (60 + c) 'x')))
    [ 0; 1; 2; 3 ];
  check "four in flight" 4 (Rakis.Xsk_fm.tx_inflight h.fm);
  let resent = ref [] in
  let n =
    Rakis.Xsk_fm.failover_reroute h.fm ~resend:(fun b ->
        resent := Bytes.length b :: !resent;
        true)
  in
  check "all rerouted" 4 n;
  Alcotest.(check (list int))
    "ascending offset: the last send, in frame 0, goes first" [ 63; 62; 61; 60 ]
    (List.rev !resent);
  check "nothing in flight after reinit" 0 (Rakis.Xsk_fm.tx_inflight h.fm);
  check_bool "conservation" true
    (Rakis.Umem.conservation_holds (Rakis.Xsk_fm.umem h.fm))

(* Allocation gate for the FM's own per-frame work: one frame received
   (xRX burst, UMem reclaim, boundary copy, xFill restock) and one sent
   (xCompl reap, UMem alloc, copy, xTX produce), each in a burst of one,
   so a closure per burst is a closure per frame.  The stack's input is
   measured alone on the same frame and subtracted.  The ring
   descriptors are read and written as native ints, so what remains is
   boxing: 6 words for the two copy costs ([int64], ROADMAP item 1), 4
   for two [Umem.alloc] options and 2 for [Umem.reclaim]'s [?len]. *)
let fm_words_per_frame_budget = 12

let test_fm_alloc_per_frame () =
  let h = hand_fm ~frames:128 in
  let frame = foreign_frame 64 and reply = Bytes.make 64 'r' in
  let fm_words = ref 0 and stack_words = ref 0 in
  let measure acc f =
    let w0 = Gc.minor_words () in
    f ();
    acc := !acc + int_of_float (Gc.minor_words () -. w0)
  in
  let round () =
    kernel_rx h frame;
    measure fm_words (fun () ->
        if Rakis.Xsk_fm.step h.fm <> 1 then Alcotest.fail "one frame per burst";
        if not (Rakis.Xsk_fm.transmit h.fm reply) then Alcotest.fail "send");
    kernel_tx h
  in
  ignore (Rakis.Xsk_fm.step h.fm);
  for _ = 1 to 100 do
    round ()
  done;
  fm_words := 0;
  let n = 5000 in
  for _ = 1 to n do
    round ()
  done;
  for _ = 1 to n do
    measure stack_words (fun () ->
        Netstack.Stack.input_borrowed h.stack frame ~len:(Bytes.length frame))
  done;
  let per_frame = (!fm_words - !stack_words) / n in
  if per_frame > fm_words_per_frame_budget then
    Alcotest.failf "%d minor words per frame in the FM (stack %d), budget %d"
      per_frame (!stack_words / n) fm_words_per_frame_budget;
  check_bool "conservation" true
    (Rakis.Umem.conservation_holds (Rakis.Xsk_fm.umem h.fm))

let test_rakis_monitor_issues_wakeups () =
  let fx = boot ~config:small_config () in
  let client = native_client fx in
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket fx.runtime in
      ignore (Rakis.Runtime.udp_bind fx.runtime sock 5201);
      (* Send from the enclave: requires an MM sendto wakeup. *)
      ignore
        (Rakis.Runtime.udp_sendto fx.runtime sock (Bytes.of_string "out")
           ~dst:(Hostos.Kernel.client_ip fx.kernel, 7007)));
  run_script fx (fun () ->
      let fd = client.Libos.Api.udp_socket () in
      ignore (client.Libos.Api.bind fd (Hostos.Kernel.client_ip fx.kernel, 7007));
      match client.Libos.Api.recvfrom fd 100 with
      | Ok (payload, _) ->
          Alcotest.(check string) "sent via xsk" "out" (Bytes.to_string payload)
      | Error e -> Alcotest.failf "recv: %a" Abi.Errno.pp e);
  check_bool "MM issued wakeups" true
    (Rakis.Monitor.wakeup_syscalls (Rakis.Runtime.monitor fx.runtime) > 0)

(* {1 Under attack (Table 2 operation rows, end to end)} *)

let attack_fixture attacks =
  let fx = boot ~config:small_config () in
  let m = Hostos.Malice.create ~seed:99L () in
  List.iter (fun (a, p) -> Hostos.Malice.arm m (Hostos.Injector.Probability p) a) attacks;
  Hostos.Kernel.set_malice fx.kernel (Some m);
  (fx, m)

(* Drive traffic at an enclave server under attack; return delivered
   count. *)
let drive_under_attack fx ~packets =
  let client = native_client fx in
  let received = ref 0 in
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket fx.runtime in
      ignore (Rakis.Runtime.udp_bind fx.runtime sock 5201);
      let rec loop () =
        match Rakis.Runtime.udp_recvfrom fx.runtime sock ~max:2048 with
        | Ok _ ->
            incr received;
            loop ()
        | Error _ -> ()
      in
      loop ());
  run_script fx (fun () ->
      let fd = client.Libos.Api.udp_socket () in
      for _ = 1 to packets do
        ignore
          (client.Libos.Api.sendto fd (Bytes.make 256 'a')
             (Rakis.Config.default.ip, 5201))
      done;
      Sim.Engine.delay (Sim.Cycles.of_ms 2.));
  !received

let test_attack_ring_indices () =
  let fx, m =
    attack_fixture
      [
        (Hostos.Malice.Prod_overshoot, 0.2);
        (Hostos.Malice.Prod_regress, 0.2);
        (Hostos.Malice.Cons_overshoot, 0.2);
        (Hostos.Malice.Cons_regress, 0.2);
      ]
  in
  ignore (drive_under_attack fx ~packets:200);
  check_bool "attacks fired" true (Hostos.Malice.fired m > 0);
  check_bool "invariants survived" true
    (Rakis.Runtime.invariant_holds fx.runtime);
  check_bool "hostile indices rejected" true
    (Rakis.Runtime.total_ring_check_failures fx.runtime > 0)

let test_attack_umem_descriptors () =
  let fx, m =
    attack_fixture
      [
        (Hostos.Malice.Bad_umem_offset, 0.1);
        (Hostos.Malice.Misaligned_offset, 0.1);
        (Hostos.Malice.Foreign_frame, 0.1);
        (Hostos.Malice.Oversize_len, 0.1);
      ]
  in
  ignore (drive_under_attack fx ~packets:200);
  check_bool "attacks fired" true (Hostos.Malice.fired m > 0);
  check_bool "descriptors rejected" true
    (Rakis.Runtime.total_desc_rejects fx.runtime > 0);
  check_bool "invariants survived" true
    (Rakis.Runtime.invariant_holds fx.runtime)

let test_attack_corrupt_packets_no_crash () =
  let fx, _ = attack_fixture [ (Hostos.Malice.Corrupt_packet, 0.5) ] in
  let received = drive_under_attack fx ~packets:200 in
  (* Table 2: user data is not checked (left to TLS) — corrupted frames
     either fail a header checksum (drop) or deliver corrupted payload;
     RAKIS must simply survive. *)
  check_bool "still operating" true (received >= 0);
  check_bool "invariants survived" true
    (Rakis.Runtime.invariant_holds fx.runtime)

let test_attack_everything_at_once () =
  let fx, _ =
    attack_fixture
      (List.map (fun a -> (a, 0.15)) Hostos.Malice.all)
  in
  ignore (drive_under_attack fx ~packets:300);
  check_bool "invariants survived the kitchen sink" true
    (Rakis.Runtime.invariant_holds fx.runtime)

(* {1 Runtime totals are registry queries}

   Each [Runtime.total_*] sums a name pattern over the registry.  The
   check below recomputes every total from the per-instance values it
   stands for — public getters where they exist, exact per-instance
   counter names where the registry is the only home — so a renamed
   instance (its pattern goes dark) or a colliding counter (the pattern
   picks up a stranger) fails here instead of silently moving a total.
   Three boots of the same 2-shard zerocopy+overload configuration
   supply the pressure: a KV flash crowd under XSK ring/descriptor
   attacks and wire drops, a SEND_ZC stream under io_uring ring and
   notif attacks, and a multishot receive stream under bogus CQE
   results — whose refusals also land in the zero-copy pool's
   "uring<n>.zc.rejects", which must stay out of the descriptor
   total. *)

let totals_config =
  {
    Rakis.Config.default with
    num_queues = 2;
    num_xsks = 2;
    zerocopy = true;
    overload = true;
  }

let totals_harness ~attacks =
  match
    Apps.Harness.make Libos.Env.Rakis_sgx ~rakis_config:totals_config
      ~nic_queues:4 ()
  with
  | Error e -> Alcotest.fail e
  | Ok h ->
      let rt = Option.get (Libos.Env.runtime h.Apps.Harness.env) in
      let m = Hostos.Malice.create ~seed:17L () in
      List.iter (fun (a, p) -> Hostos.Malice.arm m (Hostos.Injector.Probability p) a) attacks;
      Hostos.Kernel.set_malice h.Apps.Harness.kernel (Some m);
      (h, rt)

(* The native peer streams [bytes] into an enclave TCP receiver: the
   multishot recv path, whose provided buffers come from the zero-copy
   pool. *)
let stream_into_enclave h ~bytes =
  let port = 5301 and api = Apps.Harness.api h and peer = h.Apps.Harness.peer in
  let server = Hostos.Kernel.server_ip h.Apps.Harness.kernel in
  Sim.Engine.spawn h.Apps.Harness.engine ~name:"enclave-rx" (fun () ->
      let l = api.Libos.Api.tcp_socket () in
      ignore (api.Libos.Api.bind l (server, port));
      ignore (api.Libos.Api.listen l);
      match api.Libos.Api.accept l with
      | Error _ -> Apps.Harness.stop h
      | Ok c ->
          let buf = Bytes.create 65536 in
          let rec drain () =
            match api.Libos.Api.recv c buf 0 (Bytes.length buf) with
            | Ok 0 | Error _ -> Apps.Harness.stop h
            | Ok _ -> drain ()
          in
          drain ());
  Sim.Engine.spawn h.Apps.Harness.engine ~name:"peer-tx" (fun () ->
      Sim.Engine.delay (Sim.Cycles.of_us 50.);
      let fd = peer.Libos.Api.tcp_socket () in
      (match peer.Libos.Api.connect fd (server, port) with
      | Error _ -> ()
      | Ok () ->
          let chunk = Bytes.make 16384 'r' in
          let rec go sent =
            if sent < bytes then
              match peer.Libos.Api.send fd chunk 0 (Bytes.length chunk) with
              | Ok n when n > 0 -> go (sent + n)
              | Ok _ | Error _ -> ()
          in
          go 0);
      ignore (peer.Libos.Api.close fd));
  Apps.Harness.run h ~until:(Sim.Cycles.of_sec 5.)

(* For one finished run: [(total, runtime value, per-instance sum)] for
   every counter total, and [(pattern, per-instance sum)] for every name
   pattern feeding them. *)
let totals_vs_instances rt =
  let module R = Rakis.Runtime in
  let m = Obs.metrics (R.obs rt) in
  let exact name =
    match Obs.Metrics.find m name with
    | Some v -> v
    | None -> Alcotest.failf "no counter named %s" name
  in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let shards = List.init (R.shard_count rt) Fun.id in
  let fms = List.concat_map (fun k -> Array.to_list (R.shard_fms rt k)) shards in
  let fm_names =
    List.concat_map
      (fun k ->
        List.init (Array.length (R.shard_fms rt k)) (Printf.sprintf "xsk.%d.%d" k))
      shards
  in
  let xsks = List.concat_map (fun k -> Array.to_list (R.shard_xsks rt k)) shards in
  (* io_uring FMs are per thread, named uring0, uring1, ... *)
  let rec urings i =
    let name = Printf.sprintf "uring%d" i in
    if Obs.Metrics.find m (name ^ ".cqe_rejects") = None then []
    else name :: urings (i + 1)
  in
  let urings = urings 0 in
  let uring suffix = sum (fun u -> exact (u ^ suffix)) urings in
  let overloads =
    Option.to_list (R.uring_overload rt)
    @ List.filter_map (R.shard_overload rt) shards
  in
  let ov f = sum f overloads in
  List.iter
    (fun x ->
      check "edge-drop reasons add up" (Hostos.Xdp.rx_dropped x)
        (sum snd (Hostos.Xdp.rx_drop_reasons x)))
    xsks;
  let patterns =
    [
      ("xsk ring failures", sum Rakis.Xsk_fm.ring_check_failures fms);
      ("uring ring failures", uring ".iSub.failures" + uring ".iCompl.failures");
      ("umem rejects", sum (fun fm -> Rakis.Umem.rejects (Rakis.Xsk_fm.umem fm)) fms);
      ("cqe rejects", uring ".cqe_rejects");
      ("zc sends", uring ".zc_sends");
      ("zc fallbacks", uring ".zc_fallbacks");
      ("zc notifs", uring ".zc_notifs");
      ("zc notifs early", uring ".zc_notif_early");
      ("zc notifs stray", uring ".zc_notif_stray");
      ("overload data shed", ov (fun o -> (Rakis.Overload.observe o).Rakis.Overload.ob_shed_data));
      ("overload data admitted", ov Rakis.Overload.data_admitted);
      ("overload control admitted", ov Rakis.Overload.control_admitted);
      ("edge drops", sum Hostos.Xdp.rx_dropped xsks);
      ("fill throttles", sum (fun n -> exact (n ^ ".fill_throttled")) fm_names);
      ( "wire losses",
        Hostos.Nic.wire_losses (Hostos.Kernel.nic (R.kernel rt) 0)
        + Hostos.Nic.wire_losses (Hostos.Kernel.nic (R.kernel rt) 1) );
      ("stack drops", sum (fun k -> Netstack.Stack.rx_dropped (R.shard_stack rt k)) shards);
    ]
  in
  let p name = List.assoc name patterns in
  let ps names = sum p names in
  (* Each rx-gate shed is both a stack drop and a controller shed. *)
  let rx_gate_sheds =
    sum
      (fun k ->
        Option.value ~default:0
          (List.assoc_opt "overload-shed"
             (Netstack.Stack.drop_reasons (R.shard_stack rt k))))
      shards
  in
  let ring = [ "xsk ring failures"; "uring ring failures" ]
  and desc = [ "umem rejects"; "cqe rejects" ] in
  ( [
      ("ring check failures", R.total_ring_check_failures rt, ps ring);
      ("desc rejects", R.total_desc_rejects rt, ps desc);
      ("zc sends", R.total_zc_sends rt, p "zc sends");
      ("zc fallbacks", R.total_zc_fallbacks rt, p "zc fallbacks");
      ("zc notifs", R.total_zc_notifs rt, p "zc notifs");
      ( "zc notif rejects",
        R.total_zc_notif_rejects rt,
        ps [ "zc notifs early"; "zc notifs stray" ] );
      ("overload shed", R.total_overload_shed rt, p "overload data shed");
      ( "overload admitted",
        R.total_overload_admitted rt,
        ps [ "overload data admitted"; "overload control admitted" ] );
      ("edge drops", R.total_edge_drops rt, p "edge drops");
      ("fill throttles", R.total_fill_throttles rt, p "fill throttles");
      ( "losses",
        R.total_losses rt,
        ps
          ([ "stack drops"; "edge drops"; "wire losses"; "overload data shed" ]
          @ ring @ desc)
        - rx_gate_sheds );
    ],
    patterns )

let test_totals_are_instance_sums () =
  let open Hostos.Malice in
  let kv, kv_rt =
    totals_harness
      ~attacks:[ (Prod_overshoot, 0.02); (Bad_umem_offset, 0.02); (Corrupt_packet, 0.02) ]
  in
  let wire = Hostos.Faults.create ~seed:23L () in
  Hostos.Faults.arm wire (Hostos.Injector.Probability 0.02) Hostos.Faults.Wire_drop;
  Hostos.Kernel.set_faults kv.Apps.Harness.kernel (Some wire);
  ignore
    (Apps.Loadgen.run kv ~server_threads:2
       ~config:
         {
           Apps.Loadgen.default with
           connections = 640;
           ops = 4000;
           timeout = 12_000_000L;
         });
  let zc, zc_rt =
    totals_harness
      ~attacks:
        [
          (Prod_overshoot, 0.01);
          (Forged_early_notif, 0.05);
          (Double_notif, 0.05);
          (Dropped_notif, 0.3);
        ]
  in
  ignore (Apps.Iperf_tcp.run zc ~bytes:(2 * 1024 * 1024));
  let rx, rx_rt = totals_harness ~attacks:[ (Cqe_bogus_res, 0.05) ] in
  stream_into_enclave rx ~bytes:(1024 * 1024);
  let runs = List.map totals_vs_instances [ kv_rt; zc_rt; rx_rt ] in
  List.iter
    (fun (totals, _) ->
      List.iter (fun (name, total, instances) -> check name instances total) totals)
    runs;
  List.iter
    (fun (pattern, _) ->
      check_bool (pattern ^ " exercised") true
        (List.exists (fun (_, patterns) -> List.assoc pattern patterns > 0) runs))
    (snd (List.hd runs))

(* {1 SyncProxy / io_uring FM} *)

let test_syncproxy_file_io () =
  let fx = boot ~config:small_config () in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          let fd =
            match Hostos.Kernel.openf fx.kernel ~create:true ~trunc:true "/sp" with
            | Ok fd -> fd
            | Error e -> Alcotest.failf "open: %a" Abi.Errno.pp e
          in
          let data = Bytes.of_string "syncproxy writes via io_uring" in
          (match
             Rakis.Syncproxy.io proxy Write ~fd ~off:0 ~buf:data ~pos:0
               ~len:(Bytes.length data)
           with
          | Ok n -> check "written" (Bytes.length data) n
          | Error e -> Alcotest.failf "write: %a" Abi.Errno.pp e);
          let buf = Bytes.create 64 in
          (match
             Rakis.Syncproxy.io proxy Read ~fd ~off:0 ~buf ~pos:0 ~len:64
           with
          | Ok n ->
              Alcotest.(check string) "readback"
                "syncproxy writes via io_uring" (Bytes.sub_string buf 0 n)
          | Error e -> Alcotest.failf "read: %a" Abi.Errno.pp e))

let test_syncproxy_chunked_large_write () =
  (* Larger than the bounce buffer: must be split transparently. *)
  let fx = boot ~config:{ small_config with max_io_size = 4096 } () in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          let fd =
            Result.get_ok (Hostos.Kernel.openf fx.kernel ~create:true "/big")
          in
          let data = Bytes.init 20000 (fun i -> Char.chr (i land 0xff)) in
          (match
             Rakis.Syncproxy.io proxy Write ~fd ~off:0 ~buf:data ~pos:0
               ~len:20000
           with
          | Ok n -> check "full write" 20000 n
          | Error e -> Alcotest.failf "write: %a" Abi.Errno.pp e);
          let buf = Bytes.create 20000 in
          let rec read_all off =
            if off < 20000 then begin
              match
                Rakis.Syncproxy.io proxy Read ~fd ~off ~buf ~pos:off
                  ~len:(20000 - off)
              with
              | Ok 0 -> ()
              | Ok n -> read_all (off + n)
              | Error e -> Alcotest.failf "read: %a" Abi.Errno.pp e
            end
          in
          read_all 0;
          check_bool "contents match" true (Bytes.equal buf data))

let test_iouring_fm_rejects_forged_cqe () =
  let fx, m =
    attack_fixture [ (Hostos.Malice.Cqe_wrong_user_data, 1.0) ]
  in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          let fm = Rakis.Syncproxy.fm proxy in
          (match Rakis.Iouring_fm.nop fm with
          | Error Abi.Errno.EPERM -> () (* Table 2 fail action *)
          | Error e -> Alcotest.failf "expected EPERM, got %a" Abi.Errno.pp e
          | Ok _ -> Alcotest.fail "forged user_data accepted");
          check_bool "reject recorded" true (Rakis.Iouring_fm.cqe_rejects fm > 0));
  check_bool "attack fired" true (Hostos.Malice.fired m > 0)

let test_iouring_fm_rejects_bogus_res () =
  let fx, _ = attack_fixture [ (Hostos.Malice.Cqe_bogus_res, 1.0) ] in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          let fd =
            Result.get_ok (Hostos.Kernel.openf fx.kernel ~create:true "/b")
          in
          let buf = Bytes.create 64 in
          (* Kernel claims to have read 0x7FFFFFF0 bytes of a 64-byte
             request: must be refused as EPERM, not believed. *)
          match
            Rakis.Syncproxy.io proxy Read ~fd ~off:0 ~buf ~pos:0 ~len:64
          with
          | Error Abi.Errno.EPERM -> ()
          | Error e -> Alcotest.failf "expected EPERM, got %a" Abi.Errno.pp e
          | Ok n -> Alcotest.failf "bogus result accepted as %d" n)

let test_iouring_poll_multi () =
  let fx = boot ~config:small_config () in
  let client = native_client fx in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          (* A host UDP socket that becomes readable after a delay. *)
          let sock = Hostos.Kernel.udp_socket fx.kernel in
          ignore
            (Hostos.Kernel.bind fx.kernel sock
               (Hostos.Kernel.server_ip fx.kernel) 7300);
          Sim.Engine.spawn fx.engine (fun () ->
              Sim.Engine.delay (Sim.Cycles.of_us 100.);
              let cfd = client.Libos.Api.udp_socket () in
              ignore
                (client.Libos.Api.sendto cfd (Bytes.of_string "wake")
                   (Hostos.Kernel.server_ip fx.kernel, 7300)));
          match
            Rakis.Syncproxy.poll_multi proxy
              [ (sock, Abi.Uring_abi.pollin) ]
              ~deadline:
                (Sim.Engine.clock fx.engine
                + Int64.to_int (Sim.Cycles.of_ms 10.))
          with
          | Ok (Some (fd, mask)) ->
              check "fd" sock fd;
              check_bool "pollin" true (mask land Abi.Uring_abi.pollin <> 0)
          | Ok None -> Alcotest.fail "timed out"
          | Error e -> Alcotest.failf "poll: %a" Abi.Errno.pp e)

let test_iouring_poll_multi_timeout () =
  let fx = boot ~config:small_config () in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          let sock = Hostos.Kernel.udp_socket fx.kernel in
          ignore
            (Hostos.Kernel.bind fx.kernel sock
               (Hostos.Kernel.server_ip fx.kernel) 7301);
          match
            Rakis.Syncproxy.poll_multi proxy
              [ (sock, Abi.Uring_abi.pollin) ]
              ~deadline:
                (Sim.Engine.clock fx.engine
                + Int64.to_int (Sim.Cycles.of_us 50.))
          with
          | Ok None -> ()
          | Ok (Some _) -> Alcotest.fail "spurious readiness"
          | Error e -> Alcotest.failf "poll: %a" Abi.Errno.pp e)

(* {1 Multi-XSK (the memcached configuration)} *)

let test_multiple_xsks () =
  let config = { small_config with num_xsks = 4 } in
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine ~nic_queues:4 () in
  match Rakis.Runtime.boot kernel ~sgx:true ~config () with
  | Error e -> Alcotest.fail e
  | Ok runtime ->
      let fx = { engine; kernel; runtime } in
      let client = native_client fx in
      let received = ref 0 in
      Sim.Engine.spawn engine (fun () ->
          let sock = Rakis.Runtime.udp_socket runtime in
          ignore (Rakis.Runtime.udp_bind runtime sock 5201);
          let rec loop () =
            match Rakis.Runtime.udp_recvfrom runtime sock ~max:2048 with
            | Ok _ ->
                incr received;
                loop ()
            | Error _ -> ()
          in
          loop ());
      run_script fx (fun () ->
          (* Many source ports so RSS spreads load over all queues. *)
          for i = 1 to 16 do
            let fd = client.Libos.Api.udp_socket () in
            ignore
              (client.Libos.Api.bind fd
                 (Hostos.Kernel.client_ip kernel, 41000 + i));
            for _ = 1 to 5 do
              ignore
                (client.Libos.Api.sendto fd (Bytes.make 128 'm')
                   (Rakis.Config.default.ip, 5201))
            done
          done;
          Sim.Engine.delay (Sim.Cycles.of_ms 2.));
      check "all delivered" 80 !received;
      let active_fms =
        Array.fold_left
          (fun acc fm -> if Rakis.Xsk_fm.rx_packets fm > 0 then acc + 1 else acc)
          0 (Rakis.Runtime.xsk_fms runtime)
      in
      check_bool "load spread across several XSK FMs" true (active_fms >= 2)

let suite =
  [
    ("umem: initially all owned", `Quick, test_umem_initially_owned);
    ("umem: alloc/commit/reclaim cycle", `Quick,
     test_umem_alloc_commit_reclaim_cycle);
    ("umem: exhaustion", `Quick, test_umem_exhaustion);
    ("umem: cancel", `Quick, test_umem_cancel);
    ("umem: out-of-range reclaim rejected", `Quick,
     test_umem_reclaim_out_of_range);
    ("umem: misaligned reclaim rejected", `Quick, test_umem_reclaim_misaligned);
    ("umem: cross-routine reclaim rejected", `Quick,
     test_umem_reclaim_wrong_routine);
    ("umem: double reclaim rejected", `Quick, test_umem_double_reclaim);
    ("umem: unowned reclaim rejected", `Quick, test_umem_never_owned_reclaim);
    ("umem: oversize descriptor rejected", `Quick, test_umem_oversize_len);
    ("umem: conservation under honest traffic", `Quick,
     test_umem_no_duplicate_free_frames);
    prop_umem_free_ring_order;
    ("boot: trusted ring pointers rejected", `Quick,
     test_boot_rejects_trusted_pointers);
    ("boot: negative fd rejected", `Quick, test_boot_rejects_negative_fd);
    ("boot: config validated", `Quick, test_boot_validates_config);
    ("boot: trusted bounce buffer rejected", `Quick,
     test_iouring_fm_rejects_trusted_bounce);
    ("e2e: udp echo through the rings", `Quick, test_rakis_udp_echo_roundtrip);
    ("e2e: zero enclave exits on the data path", `Quick,
     test_rakis_udp_no_exits_on_data_path);
    ("e2e: batched datapath counts match the per-op path", `Quick,
     test_rakis_batched_path_counts_match_single_op);
    ("xsk fm: failover resends in ascending offset order", `Quick,
     test_fm_failover_resends_in_offset_order);
    ("xsk fm: per-frame bookkeeping allocation within budget", `Quick,
     test_fm_alloc_per_frame);
    ("e2e: monitor issues the wakeup syscalls", `Quick,
     test_rakis_monitor_issues_wakeups);
    ("attack: hostile ring indices survived", `Quick, test_attack_ring_indices);
    ("attack: hostile UMem descriptors survived", `Quick,
     test_attack_umem_descriptors);
    ("attack: corrupted packets survived", `Quick,
     test_attack_corrupt_packets_no_crash);
    ("attack: all attacks at once survived", `Quick,
     test_attack_everything_at_once);
    ("runtime: totals equal their per-instance sums", `Quick,
     test_totals_are_instance_sums);
    ("syncproxy: file io", `Quick, test_syncproxy_file_io);
    ("syncproxy: chunked large transfers", `Quick,
     test_syncproxy_chunked_large_write);
    ("iouring fm: forged CQE user_data refused with EPERM", `Quick,
     test_iouring_fm_rejects_forged_cqe);
    ("iouring fm: bogus CQE result refused with EPERM", `Quick,
     test_iouring_fm_rejects_bogus_res);
    ("iouring fm: poll_multi readiness", `Quick, test_iouring_poll_multi);
    ("iouring fm: poll_multi timeout", `Quick, test_iouring_poll_multi_timeout);
    ("multi-xsk: four FMs share the load", `Quick, test_multiple_xsks);
  ]

let test_sqpoll_no_wakeup_syscalls () =
  (* IORING_SETUP_SQPOLL: file IO completes without any MM wakeups (the
     XSK side may still kick the MM at boot, so compare the delta). *)
  let fx = boot ~config:{ small_config with use_sqpoll = true } () in
  let baseline = ref 0 in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          let fd =
            Result.get_ok (Hostos.Kernel.openf fx.kernel ~create:true "/sq")
          in
          baseline :=
            Rakis.Monitor.wakeup_syscalls (Rakis.Runtime.monitor fx.runtime);
          let buf = Bytes.make 256 's' in
          for i = 0 to 49 do
            match
              Rakis.Syncproxy.io proxy Write ~fd ~off:(i * 256) ~buf ~pos:0
                ~len:256
            with
            | Ok 256 -> ()
            | _ -> Alcotest.fail "sqpoll write"
          done);
  check "no MM wakeups for the 50 writes" !baseline
    (Rakis.Monitor.wakeup_syscalls (Rakis.Runtime.monitor fx.runtime))

(* ROADMAP item 3's round-trip gate: one 64 B datagram through NIC ->
   XDP -> FM -> stack -> enclave [udp_recvfrom]/[udp_sendto] -> FM ->
   XDP -> NIC, closed-loop, with the wire's far end replaced by a
   handler that re-sends one prebuilt request per echo.  Per round trip
   that is the data (the 9-word payload copy the socket queue hands to
   [udp_recvfrom], the 15-word reply frame the stack builds and the
   15-word copy the NIC puts on the wire) plus 4 words per suspended
   continuation, and what [int64] boxing remains (ROADMAP item 1).
   Gated at what it measures. *)
let round_trip_words_budget = 238

let test_round_trip_alloc () =
  let fx = boot ~config:small_config () in
  let rt = fx.runtime in
  let nic1 = Hostos.Kernel.nic fx.kernel 1 in
  let client_ip = Hostos.Kernel.client_ip fx.kernel in
  Netstack.Arp_cache.learn
    (Netstack.Stack.arp (Rakis.Runtime.shard_stack rt 0))
    client_ip (Hostos.Nic.mac nic1);
  let port = 7 in
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket rt in
      ignore (Rakis.Runtime.udp_bind rt sock port);
      let rec echo () =
        match Rakis.Runtime.udp_recvfrom rt sock ~max:2048 with
        | Ok (payload, src) ->
            ignore (Rakis.Runtime.udp_sendto rt sock payload ~dst:src);
            echo ()
        | Error _ -> ()
      in
      echo ());
  let request =
    Packet.Frame.build_udp
      {
        Packet.Frame.src_mac = Hostos.Nic.mac nic1;
        dst_mac = small_config.mac;
        src_ip = client_ip;
        dst_ip = small_config.ip;
        src_port = 40000;
        dst_port = port;
      }
      (Bytes.make 64 'e')
  in
  let warm = 200 and n = 2000 in
  let echoes = ref 0 and w0 = ref 0. and words = ref 0. in
  Hostos.Nic.set_rx_handler nic1 ~queue:0 (fun _ ~next _ ->
      incr echoes;
      if !echoes = warm then w0 := Gc.minor_words ();
      if !echoes = warm + n then begin
        words := Gc.minor_words () -. !w0;
        Sim.Engine.stop fx.engine
      end
      else Hostos.Nic.transmit nic1 request;
      next ());
  Sim.Engine.spawn fx.engine (fun () ->
      Sim.Engine.delay (Sim.Cycles.of_us 50.);
      Hostos.Nic.transmit nic1 request);
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 1.) fx.engine;
  check "every request echoed" (warm + n) !echoes;
  let per_trip = int_of_float (Float.round (!words /. float_of_int n)) in
  if per_trip > round_trip_words_budget then
    Alcotest.failf "%d minor words per round trip, budget %d" per_trip
      round_trip_words_budget

(* {1 The synchronous io_uring path, op by op}

   Every synchronous op of the FM ({!Rakis.Iouring_fm}) on the copy
   path and on the zero-copy path, under each host weather below.  Each
   case runs on a fresh boot, sends or reads a 40,000-byte transfer
   (two whole 16 KiB chunks and a tail, for the bounce buffer and for a
   pool frame alike), lets the host settle and pins one row: the
   result, the bytes that reached the file, peer or caller, the FM's
   retries, the zero-copy sends and fallbacks, and the frames still
   lent ([Umem.Registered]).  Every case must also end with nothing in
   flight and the FM's accounting (pool conservation included)
   holding. *)

type weather =
  | Honest
  | Short_first  (** the host truncates the first transfer *)
  | Bounce_first  (** the host bounces the first SQE with a transient errno *)
  | Probe_bounce  (** [Bounce_first] in probe mode: no retry budget *)
  | Forged_second  (** a forged result on the first CQE after chunk 1's *)
  | Drained_before  (** every pool frame lent and never notified *)
  | Drained_mid  (** all but one pool frame lent and never notified *)

let weathers =
  [ Honest; Short_first; Bounce_first; Probe_bounce; Forged_second;
    Drained_before; Drained_mid ]

let weather_name = function
  | Honest -> "honest"
  | Short_first -> "short-io"
  | Bounce_first -> "bounce"
  | Probe_bounce -> "probe-bounce"
  | Forged_second -> "forged-2nd"
  | Drained_before -> "drained"
  | Drained_mid -> "drained-mid"

let sync_op_name : Rakis.Iouring_fm.op -> string = function
  | Read -> "read"
  | Write -> "write"
  | Send -> "send"
  | Recv -> "recv"

let io_len = 40_000

let io_payload = Bytes.init io_len (fun i -> Char.chr (((i * 7) + 3) land 0xff))

(* A connected TCP pair on the host: the FM's end and the peer's. *)
let tcp_pair fx port =
  let k = fx.kernel in
  let ip = Hostos.Kernel.server_ip k in
  let l = Hostos.Kernel.tcp_socket k in
  ignore (Hostos.Kernel.bind k l ip port);
  ignore (Hostos.Kernel.listen k l);
  let peer = Hostos.Kernel.tcp_socket k in
  let conn = ref (-1) in
  Sim.Engine.spawn fx.engine (fun () ->
      conn := Result.get_ok (Hostos.Kernel.accept k l));
  ignore (Hostos.Kernel.connect k peer ip port);
  Sim.Engine.delay (Sim.Cycles.of_us 50.);
  (!conn, peer)

(* Everything [fd] has ready to read, without blocking. *)
let drain_ready k fd =
  let out = Buffer.create io_len and chunk = Bytes.create io_len in
  while Hostos.Kernel.fd_ready k fd `In do
    match Hostos.Kernel.recv k fd chunk 0 io_len with
    | Ok n when n > 0 -> Buffer.add_subbytes out chunk 0 n
    | _ -> ()
  done;
  Buffer.to_bytes out

let io_row ~zerocopy (op : Rakis.Iouring_fm.op) weather =
  let fx =
    boot ~config:{ small_config with zerocopy; max_io_size = 16384 } ()
  in
  let k = fx.kernel in
  let m = Obs.metrics (Rakis.Runtime.obs fx.runtime) in
  let retries () = Obs.Metrics.get_counter m "uring0.retries" in
  let row = ref "" in
  run_script fx (fun () ->
      let thread = Result.get_ok (Rakis.Runtime.new_thread fx.runtime) in
      let fm = Rakis.Syncproxy.fm thread in
      let file = Result.get_ok (Hostos.Kernel.openf k ~create:true "/io") in
      let conn, peer = tcp_pair fx 9100 in
      (* Frames lent and never notified: the withholding host drains the
         pool (the copy path lends nothing). *)
      let hold frames =
        let dconn, _ = tcp_pair fx 9101 in
        let malice = Hostos.Malice.create ~seed:5L () in
        Hostos.Malice.arm malice (Hostos.Injector.Probability 1.0)
          Hostos.Malice.Dropped_notif;
        Hostos.Kernel.set_malice k (Some malice);
        let len = frames * Sgx.Params.zc_frame_size in
        let buf = Bytes.make len 'd' in
        (match
           Rakis.Iouring_fm.io fm Send ~fd:dconn ~off:0 ~buf ~pos:0 ~len
         with
        | Ok n -> check "pool drain sent" len n
        | Error e -> Alcotest.failf "pool drain: %a" Abi.Errno.pp e);
        Hostos.Kernel.set_malice k None;
        check "frames lent" (if zerocopy then frames else 0)
          (Rakis.Iouring_fm.zc_registered fm)
      in
      let fault what trigger =
        let f = Hostos.Faults.create ~seed:3L () in
        Hostos.Faults.arm f trigger what;
        Hostos.Kernel.set_faults k (Some f)
      in
      (match weather with
      | Honest -> ()
      | Short_first -> fault Hostos.Faults.Short_io (Hostos.Injector.Once 1.0)
      | Bounce_first | Probe_bounce ->
          fault Hostos.Faults.Transient_errno (Hostos.Injector.Once 1.0)
      | Forged_second ->
          (* Forge the first CQE the host posts after chunk 1's
             completion has been reaped. *)
          let malice = Hostos.Malice.create ~seed:5L () in
          Hostos.Malice.arm malice (Hostos.Injector.At_step 1)
            Hostos.Malice.Cqe_bogus_res;
          Hostos.Kernel.set_malice k (Some malice);
          let reaped () = Obs.Metrics.get_counter m "uring0.cqes_reaped" in
          let r0 = reaped () in
          Sim.Engine.spawn fx.engine (fun () ->
              while reaped () = r0 do
                Sim.Engine.delay 50L
              done;
              Hostos.Malice.set_step malice 1)
      | Drained_before -> hold Sgx.Params.zc_frames
      | Drained_mid -> hold (Sgx.Params.zc_frames - 1));
      (match op with
      | Read ->
          ignore
            (Hostos.Kernel.pwrite k file ~off:0 io_payload 0 (io_len - 5000))
      | Recv -> ignore (Hostos.Kernel.send k peer io_payload 0 io_len)
      | Write | Send -> ());
      let sends0 = Rakis.Runtime.total_zc_sends fx.runtime
      and fallbacks0 = Rakis.Runtime.total_zc_fallbacks fx.runtime
      and retries0 = retries () in
      let buf = Bytes.make io_len '\000' in
      if weather = Probe_bounce then Rakis.Iouring_fm.set_probe_mode fm true;
      let fd = match op with Read | Write -> file | Send | Recv -> conn in
      let src = match op with Write | Send -> io_payload | Read | Recv -> buf in
      let r =
        Rakis.Iouring_fm.io fm op ~fd ~off:0 ~buf:src ~pos:0 ~len:io_len
      in
      Rakis.Iouring_fm.set_probe_mode fm false;
      let sends = Rakis.Runtime.total_zc_sends fx.runtime - sends0
      and fallbacks = Rakis.Runtime.total_zc_fallbacks fx.runtime - fallbacks0
      and retried = retries () - retries0 in
      (* What reached the file, the peer or the caller. *)
      let reached =
        match op with
        | Write ->
            let back = Bytes.make io_len '\000' in
            Bytes.sub back 0
              (Result.get_ok (Hostos.Kernel.pread k file ~off:0 back 0 io_len))
        | Send -> drain_ready k peer
        | Read | Recv -> (
            match r with Ok n -> Bytes.sub buf 0 n | Error _ -> Bytes.empty)
      in
      check_bool "reached bytes are the payload's prefix" true
        (Bytes.equal reached (Bytes.sub io_payload 0 (Bytes.length reached)));
      (* Let the host settle, then one op reaps what it posted. *)
      Hostos.Kernel.set_faults k None;
      Hostos.Kernel.set_malice k None;
      Sim.Engine.delay (Sim.Cycles.of_ms 1.);
      ignore (Rakis.Iouring_fm.nop fm);
      Rakis.Iouring_fm.forget_fd fm ~fd:conn;
      check "nothing in flight" 0 (Rakis.Iouring_fm.inflight fm);
      check_bool "accounting holds" true (Rakis.Iouring_fm.accounting_holds fm);
      row :=
        Printf.sprintf "%s %s %s: %s reached=%d retries=%d zc=%d/%d lent=%d"
          (sync_op_name op)
          (if zerocopy then "zc" else "copy")
          (weather_name weather)
          (match r with
          | Ok n -> Printf.sprintf "Ok %d" n
          | Error e -> "Error " ^ Abi.Errno.to_string e)
          (Bytes.length reached) retried sends fallbacks
          (Rakis.Iouring_fm.zc_registered fm));
  !row

(* One row per case: the result, the bytes that reached the file, the
   peer or the caller, the FM's retries, [zc=<zc_sends>/<zc_fallbacks>]
   and the frames still lent once the host has settled.  Rows worth
   reading: a short completion is resubmitted ([short-io]); a read
   ends at EOF on a zero count ([read], 35,000 bytes on file); copy
   and fixed-buffer IO retry a bounce while probe mode does not; a
   SEND_ZC that bounces falls back to the copy path and its frame
   stays lent ([send zc bounce]); a send that finds the pool drained
   falls back whole, one drained mid-transfer returns its prefix; a
   forged result after progress returns the prefix even where the host
   moved more ([write copy forged-2nd]); recv is never chunked. *)
let expected_io_rows =
  [
    "read copy honest: Ok 35000 reached=35000 retries=0 zc=0/0 lent=0";
    "read copy short-io: Ok 35000 reached=35000 retries=0 zc=0/0 lent=0";
    "read copy bounce: Ok 35000 reached=35000 retries=1 zc=0/0 lent=0";
    "read copy probe-bounce: Error ETIMEDOUT reached=0 retries=0 zc=0/0 lent=0";
    "read copy forged-2nd: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "read copy drained: Ok 35000 reached=35000 retries=0 zc=0/0 lent=0";
    "read copy drained-mid: Ok 35000 reached=35000 retries=0 zc=0/0 lent=0";
    "read zc honest: Ok 35000 reached=35000 retries=0 zc=0/0 lent=0";
    "read zc short-io: Ok 35000 reached=35000 retries=0 zc=0/0 lent=0";
    "read zc bounce: Ok 35000 reached=35000 retries=1 zc=0/0 lent=0";
    "read zc probe-bounce: Error ETIMEDOUT reached=0 retries=0 zc=0/0 lent=0";
    "read zc forged-2nd: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "read zc drained: Ok 35000 reached=35000 retries=0 zc=0/1 lent=32";
    "read zc drained-mid: Ok 35000 reached=35000 retries=0 zc=0/0 lent=31";
    "write copy honest: Ok 40000 reached=40000 retries=0 zc=0/0 lent=0";
    "write copy short-io: Ok 40000 reached=40000 retries=0 zc=0/0 lent=0";
    "write copy bounce: Ok 40000 reached=40000 retries=1 zc=0/0 lent=0";
    "write copy probe-bounce: Error ETIMEDOUT reached=0 retries=0 zc=0/0 lent=0";
    "write copy forged-2nd: Ok 16384 reached=32768 retries=0 zc=0/0 lent=0";
    "write copy drained: Ok 40000 reached=40000 retries=0 zc=0/0 lent=0";
    "write copy drained-mid: Ok 40000 reached=40000 retries=0 zc=0/0 lent=0";
    "write zc honest: Ok 40000 reached=40000 retries=0 zc=0/0 lent=0";
    "write zc short-io: Ok 40000 reached=40000 retries=0 zc=0/0 lent=0";
    "write zc bounce: Ok 40000 reached=40000 retries=1 zc=0/0 lent=0";
    "write zc probe-bounce: Error ETIMEDOUT reached=0 retries=0 zc=0/0 lent=0";
    "write zc forged-2nd: Ok 16384 reached=32768 retries=0 zc=0/0 lent=0";
    "write zc drained: Ok 40000 reached=40000 retries=0 zc=0/1 lent=32";
    "write zc drained-mid: Ok 40000 reached=40000 retries=0 zc=0/0 lent=31";
    "send copy honest: Ok 40000 reached=40000 retries=0 zc=0/0 lent=0";
    "send copy short-io: Ok 40000 reached=40000 retries=0 zc=0/0 lent=0";
    "send copy bounce: Ok 40000 reached=40000 retries=1 zc=0/0 lent=0";
    "send copy probe-bounce: Error ETIMEDOUT reached=0 retries=0 zc=0/0 lent=0";
    "send copy forged-2nd: Ok 16384 reached=32768 retries=0 zc=0/0 lent=0";
    "send copy drained: Ok 40000 reached=40000 retries=0 zc=0/0 lent=0";
    "send copy drained-mid: Ok 40000 reached=40000 retries=0 zc=0/0 lent=0";
    "send zc honest: Ok 40000 reached=40000 retries=0 zc=3/0 lent=0";
    "send zc short-io: Ok 40000 reached=40000 retries=0 zc=3/0 lent=0";
    "send zc bounce: Ok 40000 reached=40000 retries=0 zc=1/1 lent=1";
    "send zc probe-bounce: Ok 40000 reached=40000 retries=0 zc=1/1 lent=1";
    "send zc forged-2nd: Ok 40000 reached=40000 retries=0 zc=3/0 lent=0";
    "send zc drained: Ok 40000 reached=40000 retries=0 zc=0/1 lent=32";
    "send zc drained-mid: Ok 16384 reached=16384 retries=0 zc=1/0 lent=31";
    "recv copy honest: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "recv copy short-io: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "recv copy bounce: Ok 16384 reached=16384 retries=1 zc=0/0 lent=0";
    "recv copy probe-bounce: Error ETIMEDOUT reached=0 retries=0 zc=0/0 lent=0";
    "recv copy forged-2nd: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "recv copy drained: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "recv copy drained-mid: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "recv zc honest: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "recv zc short-io: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "recv zc bounce: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "recv zc probe-bounce: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "recv zc forged-2nd: Ok 16384 reached=16384 retries=0 zc=0/0 lent=0";
    "recv zc drained: Ok 16384 reached=16384 retries=0 zc=0/1 lent=32";
    "recv zc drained-mid: Ok 16384 reached=16384 retries=0 zc=0/1 lent=31";
  ]

let test_sync_io_table () =
  let rows =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun zerocopy ->
            List.map (fun w -> io_row ~zerocopy op w) weathers)
          [ false; true ])
      Rakis.Iouring_fm.[ Read; Write; Send; Recv ]
  in
  Alcotest.(check (list string)) "one row per case" expected_io_rows rows

(* A SEND_ZC abandoned on the sync-op deadline (every wakeup swallowed,
   so the SQE never reaches the kernel in time) keeps its frame lent:
   the kernel may still run it.  Once the host heals, the late
   completion and its notif free the frame. *)
let test_abandoned_send_zc_keeps_frame () =
  let fx =
    boot ~config:{ small_config with zerocopy = true; max_io_size = 16384 } ()
  in
  let k = fx.kernel in
  run_script fx (fun () ->
      let thread = Result.get_ok (Rakis.Runtime.new_thread fx.runtime) in
      let fm = Rakis.Syncproxy.fm thread in
      let conn, peer = tcp_pair fx 9102 in
      let f = Hostos.Faults.create ~seed:3L () in
      Hostos.Faults.arm f Hostos.Injector.Persistent Hostos.Faults.Drop_wakeup;
      Hostos.Kernel.set_faults k (Some f);
      let buf = io_payload in
      (match
         Rakis.Iouring_fm.io fm Send ~fd:conn ~off:0 ~buf ~pos:0 ~len:1000
       with
      | Error Abi.Errno.ETIMEDOUT -> ()
      | Ok n -> Alcotest.failf "sent %d with every wakeup dropped" n
      | Error e -> Alcotest.failf "expected ETIMEDOUT, got %a" Abi.Errno.pp e);
      check "one SEND_ZC, then the copy path" 1
        (Rakis.Runtime.total_zc_sends fx.runtime);
      check "one fallback" 1 (Rakis.Runtime.total_zc_fallbacks fx.runtime);
      check "the abandoned frame stays lent" 1
        (Rakis.Iouring_fm.zc_registered fm);
      check "nothing in flight" 0 (Rakis.Iouring_fm.inflight fm);
      check_bool "accounting holds" true (Rakis.Iouring_fm.accounting_holds fm);
      Hostos.Kernel.set_faults k None;
      ignore (Rakis.Iouring_fm.nop fm);
      Sim.Engine.delay (Sim.Cycles.of_ms 1.);
      ignore (Rakis.Iouring_fm.nop fm);
      check "the late notif freed it" 0 (Rakis.Iouring_fm.zc_registered fm);
      check "nothing in flight once healed" 0 (Rakis.Iouring_fm.inflight fm);
      check_bool "accounting holds once healed" true
        (Rakis.Iouring_fm.accounting_holds fm);
      (* Every abandoned attempt ran late — the SEND_ZC and all nine
         copy attempts: at-least-once (ROADMAP item 1). *)
      check "bytes the peer got" 10_000 (Bytes.length (drain_ready k peer)))

let suite =
  suite
  @ [
      ("sqpoll: io_uring without MM wakeups", `Quick,
       test_sqpoll_no_wakeup_syscalls);
      ("config: validate rejects one bad value per rule", `Quick,
       test_config_validate_rules);
      ("alloc: a UDP round trip allocates its data and continuations", `Quick,
       test_round_trip_alloc);
      ("iouring fm: every sync op under every weather, copy and zero-copy",
       `Quick, test_sync_io_table);
      ("iouring fm: an abandoned SEND_ZC keeps its frame lent", `Quick,
       test_abandoned_send_zc_keeps_frame);
    ]
