(* Tests for the Monitor Module (paper §4.3): producer-index watches
   mapping to the right wakeup syscalls, the no-movement no-op, the
   forced-enter nudge, and resilience to hostile index smashes. *)

module Mon = Rakis.Monitor

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

type rig = {
  kernel : Hostos.Kernel.t;
  monitor : Mon.t;
  xsk : Hostos.Xdp.xsk;
  uring : Hostos.Io_uring.t;
}

(* One kernel, one watched XSK and one watched io_uring; [f] runs as a
   scripted fiber alongside the monitor thread. *)
let with_monitor f =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
  let region =
    Mem.Region.create ~kind:Untrusted ~name:"mon-shared" ~size:(1 lsl 20)
  in
  let alloc = Mem.Alloc.create region () in
  let _fd, xsk =
    Hostos.Kernel.xsk_create kernel ~alloc ~umem_size:(16 * 2048)
      ~frame_size:2048 ~ring_size:8
  in
  let _fd, uring = Hostos.Kernel.uring_create kernel ~alloc ~entries:8 in
  let monitor = Mon.create engine ~kernel in
  Mon.watch_xsk monitor xsk;
  Mon.watch_uring monitor uring;
  Mon.start monitor;
  let finished = ref false in
  Sim.Engine.spawn engine (fun () ->
      f { kernel; monitor; xsk; uring };
      finished := true;
      Sim.Engine.stop engine);
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 5.) engine;
  check_bool "script finished" true !finished

(* Let the monitor thread absorb the kick. *)
let settle () = Sim.Engine.delay (Sim.Cycles.of_ms 1.)

let test_no_movement_no_wakeup () =
  with_monitor (fun r ->
      Mon.kick r.monitor;
      settle ();
      Mon.kick r.monitor;
      settle ();
      check "no wakeups" 0 (Mon.wakeup_syscalls r.monitor))

let test_fill_advance_rx_wakeup () =
  with_monitor (fun r ->
      let fill = Hostos.Xdp.fill_layout r.xsk in
      Rings.Layout.write_prod fill 3;
      Mon.kick r.monitor;
      settle ();
      check "one rx wakeup" 1 (Mon.rx_wakeup_syscalls r.monitor);
      check "no tx wakeup" 0 (Mon.tx_wakeup_syscalls r.monitor);
      check "no uring wakeup" 0 (Mon.uring_wakeup_syscalls r.monitor);
      check "total" 1 (Mon.wakeup_syscalls r.monitor);
      (* Same index again: no further syscall. *)
      Mon.kick r.monitor;
      settle ();
      check "idempotent" 1 (Mon.wakeup_syscalls r.monitor);
      (* A further advance is a fresh wakeup. *)
      Rings.Layout.write_prod fill 5;
      Mon.kick r.monitor;
      settle ();
      check "advance again" 2 (Mon.rx_wakeup_syscalls r.monitor))

let test_tx_advance_tx_wakeup () =
  with_monitor (fun r ->
      let tx = Hostos.Xdp.tx_layout r.xsk in
      Rings.Layout.write_prod tx 1;
      Mon.kick r.monitor;
      settle ();
      check "one tx wakeup" 1 (Mon.tx_wakeup_syscalls r.monitor);
      check "no rx wakeup" 0 (Mon.rx_wakeup_syscalls r.monitor))

let test_sq_advance_uring_enter () =
  with_monitor (fun r ->
      let sq = Hostos.Io_uring.sq_layout r.uring in
      Rings.Layout.write_prod sq 1;
      Mon.kick r.monitor;
      settle ();
      check "one enter" 1 (Mon.uring_wakeup_syscalls r.monitor);
      check "no xsk wakeups" 0
        (Mon.rx_wakeup_syscalls r.monitor + Mon.tx_wakeup_syscalls r.monitor))

let test_nudge_forces_enter () =
  with_monitor (fun r ->
      (* No index movement at all: a nudge still produces exactly one
         io_uring_enter (the FM's anti-freeze re-entry path). *)
      Mon.nudge_uring r.monitor r.uring;
      Mon.kick r.monitor;
      settle ();
      check "forced enter" 1 (Mon.uring_wakeup_syscalls r.monitor);
      (* The force is consumed: a plain kick is quiet again. *)
      Mon.kick r.monitor;
      settle ();
      check "force consumed" 1 (Mon.uring_wakeup_syscalls r.monitor))

let test_smashed_index_bounded_wakeups () =
  with_monitor (fun r ->
      (* A hostile regressed/garbage fill producer index: the monitor
         may issue spurious wakeups (it is untrusted and unvalidated —
         availability, not integrity) but must stay bounded and sane:
         one per distinct observed value, with no crash and no further
         syscalls once the index stops changing. *)
      let fill = Hostos.Xdp.fill_layout r.xsk in
      Rings.Layout.write_prod fill (Rings.U32.sub 0 5);
      Mon.kick r.monitor;
      settle ();
      let after_smash = Mon.wakeup_syscalls r.monitor in
      check_bool "at most one spurious wakeup" true (after_smash <= 1);
      (* The honest producer republishes; the monitor keeps working. *)
      Rings.Layout.write_prod fill 2;
      Mon.kick r.monitor;
      settle ();
      let after_repair = Mon.wakeup_syscalls r.monitor in
      check_bool "repair observed" true (after_repair >= after_smash);
      Mon.kick r.monitor;
      settle ();
      check "quiescent after repair" after_repair
        (Mon.wakeup_syscalls r.monitor))

let suite =
  [
    Alcotest.test_case "monitor: no movement, no wakeup" `Quick
      test_no_movement_no_wakeup;
    Alcotest.test_case "monitor: xFill advance -> recvfrom wakeup" `Quick
      test_fill_advance_rx_wakeup;
    Alcotest.test_case "monitor: xTX advance -> sendto wakeup" `Quick
      test_tx_advance_tx_wakeup;
    Alcotest.test_case "monitor: iSub advance -> io_uring_enter" `Quick
      test_sq_advance_uring_enter;
    Alcotest.test_case "monitor: nudge forces one enter" `Quick
      test_nudge_forces_enter;
    Alcotest.test_case "monitor: smashed index stays bounded" `Quick
      test_smashed_index_bounded_wakeups;
  ]
