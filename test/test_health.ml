(* Tests for graceful degradation (DESIGN.md §9): the per-primitive
   circuit breaker state machine, breaker-driven failover of both
   FIOKPs onto the exit-based slow path, failback hysteresis through
   half-open probes, admission-control backpressure, and the
   ETIMEDOUT in-flight accounting regression. *)

module F = Hostos.Faults
module I = Hostos.Injector
module H = Rakis.Health

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* {1 Breaker state machine (unit, manual clock)} *)

(* A breaker on a hand-cranked clock: threshold 3, cooldown 100
   cycles, 2 probe successes to close. *)
let mk ?(threshold = 3) ?(cooldown = 100L) ?(probes = 2) () =
  let now = ref 0L in
  let b =
    H.create ~name:"t"
      ~clock:(fun () -> !now)
      ~threshold ~cooldown ~probes_needed:probes ()
  in
  (now, b)

let test_breaker_opens_on_consecutive_failures () =
  let _, b = mk () in
  let opened = ref 0 in
  H.set_on_open b (fun () -> incr opened);
  check_bool "starts closed" false (H.degraded b);
  H.record_failure b;
  H.record_failure b;
  check_bool "below threshold stays closed" false (H.degraded b);
  (* A success clears the streak: only *consecutive* failures count. *)
  H.record_success b;
  H.record_failure b;
  H.record_failure b;
  check_bool "streak was reset" false (H.degraded b);
  H.record_failure b;
  check_bool "threshold trips" true (H.state b = H.Open);
  check "one open recorded" 1 (H.opens b);
  check "on_open hook fired" 1 !opened;
  (* Further failures while already open are no-ops. *)
  H.record_failure b;
  check "no double-count" 1 (H.opens b)

let test_breaker_cooldown_then_probe_then_close () =
  let now, b = mk () in
  for _ = 1 to 3 do
    H.record_failure b
  done;
  (* Before the cooldown every allow is a slow-path failover. *)
  check_bool "slow during cooldown" true (H.allow b = H.Slow);
  check "failover counted" 1 (H.failovers b);
  check_bool "still open" true (H.state b = H.Open);
  (* Cooldown elapsed: the next allow becomes the half-open probe. *)
  now := Int64.add !now 100L;
  check_bool "probe after cooldown" true (H.allow b = H.Probe);
  check_bool "half-open" true (H.state b = H.Half_open);
  check "probe counted" 1 (H.probes_sent b);
  (* Only one probe in flight: concurrent traffic stays on the slow
     path rather than stampeding a maybe-healed FIOKP. *)
  check_bool "second allow goes slow" true (H.allow b = H.Slow);
  H.record_success b;
  check_bool "one success is not enough" true (H.state b = H.Half_open);
  check_bool "next probe admitted" true (H.allow b = H.Probe);
  H.record_success b;
  check_bool "probes_needed successes close" true (H.state b = H.Closed);
  check "close recorded" 1 (H.closes b);
  check "two probes total" 2 (H.probes_sent b)

let test_breaker_probe_failure_reopens () =
  let now, b = mk () in
  let opened = ref 0 in
  H.set_on_open b (fun () -> incr opened);
  for _ = 1 to 3 do
    H.record_failure b
  done;
  now := Int64.add !now 100L;
  check_bool "probe" true (H.allow b = H.Probe);
  (* Hysteresis: one bad probe resets the whole failback. *)
  H.record_failure b;
  check_bool "re-opened" true (H.state b = H.Open);
  check "second open" 2 (H.opens b);
  check "hook fired per open" 2 !opened;
  (* The cooldown restarts from the re-open, so traffic stays slow. *)
  check_bool "cooldown restarted" true (H.allow b = H.Slow);
  (* And the healthy arc still completes after the second cooldown. *)
  now := Int64.add !now 100L;
  check_bool "probe again" true (H.allow b = H.Probe);
  H.record_success b;
  check_bool "probe again 2" true (H.allow b = H.Probe);
  H.record_success b;
  check_bool "finally closed" true (H.state b = H.Closed)

let test_breaker_cancel_probe_releases_slot () =
  let now, b = mk () in
  for _ = 1 to 3 do
    H.record_failure b
  done;
  now := Int64.add !now 100L;
  check_bool "probe" true (H.allow b = H.Probe);
  (* A caller that declines the probe (e.g. a blocking recv) must not
     wedge the breaker in half-open-with-phantom-probe forever. *)
  H.cancel_probe b;
  check_bool "still half-open" true (H.state b = H.Half_open);
  check_bool "slot released" true (H.allow b = H.Probe)

(* {2 Half-open races (DESIGN.md §11)}

   The half-open window is where the breaker is most delicate: one
   probe is in flight, regular traffic is still being shed, and
   failure signals can arrive from *both* — the probe itself and
   fast-path operations that were already in flight when the breaker
   tripped.  These tests pin the exact interleavings. *)

(* A second terminal failure lands while the probe is still in flight
   (e.g. a straggler completion from before the trip).  The breaker
   must re-open exactly once — not once per signal — and clear the
   probe slot so the post-cooldown probe is admitted cleanly. *)
let test_half_open_second_failure_during_probe () =
  let now, b = mk () in
  let opened = ref 0 in
  H.set_on_open b (fun () -> incr opened);
  for _ = 1 to 3 do
    H.record_failure b
  done;
  check "tripped once" 1 !opened;
  now := Int64.add !now 100L;
  check_bool "probe admitted" true (H.allow b = H.Probe);
  (* the straggler failure: re-opens and consumes the probe slot *)
  H.record_failure b;
  check_bool "re-opened" true (H.state b = H.Open);
  check_bool "probe slot cleared" false
    (H.observe b).H.probe_inflight;
  check "hook fired once for the re-open" 2 !opened;
  (* the probe's own failure now arrives: already open, must be inert *)
  H.record_failure b;
  check "no third open" 2 (H.opens b);
  check "hook not double-fired" 2 !opened;
  (* and the machine is not wedged: the normal arc still completes *)
  now := Int64.add !now 100L;
  check_bool "probe after second cooldown" true (H.allow b = H.Probe);
  H.record_success b;
  check_bool "probe 2" true (H.allow b = H.Probe);
  H.record_success b;
  check_bool "closed" true (H.state b = H.Closed);
  check "one close" 1 (H.closes b)

(* A probe declined by the caller (cancel_probe — the blocking-recv /
   poll case, whose abandoned SQE could corrupt a TCP stream) must
   contribute nothing toward closing: only completed probes are
   evidence.  Repeated decline/re-admit cycles must neither close the
   breaker nor wedge the slot. *)
let test_half_open_declined_probes_are_not_evidence () =
  let now, b = mk () in
  for _ = 1 to 3 do
    H.record_failure b
  done;
  now := Int64.add !now 100L;
  (* decline three probes in a row: each releases the slot, none
     advances the success count *)
  for _ = 1 to 3 do
    check_bool "probe admitted" true (H.allow b = H.Probe);
    H.cancel_probe b;
    check "no probe evidence accumulated" 0
      (H.observe b).H.probe_successes
  done;
  check_bool "still half-open after declines" true
    (H.state b = H.Half_open);
  (* the full probes_needed count of completed probes is still due *)
  check_bool "probe 1" true (H.allow b = H.Probe);
  H.record_success b;
  check_bool "one success is not enough" true (H.state b = H.Half_open);
  check_bool "probe 2" true (H.allow b = H.Probe);
  H.record_success b;
  check_bool "closed by completed probes" true (H.state b = H.Closed)

(* Property: over arbitrary op sequences, [on_open] fires exactly once
   per transition into [Open], every state edge is legal, and the
   probe slot only exists in [Half_open].  This is the race coverage
   generalized: QCheck explores interleavings (including the two
   pinned above) rather than a hand-picked few. *)
type hcmd = Hc_allow | Hc_fail | Hc_success | Hc_cancel | Hc_tick

let hcmd_name = function
  | Hc_allow -> "allow"
  | Hc_fail -> "fail"
  | Hc_success -> "success"
  | Hc_cancel -> "cancel"
  | Hc_tick -> "tick"

let breaker_hook_race_prop cmds =
  let now, b = mk ~threshold:2 ~cooldown:40L ~probes:2 () in
  let hook_fires = ref 0 in
  H.set_on_open b (fun () -> incr hook_fires);
  let prev = ref (H.state b) in
  List.for_all
    (fun c ->
      (match c with
      | Hc_allow -> ignore (H.allow b)
      | Hc_fail -> H.record_failure b
      | Hc_success -> H.record_success b
      | Hc_cancel -> H.cancel_probe b
      | Hc_tick -> now := Int64.add !now 17L);
      let st = H.state b in
      let legal =
        st = !prev
        ||
        match (!prev, st) with
        | H.Closed, H.Open
        | H.Half_open, H.Open
        | H.Open, H.Half_open
        | H.Half_open, H.Closed ->
            true
        | _ -> false
      in
      prev := st;
      legal
      (* exactly once per Open transition: the counter and the hook
         can never disagree, even mid-race *)
      && !hook_fires = H.opens b
      && ((H.observe b).H.probe_inflight = false || st = H.Half_open))
    cmds

let test_half_open_hook_property =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"breaker: on_open exactly once per open (property)"
       ~count:500
       (QCheck.make
          ~print:(fun l -> String.concat ";" (List.map hcmd_name l))
          ~shrink:QCheck.Shrink.list
          QCheck.Gen.(
            list_size (int_bound 60)
              (oneofl [ Hc_allow; Hc_fail; Hc_success; Hc_cancel; Hc_tick ])))
       breaker_hook_race_prop)

let test_breaker_out_of_band_counters () =
  let _, b = mk () in
  H.record_failover b;
  H.record_failover b;
  H.record_shed b;
  check "failovers" 2 (H.failovers b);
  check "sheds" 1 (H.sheds b);
  (* Out-of-band counters never move the state machine. *)
  check_bool "still closed" false (H.degraded b)

(* A breaker built with no tuning arguments carries the runtime's
   defaults: it opens after 3 consecutive failures, goes half-open
   400,000 cycles later and closes after 4 probe successes. *)
let test_breaker_defaults () =
  let now = ref 0L in
  let b = H.create ~name:"dflt" ~clock:(fun () -> !now) () in
  check_bool "closed at boot" true (H.state b = H.Closed);
  Alcotest.(check string) "named" "dflt" (H.name b);
  H.record_failure b;
  H.record_failure b;
  check_bool "2 failures stay closed" true (H.state b = H.Closed);
  H.record_failure b;
  check_bool "3 failures open" true (H.state b = H.Open);
  now := 399_999L;
  check_bool "slow before the cooldown" true (H.allow b = H.Slow);
  now := 400_000L;
  check_bool "probe at the cooldown" true (H.allow b = H.Probe);
  for i = 1 to 3 do
    H.record_success b;
    check_bool
      (Printf.sprintf "%d probe successes stay half-open" i)
      true
      (H.state b = H.Half_open);
    check_bool "next probe admitted" true (H.allow b = H.Probe)
  done;
  H.record_success b;
  check_bool "4 probe successes close" true (H.state b = H.Closed)

(* {1 End-to-end failover (full SGX harness + fault injector)} *)

let boot_sgx () =
  match Apps.Harness.make Libos.Env.Rakis_sgx () with
  | Ok h -> h
  | Error e -> Alcotest.failf "harness boot: %s" e

let runtime h = Option.get (Libos.Env.runtime h.Apps.Harness.env)

(* Like Test_faults.install_faults, plus the wall-clock step driver
   that [Burst] triggers need (one step per 10µs, as in rakis_run);
   the tick process is perpetual, which is fine because every app
   workload stops the engine explicitly. *)
let install_faults h plan =
  let rt = runtime h in
  let f = Hostos.Faults.create ~obs:(Rakis.Runtime.obs rt) ~seed:11L () in
  F.install f plan;
  Hostos.Kernel.set_faults h.Apps.Harness.kernel (Some f);
  Rakis.Runtime.start_watchdog rt;
  Sim.Engine.spawn h.Apps.Harness.engine ~name:"fault-clock" (fun () ->
      let rec tick step =
        Hostos.Faults.set_step f step;
        Sim.Engine.delay (Sim.Cycles.of_us 10.);
        tick (step + 1)
      in
      tick 0);
  f

let assert_no_leaks h =
  let rt = runtime h in
  Array.iter
    (fun fm ->
      let u = Rakis.Xsk_fm.umem fm in
      check_bool "umem conservation" true (Rakis.Umem.conservation_holds u);
      check "no limbo frames" 0 (Rakis.Umem.limbo u))
    (Rakis.Runtime.xsk_fms rt);
  check_bool "runtime invariant (incl. accounting)" true
    (Rakis.Runtime.invariant_holds rt)

(* The headline availability property: with the XSK FIOKP persistently
   dead (every wakeup dropped, forever), the breaker opens and every
   accepted datagram still completes via the exit-based slow path —
   zero loss, cost measured in exits rather than failures. *)
let test_xsk_persistent_fault_zero_loss () =
  let h = boot_sgx () in
  let f =
    install_faults h [ { I.what = F.Drop_wakeup; when_ = I.Probability 1.0; shard = None } ]
  in
  let r = Apps.Udp_echo.run h ~datagrams:300 ~payload_size:256 in
  check "all datagrams echoed" 300 r.Apps.Udp_echo.echoed;
  check_bool "faults fired" true (F.fired_of f F.Drop_wakeup > 0);
  let b = Rakis.Runtime.shard_breaker (runtime h) 0 in
  check_bool "xsk breaker opened" true (H.opens b >= 1);
  check_bool "traffic rerouted" true (H.failovers b > 0);
  check_bool "still degraded under persistent fault" true (H.degraded b);
  assert_no_leaks h

(* The full degrade/probe/failback arc: a probability-1 burst over
   echo rounds 20..80 opens the breaker; the fault-free tail lets the
   half-open probes succeed and the breaker close again — with every
   datagram of both phases echoed.  Multiple opens prove the
   double-failure path: a probe that dies during quarantine re-opens
   the breaker and triggers another Xsk_fm quarantine-and-reinit. *)
let test_xsk_failback_after_burst () =
  let h = boot_sgx () in
  let f =
    install_faults h
      [
        {
          I.what = F.Drop_wakeup;
          when_ = I.Burst { first_step = 20; last_step = 80; probability = 1.0 };
          shard = None;
        };
      ]
  in
  let r = Apps.Udp_echo.run h ~datagrams:600 ~payload_size:256 in
  check "all datagrams echoed across the arc" 600 r.Apps.Udp_echo.echoed;
  check_bool "burst fired" true (F.fired_of f F.Drop_wakeup > 0);
  let rt = runtime h in
  let b = Rakis.Runtime.shard_breaker rt 0 in
  check_bool "breaker opened" true (H.opens b >= 1);
  check_bool "breaker closed again" true (H.closes b >= 1);
  check_bool "probes were sent" true (H.probes_sent b > 0);
  check_bool "healthy at end" false (H.degraded b);
  (* Each open ran a quarantine-and-reinit; re-opens during failback
     (double failure) make this >= 2 on this deterministic seed. *)
  let reinits =
    Array.fold_left
      (fun acc fm -> acc + Rakis.Xsk_fm.reinits fm)
      0
      (Rakis.Runtime.xsk_fms rt)
  in
  check_bool "quarantine-and-reinit ran per open" true (reinits >= 2);
  assert_no_leaks h

(* Same property on the receive-dominated workload: iperf must not
   lose accepted datagrams when the XSK is persistently dead. *)
let test_iperf_persistent_fault_zero_loss () =
  let h = boot_sgx () in
  let _ =
    install_faults h [ { I.what = F.Drop_wakeup; when_ = I.Probability 1.0; shard = None } ]
  in
  let r = Apps.Iperf.run h ~packet_size:1460 ~packets:2000 in
  check "every sent packet received" r.Apps.Iperf.sent_packets
    r.Apps.Iperf.received_packets;
  check "all packets" 2000 r.Apps.Iperf.received_packets;
  let b = Rakis.Runtime.shard_breaker (runtime h) 0 in
  check_bool "xsk breaker opened" true (H.opens b >= 1);
  check_bool "rx rode the fallback socket" true (H.failovers b > 0);
  assert_no_leaks h

(* Double failure across subsystems: the Monitor crashes *and* the XSK
   wakeups are persistently dropped.  The watchdog restarts the
   Monitor, the breaker reroutes the datapath, and the workload still
   completes losslessly. *)
let test_monitor_crash_plus_xsk_fault () =
  let h = boot_sgx () in
  let f =
    install_faults h
      [
        { I.what = F.Monitor_crash; when_ = I.Once 1.0; shard = None };
        { I.what = F.Drop_wakeup; when_ = I.Probability 1.0; shard = None };
      ]
  in
  let r = Apps.Udp_echo.run h ~datagrams:300 ~payload_size:256 in
  check "all datagrams echoed" 300 r.Apps.Udp_echo.echoed;
  let rt = runtime h in
  check_bool "crash recovered" true
    (F.fired_of f F.Monitor_crash = 0
    || Rakis.Runtime.watchdog_restarts rt >= 1);
  check_bool "xsk breaker opened" true
    (H.opens (Rakis.Runtime.shard_breaker rt 0) >= 1);
  assert_no_leaks h

(* The io_uring side of the same property: with every host submission
   bouncing, fstime's writes fail over through SyncProxy to the
   exit-based path and the benchmark completes at full volume. *)
let test_uring_persistent_fault_fstime_completes () =
  let h = boot_sgx () in
  let f =
    install_faults h
      [ { I.what = F.Transient_errno; when_ = I.Probability 1.0; shard = None } ]
  in
  let blocks = 400 and block_size = 4096 in
  let r = Apps.Fstime.run h ~block_size ~blocks in
  check "every block written" (blocks * block_size) r.Apps.Fstime.bytes;
  check_bool "faults fired" true (F.fired_of f F.Transient_errno > 0);
  let b = Rakis.Runtime.uring_breaker (runtime h) in
  check_bool "uring breaker opened" true (H.opens b >= 1);
  check_bool "ops failed over" true (H.failovers b > 0);
  assert_no_leaks h

(* The acceptance criterion's last clause: the whole failover arc is
   reproducible from a campaign repro token.  The canonical plan opens
   the breaker on both datapaths, the run is violation-free, and the
   token replays it bit-for-bit (fault plan embedded under the
   [faults] key). *)
let test_campaign_failover_repro_roundtrip () =
  List.iter
    (fun dp ->
      let o =
        Tm.Campaign.run
          {
            Tm.Campaign.defaults with
            datapath = dp;
            seed = 81L;
            budget = 120;
            faults = Tm.Campaign.failover_plan ~datapath:dp ~budget:120;
          }
      in
      check_bool "no violations" false (Tm.Campaign.failed o);
      check_bool "breaker opened" true (o.Tm.Campaign.breaker_opens >= 1);
      check_bool "slow path served traffic" true (o.Tm.Campaign.slow_calls > 0);
      match Result.map Tm.Campaign.run (Tm.Campaign.parse_repro (Tm.Campaign.(token_to_string (Campaign o.spec)))) with
      | Error e -> Alcotest.failf "replay: %s" e
      | Ok o' -> check_bool "bit-for-bit replay" true (o = o'))
    [ Tm.Campaign.Xsk; Tm.Campaign.Iouring ]

(* {1 Bare-runtime regressions (Runtime.boot, no LibOS environment)} *)

type fixture = {
  engine : Sim.Engine.t;
  kernel : Hostos.Kernel.t;
  runtime : Rakis.Runtime.t;
}

let boot ?config () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
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

let install_bare_faults fx plan =
  let f = Hostos.Faults.create ~obs:(Rakis.Runtime.obs fx.runtime) ~seed:11L () in
  F.install f plan;
  Hostos.Kernel.set_faults fx.kernel (Some f);
  f

let slow_calls fx =
  Obs.Metrics.get_counter
    (Obs.metrics (Rakis.Runtime.obs fx.runtime))
    "health.slow_calls"

(* The ETIMEDOUT accounting regression.  At the FM, a synchronous op
   whose every attempt bounces surfaces ETIMEDOUT — and must settle its
   in-flight record on the way out.  The leak this pins: [inflight]
   stuck > 0 after the error, wedging admission control shut for the
   rest of the thread's life.  Through the SyncProxy the same op fails
   over and completes on the exit-based slow path, again leaving
   nothing in flight. *)
let test_etimedout_settles_inflight_accounting () =
  let fx = boot ~config:small_config () in
  let _ =
    install_bare_faults fx
      [ { I.what = F.Transient_errno; when_ = I.Probability 1.0; shard = None } ]
  in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          let fm = Rakis.Syncproxy.fm proxy in
          let fd =
            Result.get_ok (Hostos.Kernel.openf fx.kernel ~create:true "/et")
          in
          let buf = Bytes.create 512 in
          (match
             Rakis.Iouring_fm.io fm Write ~fd ~off:0 ~buf ~pos:0 ~len:512
           with
          | Error Abi.Errno.ETIMEDOUT -> ()
          | Error e -> Alcotest.failf "expected ETIMEDOUT, got %a" Abi.Errno.pp e
          | Ok _ -> Alcotest.fail "FM write succeeded under probability-1 faults");
          check_bool "retries were exhausted" true
            (Rakis.Iouring_fm.retries_exhausted fm >= 1);
          check "no in-flight op leaked" 0 (Rakis.Iouring_fm.inflight fm);
          check_bool "accounting holds" true
            (Rakis.Iouring_fm.accounting_holds fm);
          let before = slow_calls fx in
          (match
             Rakis.Syncproxy.io proxy Write ~fd ~off:0 ~buf ~pos:0 ~len:512
           with
          | Ok 512 -> ()
          | Ok n -> Alcotest.failf "short slow-path write %d" n
          | Error e -> Alcotest.failf "proxy write: %a" Abi.Errno.pp e);
          check "completed on the slow path" (before + 1) (slow_calls fx);
          check "nothing in flight after failover" 0
            (Rakis.Iouring_fm.inflight fm);
          check_bool "accounting still holds" true
            (Rakis.Iouring_fm.accounting_holds fm))

(* Admission control: a full pending table refuses new synchronous
   work with EAGAIN (a shed), and releasing the slot re-admits. *)
let test_admission_shed_backpressure () =
  let fx = boot ~config:{ small_config with max_pending = 1 } () in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          let fm = Rakis.Syncproxy.fm proxy in
          (* Park a readiness probe on an idle UDP socket: it never
             completes, so its pending record occupies the whole
             max_pending = 1 budget. *)
          let ufd = Hostos.Kernel.udp_socket fx.kernel in
          (match
             Rakis.Syncproxy.poll_multi proxy
               [ (ufd, Abi.Uring_abi.pollin) ]
               ~deadline:(Sim.Engine.clock fx.engine + 10_000)
           with
          | Ok None -> ()
          | Ok (Some _) -> Alcotest.fail "idle socket reported ready"
          | Error e -> Alcotest.failf "poll_multi: %a" Abi.Errno.pp e);
          let fd =
            Result.get_ok (Hostos.Kernel.openf fx.kernel ~create:true "/shed")
          in
          let buf = Bytes.make 64 'x' in
          (match
             Rakis.Syncproxy.io proxy Write ~fd ~off:0 ~buf ~pos:0 ~len:64
           with
          | Error Abi.Errno.EAGAIN -> ()
          | Error e -> Alcotest.failf "expected EAGAIN, got %a" Abi.Errno.pp e
          | Ok _ -> Alcotest.fail "write admitted past a full pending table");
          check_bool "shed counted" true (Rakis.Iouring_fm.sheds fm >= 1);
          (* Retiring the probe (fd close path) frees the slot. *)
          Rakis.Syncproxy.forget_fd proxy ~fd:ufd;
          (match
             Rakis.Syncproxy.io proxy Write ~fd ~off:0 ~buf ~pos:0 ~len:64
           with
          | Ok 64 -> ()
          | Ok n -> Alcotest.failf "short write %d" n
          | Error e -> Alcotest.failf "re-admitted write: %a" Abi.Errno.pp e);
          check "quiescent in-flight" 0 (Rakis.Iouring_fm.inflight fm);
          check_bool "accounting holds" true
            (Rakis.Iouring_fm.accounting_holds fm))

(* The slow path's cost model (DESIGN.md §9: degraded RAKIS costs what
   Gramine-SGX costs, by construction).  With the breaker open, one
   slow [write] and one slow UDP [sendto] of n bytes each pay exactly
   one enclave exit, n boundary bytes, one slow call and one
   slow-path cycle sample. *)
let open_breaker b =
  let rec go n =
    if H.state b <> H.Open then
      if n = 100 then Alcotest.fail "breaker never opened"
      else begin
        H.record_failure b;
        go (n + 1)
      end
  in
  go 0

let test_slow_path_cost_model () =
  let fx = boot ~config:small_config () in
  let n = 300 in
  let m = Sim.Engine.stats fx.engine in
  let cycles =
    Obs.Metrics.histogram
      (Obs.metrics (Rakis.Runtime.obs fx.runtime))
      "health.slow_path_cycles"
  in
  let snapshot () =
    ( Obs.Metrics.get_counter m "sgx.exits",
      Obs.Metrics.get_counter m "sgx.boundary_bytes",
      slow_calls fx,
      Obs.Metrics.count cycles )
  in
  let one_slow_op what op =
    let e0, b0, c0, h0 = snapshot () in
    (match op () with
    | Ok k -> check (what ^ ": length") n k
    | Error e -> Alcotest.failf "slow %s: %a" what Abi.Errno.pp e);
    let e1, b1, c1, h1 = snapshot () in
    check (what ^ ": one exit") 1 (e1 - e0);
    check (what ^ ": n boundary bytes") n (b1 - b0);
    check (what ^ ": one slow call") 1 (c1 - c0);
    check (what ^ ": one cycle sample") 1 (h1 - h0)
  in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = thread in
          let fd =
            Result.get_ok (Hostos.Kernel.openf fx.kernel ~create:true "/cost")
          in
          let buf = Bytes.make n 'w' in
          open_breaker (Rakis.Runtime.uring_breaker fx.runtime);
          one_slow_op "write" (fun () ->
              Rakis.Syncproxy.io proxy Write ~fd ~off:0 ~buf ~pos:0 ~len:n);
          let sock = Rakis.Runtime.udp_socket fx.runtime in
          (match Rakis.Runtime.udp_bind fx.runtime sock 7001 with
          | Ok () -> ()
          | Error e -> Alcotest.failf "bind: %a" Abi.Errno.pp e);
          open_breaker (Rakis.Runtime.shard_breaker fx.runtime 0);
          one_slow_op "sendto" (fun () ->
              Rakis.Runtime.udp_sendto fx.runtime sock buf
                ~dst:(Hostos.Kernel.client_ip fx.kernel, 9001)))

let suite =
  [
    Alcotest.test_case "breaker: opens on consecutive failures" `Quick
      test_breaker_opens_on_consecutive_failures;
    Alcotest.test_case "breaker: cooldown, probe, close" `Quick
      test_breaker_cooldown_then_probe_then_close;
    Alcotest.test_case "breaker: probe failure re-opens" `Quick
      test_breaker_probe_failure_reopens;
    Alcotest.test_case "breaker: cancel_probe releases slot" `Quick
      test_breaker_cancel_probe_releases_slot;
    Alcotest.test_case "breaker: second failure during probe re-opens once"
      `Quick test_half_open_second_failure_during_probe;
    Alcotest.test_case "breaker: declined probes are not evidence" `Quick
      test_half_open_declined_probes_are_not_evidence;
    test_half_open_hook_property;
    Alcotest.test_case "breaker: out-of-band counters" `Quick
      test_breaker_out_of_band_counters;
    Alcotest.test_case "breaker: defaults" `Quick test_breaker_defaults;
    Alcotest.test_case "e2e: xsk persistent fault, zero loss" `Quick
      test_xsk_persistent_fault_zero_loss;
    Alcotest.test_case "e2e: xsk failback after burst" `Quick
      test_xsk_failback_after_burst;
    Alcotest.test_case "e2e: iperf persistent fault, zero loss" `Quick
      test_iperf_persistent_fault_zero_loss;
    Alcotest.test_case "e2e: monitor crash + xsk fault" `Quick
      test_monitor_crash_plus_xsk_fault;
    Alcotest.test_case "e2e: uring persistent fault, fstime completes" `Quick
      test_uring_persistent_fault_fstime_completes;
    Alcotest.test_case "campaign: failover repro token round-trips" `Quick
      test_campaign_failover_repro_roundtrip;
    Alcotest.test_case "uring: ETIMEDOUT settles accounting" `Quick
      test_etimedout_settles_inflight_accounting;
    Alcotest.test_case "uring: admission shed backpressure" `Quick
      test_admission_shed_backpressure;
    Alcotest.test_case "slow path: one exit, n boundary bytes per op" `Quick
      test_slow_path_cost_model;
  ]
