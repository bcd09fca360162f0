(* Tests for the fault-injection host kernel (Hostos.Faults) and the
   enclave-side recovery machinery (DESIGN.md §8): transient-errno
   taxonomy, deterministic backoff, fault-plan parsing, UMem leak
   accounting, the Monitor watchdog, and end-to-end recovery of the
   UDP echo workload under injected faults. *)

module F = Hostos.Faults
module I = Hostos.Injector

(* A schedule entry firing [what] once, at the first opportunity on or
   after workload step [step]. *)
let at step what = { I.what; when_ = I.At_step step; shard = None }
module B = Sim.Backoff

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* {1 Errno taxonomy (satellite: lib/abi/errno)} *)

let test_errno_roundtrip () =
  List.iter
    (fun e ->
      let code = Abi.Errno.to_int e in
      match Abi.Errno.of_int code with
      | Some e' -> check_bool (Printf.sprintf "errno %d roundtrips" code) true (e = e')
      | None -> Alcotest.failf "errno code %d did not parse back" code)
    Abi.Errno.all

let test_errno_transient () =
  List.iter
    (fun e -> check_bool "transient" true (Abi.Errno.is_transient e))
    Abi.Errno.[ EAGAIN; EINTR; ENOBUFS; EIO ];
  (* ETIMEDOUT is the terminal verdict retry loops *return* on
     exhaustion — if it were transient, recovery would recurse. *)
  List.iter
    (fun e -> check_bool "not transient" false (Abi.Errno.is_transient e))
    Abi.Errno.[ ETIMEDOUT; EPERM; EBADF ];
  List.iter
    (fun e -> check_bool "transient list agrees" true (Abi.Errno.is_transient e))
    Abi.Errno.transient

(* {1 Deterministic exponential backoff} *)

let test_backoff_monotone_bounded_deterministic =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"backoff: monotone, bounded, deterministic"
       ~count:200
       (QCheck.make
          QCheck.Gen.(
            triple (1 -- 1000) (1 -- 64) (map Int64.of_int (0 -- 10_000))))
       (fun (base, cap_mult, seed) ->
         let base64 = Int64.of_int base in
         let cap = Int64.mul base64 (Int64.of_int cap_mult) in
         let delays t = List.init 80 (fun _ -> B.next t) in
         let a = delays (B.create ~seed ~base:base64 ~cap ()) in
         let b = delays (B.create ~seed ~base:base64 ~cap ()) in
         (* Deterministic per seed. *)
         a = b
         (* Bounded by the cap and positive. *)
         && List.for_all
              (fun d -> Int64.compare d 0L > 0 && Int64.compare d cap <= 0)
              a
         (* Monotone nondecreasing: delay n is drawn from
            [2^n*base, 2^(n+1)*base) clamped to the cap, so successive
            envelopes never overlap downward and the sequence plateaus
            at the cap. *)
         && fst
              (List.fold_left
                 (fun (ok, prev) d -> (ok && Int64.compare d prev >= 0, d))
                 (true, 0L) a)))

let test_backoff_reset () =
  let t = B.create ~seed:5L ~base:100L ~cap:10_000L () in
  let first = B.next t in
  let _ = B.next t in
  let _ = B.next t in
  check "attempts advance" 3 (B.attempt t);
  B.reset t;
  check "reset rewinds" 0 (B.attempt t);
  (* Same RNG stream continues, but the envelope restarts at [base]:
     the first post-reset delay is back under 2*base. *)
  check_bool "envelope restarts" true (Int64.compare (B.next t) 200L < 0);
  ignore first

(* {1 Fault plans: parse/print round-trip} *)

let test_plan_roundtrip () =
  let plan =
    [
      { I.what = F.Transient_errno; when_ = I.Probability 0.05; shard = None };
      { I.what = F.Short_io; when_ = I.Once 1.0; shard = None };
      { I.what = F.Drop_wakeup; when_ = I.Once 0.25; shard = None };
      { I.what = F.Monitor_crash; when_ = I.At_step 200; shard = None };
      {
        I.what = F.Nic_stall;
        when_ = I.Burst { first_step = 10; last_step = 40; probability = 0.5 };
          shard = None;
      };
    ]
  in
  let s = F.plan_to_string plan in
  match F.plan_of_string s with
  | Error e -> Alcotest.failf "plan %S did not parse: %s" s e
  | Ok plan' ->
      check_bool "roundtrip" true (plan = plan');
      check_bool "empty plan" true (F.plan_of_string "" = Ok [])

let test_plan_rejects_garbage () =
  List.iter
    (fun s ->
      match F.plan_of_string s with
      | Ok _ -> Alcotest.failf "plan %S should not parse" s
      | Error _ -> ())
    [ "@0.5=unknown-fault"; "nonsense"; "..3@x=short-io"; "=short-io" ]

let test_fault_names_roundtrip () =
  List.iter
    (fun f ->
      match F.plan_of_string ("persist=" ^ F.name f) with
      | Ok [ { I.what; _ } ] -> check_bool (F.name f) true (f = what)
      | _ -> Alcotest.failf "fault name %s did not parse" (F.name f))
    F.all

(* {1 Trigger semantics} *)

let test_triggers () =
  let f = F.create ~seed:3L () in
  check_bool "unarmed never fires" false (F.roll (Some f) F.Short_io);
  check_bool "no injector never fires" false (F.roll None F.Short_io);
  F.arm f (I.Probability 1.0) F.Short_io;
  check_bool "probability 1 fires" true (F.roll (Some f) F.Short_io);
  F.disarm f F.Short_io;
  check_bool "disarmed" false (F.roll (Some f) F.Short_io);
  F.arm f (I.At_step 5) F.Monitor_crash;
  F.set_step f 4;
  check_bool "before step" false (F.roll (Some f) F.Monitor_crash);
  F.set_step f 5;
  check_bool "at step" true (F.roll (Some f) F.Monitor_crash);
  check_bool "spent" false (F.roll (Some f) F.Monitor_crash);
  F.record f F.Monitor_crash;
  check "recorded" 1 (F.fired_of f F.Monitor_crash);
  check "total" 1 (F.fired f)

(* {1 UMem leak accounting} *)

let test_umem_conservation_and_reclaim () =
  let u = Rakis.Umem.create ~size:(8 * 2048) ~frame_size:2048 () in
  check_bool "full pool conserves" true (Rakis.Umem.conservation_holds u);
  let off1 = Option.get (Rakis.Umem.alloc u) in
  let off2 = Option.get (Rakis.Umem.alloc u) in
  check "limbo tracks allocs" 2 (Rakis.Umem.limbo u);
  check_bool "conserves in limbo" true (Rakis.Umem.conservation_holds u);
  Rakis.Umem.commit u off1 Rakis.Umem.Tx;
  Rakis.Umem.commit u off2 Rakis.Umem.Rx;
  check "limbo drains" 0 (Rakis.Umem.limbo u);
  check "tx outstanding" 1 (Rakis.Umem.outstanding u Rakis.Umem.Tx);
  (* The kernel "loses" both frames (never completes them): the reinit
     path pulls every outstanding frame home in one sweep. *)
  check "reclaimed both" 2 (Rakis.Umem.reclaim_outstanding u);
  check "none outstanding" 0
    (Rakis.Umem.outstanding u Rakis.Umem.Tx
    + Rakis.Umem.outstanding u Rakis.Umem.Rx);
  check "free again" 8 (Rakis.Umem.free_frames u);
  check_bool "conserves after reclaim" true (Rakis.Umem.conservation_holds u);
  check "force_reclaims counted" 2 (Rakis.Umem.force_reclaims u);
  (* A stale kernel descriptor for a reclaimed frame must be refused. *)
  (match Rakis.Umem.reclaim u Rakis.Umem.Tx ~offset:off1 () with
  | Error (Rakis.Umem.Wrong_owner _) -> ()
  | Ok () -> Alcotest.fail "stale descriptor accepted after force-reclaim"
  | Error r ->
      Alcotest.failf "unexpected reject %s"
        (Format.asprintf "%a" Rakis.Umem.pp_reject r));
  check_bool "still conserves" true (Rakis.Umem.conservation_holds u)

(* {1 Watchdog and end-to-end recovery} *)

let boot_sgx () =
  match Apps.Harness.make Libos.Env.Rakis_sgx () with
  | Ok h -> h
  | Error e -> Alcotest.failf "harness boot: %s" e

let runtime h = Option.get (Libos.Env.runtime h.Apps.Harness.env)

let install_faults h plan =
  let rt = runtime h in
  let f = Hostos.Faults.create ~obs:(Rakis.Runtime.obs rt) ~seed:11L () in
  F.install f plan;
  Hostos.Kernel.set_faults h.Apps.Harness.kernel (Some f);
  Rakis.Runtime.start_watchdog rt;
  f

(* A crashed Monitor must be detected and restarted within one watchdog
   period plus the heartbeat-staleness timeout (DESIGN.md §8's bound),
   and the degraded scan must run. *)
let test_watchdog_detection_latency () =
  let h = boot_sgx () in
  let f = install_faults h [ { I.what = F.Monitor_crash; when_ = I.Once 1.0; shard = None } ] in
  let rt = runtime h in
  let mon = Rakis.Runtime.monitor rt in
  let bound =
    Int64.add Sgx.Params.watchdog_period
      (Int64.add Sgx.Params.watchdog_timeout Sgx.Params.mm_heartbeat_period)
  in
  Sim.Engine.spawn h.Apps.Harness.engine (fun () ->
      (* Let the Monitor reach its first heartbeat and die on it. *)
      Sim.Engine.delay (Int64.mul 2L Sgx.Params.mm_heartbeat_period);
      check "crash injected" 1 (F.fired_of f F.Monitor_crash);
      check_bool "monitor dead" false (Rakis.Monitor.alive mon);
      let gen = Rakis.Monitor.generation mon in
      Sim.Engine.delay bound;
      check_bool "monitor restarted within bound" true (Rakis.Monitor.alive mon);
      check_bool "generation bumped" true (Rakis.Monitor.generation mon > gen);
      check_bool "watchdog counted the restart" true
        (Rakis.Runtime.watchdog_restarts rt >= 1);
      Apps.Harness.stop h);
  Apps.Harness.run h ~until:(Sim.Cycles.of_sec 2.)

let assert_no_leaks h =
  let rt = runtime h in
  Array.iter
    (fun fm ->
      let u = Rakis.Xsk_fm.umem fm in
      check_bool "umem conservation" true (Rakis.Umem.conservation_holds u);
      check "no limbo frames" 0 (Rakis.Umem.limbo u))
    (Rakis.Runtime.xsk_fms rt);
  check_bool "runtime invariant (incl. conservation)" true
    (Rakis.Runtime.invariant_holds rt)

(* The paper-§1 workload must complete every round trip under a
   mid-run Monitor crash plus lossy wakeups: faults cost latency only,
   never datagrams, and never leak UMem frames. *)
let test_udp_echo_completes_under_faults () =
  let h = boot_sgx () in
  let f =
    install_faults h
      [
        { I.what = F.Monitor_crash; when_ = I.Once 0.01; shard = None };
        { I.what = F.Drop_wakeup; when_ = I.Probability 0.05; shard = None };
        { I.what = F.Delay_wakeup; when_ = I.Probability 0.02; shard = None };
      ]
  in
  let r = Apps.Udp_echo.run h ~datagrams:300 ~payload_size:256 in
  check "all datagrams echoed" 300 r.Apps.Udp_echo.echoed;
  check_bool "faults actually fired" true (F.fired f > 0);
  check_bool "crash recovered" true
    (F.fired_of f F.Monitor_crash = 0
    || Rakis.Runtime.watchdog_restarts (runtime h) >= 1);
  assert_no_leaks h

(* Fault-free runs must not regress: no injector, no watchdog, and the
   engine still drains (a perpetual recovery timer would hang this). *)
let test_udp_echo_fault_free_unchanged () =
  let h = boot_sgx () in
  let r = Apps.Udp_echo.run h ~datagrams:100 ~payload_size:256 in
  check "all echoed" 100 r.Apps.Udp_echo.echoed;
  check "nothing injected" 0
    (match Hostos.Kernel.faults h.Apps.Harness.kernel with
    | None -> 0
    | Some f -> F.fired f);
  assert_no_leaks h

(* {1 Campaign integration: composition and bit-for-bit replay} *)

let fault_mix =
  [
    { I.what = F.Transient_errno; when_ = I.Probability 0.1; shard = None };
    { I.what = F.Short_io; when_ = I.Probability 0.05; shard = None };
    { I.what = F.Partial_cqe; when_ = I.Probability 0.05; shard = None };
    { I.what = F.Drop_wakeup; when_ = I.Probability 0.05; shard = None };
    { I.what = F.Monitor_crash; when_ = I.At_step 12; shard = None };
  ]

let test_campaign_faults_no_violations () =
  List.iter
    (fun dp ->
      let o =
        Tm.Campaign.run
          {
            Tm.Campaign.defaults with
            datapath = dp;
            seed = 9L;
            budget = 24;
            faults = fault_mix;
          }
      in
      check_bool "no violations" false (Tm.Campaign.failed o);
      check_bool "faults injected" true
        (List.fold_left (fun a (_, n) -> a + n) 0 o.Tm.Campaign.injected > 0))
    [ Tm.Campaign.Xsk; Tm.Campaign.Iouring ]

let test_campaign_fault_repro_roundtrip () =
  let schedule = [ at 6 Hostos.Malice.Prod_overshoot ] in
  let o =
    Tm.Campaign.run
      {
        Tm.Campaign.defaults with
        datapath = Tm.Campaign.Iouring;
        seed = 9L;
        budget = 24;
        schedule;
        faults = fault_mix;
      }
  in
  let token = Tm.Campaign.(token_to_string (Campaign o.spec)) in
  (* kind, seed, budget, attacks, faults *)
  check_bool "token has 5 segments" true
    (List.length (String.split_on_char ':' token) = 5);
  (match Tm.Campaign.parse_repro token with
  | Error e -> Alcotest.failf "parse_repro %S: %s" token e
  | Ok spec ->
      check_bool "schedule survives" true
        (spec.Tm.Campaign.schedule = schedule);
      check_bool "fault plan survives" true
        (spec.Tm.Campaign.faults = fault_mix));
  match Result.map Tm.Campaign.run (Tm.Campaign.parse_repro token) with
  | Error e -> Alcotest.failf "replay %S: %s" token e
  | Ok o' -> check_bool "bit-for-bit replay" true (o = o')

(* A probability with more than six significant digits (fault_soup
   draws them) must reach the replay unrounded. *)
let test_campaign_full_precision_replay () =
  let o =
    Tm.Campaign.run
      {
        Tm.Campaign.defaults with
        datapath = Tm.Campaign.Iouring;
        seed = 3L;
        budget = 40;
        faults =
          [
            {
              I.what = F.Transient_errno;
              when_ = I.Probability 0.0123456789;
              shard = None;
            };
          ];
      }
  in
  let token = Tm.Campaign.(token_to_string (Campaign o.spec)) in
  match Result.map Tm.Campaign.run (Tm.Campaign.parse_repro token) with
  | Error e -> Alcotest.failf "replay: %s" e
  | Ok o' -> check_bool "bit-for-bit replay" true (o = o')

let test_fault_soup_generator () =
  let a = Tm.Campaign.fault_soup ~seed:5L ~budget:64 () in
  let b = Tm.Campaign.fault_soup ~seed:5L ~budget:64 () in
  check_bool "deterministic" true (a = b);
  check "default entries" 6 (List.length a);
  List.iter
    (fun { I.what; when_; _ } ->
      match (what, when_) with
      | (F.Monitor_crash | F.Monitor_hang), I.At_step _ -> ()
      | (F.Monitor_crash | F.Monitor_hang), _ ->
          Alcotest.fail "monitor faults must be pinned to a step"
      | _ -> ())
    a

let suite =
  [
    Alcotest.test_case "errno roundtrip incl. new codes" `Quick
      test_errno_roundtrip;
    Alcotest.test_case "errno transient taxonomy" `Quick test_errno_transient;
    test_backoff_monotone_bounded_deterministic;
    Alcotest.test_case "backoff reset" `Quick test_backoff_reset;
    Alcotest.test_case "fault plan roundtrip" `Quick test_plan_roundtrip;
    Alcotest.test_case "fault plan rejects garbage" `Quick
      test_plan_rejects_garbage;
    Alcotest.test_case "fault names roundtrip" `Quick test_fault_names_roundtrip;
    Alcotest.test_case "trigger semantics" `Quick test_triggers;
    Alcotest.test_case "umem conservation and force-reclaim" `Quick
      test_umem_conservation_and_reclaim;
    Alcotest.test_case "watchdog detection latency" `Quick
      test_watchdog_detection_latency;
    Alcotest.test_case "udp_echo completes under faults" `Quick
      test_udp_echo_completes_under_faults;
    Alcotest.test_case "udp_echo fault-free unchanged" `Quick
      test_udp_echo_fault_free_unchanged;
    Alcotest.test_case "campaign: fault mix, no violations" `Slow
      test_campaign_faults_no_violations;
    Alcotest.test_case "campaign: 5-segment repro replays" `Slow
      test_campaign_fault_repro_roundtrip;
    Alcotest.test_case "campaign: full-precision fault plan replays" `Slow
      test_campaign_full_precision_replay;
    Alcotest.test_case "fault soup generator" `Quick test_fault_soup_generator;
  ]
