(* Overload-control unit and property tests (DESIGN.md §15).

   The controller is pure given a clock, so the unit tests drive a
   manual clock through each mechanism — token bucket, hysteretic
   watermarks, the CoDel control law, earliest-deadline-first shedding
   and the control-class exemption — at exact boundaries.  The QCheck
   property then runs whole chaos soaks (flash crowd × rolling faults ×
   malice soup) at random coordinates and checks the books: every
   offered datagram terminates as completed, shed, or an accounted
   drop, and control traffic is never shed. *)

module O = Rakis.Overload
module C = Tm.Campaign

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* A controller on a hand-cranked clock, with small tunables so the
   tests exercise exact boundaries. *)
let make ?(target = 100L) ?(interval = 1_000L) ?(high = 8) ?(low = 2)
    ?(rate = 10) ?(burst = 4) () =
  let clock = ref 0L in
  let t =
    O.create ~name:"test" ~target ~interval ~high_watermark:high
      ~low_watermark:low ~rate ~burst ~sources:2
      ~clock:(fun () -> !clock)
      ()
  in
  (t, clock)

(* Data refusals so far, read from the pure observation. *)
let data_shed t = (O.observe t).O.ob_shed_data

(* {1 Token bucket} *)

let test_token_bucket () =
  let t, clock = make () in
  (* No pressure: data flows freely, no tokens spent. *)
  for _ = 1 to 20 do
    check_bool "free under no pressure" true (O.admit t)
  done;
  check "nothing shed yet" 0 (data_shed t);
  (* Saturate: the bucket gates data at [burst] then [rate]/[interval]. *)
  O.note_depth t ~src:0 8;
  check_bool "saturated at high watermark" true (O.saturated t);
  for i = 1 to 4 do
    check_bool (Printf.sprintf "burst admit %d" i) true (O.admit t)
  done;
  check_bool "bucket empty" false (O.admit t);
  check "one shed" 1 (data_shed t);
  (* rate=10 per interval=1000: 100 cycles buys exactly one token. *)
  clock := Int64.add !clock 100L;
  check_bool "one refilled token" true (O.admit t);
  check_bool "and only one" false (O.admit t);
  (* A long quiet period caps the bucket at [burst], not unbounded. *)
  clock := Int64.add !clock 1_000_000L;
  let admitted = ref 0 in
  for _ = 1 to 20 do
    if O.admit t then incr admitted
  done;
  check "refill capped at burst" 4 !admitted

(* {1 Hysteretic watermarks, multiple depth sources} *)

let test_hysteresis () =
  let t, _clock = make () in
  O.note_depth t ~src:0 7;
  check_bool "below high watermark" false (O.saturated t);
  O.note_depth t ~src:0 8;
  check_bool "at high watermark" true (O.saturated t);
  (* Between the watermarks: the mark must hold (no flapping). *)
  O.note_depth t ~src:0 5;
  check_bool "holds between watermarks" true (O.saturated t);
  O.note_depth t ~src:0 2;
  check_bool "clears at low watermark" false (O.saturated t);
  O.note_depth t ~src:0 5;
  check_bool "re-raising needs high watermark" false (O.saturated t)

let test_multi_source_max () =
  let t, _clock = make () in
  (* Source 1 (an XSK rx backlog) floods while source 0 (the socket
     queue) stays shallow: the shard is saturated on the max. *)
  O.note_depth ~src:1 t 9;
  check_bool "one flooded source saturates" true (O.saturated t);
  O.note_depth ~src:0 t 0;
  check_bool "a shallow sibling cannot clear it" true (O.saturated t);
  O.note_depth ~src:1 t 1;
  check_bool "clears once every source drains" false (O.saturated t)

(* The runtime sizes a shard's depth table from the sources it wires —
   the socket queue plus one per XSK — so with eight XSKs the last two
   rings (sources 7 and 8) keep separate slots: an idle ring reporting
   0 cannot erase a flooded ring's backlog. *)
let test_depth_sources_per_xsk () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine ~nic_queues:8 () in
  let config = { Rakis.Config.default with num_xsks = 8; overload = true } in
  match Rakis.Runtime.boot kernel ~sgx:true ~config () with
  | Error e -> Alcotest.fail e
  | Ok rt ->
      let t = Option.get (Rakis.Runtime.shard_overload rt 0) in
      O.note_depth t ~src:8 (O.high_watermark t);
      check_bool "the eighth XSK's flooded ring saturates" true (O.saturated t);
      O.note_depth t ~src:7 0;
      check_bool "the seventh XSK's idle ring cannot clear it" true
        (O.saturated t)

(* {1 CoDel control law} *)

let test_codel () =
  let t, clock = make () in
  (* Above target, but not yet for a full interval: no shedding. *)
  O.observe_sojourn t 500L;
  check_bool "first above-target sojourn" false (O.shedding t);
  clock := 999L;
  O.observe_sojourn t 500L;
  check_bool "interval not yet elapsed" false (O.shedding t);
  clock := 1_000L;
  O.observe_sojourn t 500L;
  check_bool "above target for a full interval" true (O.shedding t);
  (* One good sojourn ends the episode. *)
  O.observe_sojourn t 50L;
  check_bool "one below-target sojourn clears" false (O.shedding t);
  (* And the next episode needs a fresh full interval. *)
  clock := 1_500L;
  O.observe_sojourn t 500L;
  check_bool "fresh episode restarts the clock" false (O.shedding t)

(* {1 Earliest-deadline-first} *)

let test_edf_slack () =
  let t, clock = make () in
  (* Enter the shedding state with a standing sojourn of 400 cycles. *)
  O.observe_sojourn t 400L;
  clock := 1_000L;
  O.observe_sojourn t 400L;
  check_bool "shedding" true (O.shedding t);
  (* Slack below the standing sojourn: doomed, shed before any token
     is spent. *)
  check_bool "doomed request shed" false (O.admit ~slack:399L t);
  check "counted as deadline shed" 1 (O.deadline_shed t);
  (* Slack at/above the sojourn competes normally (tokens permitting). *)
  check_bool "viable request admitted" true (O.admit ~slack:400L t);
  check "no further deadline sheds" 1 (O.deadline_shed t)

(* {1 Control traffic is never shed} *)

let test_control_never_shed () =
  let t, _clock = make () in
  O.note_depth t ~src:0 100;
  (* Drain the bucket far past empty: 100% of data is being shed... *)
  for _ = 1 to 100 do
    ignore (O.admit t)
  done;
  let shed = data_shed t in
  check_bool "data is being shed" true (shed > 0);
  (* ...and every control admission — the Half_open breaker probe —
     still passes: [admit_control] has no verdict to refuse with. *)
  for _ = 1 to 100 do
    O.admit_control t
  done;
  check "control admissions counted" 100 (O.control_admitted t);
  check "control admissions shed nothing" shed (data_shed t)

(* {1 Accounting identity under random chaos (QCheck)}

   The soak composes a flash crowd, a rolling shard-pinned fault plan
   and a seeded malice soup — and must keep the books balanced at any
   coordinate: offered = completed + shed + accounted drops (no silent
   loss), with zero control-class sheds.  Small step counts keep each
   case under a second; the full-scale gate runs in [tm_verify --soak]. *)

let soak_accounting =
  QCheck.Test.make ~count:6 ~name:"soak accounting: no silent loss, no control shed"
    QCheck.(
      triple (int_range 800 2500) (int_range 1 2) (int_range 0 10_000))
    (fun (steps, queues, seed) ->
      let o =
        C.soak
          { C.soak_defaults with steps; queues; seed = Int64.of_int seed }
      in
      (not o.C.sk_stalled)
      && o.C.sk_unaccounted = 0
      && o.C.sk_control_shed = 0)

(* {1 The one loss total}

   Every silent-loss check subtracts {!Rakis.Runtime.total_losses}.  An
   rx-gate shed is both a stack drop ([drop.overload-shed]) and a
   controller shed ([shed.data]); the total must count it once. *)

let overload_harness () =
  match
    Apps.Harness.make Libos.Env.Rakis_sgx
      ~rakis_config:{ Rakis.Config.default with overload = true }
      ()
  with
  | Ok h -> h
  | Error e -> Alcotest.fail e

let runtime (h : Apps.Harness.t) = Option.get (Libos.Env.runtime h.env)

(* [(total_losses, rx-gate sheds)], the total recomputed from its parts
   with every rx-gate shed counted once. *)
let losses_once rt =
  let module R = Rakis.Runtime in
  let shards = List.init (R.shard_count rt) Fun.id in
  let sum f = List.fold_left (fun acc k -> acc + f k) 0 shards in
  let drops k = Netstack.Stack.drop_reasons (R.shard_stack rt k) in
  let stack_drops = sum (fun k -> List.fold_left (fun a (_, n) -> a + n) 0 (drops k)) in
  let rx_gate =
    sum (fun k -> Option.value ~default:0 (List.assoc_opt "overload-shed" (drops k)))
  in
  let parts =
    stack_drops + R.total_edge_drops rt + R.total_desc_rejects rt
    + R.total_ring_check_failures rt
    + Hostos.Kernel.wire_losses (R.kernel rt)
    + R.total_overload_shed rt
  in
  (parts - rx_gate, rx_gate)

let test_loss_total_counts_rx_gate_sheds_once () =
  (* A flash crowd of 640 connections on an overload-controlled
     server: the rx gate sheds thousands of requests. *)
  let h = overload_harness () in
  let s =
    Apps.Loadgen.run h ~server_threads:4
      ~config:
        {
          Apps.Loadgen.default with
          connections = 640;
          ops = 12_000;
          flash = Some { at_op = 2000; extra_connections = 64; crowd_ops = 2000 };
        }
  in
  let rt = runtime h in
  let once, rx_gate = losses_once rt in
  check_bool "the rx gate shed" true (rx_gate > 1000);
  check "rx-gate sheds counted once" once (Rakis.Runtime.total_losses rt);
  let machine = Sim.Engine.stats h.engine in
  check "silent_loss subtracts the total"
    (s.Apps.Loadgen.lost - s.late - s.rdp_gave_up - once
    - Obs.Metrics.get_counter machine "udp.no_socket_drops"
    - Obs.Metrics.get_counter machine "udp.buffer_drops")
    (Apps.Loadgen.silent_loss s h rt);
  check_bool "no silent loss" true (Apps.Loadgen.silent_loss s h rt <= 0);
  (* The echo workload's shed leg, beside a flood into an enclave
     socket nobody reads: its queue passes the high watermark and the
     rx gate sheds the rest. *)
  let h = overload_harness () in
  let sink = (Packet.Addr.Ip.of_repr "10.0.0.1", 9000) in
  Sim.Engine.spawn h.engine ~name:"sink" (fun () ->
      let api = Apps.Harness.api h in
      ignore (api.Libos.Api.bind (api.Libos.Api.udp_socket ()) sink));
  Sim.Engine.spawn h.engine ~name:"flood" (fun () ->
      let peer = h.peer in
      let fd = peer.Libos.Api.udp_socket () in
      Sim.Engine.delay (Sim.Cycles.of_us 60.);
      for _ = 1 to 2000 do
        ignore (peer.Libos.Api.sendto fd (Bytes.make 64 'f') sink)
      done);
  let r = Apps.Udp_echo.run h ~datagrams:400 ~payload_size:64 in
  let rt = runtime h in
  let once, rx_gate = losses_once rt in
  check_bool "the flood hit the rx gate" true (rx_gate > 0);
  check "udp_echo shed leg"
    (once - Hostos.Kernel.wire_losses (Rakis.Runtime.kernel rt))
    r.Apps.Udp_echo.shed;
  (* The soak's books close on the same total. *)
  let o = C.soak { C.soak_defaults with steps = 1500; seed = 7L } in
  check_bool "soak crowd shed" true (o.C.sk_shed > 0);
  check "soak unaccounted" (max 0 (o.C.sk_lost - o.C.sk_late - o.C.sk_accounted))
    o.C.sk_unaccounted;
  check_bool "soak accounted covers its sheds and edge drops" true
    (o.C.sk_accounted >= o.C.sk_shed + o.C.sk_edge_drops)

let suite =
  [
    Alcotest.test_case "overload: token bucket under pressure" `Quick
      test_token_bucket;
    Alcotest.test_case "overload: hysteretic watermarks" `Quick test_hysteresis;
    Alcotest.test_case "overload: multi-source depth max" `Quick
      test_multi_source_max;
    Alcotest.test_case "overload: one depth slot per wired XSK" `Quick
      test_depth_sources_per_xsk;
    Alcotest.test_case "overload: CoDel control law" `Quick test_codel;
    Alcotest.test_case "overload: earliest-deadline-first shedding" `Quick
      test_edf_slack;
    Alcotest.test_case "overload: control class never shed" `Quick
      test_control_never_shed;
    QCheck_alcotest.to_alcotest ~long:false soak_accounting;
    Alcotest.test_case "loss total: rx-gate sheds counted once" `Quick
      test_loss_total_counts_rx_gate_sheds_once;
  ]
