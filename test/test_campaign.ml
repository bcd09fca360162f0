(* Tests for the adversarial campaign engine: deterministic attack
   schedules over full enclave↔host simulations, the differential ring
   oracle, the trace shrinker, and the Malice scheduling hooks they are
   built on. *)

module C = Tm.Campaign
module M = Hostos.Malice
module F = Hostos.Faults

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let total_fired (o : C.outcome) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 o.C.fired

let fired_of (o : C.outcome) attack =
  match List.assoc_opt attack o.C.fired with Some n -> n | None -> 0

let label dp attack =
  Printf.sprintf "%s/%s"
    (match dp with C.Xsk -> "xsk" | C.Iouring -> "io_uring")
    (M.attack_name attack)

(* {1 Malice scheduling hooks (satellite: per-attack counts)} *)

let test_malice_per_attack_counts () =
  let m = M.create ~seed:3L () in
  M.record m M.Prod_overshoot;
  M.record m M.Prod_overshoot;
  M.record m M.Corrupt_packet;
  check "total" 3 (M.fired m);
  check "prod-overshoot" 2 (M.fired_of m M.Prod_overshoot);
  check "corrupt-packet" 1 (M.fired_of m M.Corrupt_packet);
  check "unfired" 0 (M.fired_of m M.Cqe_bogus_res);
  Alcotest.(check (list (pair string int)))
    "fired_counts"
    [ ("prod-overshoot", 2); ("corrupt-packet", 1) ]
    (List.map (fun (a, n) -> (M.attack_name a, n)) (M.fired_counts m))

let test_malice_arm_at () =
  let m = M.create ~seed:3L () in
  M.arm_at m ~step:5 M.Oversize_len;
  for s = 0 to 4 do
    M.set_step m s;
    check_bool "before step" false (M.roll (Some m) M.Oversize_len)
  done;
  M.set_step m 5;
  check_bool "at step" true (M.roll (Some m) M.Oversize_len);
  check_bool "spent" false (M.roll (Some m) M.Oversize_len);
  M.set_step m 9;
  check_bool "stays spent" false (M.roll (Some m) M.Oversize_len)

let test_malice_arm_at_late_opportunity () =
  (* No opportunity at the exact step: fires at the first one after. *)
  let m = M.create ~seed:3L () in
  M.arm_at m ~step:5 M.Foreign_frame;
  M.set_step m 7;
  check_bool "first opportunity after step" true (M.roll (Some m) M.Foreign_frame);
  check_bool "once only" false (M.roll (Some m) M.Foreign_frame)

let test_malice_arm_once () =
  let m = M.create ~seed:3L () in
  M.arm_once m M.Cons_regress;
  check_bool "fires" true (M.roll (Some m) M.Cons_regress);
  check_bool "spent" false (M.roll (Some m) M.Cons_regress)

let test_malice_arm_burst () =
  let m = M.create ~seed:3L () in
  M.arm_burst m ~first_step:3 ~last_step:5 M.Prod_regress;
  let fired_at s =
    M.set_step m s;
    M.roll (Some m) M.Prod_regress
  in
  check_bool "before window" false (fired_at 2);
  check_bool "inside 3" true (fired_at 3);
  check_bool "inside 4" true (fired_at 4);
  check_bool "inside 5" true (fired_at 5);
  check_bool "after window" false (fired_at 6)

let test_malice_arm_replaces () =
  let m = M.create ~seed:3L () in
  M.arm_at m ~step:90 M.Oversize_len;
  M.arm m ~probability:0.0 M.Oversize_len;
  M.set_step m 95;
  check_bool "arm replaced the schedule" false (M.roll (Some m) M.Oversize_len);
  check_bool "armed (p=0 still installed)" true (M.armed m M.Oversize_len)

(* {1 End-to-end singles: every Table 2 attack on both datapaths} *)

(* One attack pinned mid-run: the workload must survive, the attack must
   actually fire, and the tail of the run must verify cleanly again
   (recovery). *)
let single dp attack =
  let seed = Flake.seed 21L in
  Flake.guard ~name:(label dp attack) ~seed @@ fun () ->
  let o = C.run ~datapath:dp ~seed ~budget:32 [ C.At { step = 8; attack } ] in
  check_bool
    (label dp attack ^ ": no violation")
    false (C.failed o);
  check_bool (label dp attack ^ ": fired") true (fired_of o attack >= 1);
  check_bool (label dp attack ^ ": verified ops") true (o.C.ok > 0);
  check_bool (label dp attack ^ ": recovered") true (o.C.late_ok > 0);
  check_bool (label dp attack ^ ": invariant") true o.C.invariant_ok;
  o

(* Index smashes and descriptor/CQE forgeries are detectable: some
   certified rejection must have been recorded. *)
let detected (o : C.outcome) dp attack =
  check_bool
    (label dp attack ^ ": detected")
    true
    (o.C.ring_rejects + o.C.desc_rejects > 0)

let index_attacks =
  M.[ Prod_overshoot; Prod_regress; Cons_overshoot; Cons_regress ]

let test_singles_xsk () =
  List.iter
    (fun attack ->
      let o = single C.Xsk attack in
      if List.mem attack index_attacks then detected o C.Xsk attack)
    (C.applicable C.Xsk)

let test_singles_iouring () =
  List.iter
    (fun attack ->
      let o = single C.Iouring attack in
      if attack <> M.Corrupt_packet then detected o C.Iouring attack)
    (C.applicable C.Iouring)

let test_xsk_blind_spots () =
  (* The two CQE forgeries have no XSK-side hook: scheduling them on the
     XSK datapath must be a clean no-op (fired = 0), documenting which
     attacks live on which datapath. *)
  List.iter
    (fun attack ->
      let o =
        C.run ~datapath:C.Xsk ~seed:21L ~budget:24 [ C.At { step = 6; attack } ]
      in
      check (label C.Xsk attack ^ ": never fires") 0 (total_fired o);
      check_bool (label C.Xsk attack ^ ": clean") false (C.failed o))
    M.[ Cqe_wrong_user_data; Cqe_bogus_res ]

let test_applicable_covers_all_attacks () =
  check "io_uring covers all but the notif forgeries and wire attacks"
    (List.length M.all_attacks - 6)
    (List.length (C.applicable C.Iouring));
  check "io_uring + zerocopy adds the two refusable notif forgeries"
    (List.length M.all_attacks - 4)
    (List.length (C.applicable ~zerocopy:true C.Iouring));
  check "xsk covers all but the CQE and notif forgeries"
    (List.length M.all_attacks - 5)
    (List.length (C.applicable C.Xsk));
  (* Dropped_notif deterministically fails a zero-copy campaign
     (zc_leaks > 0), so it never joins the no-violation singles pool —
     the golden dropped-notif test owns it. *)
  check_bool "dropped-notif never in the pool" false
    (List.mem M.Dropped_notif (C.applicable ~zerocopy:true C.Iouring))

(* {1 Zero-copy campaigns: SEND_ZC notif forgeries and leaks} *)

(* The machine boots with config.zerocopy: sends go out as SEND_ZC from
   registered frames, so the notif forgeries have a hook.  The FM must
   refuse them (no frame freed early), leak nothing, and stay clean. *)
let test_singles_iouring_zerocopy () =
  List.iter
    (fun attack ->
      let seed = Flake.seed 23L in
      Flake.guard ~name:("zc " ^ label C.Iouring attack) ~seed @@ fun () ->
      let o =
        C.run ~datapath:C.Iouring ~seed ~budget:32 ~zerocopy:true
          [ C.At { step = 8; attack } ]
      in
      check_bool (label C.Iouring attack ^ ": no violation") false (C.failed o);
      check_bool
        (label C.Iouring attack ^ ": fired")
        true
        (fired_of o attack >= 1);
      check_bool (label C.Iouring attack ^ ": verified ops") true (o.C.ok > 0);
      check_bool (label C.Iouring attack ^ ": sends were zero-copy") true
        (o.C.zc_sends > 0);
      check_bool
        (label C.Iouring attack ^ ": forged notif refused")
        true
        (o.C.zc_notif_rejects > 0);
      check (label C.Iouring attack ^ ": no leaks") 0 o.C.zc_leaks)
    M.[ Forged_early_notif; Double_notif ]

let test_zerocopy_honest_run () =
  let seed = Flake.seed 29L in
  Flake.guard ~name:"zc honest" ~seed @@ fun () ->
  let o = C.run ~datapath:C.Iouring ~seed ~budget:32 ~zerocopy:true [] in
  check_bool "clean" false (C.failed o);
  check_bool "verified ops" true (o.C.ok > 0);
  check_bool "sends were zero-copy" true (o.C.zc_sends > 0);
  check "honest host forges nothing" 0 o.C.zc_notif_rejects;
  check "honest host returns every frame" 0 o.C.zc_leaks

let test_dropped_notif_fails_campaign () =
  let o =
    C.run ~datapath:C.Iouring ~seed:21L ~budget:32 ~zerocopy:true
      [ C.At { step = 8; attack = M.Dropped_notif } ]
  in
  check_bool "dropped-notif fired" true (fired_of o M.Dropped_notif >= 1);
  check_bool "leak recorded" true (o.C.zc_leaks > 0);
  check_bool "campaign failed" true (C.failed o);
  (* Refusing to free the frame is the *correct* response: the loss is
     availability (pool capacity), never integrity. *)
  check_bool "no integrity violation" true (o.C.violations = []);
  check_bool "invariant still holds" true o.C.invariant_ok

(* {1 Determinism and replay} *)

let mixed_schedule =
  [
    C.At { step = 5; attack = M.Prod_overshoot };
    C.During
      { first = 10; last = 14; probability = 0.5; attack = M.Oversize_len };
    C.At { step = 20; attack = M.Corrupt_packet };
  ]

let test_replay_determinism () =
  List.iter
    (fun dp ->
      let a = C.run ~datapath:dp ~seed:77L ~budget:28 mixed_schedule in
      let b = C.run ~datapath:dp ~seed:77L ~budget:28 mixed_schedule in
      check_bool "identical outcome" true (a = b))
    [ C.Xsk; C.Iouring ]

let test_repro_roundtrip () =
  List.iter
    (fun dp ->
      let o = C.run ~datapath:dp ~seed:77L ~budget:28 mixed_schedule in
      let token = C.repro o in
      match C.parse_repro token with
      | Error e -> Alcotest.failf "parse_repro %S: %s" token e
      | Ok (dp', seed', budget', schedule', faults', _, _, _, _) ->
          check_bool "datapath" true (dp = dp');
          Alcotest.(check int64) "seed" 77L seed';
          check "budget" 28 budget';
          check_bool "schedule" true (schedule' = mixed_schedule);
          check_bool "fault-free plan" true (faults' = []);
          (match C.run_repro token with
          | Error e -> Alcotest.failf "run_repro %S: %s" token e
          | Ok o' -> check_bool "replayed outcome" true (o = o')))
    [ C.Xsk; C.Iouring ]

let test_repro_roundtrip_zerocopy () =
  let o =
    C.run ~datapath:C.Iouring ~seed:77L ~budget:28 ~zerocopy:true
      mixed_schedule
  in
  let token = C.repro o in
  check_bool "token carries the zc segment" true
    (String.length token > 3
    && String.sub token (String.length token - 3) 3 = ":zc");
  match C.parse_repro token with
  | Error e -> Alcotest.failf "parse_repro %S: %s" token e
  | Ok (dp', seed', budget', schedule', faults', queues', zc', _ov', _wire') ->
      check_bool "datapath" true (dp' = C.Iouring);
      Alcotest.(check int64) "seed" 77L seed';
      check "budget" 28 budget';
      check_bool "schedule" true (schedule' = mixed_schedule);
      check_bool "fault-free plan" true (faults' = []);
      check "queues" 1 queues';
      check_bool "zerocopy flag" true zc';
      (match C.run_repro token with
      | Error e -> Alcotest.failf "run_repro %S: %s" token e
      | Ok o' -> check_bool "replayed outcome" true (o = o'))

let test_repro_roundtrip_overload () =
  let o =
    C.run ~datapath:C.Xsk ~seed:77L ~budget:28 ~queues:2 ~overload:true
      mixed_schedule
  in
  let token = C.repro o in
  check_bool "token carries the ov segment" true
    (String.length token > 3
    && String.sub token (String.length token - 3) 3 = ":ov");
  match C.parse_repro token with
  | Error e -> Alcotest.failf "parse_repro %S: %s" token e
  | Ok (dp', seed', budget', schedule', faults', queues', zc', ov', _wire') ->
      check_bool "datapath" true (dp' = C.Xsk);
      Alcotest.(check int64) "seed" 77L seed';
      check "budget" 28 budget';
      check_bool "schedule" true (schedule' = mixed_schedule);
      check_bool "fault-free plan" true (faults' = []);
      check "queues" 2 queues';
      check_bool "zerocopy flag off" false zc';
      check_bool "overload flag" true ov';
      (match C.run_repro token with
      | Error e -> Alcotest.failf "run_repro %S: %s" token e
      | Ok o' -> check_bool "replayed outcome" true (o = o'))

let test_repro_roundtrip_wire () =
  let o =
    C.run ~datapath:C.Xsk ~seed:77L ~budget:28 ~wire:true mixed_schedule
  in
  check_bool "wire weather actually injected" true
    (List.exists
       (fun (f, n) ->
         n > 0
         && List.mem f
              Hostos.Faults.[ Wire_drop; Wire_reorder; Wire_dup; Wire_trunc ])
       o.C.injected);
  check_bool "user-visible plan stays empty" true (o.C.fault_plan = []);
  let token = C.repro o in
  check_bool "token carries the wire segment" true
    (String.length token > 5
    && String.sub token (String.length token - 5) 5 = ":wire");
  match C.parse_repro token with
  | Error e -> Alcotest.failf "parse_repro %S: %s" token e
  | Ok (dp', seed', budget', schedule', faults', queues', zc', ov', wire') ->
      check_bool "datapath" true (dp' = C.Xsk);
      Alcotest.(check int64) "seed" 77L seed';
      check "budget" 28 budget';
      check_bool "schedule" true (schedule' = mixed_schedule);
      check_bool "fault-free plan" true (faults' = []);
      check "queues" 1 queues';
      check_bool "zerocopy flag off" false zc';
      check_bool "overload flag off" false ov';
      check_bool "wire flag" true wire';
      (match C.run_repro token with
      | Error e -> Alcotest.failf "run_repro %S: %s" token e
      | Ok o' -> check_bool "replayed outcome" true (o = o'))

(* The optional trailing segments strip in one fixed order ([:wire],
   then [:ov], then [:zc], then [:q<n>]); these pins keep near-miss
   tokens failing loudly instead of silently dropping a flag. *)
let test_repro_malformed () =
  List.iter
    (fun token ->
      match C.parse_repro token with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed token %S parsed" token)
    [
      "xsk:77:28::ov2" (* not a literal "ov": must not half-match *);
      "xsk:77:28::ov:zc" (* flags in the wrong order *);
      "xsk:77:28::wire2" (* not a literal "wire" *);
      "xsk:77:28::wire:ov" (* wire must come last *);
      "xsk:77:28::wire:wire" (* a second "wire" overflows *);
      "xsk:77:28::zc:q2" (* q<n> must precede zc *);
      "xsk:77:28::q0" (* zero queues *);
      "ov" (* no header at all *);
    ]

(* {1 Pairwise and soup schedules} *)

let test_pairs_helper () =
  check "pairs of 3" 3 (List.length (C.pairs [ 1; 2; 3 ]));
  check "pairs of 4" 6 (List.length (C.pairs [ 1; 2; 3; 4 ]));
  check "pairs of 1" 0 (List.length (C.pairs [ 1 ]))

let test_pairwise () =
  let seed = Flake.seed 31L in
  Flake.guard ~name:"pairwise campaign" ~seed @@ fun () ->
  List.iter
    (fun dp ->
      List.iter
        (fun (a, b) ->
          let o =
            C.run ~datapath:dp ~seed ~budget:28
              [ C.At { step = 7; attack = a }; C.At { step = 14; attack = b } ]
          in
          check_bool
            (Printf.sprintf "%s+%s" (label dp a) (M.attack_name b))
            false (C.failed o);
          check_bool "both fired" true
            (fired_of o a >= 1 && fired_of o b >= 1))
        (C.pairs M.[ Prod_overshoot; Cons_regress; Oversize_len ]))
    [ C.Xsk; C.Iouring ]

let test_soup () =
  let seed = Flake.seed 41L in
  Flake.guard ~name:"attack soup" ~seed @@ fun () ->
  List.iter
    (fun dp ->
      let schedule = C.soup ~datapath:dp ~seed ~budget:48 () in
      check_bool "soup is non-empty" true (schedule <> []);
      let o = C.run ~datapath:dp ~seed ~budget:48 schedule in
      check_bool "soup survives" false (C.failed o);
      check_bool "soup fired attacks" true (total_fired o > 0);
      check_bool "soup still made progress" true (o.C.ok > 0))
    [ C.Xsk; C.Iouring ]

(* {1 Differential oracle} *)

let test_oracle_no_silent_divergence () =
  (* >= 10k scheduled steps per datapath shape: the certified ring must
     agree with the golden model or reject — never silently diverge. *)
  List.iter
    (fun shape ->
      let r = Tm.Oracle.run ~shape ~seed:11L ~steps:10_000 () in
      check (Tm.Oracle.shape_name shape ^ ": steps") 10_000 r.Tm.Oracle.steps;
      check (Tm.Oracle.shape_name shape ^ ": silent") 0
        r.Tm.Oracle.silent_divergences;
      check_bool "passed" true (Tm.Oracle.passed r);
      check_bool "hostile indices injected" true (r.Tm.Oracle.injected > 100);
      check "every injection rejected" r.Tm.Oracle.injected
        r.Tm.Oracle.cert_rejections;
      check_bool "naive rings diverge under the same schedule" true
        (r.Tm.Oracle.naive_divergences > 0);
      check_bool "values verified end-to-end" true (r.Tm.Oracle.moved > 100))
    [ Tm.Oracle.Xsk_shape; Tm.Oracle.Iouring_shape ]

let test_oracle_deterministic () =
  let a = Tm.Oracle.run ~shape:Tm.Oracle.Xsk_shape ~seed:5L ~steps:2_000 () in
  let b = Tm.Oracle.run ~shape:Tm.Oracle.Xsk_shape ~seed:5L ~steps:2_000 () in
  check_bool "same report" true (a = b)

(* {1 Shrinker} *)

let test_shrink_list_predicate () =
  (* Pure-list sanity: minimal trace for "contains 3 and 7" is exactly
     those two elements, in order. *)
  let fails l = List.mem 3 l && List.mem 7 l in
  let trace = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  let r = Tm.Shrink.minimize ~fails trace in
  Alcotest.(check (list int)) "minimal" [ 3; 7 ] r.Tm.Shrink.trace;
  check "original" 10 r.Tm.Shrink.original;
  check_bool "ratio" true (Tm.Shrink.ratio r >= 5.0)

let test_shrink_non_failing_input () =
  let r = Tm.Shrink.minimize ~fails:(fun _ -> false) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "unchanged" [ 1; 2; 3 ] r.Tm.Shrink.trace

let test_shrink_oracle_soup () =
  (* The acceptance-criteria shrink: a seeded multi-attack soup that
     fails the naive ring reduces to <= 3 steps and still fails. *)
  let events = Tm.Oracle.gen_soup ~seed:51L ~steps:60 in
  check_bool "soup fails the naive ring" true
    (Tm.Oracle.naive_consumer_fails events);
  let r = Tm.Shrink.minimize ~fails:Tm.Oracle.naive_consumer_fails events in
  check "original length" 60 r.Tm.Shrink.original;
  check_bool "minimal repro <= 3 steps" true (List.length r.Tm.Shrink.trace <= 3);
  check_bool "still fails" true
    (Tm.Oracle.naive_consumer_fails r.Tm.Shrink.trace)

let test_shrink_campaign_failure () =
  (* Force an e2e violation with an impossible budget inside the
     horizon?  No — synthesize one: an outcome whose schedule contains
     redundant entries and whose failure only needs one of them.  We
     drive the shrinker through Campaign.shrink_failure on a real
     failing outcome if we can make one cheaply; otherwise the oracle
     soup above covers the acceptance criterion.  Here we check the
     plumbing: shrinking a *passing* outcome returns it unchanged. *)
  let o =
    C.run ~datapath:C.Xsk ~seed:21L ~budget:20
      [ C.At { step = 5; attack = M.Prod_overshoot } ]
  in
  check_bool "outcome passes" false (C.failed o);
  let r = C.shrink_failure o in
  check "non-failing schedule unchanged" (List.length o.C.schedule)
    (List.length r.C.shrunk_schedule);
  check "non-failing plan unchanged" (List.length o.C.fault_plan)
    (List.length r.C.shrunk_plan)

(* ddmin over both coordinates: a failure that needs one of two armed
   faults (and one of six schedule steps) shrinks to exactly that. *)
let test_shrink_two_fault_plan () =
  let needed =
    { F.fault = F.Drop_wakeup; when_ = F.Persistent; shard = None }
  in
  let noise =
    { F.fault = F.Transient_errno; when_ = F.Probability 0.1; shard = None }
  in
  let fails trace plan = List.mem 4 trace && List.mem needed plan in
  let r = Tm.Shrink.minimize2 ~fails [ 1; 2; 3; 4; 5; 6 ] [ noise; needed ] in
  check "2-fault plan shrinks to 1" 1 (List.length r.Tm.Shrink.plan2);
  check_bool "the needed fault survives" true (List.mem needed r.Tm.Shrink.plan2);
  check "schedule shrinks to 1 step" 1 (List.length r.Tm.Shrink.trace2);
  check_bool "still fails" true (fails r.Tm.Shrink.trace2 r.Tm.Shrink.plan2)

let test_shrink_plan_to_empty () =
  (* a failure the faults play no part in drops the whole plan *)
  let noise =
    { F.fault = F.Transient_errno; when_ = F.Probability 0.1; shard = None }
  in
  let fails trace _plan = List.mem 4 trace in
  let r = Tm.Shrink.minimize2 ~fails [ 1; 4; 5 ] [ noise; noise ] in
  check "plan emptied" 0 (List.length r.Tm.Shrink.plan2);
  check "one step left" 1 (List.length r.Tm.Shrink.trace2)

let test_shrink_drops_shard_pin () =
  (* the arming is essential, its "#1" pin is not: simplify unpins it *)
  let pinned =
    { F.fault = F.Drop_wakeup; when_ = F.Persistent; shard = Some 1 }
  in
  let fails plan = List.exists (fun e -> e.F.fault = F.Drop_wakeup) plan in
  let unpin (e : F.plan_entry) =
    match e.F.shard with
    | Some _ -> Some { e with F.shard = None }
    | None -> None
  in
  let plan, _tests = Tm.Shrink.simplify ~fails ~simpler:unpin [ pinned ] in
  match plan with
  | [ e ] ->
      check_bool "pin dropped" true (e.F.shard = None);
      check_bool "fault kept" true (e.F.fault = F.Drop_wakeup)
  | _ -> Alcotest.fail "expected a single surviving entry"

let test_shrink_keeps_needed_pin () =
  (* when the failure is shard-specific the pin must survive *)
  let pinned =
    { F.fault = F.Drop_wakeup; when_ = F.Persistent; shard = Some 1 }
  in
  let fails plan = List.exists (fun e -> e.F.shard = Some 1) plan in
  let unpin (e : F.plan_entry) =
    match e.F.shard with
    | Some _ -> Some { e with F.shard = None }
    | None -> None
  in
  let plan, _tests = Tm.Shrink.simplify ~fails ~simpler:unpin [ pinned ] in
  match plan with
  | [ e ] -> check_bool "pin kept" true (e.F.shard = Some 1)
  | _ -> Alcotest.fail "expected a single surviving entry"

(* A non-positive p99 SLO is refused with [Invalid_argument] before the
   soak boots anything. *)
let test_soak_rejects_non_positive_slo () =
  List.iter
    (fun slo_p99 ->
      match Tm.Campaign.soak ~steps:10 ~slo_p99 () with
      | _ -> Alcotest.failf "slo_p99=%Ld accepted" slo_p99
      | exception Invalid_argument _ -> ())
    [ 0L; -1L ]

let suite =
  [
    Alcotest.test_case "malice: per-attack fired counts" `Quick
      test_malice_per_attack_counts;
    Alcotest.test_case "malice: arm_at fires once at its step" `Quick
      test_malice_arm_at;
    Alcotest.test_case "malice: arm_at catches late opportunity" `Quick
      test_malice_arm_at_late_opportunity;
    Alcotest.test_case "malice: arm_once is spent after one hit" `Quick
      test_malice_arm_once;
    Alcotest.test_case "malice: arm_burst window" `Quick test_malice_arm_burst;
    Alcotest.test_case "malice: arm replaces schedules" `Quick
      test_malice_arm_replaces;
    Alcotest.test_case "campaign: applicable attack sets" `Quick
      test_applicable_covers_all_attacks;
    Alcotest.test_case "campaign: all attacks on xsk datapath" `Slow
      test_singles_xsk;
    Alcotest.test_case "campaign: all attacks on io_uring datapath" `Slow
      test_singles_iouring;
    Alcotest.test_case "campaign: cqe attacks are xsk no-ops" `Slow
      test_xsk_blind_spots;
    Alcotest.test_case "campaign: notif forgeries refused under zerocopy"
      `Slow test_singles_iouring_zerocopy;
    Alcotest.test_case "campaign: honest zerocopy run is clean" `Slow
      test_zerocopy_honest_run;
    Alcotest.test_case "campaign: dropped notif fails the campaign" `Slow
      test_dropped_notif_fails_campaign;
    Alcotest.test_case "campaign: zerocopy repro token round-trips" `Slow
      test_repro_roundtrip_zerocopy;
    Alcotest.test_case "campaign: wire repro token round-trips" `Slow
      test_repro_roundtrip_wire;
    Alcotest.test_case "campaign: overload repro token round-trips" `Slow
      test_repro_roundtrip_overload;
    Alcotest.test_case "campaign: malformed repro tokens rejected" `Quick
      test_repro_malformed;
    Alcotest.test_case "campaign: same seed+schedule replays identically"
      `Slow test_replay_determinism;
    Alcotest.test_case "campaign: repro token round-trips" `Slow
      test_repro_roundtrip;
    Alcotest.test_case "campaign: pairs helper" `Quick test_pairs_helper;
    Alcotest.test_case "campaign: pairwise attack schedules" `Slow
      test_pairwise;
    Alcotest.test_case "campaign: seeded soups survive" `Slow test_soup;
    Alcotest.test_case "oracle: zero silent divergences over 10k steps"
      `Slow test_oracle_no_silent_divergence;
    Alcotest.test_case "oracle: deterministic reports" `Quick
      test_oracle_deterministic;
    Alcotest.test_case "shrink: list predicate to 1-minimal" `Quick
      test_shrink_list_predicate;
    Alcotest.test_case "shrink: non-failing input unchanged" `Quick
      test_shrink_non_failing_input;
    Alcotest.test_case "shrink: oracle soup to <= 3 steps" `Quick
      test_shrink_oracle_soup;
    Alcotest.test_case "shrink: campaign plumbing" `Slow
      test_shrink_campaign_failure;
    Alcotest.test_case "shrink: 2-fault plan shrinks to 1" `Quick
      test_shrink_two_fault_plan;
    Alcotest.test_case "shrink: irrelevant plan goes empty" `Quick
      test_shrink_plan_to_empty;
    Alcotest.test_case "shrink: needless shard pin dropped" `Quick
      test_shrink_drops_shard_pin;
    Alcotest.test_case "shrink: essential shard pin kept" `Quick
      test_shrink_keeps_needed_pin;
    Alcotest.test_case "soak: non-positive slo_p99 rejected" `Quick
      test_soak_rejects_non_positive_slo;
  ]
