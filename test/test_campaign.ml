(* Tests for the adversarial campaign engine: deterministic attack
   schedules over full enclave↔host simulations, the differential ring
   oracle, the trace shrinker, and the Malice scheduling hooks they are
   built on. *)

module C = Tm.Campaign
module M = Hostos.Malice
module F = Hostos.Faults
module I = Hostos.Injector

(* A schedule entry firing [what] once, at the first opportunity on or
   after workload step [step]. *)
let at step what = { I.what; when_ = I.At_step step; shard = None }

(* A schedule entry firing [what] with probability [p] at each
   opportunity inside steps [first..last]. *)
let during first last p what =
  {
    I.what;
    when_ = I.Burst { first_step = first; last_step = last; probability = p };
    shard = None;
  }

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let total_fired (o : C.outcome) =
  List.fold_left (fun acc (_, n) -> acc + n) 0 o.C.fired

let fired_of (o : C.outcome) attack =
  match List.assoc_opt attack o.C.fired with Some n -> n | None -> 0

let spec datapath seed budget schedule =
  { C.defaults with datapath; seed; budget; schedule }

let label dp attack =
  Printf.sprintf "%s/%s" (C.datapath_name dp) (M.name attack)

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
    (List.map (fun (a, n) -> (M.name a, n)) (M.fired_counts m))

let test_malice_arm_at () =
  let m = M.create ~seed:3L () in
  M.arm m (I.At_step 5) M.Oversize_len;
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
  M.arm m (I.At_step 5) M.Foreign_frame;
  M.set_step m 7;
  check_bool "first opportunity after step" true (M.roll (Some m) M.Foreign_frame);
  check_bool "once only" false (M.roll (Some m) M.Foreign_frame)

let test_malice_arm_once () =
  let m = M.create ~seed:3L () in
  M.arm m (I.Once 1.0) M.Cons_regress;
  check_bool "fires" true (M.roll (Some m) M.Cons_regress);
  check_bool "spent" false (M.roll (Some m) M.Cons_regress)

let test_malice_arm_burst () =
  let m = M.create ~seed:3L () in
  M.arm m (I.Burst { first_step = 3; last_step = 5; probability = 1.0 })
    M.Prod_regress;
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
  M.arm m (I.At_step 90) M.Oversize_len;
  M.arm m (I.Probability 0.0) M.Oversize_len;
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
  let o = C.run (spec dp seed 32 [ at 8 attack ]) in
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
        C.run (spec C.Xsk 21L 24 [ at 6 attack ])
      in
      check (label C.Xsk attack ^ ": never fires") 0 (total_fired o);
      check_bool (label C.Xsk attack ^ ": clean") false (C.failed o))
    M.[ Cqe_wrong_user_data; Cqe_bogus_res ]

let test_applicable_covers_all_attacks () =
  check "io_uring covers all but the notif forgeries and wire attacks"
    (List.length M.all - 6)
    (List.length (C.applicable C.Iouring));
  check "io_uring + zerocopy adds the two refusable notif forgeries"
    (List.length M.all - 4)
    (List.length (C.applicable ~zerocopy:true C.Iouring));
  check "xsk covers all but the CQE and notif forgeries"
    (List.length M.all - 5)
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
        C.run
          {
            (spec C.Iouring seed 32 [ at 8 attack ]) with
            zerocopy = true;
          }
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
  let o = C.run { (spec C.Iouring seed 32 []) with zerocopy = true } in
  check_bool "clean" false (C.failed o);
  check_bool "verified ops" true (o.C.ok > 0);
  check_bool "sends were zero-copy" true (o.C.zc_sends > 0);
  check "honest host forges nothing" 0 o.C.zc_notif_rejects;
  check "honest host returns every frame" 0 o.C.zc_leaks

let test_dropped_notif_fails_campaign () =
  let o =
    C.run
      {
        (spec C.Iouring 21L 32
           [ at 8 M.Dropped_notif ])
        with
        zerocopy = true;
      }
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
    at 5 M.Prod_overshoot;
    during 10 14 0.5 M.Oversize_len;
    at 20 M.Corrupt_packet;
  ]

let test_replay_determinism () =
  List.iter
    (fun dp ->
      let a = C.run (spec dp 77L 28 mixed_schedule) in
      let b = C.run (spec dp 77L 28 mixed_schedule) in
      check_bool "identical outcome" true (a = b))
    [ C.Xsk; C.Iouring ]

(* Every token shape replays: the printed token parses back to the very
   spec that ran, and re-running it reproduces the outcome bit for
   bit. *)
let mixed dp = spec dp 77L 28 mixed_schedule

let roundtrip label spec =
  let o = C.run spec in
  let token = C.(token_to_string (Campaign o.spec)) in
  (match C.parse_repro token with
  | Error e -> Alcotest.failf "%s: parse_repro %S: %s" label token e
  | Ok spec' -> check_bool (label ^ ": spec survives") true (spec' = spec));
  (match Result.map C.run (C.parse_repro token) with
  | Error e -> Alcotest.failf "%s: replay %S: %s" label token e
  | Ok o' -> check_bool (label ^ ": replayed outcome") true (o = o'));
  o

let test_repro_roundtrip () =
  List.iter
    (fun dp -> ignore (roundtrip (C.datapath_name dp) (mixed dp)))
    [ C.Xsk; C.Iouring ]

let test_repro_roundtrip_zerocopy () =
  let o = roundtrip "zerocopy" { (mixed C.Iouring) with zerocopy = true } in
  check_bool "sends were zero-copy" true (o.C.zc_sends > 0)

let test_repro_roundtrip_overload () =
  ignore
    (roundtrip "overload" { (mixed C.Xsk) with queues = 2; overload = true })

let test_repro_roundtrip_wire () =
  let o = roundtrip "wire" { (mixed C.Xsk) with wire = true } in
  check_bool "wire weather actually injected" true
    (List.exists
       (fun (f, n) ->
         n > 0 && List.mem f F.[ Wire_drop; Wire_reorder; Wire_dup; Wire_trunc ])
       o.C.injected);
  check_bool "user-visible plan stays empty" true (o.C.spec.faults = [])

(* One case per way a token can be malformed; each error names the key
   at fault.  Value-level errors inside [attacks=] and [faults=] are
   pinned in test_stm. *)
let test_repro_malformed () =
  List.iter
    (fun (token, fragment) ->
      match C.token_of_string token with
      | Ok _ -> Alcotest.failf "malformed token %S parsed" token
      | Error e ->
          check_bool
            (Printf.sprintf "%S error %S names %S" token e fragment)
            true
            (Test_stm.contains ~needle:fragment e))
    [
      ("walrus:seed=1:budget=2", "\"walrus\"");
      ("xsk:seed=1:budget=2:frob=3", "\"frob\"");
      ("xsk:seed=1:budget=2:seed=3", "\"seed\"");
      ("xsk:budget=2", "\"seed\"");
      ("xsk:seed=1", "\"budget\"");
      ("soak:seed=1", "\"steps\"");
      ("xsk:seed=1:budget=2:zc=1", "\"zc\"");
      ("xsk:seed=1:budget", "\"budget\"");
      ("xsk:seed=x:budget=2", "\"seed\"");
      ("xsk:seed=1:budget=0", "\"budget\"");
      ("xsk:seed=5:budget=-3", "\"budget\"");
      ("xsk:seed=1:budget=2:q=0", "\"q\"");
      ("soak:seed=1:steps=0", "\"steps\"");
      ("soak:seed=1:steps=9:slo=0", "\"slo\"");
      (* the other kind's keys *)
      ("xsk:seed=1:budget=2:steps=3", "\"steps\"");
      ("soak:seed=1:steps=2:attacks=1=replay", "\"attacks\"");
      ("soak:seed=1:steps=2:zc", "\"zc\"");
      (* old positional tokens are not tokens any more *)
      ("xsk:42:64:3=cons-regress", "\"42\"");
      ("io_uring:31:32::@0.25=short-io:q2:zc", "\"31\"");
      ("soak:42:2000:q2", "\"42\"");
    ]

(* A run of no steps checks nothing: it is refused, not passed. *)
let test_run_rejects_empty_budget () =
  List.iter
    (fun budget ->
      match C.run (spec C.Xsk 5L budget []) with
      | _ -> Alcotest.failf "budget=%d accepted" budget
      | exception Invalid_argument _ -> ())
    [ 0; -3 ]

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
            C.run
              (spec dp seed 28
                 [
                   at 7 a; at 14 b;
                 ])
          in
          check_bool
            (Printf.sprintf "%s+%s" (label dp a) (M.name b))
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
      let o = C.run (spec dp seed 48 schedule) in
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
  check_bool "ratio" true
    (5 * List.length r.Tm.Shrink.trace <= r.Tm.Shrink.original)

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
    C.run (spec C.Xsk 21L 20 [ at 5 M.Prod_overshoot ])
  in
  check_bool "outcome passes" false (C.failed o);
  let r = C.shrink_failure o in
  check "non-failing schedule unchanged" (List.length o.C.spec.schedule)
    (List.length r.C.shrunk_schedule);
  check "non-failing plan unchanged" (List.length o.C.spec.faults)
    (List.length r.C.shrunk_plan)

(* ddmin over both coordinates: a failure that needs one of two armed
   faults (and one of six schedule steps) shrinks to exactly that. *)
let test_shrink_two_fault_plan () =
  let needed =
    { I.what = F.Drop_wakeup; when_ = I.Persistent; shard = None }
  in
  let noise =
    { I.what = F.Transient_errno; when_ = I.Probability 0.1; shard = None }
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
    { I.what = F.Transient_errno; when_ = I.Probability 0.1; shard = None }
  in
  let fails trace _plan = List.mem 4 trace in
  let r = Tm.Shrink.minimize2 ~fails [ 1; 4; 5 ] [ noise; noise ] in
  check "plan emptied" 0 (List.length r.Tm.Shrink.plan2);
  check "one step left" 1 (List.length r.Tm.Shrink.trace2)

let test_shrink_drops_shard_pin () =
  (* the arming is essential, its "#1" pin is not: simplify unpins it *)
  let pinned =
    { I.what = F.Drop_wakeup; when_ = I.Persistent; shard = Some 1 }
  in
  let fails plan = List.exists (fun e -> e.I.what = F.Drop_wakeup) plan in
  let unpin (e : F.fault I.entry) =
    match e.I.shard with
    | Some _ -> Some { e with I.shard = None }
    | None -> None
  in
  let plan, _tests = Tm.Shrink.simplify ~fails ~simpler:unpin [ pinned ] in
  match plan with
  | [ e ] ->
      check_bool "pin dropped" true (e.I.shard = None);
      check_bool "fault kept" true (e.I.what = F.Drop_wakeup)
  | _ -> Alcotest.fail "expected a single surviving entry"

let test_shrink_keeps_needed_pin () =
  (* when the failure is shard-specific the pin must survive *)
  let pinned =
    { I.what = F.Drop_wakeup; when_ = I.Persistent; shard = Some 1 }
  in
  let fails plan = List.exists (fun e -> e.I.shard = Some 1) plan in
  let unpin (e : F.fault I.entry) =
    match e.I.shard with
    | Some _ -> Some { e with I.shard = None }
    | None -> None
  in
  let plan, _tests = Tm.Shrink.simplify ~fails ~simpler:unpin [ pinned ] in
  match plan with
  | [ e ] -> check_bool "pin kept" true (e.I.shard = Some 1)
  | _ -> Alcotest.fail "expected a single surviving entry"

(* A non-positive p99 SLO is refused with [Invalid_argument] before the
   soak boots anything. *)
let test_soak_rejects_non_positive_slo () =
  List.iter
    (fun slo_p99 ->
      match C.soak { C.soak_defaults with steps = 10; slo_p99 } with
      | _ -> Alcotest.failf "slo_p99=%Ld accepted" slo_p99
      | exception Invalid_argument _ -> ())
    [ 0L; -1L ]

(* {1 File model} *)

module Fm = Tm.File_model

let verdict_name = function
  | Fm.Exact -> "exact"
  | Fm.Prefix -> "prefix"
  | Fm.Mismatch _ -> "mismatch"

(* Every write result the SyncProxy can hand back, crossed with every
   read-back: slot 1 of a 128-byte file holds a confirmed, read-back
   [old] block; a write of [nu] over it returns the row's result; then
   one read of the slot returns the column's bytes.  A cell is the
   model's verdict. *)
let test_file_model_table () =
  let bs = 64 and off = 64 in
  let old = Bytes.make bs 'o' and nu = Bytes.make bs 'n' in
  let mixed = Bytes.cat (Bytes.sub nu 0 40) (Bytes.sub old 0 24) in
  let prefix = Bytes.sub nu 0 32 in
  let writes =
    [
      ("Ok len", Ok bs);
      ("short Ok", Ok 40);
      ("EPERM", Error Abi.Errno.EPERM);
      ("EIO", Error Abi.Errno.EIO);
      ("admission EAGAIN", Error Abi.Errno.EAGAIN);
    ]
  in
  let reads =
    [
      ("old", old, false);
      ("new", nu, false);
      ("new head, old tail", mixed, false);
      ("prefix, no CQE attack", prefix, false);
      ("prefix, CQE attack", prefix, true);
      ("garbage", Bytes.make bs '\xAA', true);
    ]
  in
  let expected =
    [
      (* old / new / mixed / prefix / prefix+attack / garbage *)
      ("Ok len", [ "mismatch"; "exact"; "mismatch"; "mismatch"; "prefix"; "mismatch" ]);
      ("short Ok", [ "mismatch"; "exact"; "exact"; "mismatch"; "prefix"; "mismatch" ]);
      ("EPERM", [ "exact"; "exact"; "exact"; "mismatch"; "prefix"; "mismatch" ]);
      ("EIO", [ "exact"; "exact"; "exact"; "mismatch"; "prefix"; "mismatch" ]);
      ( "admission EAGAIN",
        [ "exact"; "mismatch"; "mismatch"; "mismatch"; "mismatch"; "mismatch" ] );
    ]
  in
  List.iter
    (fun (wname, r) ->
      List.iter2
        (fun (rname, bytes, cqe_forged) want ->
          let m = Fm.create ~size:(2 * bs) in
          ignore (Fm.write m ~off:0 old (Ok bs));
          ignore (Fm.write m ~off old (Ok bs));
          ignore (Fm.read m ~off (Bytes.copy old) bs ~cqe_forged:false);
          let settled = Fm.write m ~off nu r in
          check_bool (wname ^ ": settled") (r = Ok bs || r = Error Abi.Errno.EAGAIN)
            settled;
          let buf = Bytes.make bs '\000' in
          let n = Bytes.length bytes in
          Bytes.blit bytes 0 buf 0 n;
          Alcotest.(check string)
            (wname ^ " then read " ^ rname)
            want
            (verdict_name (Fm.read m ~off buf n ~cqe_forged)))
        reads (List.assoc wname expected))
    writes

(* A read pins what it saw; the file length is a range until a read
   that stops short settles it. *)
let test_file_model_pins () =
  let bs = 64 in
  let nu = Bytes.make bs 'n' and old = Bytes.make bs '\000' in
  let read m ~off bytes n =
    let buf = Bytes.make bs '\000' in
    Bytes.blit bytes 0 buf 0 (min n (Bytes.length bytes));
    verdict_name (Fm.read m ~off buf n ~cqe_forged:false)
  in
  let m = Fm.create ~size:(2 * bs) in
  ignore (Fm.write m ~off:0 nu (Error Abi.Errno.EPERM));
  Alcotest.(check string) "old-or-new: old seen" "exact" (read m ~off:0 old bs);
  Alcotest.(check string) "then new is refused" "mismatch" (read m ~off:0 nu bs);
  let m = Fm.create ~size:(2 * bs) in
  ignore (Fm.write m ~off:bs nu (Error Abi.Errno.EPERM));
  Alcotest.(check string) "unconfirmed extension may be absent" "exact"
    (read m ~off:bs nu 0);
  Alcotest.(check string) "and stays absent" "mismatch" (read m ~off:bs nu bs);
  Alcotest.(check string) "the hole before it reads empty" "exact"
    (read m ~off:0 nu 0);
  let m = Fm.create ~size:(2 * bs) in
  ignore (Fm.write m ~off:bs nu (Ok 40));
  Alcotest.(check string) "a confirmed head is present" "mismatch"
    (read m ~off:bs nu 0);
  Alcotest.(check string) "a prefix of the tail landed" "exact"
    (read m ~off:bs nu 52);
  Alcotest.(check string) "the hole before it reads zero" "exact"
    (read m ~off:0 old bs);
  Alcotest.(check string) "the length is pinned" "mismatch"
    (read m ~off:bs nu bs)

(* Without attacks the enclave always knows what a write did: every
   write returns its full count or the admission EAGAIN, under CI's
   fault weather, the failover burst and seeded fault soups.  (An
   abandoned write that runs late is the lost update ROADMAP item 2
   closes; the model flags it rather than admitting it.) *)
let test_fault_only_writes_settled () =
  let ci =
    match
      F.plan_of_string
        "@0.05=transient-errno;@0.02=short-io;@0.02=partial-cqe;@0.05=drop-wakeup;@0.01=nic-stall"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let plans =
    [ ("ci weather", ci); ("failover", C.failover_plan ~datapath:C.Iouring ~budget:64) ]
    @ List.init 4 (fun i ->
          let seed = Int64.of_int (40 + i) in
          (Printf.sprintf "fault soup %Ld" seed, C.fault_soup ~seed ~budget:64 ()))
  in
  List.iter
    (fun (name, faults) ->
      List.iter
        (fun (seed, zerocopy) ->
          let o =
            C.run
              { (spec C.Iouring seed 64 []) with faults; zerocopy }
          in
          check (Printf.sprintf "%s seed %Ld: unsettled writes" name seed) 0
            o.C.indeterminate)
        [ (3L, false); (4L, true) ])
    plans

(* The refused-write case is undetermined, and the campaign counts it. *)
let test_attacked_writes_counted () =
  match
    C.parse_repro
      "io_uring:seed=71:budget=50:attacks=11..19@0.3=cqe-wrong-user-data;\
       5..10@0.3=cqe-bogus-res:faults=@0.05=transient-errno;@0.02=short-io;\
       @0.02=partial-cqe;@0.05=drop-wakeup;@0.01=nic-stall"
  with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      let o = C.run spec in
      check_bool "passes" false (C.failed o);
      check_bool "some write undetermined" true (o.C.indeterminate > 0)

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
    Alcotest.test_case "campaign: budget < 1 refused" `Quick
      test_run_rejects_empty_budget;
    Alcotest.test_case "file model: write result x read-back table" `Quick
      test_file_model_table;
    Alcotest.test_case "file model: reads pin bytes and length" `Quick
      test_file_model_pins;
    Alcotest.test_case "file model: fault-only writes are all settled" `Slow
      test_fault_only_writes_settled;
    Alcotest.test_case "file model: refused writes are counted" `Slow
      test_attacked_writes_counted;
  ]
