(* The exhaustive product-machine explorer (DESIGN.md §11).

   Two halves: the clean machine must explore a non-trivial state
   space with zero invariant violations, and each known-bad driver
   mutation must be caught — the explorer's net demonstrably catches
   the defect classes it patrols.  Everything here is deterministic
   (the explorer has no randomness), so no seeds to report. *)

let mutant_cfg mutant =
  (* breaker threshold 1 keeps the trip-cool-probe witness shallow *)
  { Tm.Explore.default_config with shards = 1; threshold = 1; mutant = Some mutant }

let test_clean_single_shard () =
  let config = { Tm.Explore.default_config with shards = 1 } in
  let r = Tm.Explore.explore ~config ~depth:5 () in
  Alcotest.(check (list string))
    "no violations"
    []
    (List.concat_map (fun v -> v.Tm.Explore.what) r.Tm.Explore.violations);
  Alcotest.(check bool) "passed" true (Tm.Explore.passed r);
  Alcotest.(check bool)
    ("non-trivial state space: " ^ string_of_int r.Tm.Explore.states)
    true
    (r.Tm.Explore.states > 1_000);
  Alcotest.(check bool) "completed the depth bound" false r.Tm.Explore.truncated;
  Alcotest.(check int) "reached the bound" 5 r.Tm.Explore.depth_reached

let test_clean_two_shards () =
  let r = Tm.Explore.explore ~depth:3 () in
  Alcotest.(check (list string))
    "no violations"
    []
    (List.concat_map (fun v -> v.Tm.Explore.what) r.Tm.Explore.violations);
  Alcotest.(check bool) "passed" true (Tm.Explore.passed r);
  (* both shards contribute symmetric transitions *)
  Alcotest.(check bool)
    "more states than one shard at the same depth"
    true
    (let one =
       Tm.Explore.explore
         ~config:{ Tm.Explore.default_config with shards = 1 }
         ~depth:3 ()
     in
     r.Tm.Explore.states > one.Tm.Explore.states)

let test_deterministic () =
  let config = { Tm.Explore.default_config with shards = 1 } in
  let a = Tm.Explore.explore ~config ~depth:4 () in
  let b = Tm.Explore.explore ~config ~depth:4 () in
  Alcotest.(check int) "states repeat" a.Tm.Explore.states b.Tm.Explore.states;
  Alcotest.(check int)
    "transitions repeat" a.Tm.Explore.transitions b.Tm.Explore.transitions

let check_mutant_caught mutant expect_hint () =
  let r = Tm.Explore.explore ~config:(mutant_cfg mutant) ~depth:8 () in
  Alcotest.(check bool)
    (Tm.Explore.mutant_name mutant ^ " produces violations")
    true
    (r.Tm.Explore.violations <> []);
  (* the counterexample blames the right invariant family *)
  let all_notes =
    List.concat_map (fun v -> v.Tm.Explore.what) r.Tm.Explore.violations
  in
  Alcotest.(check bool)
    (Printf.sprintf "a violation mentions %S" expect_hint)
    true
    (List.exists
       (fun n ->
         let len = String.length expect_hint in
         String.length n >= len && String.sub n 0 len = expect_hint)
       all_notes)

let test_mutant_paths_replayable () =
  (* counterexample paths are real transition names, usable as a repro *)
  let r =
    Tm.Explore.explore ~config:(mutant_cfg Tm.Explore.Skip_reclaim) ~depth:8 ()
  in
  match r.Tm.Explore.violations with
  | [] -> Alcotest.fail "skip-reclaim not caught"
  | v :: _ ->
      Alcotest.(check bool) "path non-empty" true (v.Tm.Explore.path <> []);
      List.iter
        (fun name ->
          Alcotest.(check bool)
            ("transition name has a shard suffix: " ^ name)
            true
            (String.contains name '#'))
        v.Tm.Explore.path

let suite =
  [
    Alcotest.test_case "clean single shard, depth 5" `Quick
      test_clean_single_shard;
    Alcotest.test_case "clean two shards, depth 3" `Quick test_clean_two_shards;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "mutant: skip-reclaim caught" `Quick
      (check_mutant_caught Tm.Explore.Skip_reclaim "V4");
    Alcotest.test_case "mutant: probe-slot-leak caught" `Quick
      (check_mutant_caught Tm.Explore.Probe_slot_leak "V5");
    Alcotest.test_case "mutant: probe-off-by-one caught" `Quick
      (check_mutant_caught Tm.Explore.Probe_off_by_one "V5");
    Alcotest.test_case "mutant: zc-release-early caught" `Quick
      (check_mutant_caught Tm.Explore.Zc_release_early "V8");
    Alcotest.test_case "mutant: fill-overrun caught" `Quick
      (check_mutant_caught Tm.Explore.Fill_overrun "V3");
    Alcotest.test_case "counterexample paths are printable" `Quick
      test_mutant_paths_replayable;
  ]
