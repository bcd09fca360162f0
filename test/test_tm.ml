(* Tests for the Testing Module's packet fuzzer: it must run crash-free,
   reach every outcome class and replay from its seed.  The ring and
   offset checker is tested in test_explore.ml. *)

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let test_fuzz_no_crashes () =
  let r = Tm.Fuzz.run ~seed:1L ~executions:5000 () in
  check "crashes" 0 r.crashes;
  check_bool "verdict" true (Tm.Fuzz.passed r)

let test_fuzz_covers_outcomes () =
  let r = Tm.Fuzz.run ~seed:2L ~executions:5000 () in
  check_bool "delivered some valid traffic" true (r.delivered > 0);
  check_bool "dropped some invalid traffic" true (r.dropped > 0);
  check_bool "several distinct outcomes" true (r.distinct_outcomes >= 4);
  check_bool "corpus grew beyond the seeds" true (r.corpus_size > 9)

let test_fuzz_deterministic () =
  let a = Tm.Fuzz.run ~seed:3L ~executions:2000 () in
  let b = Tm.Fuzz.run ~seed:3L ~executions:2000 () in
  check "same deliveries" a.delivered b.delivered;
  check "same drops" a.dropped b.dropped;
  check "same corpus" a.corpus_size b.corpus_size

let suite =
  [
    ("fuzz: no crashes", `Quick, test_fuzz_no_crashes);
    ("fuzz: coverage outcomes", `Quick, test_fuzz_covers_outcomes);
    ("fuzz: deterministic given a seed", `Quick, test_fuzz_deterministic);
  ]
