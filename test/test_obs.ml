(* Tests for the observability layer: registry semantics (counters,
   gauges, log2 histograms), trace-ring wraparound, Chrome trace_event
   JSON well-formedness, and the QCheck bucket-conservation property. *)

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

module M = Obs.Metrics
module T = Obs.Trace

(* {1 Counters and gauges} *)

let test_counter_find_or_create () =
  let m = M.create () in
  let a = M.counter m "x.events" in
  let b = M.counter m "x.events" in
  M.incr a;
  M.add b 4;
  check "same handle" 5 (M.value a);
  check "registry view" 5 (M.get_counter m "x.events");
  check_bool "absent find" true (M.find m "nope" = None);
  check "absent get" 0 (M.get_counter m "nope")

let test_counter_listing_sorted () =
  let m = M.create () in
  ignore (M.counter m "b");
  ignore (M.counter m "a");
  ignore (M.counter m "c");
  Alcotest.(check (list string))
    "sorted" [ "a"; "b"; "c" ]
    (List.map fst (M.counters m))

let test_gauge_set_get () =
  let m = M.create () in
  let g = M.gauge m "occupancy" in
  M.set g 0.75;
  Alcotest.(check (float 1e-9)) "level" 0.75 (M.get g);
  M.set g 0.25;
  Alcotest.(check (float 1e-9)) "overwritten" 0.25 (M.get g)

let test_with_prefix () =
  let m = M.create () in
  M.incr (M.counter m "stack.drop.bad-udp");
  M.add (M.counter m "stack.drop.no-socket") 2;
  M.incr (M.counter m "stack.rx_delivered");
  Alcotest.(check (list (pair string int)))
    "stripped and filtered"
    [ ("bad-udp", 1); ("no-socket", 2) ]
    (M.with_prefix m "stack.drop.")

(* {1 Registry-wide sums} *)

let test_sum_counters_patterns () =
  let m = M.create () in
  M.add (M.counter m "xsk0.umem.rejects") 2;
  M.add (M.counter m "xsk.1.0.umem.rejects") 3;
  M.add (M.counter m "uring0.zc.rejects") 5;
  M.add (M.counter m "uring0.cqe_rejects") 7;
  M.add (M.counter m "mm.umem.rejects") 11;
  let sum = M.sum_counters m in
  check "prefix and suffix both match" 5
    (sum ~prefix:"xsk" ~suffix:".umem.rejects");
  check "empty prefix: every instance" 16 (sum ~prefix:"" ~suffix:".umem.rejects");
  check "empty suffix: every counter of the prefix" 12
    (sum ~prefix:"uring" ~suffix:"");
  check "missing name gives 0" 0 (sum ~prefix:"nic" ~suffix:".rx");
  check "zc pool and CQE rejects are not umem rejects" 0
    (sum ~prefix:"uring" ~suffix:".umem.rejects");
  check "prefix and suffix may not overlap" 0
    (sum ~prefix:"xsk0.umem" ~suffix:"umem.rejects")

let test_sum_counters_infix () =
  let m = M.create () in
  M.incr (M.counter m "stack.drop.bad-udp");
  M.add (M.counter m "stack.1.drop.no-socket") 2;
  M.add (M.counter m "stack.rx_delivered") 4;
  M.add (M.counter m "xsk0.xdp.drop.fill_empty") 8;
  check "drops of every stack instance" 3
    (M.sum_counters m ~prefix:"stack" ~infix:".drop." ~suffix:"");
  check "infix must sit between prefix and suffix" 0
    (M.sum_counters m ~prefix:"stack.drop" ~infix:".drop." ~suffix:"")

let test_sum_counters_no_alloc () =
  let m = M.create () in
  for i = 0 to 63 do
    M.incr (M.counter m (Printf.sprintf "xsk%d.umem.rejects" i));
    M.incr (M.counter m (Printf.sprintf "stack.%d.drop.bad-udp" i))
  done;
  let w0 = Gc.minor_words () in
  let a = M.sum_counters m ~prefix:"xsk" ~suffix:".umem.rejects" in
  let b = M.sum_counters m ~prefix:"stack" ~infix:".drop." ~suffix:"" in
  let w1 = Gc.minor_words () in
  check "prefix/suffix sum" 64 a;
  check "infix sum" 64 b;
  Alcotest.(check (float 0.)) "no minor words" 0. (w1 -. w0)

let test_reset_keeps_handles () =
  let m = M.create () in
  let c = M.counter m "c" in
  let h = M.histogram m "h" in
  M.add c 7;
  M.observe h 3;
  M.reset m;
  check "counter zeroed" 0 (M.value c);
  check "histogram zeroed" 0 (M.count h);
  M.incr c;
  check "handle still live" 1 (M.get_counter m "c")

(* {1 Histograms} *)

let test_histogram_bucketing () =
  check "v<=0 bucket" 0 (M.bucket_of 0);
  check "negative" 0 (M.bucket_of (-5));
  check "one" 1 (M.bucket_of 1);
  check "two" 2 (M.bucket_of 2);
  check "three" 2 (M.bucket_of 3);
  check "four" 3 (M.bucket_of 4);
  check "pow2 edge" 11 (M.bucket_of 1024);
  check "below edge" 10 (M.bucket_of 1023)

let test_histogram_stats () =
  let m = M.create () in
  let h = M.histogram m "lat" in
  List.iter (M.observe h) [ 1; 2; 3; 100 ];
  check "count" 4 (M.count h);
  check "sum" 106 (M.sum h);
  Alcotest.(check (float 1e-9)) "mean" 26.5 (M.mean h);
  (* 1 -> [1..1]; 2,3 -> [2..3]; 100 -> [64..127] *)
  Alcotest.(check (list (pair (pair int int) int)))
    "buckets"
    [ ((1, 1), 1); ((2, 3), 2); ((64, 127), 1) ]
    (List.map (fun (lo, hi, n) -> ((lo, hi), n)) (M.buckets h))

let test_histogram_nonpositive_bucket () =
  let m = M.create () in
  let h = M.histogram m "h" in
  M.observe h 0;
  M.observe h (-3);
  match M.buckets h with
  | [ (lo, hi, n) ] ->
      check_bool "lo is min_int" true (lo = min_int);
      check "hi" 0 hi;
      check "count" 2 n
  | l -> Alcotest.failf "expected one bucket, got %d" (List.length l)

(* Conservation: however values distribute over buckets, the bucket
   counts always sum to the number of observations. *)
let prop_bucket_conservation =
  QCheck.Test.make ~count:500 ~name:"histogram bucket counts sum to total"
    QCheck.(list (int_range (-100) 100_000))
    (fun vs ->
      let m = M.create () in
      let h = M.histogram m "p" in
      List.iter (M.observe h) vs;
      let bucket_total =
        List.fold_left (fun acc (_, _, n) -> acc + n) 0 (M.buckets h)
      in
      bucket_total = List.length vs && M.count h = List.length vs)

let prop_bucket_of_bounds =
  QCheck.Test.make ~count:500 ~name:"bucket_of files v inside its bounds"
    QCheck.(int_range 1 (1 lsl 40))
    (fun v ->
      let k = M.bucket_of v in
      k >= 1 && 1 lsl (k - 1) <= v && v < 1 lsl k)

(* {1 Trace ring} *)

let make_trace ?(capacity = 4) () =
  let now = ref 0L in
  let t =
    T.create ~capacity ~clock:(fun () -> !now) ()
  in
  (t, now)

let test_trace_records_in_order () =
  let t, now = make_trace ~capacity:8 () in
  T.instant t ~cat:"a" "first";
  now := 5L;
  T.instant t ~cat:"a" ~arg:42 "second";
  match T.events t with
  | [ e1; e2 ] ->
      Alcotest.(check string) "first name" "first" e1.T.name;
      Alcotest.(check int64) "first ts" 0L e1.T.ts;
      Alcotest.(check string) "second name" "second" e2.T.name;
      Alcotest.(check int64) "second ts" 5L e2.T.ts;
      check "arg" 42 e2.T.arg
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let test_trace_wraparound () =
  let t, now = make_trace ~capacity:4 () in
  for i = 1 to 10 do
    now := Int64.of_int i;
    T.instant t ~cat:"w" ~arg:i "e"
  done;
  check "recorded counts everything" 10 (T.recorded t);
  check "dropped = recorded - capacity" 6 (T.dropped t);
  let retained = T.events t in
  check "ring holds capacity" 4 (List.length retained);
  Alcotest.(check (list int))
    "oldest-first, newest retained" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.T.arg) retained);
  Alcotest.(check (list int))
    "last n" [ 9; 10 ]
    (List.map (fun e -> e.T.arg) (T.last t 2))

let test_trace_span_duration () =
  let t, now = make_trace ~capacity:4 () in
  let start = T.now t in
  now := 100L;
  T.span t ~cat:"s" "op" ~start;
  match T.events t with
  | [ e ] ->
      Alcotest.(check int64) "ts is start" 0L e.T.ts;
      Alcotest.(check int64) "dur" 100L e.T.dur
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

let test_trace_disable () =
  let t, _ = make_trace () in
  T.set_enabled t false;
  T.instant t ~cat:"x" "dropped";
  check "nothing recorded" 0 (T.recorded t);
  T.set_enabled t true;
  T.instant t ~cat:"x" "kept";
  check "recording again" 1 (T.recorded t)

(* {1 Chrome JSON export} *)

(* A miniature JSON validator: enough to assert the exporter emits
   well-formed JSON (balanced containers, sane string escapes) with the
   right top-level shape, without a JSON library in the dependency
   set. *)
let json_well_formed s =
  let n = String.length s in
  let depth = ref 0 and ok = ref true and in_str = ref false in
  let i = ref 0 in
  while !i < n && !ok do
    let c = s.[!i] in
    if !in_str then begin
      if c = '\\' then incr i (* skip the escaped char *)
      else if c = '"' then in_str := false
      else if Char.code c < 0x20 then ok := false
    end
    else begin
      match c with
      | '"' -> in_str := true
      | '{' | '[' -> incr depth
      | '}' | ']' ->
          decr depth;
          if !depth < 0 then ok := false
      | _ -> ()
    end;
    incr i
  done;
  !ok && !depth = 0 && not !in_str

let test_chrome_json () =
  let t, now = make_trace ~capacity:16 () in
  T.instant t ~cat:"umem" ~arg:4096 "umem.alloc";
  now := 2400L;
  let start = T.now t in
  now := 4800L;
  T.span t ~cat:"syncproxy" ~arg:3 "uring.read" ~start;
  T.instant t ~cat:"esc" "quote\"back\\slash";
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  T.to_chrome ~us_per_cycle:(1. /. 2400.) ppf t;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  check_bool "well-formed JSON" true (json_well_formed s);
  check_bool "object form" true (String.length s > 0 && s.[0] = '{');
  let has sub =
    let sl = String.length sub and l = String.length s in
    let rec go i = i + sl <= l && (String.sub s i sl = sub || go (i + 1)) in
    go 0
  in
  check_bool "traceEvents key" true (has "\"traceEvents\"");
  check_bool "instant phase" true (has "\"ph\":\"i\"");
  check_bool "span phase" true (has "\"ph\":\"X\"");
  check_bool "span ts in us" true (has "\"ts\":1");
  check_bool "escaped quote" true (has "quote\\\"back\\\\slash")

let contains s sub =
  let sl = String.length sub and l = String.length s in
  let rec go i = i + sl <= l && (String.sub s i sl = sub || go (i + 1)) in
  go 0

let test_timeline_mentions_drops () =
  let t, _ = make_trace ~capacity:2 () in
  for i = 1 to 5 do
    T.instant t ~cat:"c" ~arg:i "e"
  done;
  let s = Format.asprintf "%a" T.pp_timeline t in
  check_bool "mentions dropped count" true
    (contains s "3 earlier events dropped")

(* {1 Obs handle} *)

let test_obs_shared_registry () =
  let o = Obs.create () in
  let c = Obs.counter o "shared.c" in
  M.incr c;
  check "visible through metrics" 1 (M.get_counter (Obs.metrics o) "shared.c");
  T.instant (Obs.trace o) ~cat:"t" "e";
  check "trace attached" 1 (T.recorded (Obs.trace o))

let suite =
  [
    Alcotest.test_case "metrics: counter find-or-create" `Quick
      test_counter_find_or_create;
    Alcotest.test_case "metrics: listing sorted" `Quick
      test_counter_listing_sorted;
    Alcotest.test_case "metrics: gauge set/get" `Quick test_gauge_set_get;
    Alcotest.test_case "metrics: with_prefix" `Quick test_with_prefix;
    Alcotest.test_case "metrics: sum_counters patterns" `Quick
      test_sum_counters_patterns;
    Alcotest.test_case "metrics: sum_counters infix" `Quick
      test_sum_counters_infix;
    Alcotest.test_case "metrics: sum_counters does not allocate" `Quick
      test_sum_counters_no_alloc;
    Alcotest.test_case "metrics: reset keeps handles" `Quick
      test_reset_keeps_handles;
    Alcotest.test_case "histogram: log2 bucketing" `Quick
      test_histogram_bucketing;
    Alcotest.test_case "histogram: stats and buckets" `Quick
      test_histogram_stats;
    Alcotest.test_case "histogram: non-positive bucket" `Quick
      test_histogram_nonpositive_bucket;
    QCheck_alcotest.to_alcotest ~rand:(Flake.rand ()) prop_bucket_conservation;
    QCheck_alcotest.to_alcotest ~rand:(Flake.rand ()) prop_bucket_of_bounds;
    Alcotest.test_case "trace: records in order" `Quick
      test_trace_records_in_order;
    Alcotest.test_case "trace: wraparound" `Quick test_trace_wraparound;
    Alcotest.test_case "trace: span duration" `Quick test_trace_span_duration;
    Alcotest.test_case "trace: disable/enable" `Quick test_trace_disable;
    Alcotest.test_case "trace: chrome JSON well-formed" `Quick
      test_chrome_json;
    Alcotest.test_case "trace: timeline renders" `Quick
      test_timeline_mentions_drops;
    Alcotest.test_case "obs: shared registry + trace" `Quick
      test_obs_shared_registry;
  ]
