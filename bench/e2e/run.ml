(* The [run] command: the rounds of one workload, checked, and the
   metrics.

   A run plays [rounds] distinct rounds: round r boots a fresh RAKIS-SGX
   and runs inputs generated from the seed and r.  The simulated metrics
   pool those rounds, so they are exact functions of the seed and the
   round count.  Until [seconds] have passed the run then replays the
   rounds in order, for more host measurements; a replay must reproduce
   its round's simulation exactly.  Host metrics are medians over every
   round.

   Open-loop workloads first search their capacity ({!Ladder}), each
   step a fresh round on round 0's inputs.

   With [trace] the run alternates untraced and traced plays of each
   round: the per-layer metrics come from the first traced one, and the
   ratio of the two kinds' CPU time per operation is the tracing
   overhead. *)

type workload = {
  name : string;
  payload_size : int;
  digest : string;  (** of round 0's inputs *)
  round : ?spans:Spans.t -> mutant:bool -> int -> Round.outcome;
      (** round r; open loop: at the nominal rate *)
  search : (Ladder.search * (mutant:bool -> float -> Round.outcome)) option;
      (** open loop: the capacity search and one step of it *)
}

let names = [ Echo64.name; Stream1472.name; File4k.name; Kv_zipf.name ]

let default_ops = function
  | "echo64" -> Echo64.default_ops
  | "stream1472" -> Stream1472.default_ops
  | "file4k" -> File4k.default_ops
  | "kv_zipf" -> Kv_zipf.default_ops
  | w -> invalid_arg ("unknown workload " ^ w)

let default_rounds = function
  | "echo64" -> Echo64.default_rounds
  | "stream1472" -> Stream1472.default_rounds
  | "file4k" -> File4k.default_rounds
  | "kv_zipf" -> Kv_zipf.default_rounds
  | w -> invalid_arg ("unknown workload " ^ w)

(* Round 0 uses the seed itself. *)
let round_seed ~seed r = if r = 0 then seed else Hashtbl.hash (seed, r)

let make name ~seed ~ops =
  let inputs generate r = generate ~seed:(round_seed ~seed r) ~ops in
  match name with
  | "echo64" ->
      let inputs = inputs Echo64.generate in
      {
        name;
        payload_size = Echo64.payload_size;
        digest = Echo64.digest (inputs 0);
        round = (fun ?spans ~mutant r -> Echo64.round ?spans ~mutant (inputs r));
        search = None;
      }
  | "stream1472" ->
      let inputs = inputs Stream1472.generate in
      {
        name;
        payload_size = Stream1472.payload_size;
        digest = Stream1472.digest (inputs 0);
        round =
          (fun ?spans ~mutant r ->
            Stream1472.round ?spans ~mutant ~kops:Stream1472.nominal_kops (inputs r));
        search =
          Some
            ( Stream1472.search,
              fun ~mutant kops -> Stream1472.round ~mutant ~kops (inputs 0) );
      }
  | "file4k" ->
      let inputs = inputs File4k.generate in
      {
        name;
        payload_size = File4k.payload_size;
        digest = File4k.digest (inputs 0);
        round = (fun ?spans ~mutant r -> File4k.round ?spans ~mutant (inputs r));
        search = None;
      }
  | "kv_zipf" ->
      let inputs = inputs Kv_zipf.generate in
      {
        name;
        payload_size = Kv_zipf.value_size;
        digest = Kv_zipf.digest (inputs 0);
        round =
          (fun ?spans ~mutant r ->
            Kv_zipf.round ?spans ~mutant ~kops:Kv_zipf.nominal_kops (inputs r));
        search =
          Some
            ( Kv_zipf.search,
              fun ~mutant kops -> Kv_zipf.round ~mutant ~kops (inputs 0) );
      }
  | w -> invalid_arg ("unknown workload " ^ w)

(* {1 Metrics} *)

type metric = { name : string; unit : string; value : float; samples : int option }

let m ?samples name unit value = { name; unit; value; samples }

(* The metrics BENCHMARK.json gates on, in the order printed; the run
   prints a few more for information. *)
let end_to_end_names =
  [
    "kops";
    "lat_p50_us";
    "lat_p99_us";
    "lat_p999_us";
    "cpu_us_per_op";
    "alloc_words_per_op";
    "setup_s";
    "live_heap_mb";
  ]

let us_of_cycles c = Sim.Cycles.to_us (Int64.of_int c)

(* The host measurements of one round, all that a run keeps of a
   replayed round. *)
type host = {
  cpu_us : float;
  wall_us : float;
  words : float;
  setup : float;
  heap_mb : float;
}

let host (o : Round.outcome) =
  let per x = x /. float_of_int (max 1 o.completed) in
  {
    cpu_us = per (o.window_cpu_s *. 1e6);
    wall_us = per (o.window_s *. 1e6);
    words = per o.window_words;
    setup = o.setup_s;
    heap_mb = float_of_int (o.live_words * (Sys.word_size / 8)) /. 1048576.;
  }

(* Everything the simulation decides about one round. *)
let fingerprint (o : Round.outcome) =
  Sample.sort o.latencies;
  let lat = Array.sub o.latencies.Sample.a 0 o.latencies.Sample.n in
  ( o.completed,
    o.failed,
    o.window_cycles,
    Digest.string (Marshal.to_string (lat, o.delta) []) )

(* The simulated outcome of the distinct rounds, pooled. *)
type pool = {
  lat : Sample.t;
  mutable completed : int;
  mutable failed : int;
  mutable cycles : int64;
  mutable exits : int;
}

let pool ~capacity =
  { lat = Sample.create capacity; completed = 0; failed = 0; cycles = 0L; exits = 0 }

let add_to p (o : Round.outcome) =
  for i = 0 to o.latencies.Sample.n - 1 do
    Sample.add p.lat o.latencies.Sample.a.(i)
  done;
  p.completed <- p.completed + o.completed;
  p.failed <- p.failed + o.failed;
  p.cycles <- Int64.add p.cycles o.window_cycles;
  p.exits <- p.exits + Layers.sum o.delta (String.equal "sgx.exits")

let end_to_end (w : workload) ~capacity (p : pool) ~hosts =
  let pct q = us_of_cycles (Sample.percentile p.lat ~per_100k:q) in
  let n = Sample.count p.lat in
  let pooled_kops = float_of_int p.completed /. Sim.Cycles.to_sec p.cycles /. 1e3 in
  let kops = Option.value capacity ~default:pooled_kops in
  let median f = Sample.median (List.map f hosts) in
  let rounds = List.length hosts in
  [
    m "kops" "kops/sim_s" kops;
    m ~samples:n "lat_p50_us" "sim_us" (pct 50_000);
    m ~samples:n "lat_p99_us" "sim_us" (pct 99_000);
    m ~samples:n "lat_p999_us" "sim_us" (pct 99_900);
    m ~samples:rounds "cpu_us_per_op" "us" (median (fun h -> h.cpu_us));
    m ~samples:rounds "alloc_words_per_op" "words" (median (fun h -> h.words));
    m ~samples:rounds "setup_s" "s" (median (fun h -> h.setup));
    m ~samples:rounds "live_heap_mb" "MiB" (median (fun h -> h.heap_mb));
    m ~samples:rounds "wall_us_per_op" "us" (median (fun h -> h.wall_us));
    m "peak_heap_mb" "MiB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.);
    m "fail_ratio" "ratio"
      (float_of_int p.failed /. float_of_int (max 1 (p.completed + p.failed)));
    m "exits_per_kop" "1/kop"
      (1000. *. float_of_int p.exits /. float_of_int (max 1 p.completed));
    m "goodput_gbps" "Gbit/sim_s" (kops *. float_of_int (w.payload_size * 8) /. 1e6);
  ]
  @ if capacity <> None then [ m "nominal_kops" "kops/sim_s" pooled_kops ] else []

(* {1 Output} *)

let pp_metric ppf x =
  Format.fprintf ppf "  %-40s %18.6f %-10s%s" x.name x.value x.unit
    (match x.samples with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun x ->
         ( x.name,
           Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit) ] ))
       metrics)

let counts_json ~correct ~attempted ~failed =
  [
    ("correct", Json.Bool correct);
    ("attempted", Json.Num (float_of_int attempted));
    ("failed", Json.Num (float_of_int failed));
  ]

let describe (o : Round.outcome) =
  let h = host o in
  Printf.sprintf
    "speed %.2f, setup %.3f s, window %.3f s, %d ops, %.2f cpu us/op (%.2f \
     wall), %.0f words/op, %.1f MiB live%s"
    o.speed h.setup o.window_s o.completed h.cpu_us h.wall_us h.words h.heap_mb
    (match o.stopped with Some why -> " [stopped: " ^ why ^ "]" | None -> "")

(* {1 The command} *)

type options = {
  workload : string;
  seed : int;
  seconds : float;
  ops : int option;
  rounds : int option;
  trace : bool;
  trace_dir : string option;
  json : string option;
  mutant : bool;
}

let run o =
  let start = Clock.now_ns () in
  let ops = match o.ops with Some n -> n | None -> default_ops o.workload in
  let rounds = match o.rounds with Some n -> n | None -> default_rounds o.workload in
  let w = make o.workload ~seed:o.seed ~ops in
  Printf.printf "workload %s, seed %d, %d rounds of %d ops, inputs %s\n%!" w.name o.seed
    rounds ops w.digest;
  let violations = ref [] and stopped = ref false in
  let note (out : Round.outcome) =
    violations := !violations @ out.violations;
    if out.stopped <> None then stopped := true
  in
  let capacity =
    match w.search with
    | Some (s, at_rate) when not o.trace ->
        let step kops =
          let out = at_rate ~mutant:o.mutant kops in
          Printf.printf "rate %.2f kops/s: %s, p99 %s, %d/%d failed; %s\n%!" kops
            (if Ladder.passes s out then "meets the limit" else "misses the limit")
            (match Ladder.p99 out with
            | Some c -> Printf.sprintf "%.2f us" (us_of_cycles c)
            | None -> "unbounded")
            out.failed (Round.attempted out) (describe out);
          (* Failures only steer the search; violations still count. *)
          note out;
          out
        in
        Some (Ladder.capacity s ~step)
    | _ -> None
  in
  (* Distinct rounds go into the pool; a replay must match its round. *)
  let p = pool ~capacity:(rounds * ops) in
  let fingerprints = Array.make rounds None in
  let checked r (out : Round.outcome) =
    note out;
    (match fingerprints.(r) with
    | None ->
        fingerprints.(r) <- Some (fingerprint out);
        add_to p out
    | Some f ->
        if f <> fingerprint out then
          violations :=
            !violations
            @ [ "a replayed round disagrees: the simulation is not deterministic" ]);
    out
  in
  let untraced = ref [] and traced = ref [] and layer_metrics = ref [] in
  (* A traced round yields the per-layer metrics (from the first one) and
     the trace file. *)
  let traced_round r =
    let spans = Spans.create () in
    let out = checked r (w.round ~spans ~mutant:o.mutant r) in
    if !layer_metrics = [] then begin
      (match o.trace_dir with
      | None -> ()
      | Some dir ->
          let path = Filename.concat dir (w.name ^ ".trace.json") in
          Spans.write_chrome spans ~path ~obs_events:out.trace_events;
          Printf.printf "wrote %s\n" path);
      let counters = Layers.counter_metrics out in
      let burst =
        List.find_map
          (fun (name, _, v) ->
            if name = "rings.xRX.slots_per_burst" then Some v else None)
          counters
      in
      let burst = max 1 (int_of_float (Float.round (Option.value burst ~default:1.))) in
      layer_metrics :=
        counters @ Layers.span_metrics out spans
        @ Layers.drive_metrics ~payload_size:w.payload_size ~burst
    end;
    out
  in
  let rec loop i =
    let tracing = o.trace && List.length !traced < List.length !untraced in
    (* Traced plays repeat the untraced round just played. *)
    let r = (if o.trace then i / 2 else i) mod rounds in
    let out =
      if tracing then traced_round r else checked r (w.round ~mutant:o.mutant r)
    in
    if tracing then traced := host out :: !traced else untraced := host out :: !untraced;
    Printf.printf "round %d%s: %s\n%!" r (if tracing then " (traced)" else "") (describe out);
    let played = i + 1 in
    if
      (not o.trace && played < rounds)
      || Clock.seconds_since start < o.seconds
      || (o.trace && !traced = [])
    then loop played
  in
  loop 0;
  let correct = !violations = [] in
  List.iter
    (fun v ->
      Printf.printf "VIOLATION: %s (%d times)\n" v
        (List.length (List.filter (String.equal v) !violations)))
    (List.sort_uniq String.compare !violations);
  let attempted = p.completed + p.failed and failed = p.failed in
  let metrics, gated =
    if not o.trace then
      let all = end_to_end w ~capacity p ~hosts:!untraced in
      (all, List.filter (fun x -> List.mem x.name end_to_end_names) all)
    else
      let med l = Sample.median (List.map (fun h -> h.cpu_us) l) in
      let overhead = 100. *. ((med !traced /. med !untraced) -. 1.) in
      (* DESIGN.md section 7 budgets observability at 5 %. *)
      if overhead > 5. then
        Printf.printf "warning: tracing overhead %.1f%% is over the 5%% budget\n"
          overhead;
      let layer =
        List.map (fun (name, unit, value) -> m name unit value) !layer_metrics
        @ [ m "trace_overhead_pct" "%" overhead ]
      in
      (layer, layer)
  in
  List.iter (fun x -> Format.printf "%a@." pp_metric x) metrics;
  (match o.json with
  | None -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc
        (Json.to_string
           (Json.Obj
              ([
                 ("workload", Json.Str w.name);
                 ("seed", Json.Num (float_of_int o.seed));
                 ("trace", Json.Bool o.trace);
                 ("inputs", Json.Str w.digest);
               ]
              @ counts_json ~correct ~attempted ~failed
              @ [ ("metrics", metrics_json metrics) ])));
      output_char oc '\n';
      close_out oc);
  (* The last line of standard output: the counts and the gated metrics. *)
  print_endline
    (Json.to_string
       (Json.Obj
          (counts_json ~correct ~attempted ~failed
          @ [ ("metrics", metrics_json gated) ])));
  if correct && not !stopped then 0 else 1
