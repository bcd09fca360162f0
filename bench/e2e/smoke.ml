(* Smoke test of the benchmark command, every workload at a small op
   count:

   - the last line of a run prints every end-to-end metric of
     BENCHMARK.json, with its unit, and a traced run every per-layer
     metric;
   - the same seed gives identical simulated metrics;
   - a different seed gives different generated inputs;
   - the known-bad [--mutant flip-reply] wrapper, which flips one byte of
     each reply the checks read, is counted in [fail_ratio] and makes
     the command exit non-zero;
   - a topology that leaves an XSK without a NIC queue is refused;
   - layer_map.json maps exactly the per-layer metrics of BENCHMARK.json,
     each to its layer, printed end-to-end metrics and workloads. *)

open E2e

let ops = [ ("echo64", 2000); ("stream1472", 2000); ("file4k", 2000); ("kv_zipf", 400) ]

(* Metrics the simulation alone decides. *)
let simulated = [ "kops"; "lat_p50_us"; "lat_p99_us"; "lat_p999_us" ]

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

(* Run the command; return its exit code, its standard output lines
   and the last one parsed. *)
let run args =
  let ic =
    Unix.open_process_args_in "./main.exe"
      (Array.of_list ("./main.exe" :: "run" :: args))
  in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  let code = match Unix.close_process_in ic with Unix.WEXITED n -> n | _ -> -1 in
  let last =
    match List.rev out with
    | l :: _ -> ( try Json.parse l with Json.Error _ -> Json.Null)
    | [] -> Json.Null
  in
  (code, out, last)

let spec = Json.of_file "../../BENCHMARK.json"

let names_units section =
  List.map
    (fun e ->
      ( Option.get (Json.to_str (Json.member "name" e)),
        Option.get (Json.to_str (Json.member "unit" e)) ))
    (Json.to_list (Json.member section spec))

let metric j name =
  Json.to_num (Json.member "value" (Json.member name (Json.member "metrics" j)))

(* Every metric of [section] printed with its unit, and nothing else. *)
let check_metrics ~what section j =
  let expected = names_units section in
  let printed =
    match Json.member "metrics" j with Json.Obj kvs -> List.map fst kvs | _ -> []
  in
  check (what ^ ": prints exactly the " ^ section ^ " metrics")
    (List.sort compare printed = List.sort compare (List.map fst expected));
  List.iter
    (fun (name, unit) ->
      check
        (Printf.sprintf "%s: %s in %s" what name unit)
        (Json.to_str (Json.member "unit" (Json.member name (Json.member "metrics" j)))
        = Some unit))
    expected

let strings j = List.filter_map Json.to_str (Json.to_list j)

(* [printed] is every metric name a run writes to --json. *)
let check_layer_map ~printed =
  let map = Json.of_file "layer_map.json" in
  let entries = Json.to_list (Json.member "per_layer" map) in
  let name e = Option.value ~default:"" (Json.to_str (Json.member "name" e)) in
  check "layer_map.json: the per-layer metrics of BENCHMARK.json"
    (List.sort compare (List.map name entries)
    = List.sort compare (List.map fst (names_units "per_layer")));
  List.iter
    (fun e ->
      let n = name e in
      let layer = Option.value ~default:"?" (Json.to_str (Json.member "layer" e)) in
      check (n ^ ": named after its layer")
        (layer = "harness" || String.starts_with ~prefix:(layer ^ ".") n);
      List.iter
        (fun x ->
          check (Printf.sprintf "%s: moves %s, a printed metric" n x) (List.mem x printed))
        (strings (Json.member "moves" e));
      List.iter
        (fun x -> check (Printf.sprintf "%s: workload %s" n x) (List.mem_assoc x ops))
        (strings (Json.member "on" e) @ strings (Json.member "not_on" e)))
    entries

let inputs out =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | "workload" :: _ -> Some (List.nth (List.rev (String.split_on_char ' ' l)) 0)
      | _ -> None)
    out

let () =
  check "the fast-path guard refuses 2 shards x 4 XSKs on 4 NIC queues"
    (match Round.check_topology { Round.shards = 2; xsks = 4; nic_queues = 4 } with
    | () -> false
    | exception Round.Refused _ -> true);
  List.iter
    (fun (w, n) ->
      let base =
        [ "--workload"; w; "--seconds"; "0"; "--ops"; string_of_int n; "--rounds"; "2" ]
      in
      let json = w ^ ".jsonl" in
      let code, out1, a = run (base @ [ "--seed"; "1"; "--json"; json ]) in
      let record = Json.parse (In_channel.with_open_text json In_channel.input_all) in
      Sys.remove json;
      if w = "echo64" then
        check_layer_map
          ~printed:
            (match Json.member "metrics" record with
            | Json.Obj kvs -> List.map fst kvs
            | _ -> []);
      check (w ^ ": exits 0") (code = 0);
      check (w ^ ": correct") (Json.member "correct" a = Json.Bool true);
      check (w ^ ": no failed operation") (Json.member "failed" a = Json.Num 0.);
      check_metrics ~what:w "end_to_end" a;
      let _, _, b = run (base @ [ "--seed"; "1" ]) in
      List.iter
        (fun name ->
          check
            (Printf.sprintf "%s: same seed, same %s" w name)
            (metric a name = metric b name))
        simulated;
      let code, out2, t = run (base @ [ "--seed"; "2"; "--trace"; "1" ]) in
      check (w ^ ": traced run exits 0") (code = 0);
      check_metrics ~what:(w ^ " traced") "per_layer" t;
      check (w ^ ": another seed, other inputs")
        (inputs out1 <> inputs out2 && inputs out1 <> None);
      let json = w ^ "-mutant.jsonl" in
      let code, _, m =
        run (base @ [ "--seed"; "1"; "--mutant"; "flip-reply"; "--json"; json ])
      in
      let record = Json.parse (In_channel.with_open_text json In_channel.input_all) in
      Sys.remove json;
      check (w ^ ": the mutant makes the run exit non-zero") (code <> 0);
      check (w ^ ": the mutant is reported incorrect")
        (Json.member "correct" m = Json.Bool false);
      check (w ^ ": the mutant shows in fail_ratio")
        (match metric record "fail_ratio" with Some r -> r > 0. | None -> false))
    ops;
  if !failures > 0 then exit 1;
  print_endline "bench/e2e smoke: ok"
