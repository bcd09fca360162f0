(* The [compare] command: parent runs against change runs.

   Reads the JSON lines [run --json] appends (any number of files per
   side) and, for every (workload, metric), prints each side's median
   and quartiles, the change of the median, the share of paired runs the
   change wins (ties count for neither) and a verdict.  Runs are paired
   by seed when both sides ran the same seeds, each once, and by order
   otherwise.  For the end-to-end metrics of BENCHMARK.json the verdict
   applies its bound:

   - paired by seed, a simulated metric is judged by the median of its
     per-seed relative changes against [paired_bounds]: it repeats
     exactly for a seed, so those changes carry no noise, and the
     tighter bound catches a regression that BENCHMARK.json's bound,
     which must also hold the spread between seeds, lets through;
   - unresolved: the parent's own spread (quartile distance over median)
     is wider than the bound, unless every change run beats every parent
     run;
   - regressed: the change's median is worse by more than the bound;
   - improved: the change wins at least nine tenths of the pairs and the
     medians differ by more than the parent's quartile distance;
   - unchanged: otherwise.

   Two metrics also get an absolute allowance: [exits_per_kop] may rise
   by 0.05 and [fail_ratio] (not gated by BENCHMARK.json because it is 0
   on every workload) by 0.001.  Other metrics are printed for
   information. *)

type spec = { better_higher : bool; bound : float }

let absolute_slack = [ ("exits_per_kop", 0.05); ("fail_ratio", 0.001) ]

let paired_bounds =
  [ ("kops", 0.01); ("lat_p50_us", 0.02); ("lat_p99_us", 0.02); ("lat_p999_us", 0.03) ]

let read_spec path =
  let j = Json.of_file path in
  List.filter_map
    (fun e ->
      match
        ( Json.to_str (Json.member "name" e),
          Json.to_str (Json.member "better" e),
          Json.to_num (Json.member "bound" e) )
      with
      | Some name, Some better, Some bound ->
          Some (name, { better_higher = better = "higher"; bound })
      | _ -> None)
    (Json.to_list (Json.member "end_to_end" j))

(* (workload, metric) -> (seed, value) in file order. *)
let read_runs files =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun path ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            while true do
              let line = String.trim (input_line ic) in
              if line <> "" then begin
                let j = Json.parse line in
                let w =
                  Option.value ~default:"?"
                    (Json.to_str (Json.member "workload" j))
                in
                let seed = Json.to_num (Json.member "seed" j) in
                let add name v =
                  let key = (w, name) in
                  match Hashtbl.find_opt tbl key with
                  | Some l -> Hashtbl.replace tbl key ((seed, v) :: l)
                  | None ->
                      order := key :: !order;
                      Hashtbl.add tbl key [ (seed, v) ]
                in
                (match Json.member "metrics" j with
                | Json.Obj kvs ->
                    List.iter
                      (fun (name, mv) ->
                        match Json.to_num (Json.member "value" mv) with
                        | Some v -> add name v
                        | None -> ())
                      kvs
                | _ -> ())
              end
            done
          with End_of_file -> ()))
    files;
  (tbl, List.rev !order)

(* Pairs by seed when both sides ran the same seeds, each once. *)
let pair parent change =
  let seeds l = List.sort compare (List.map fst l) in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  let ps = seeds parent in
  if ps = seeds change && distinct ps && not (List.mem None ps) then
    ( "seed",
      List.map (fun (s, p) -> (p, List.assoc s change)) parent )
  else
    let n = min (List.length parent) (List.length change) in
    let first l = List.filteri (fun i _ -> i < n) (List.map snd l) in
    ("order", List.combine (first parent) (first change))

(* Relative change from [p] to [c], positive when [c] is worse. *)
let worsening spec (p, c) =
  if p = 0. then 0. else (if spec.better_higher then p -. c else c -. p) /. Float.abs p

let verdict ~name spec ~by ~parent ~change ~pairs =
  let q1, p_med, q3 = Sample.quartiles parent and _, c_med, _ = Sample.quartiles change in
  let iqr = q3 -. q1 in
  let worse a b = if spec.better_higher then a < b else a > b in
  let allowed =
    Float.max (spec.bound *. Float.abs p_med)
      (Option.value ~default:0. (List.assoc_opt name absolute_slack))
  in
  let wins = List.length (List.filter (fun (p, c) -> worse p c) pairs) in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> worse p c) parent) change
  in
  let share = float_of_int wins /. float_of_int (max 1 (List.length pairs)) in
  let v =
    match if by = "seed" then List.assoc_opt name paired_bounds else None with
    | Some bound ->
        let shift = Sample.median (List.map (worsening spec) pairs) in
        if shift > bound then "regressed"
        else if shift < -.bound then "improved"
        else "unchanged"
    | None ->
        if all_better then "improved"
        else if iqr > allowed then "unresolved"
        else if worse c_med p_med && Float.abs (c_med -. p_med) > allowed then
          "regressed"
        else if share >= 0.9 && Float.abs (c_med -. p_med) > iqr then "improved"
        else "unchanged"
  in
  (v, share)

let main args =
  let rec split side (parent, change, spec) = function
    | [] -> (List.rev parent, List.rev change, spec)
    | "--parent" :: rest -> split `Parent (parent, change, spec) rest
    | "--change" :: rest -> split `Change (parent, change, spec) rest
    | "--spec" :: f :: rest -> split side (parent, change, f) rest
    | f :: rest -> (
        match side with
        | `Parent -> split side (f :: parent, change, spec) rest
        | `Change -> split side (parent, f :: change, spec) rest
        | `None ->
            prerr_endline "compare: give files after --parent or --change";
            exit 2)
  in
  let parent, change, spec_path = split `None ([], [], "BENCHMARK.json") args in
  if parent = [] || change = [] then begin
    prerr_endline
      "usage: main.exe compare --parent FILE... --change FILE... [--spec \
       BENCHMARK.json]";
    exit 2
  end;
  let spec = read_spec spec_path in
  let ptbl, order = read_runs parent and ctbl, _ = read_runs change in
  let regressed = ref 0 in
  Printf.printf "%-11s %-36s %38s   %38s %9s %6s %-6s %s\n" "workload" "metric"
    "parent q1 / median / q3" "change q1 / median / q3" "median" "wins" "pairs"
    "verdict";
  List.iter
    (fun ((w, name) as key) ->
      match Hashtbl.find_opt ctbl key with
      | None -> ()
      | Some c ->
          let p = List.rev (Hashtbl.find ptbl key) and c = List.rev c in
          let by, pairs = pair p c in
          let p = List.map snd p and c = List.map snd c in
          let pq1, pmed, pq3 = Sample.quartiles p
          and cq1, cmed, cq3 = Sample.quartiles c in
          let s =
            match List.assoc_opt name spec with
            | Some s -> Some s
            | None when List.mem_assoc name absolute_slack ->
                Some { better_higher = false; bound = 0. }
            | None -> None
          in
          let v, share =
            match s with
            | Some s -> verdict ~name s ~by ~parent:p ~change:c ~pairs
            | None -> ("info", nan)
          in
          if v = "regressed" then incr regressed;
          Printf.printf
            "%-11s %-36s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g %8.2f%% %6s %-6s %s\n"
            w name pq1 pmed pq3 cq1 cmed cq3
            (if pmed = 0. then 0. else 100. *. (cmed -. pmed) /. Float.abs pmed)
            (if Float.is_nan share then "-" else Printf.sprintf "%.0f%%" (100. *. share))
            by v)
    order;
  if !regressed > 0 then 1 else 0
