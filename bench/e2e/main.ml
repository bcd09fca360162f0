(* End-to-end benchmark of RAKIS-SGX.

     main.exe run [--workload echo64|stream1472|file4k|kv_zipf|all]
                  [--seed S] [--seconds T] [--ops N] [--rounds K]
                  [--trace 0|1] [--trace-dir DIR] [--json FILE]
                  [--mutant flip-reply]
     main.exe compare --parent FILE... --change FILE... [--spec BENCHMARK.json]

   See README.md in this directory. *)

open E2e

let usage () =
  prerr_endline
    "usage: main.exe run [--workload echo64|stream1472|file4k|kv_zipf|all] [--seed S] \
     [--seconds T] [--ops N] [--rounds K] [--trace 0|1] [--trace-dir DIR] [--json \
     FILE] [--mutant flip-reply]\n\
    \       main.exe compare --parent FILE... --change FILE... [--spec BENCHMARK.json]";
  exit 2

let int_arg name v =
  match int_of_string_opt v with
  | Some n -> n
  | None ->
      Printf.eprintf "%s: not an integer: %s\n" name v;
      exit 2

let parse_run args =
  let o =
    ref
      {
        Run.workload = "all";
        seed = 1;
        seconds = 15.;
        ops = None;
        rounds = None;
        trace = false;
        trace_dir = None;
        json = None;
        mutant = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if w <> "all" && not (List.mem w Run.names) then begin
          Printf.eprintf "unknown workload %s\n" w;
          exit 2
        end;
        o := { !o with workload = w };
        go rest
    | "--seed" :: s :: rest ->
        o := { !o with seed = int_arg "--seed" s };
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some t when t >= 0. -> o := { !o with seconds = t }
        | _ ->
            Printf.eprintf "--seconds: not a non-negative number: %s\n" s;
            exit 2);
        go rest
    | "--ops" :: n :: rest ->
        let n = int_arg "--ops" n in
        if n < 100 then begin
          prerr_endline "--ops: at least 100";
          exit 2
        end;
        o := { !o with ops = Some n };
        go rest
    | "--rounds" :: n :: rest ->
        let n = int_arg "--rounds" n in
        if n < 1 then begin
          prerr_endline "--rounds: at least 1";
          exit 2
        end;
        o := { !o with rounds = Some n };
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> o := { !o with trace = false }
        | "1" -> o := { !o with trace = true }
        | _ ->
            prerr_endline "--trace: 0 or 1";
            exit 2);
        go rest
    | "--trace-dir" :: d :: rest ->
        o := { !o with trace = true; trace_dir = Some d };
        go rest
    | "--json" :: f :: rest ->
        o := { !o with json = Some f };
        go rest
    | "--mutant" :: "flip-reply" :: rest ->
        o := { !o with mutant = true };
        go rest
    | _ -> usage ()
  in
  go args;
  !o

(* [all] runs each workload in its own process, one after another, so
   every workload starts from a fresh heap.  Each prints its own block,
   ending with its own JSON line, and appends its own line to --json. *)
let run_all args =
  let rec without = function
    | "--workload" :: _ :: rest -> without rest
    | a :: rest -> a :: without rest
    | [] -> []
  in
  let args = without args in
  List.fold_left
    (fun status w ->
      let argv =
        Array.of_list
          ((Sys.executable_name :: "run" :: args) @ [ "--workload"; w ])
      in
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
          Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> status
      | _, Unix.WEXITED n -> max status n
      | _ -> max status 1)
    0 Run.names

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> (
      let o = parse_run args in
      if o.workload = "all" then exit (run_all args)
      else
        try exit (Run.run o)
        with Round.Refused why ->
          prerr_endline why;
          exit 2)
  | "compare" :: args -> exit (Compare.main args)
  | _ -> usage ()
