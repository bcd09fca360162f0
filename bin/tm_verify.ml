(* Testing Module verification binary (paper §5.1's verification
   binary, with bounded-exhaustive search in place of KLEE).

   Modes:
   - default: exhaustive bounded exploration of the FM product machine
     (DESIGN.md §11) — certified xRX/xFill rings x UMem x breaker x
     faults x shard, to --depth transitions (default 5) over --queues
     shards, failing below --min-states distinct states; --mutant runs
     a known-bad driver mutation that must be caught;
   - --campaign: the full adversarial campaign — differential oracle
     runs (certified vs naive vs golden model), end-to-end single /
     pairwise / soup attack schedules on both datapaths, and a
     shrinker demonstration.  --budget bounds the total end-to-end
     workload steps (CI smoke uses --budget 2000);
   - --replay TOKEN: replay one campaign run or soak from the repro
     token it printed — '<kind>:<key>=<value>:...' with kind xsk,
     io_uring or soak, keys seed, budget (soak: steps), attacks, faults,
     q and slo, and bare flags zc, ov and wire (docs/cli.md).  The
     replay prints the same outcome and verdict as the original run;
   - --faults '<plan>' (with --campaign): additionally run each
     datapath under that host-fault plan alone and composed with an
     attack soup.  Fault plans and attack schedules share one plan
     grammar and one injector engine (Hostos.Injector, docs/cli.md),
     e.g. '@0.05=transient-errno;200=monitor-crash';
   - --soak: the overload-control chaos soak (DESIGN.md §15) — flash
     crowd x rolling shard faults x malice soup on a multi-queue
     machine with Config.overload, gated on zero unaccounted
     datagrams, zero control sheds, the p99 SLO and goodput recovery.
     --soak-steps / --queues / --seed / --slo-p99 parameterize it
     (CI smoke uses --soak-steps 12000); a --seed that is not an
     integer exits 2;
   - --wire (with --campaign or --soak): compose the canonical
     lossy-wire plan (5% drop/reorder/dup, 1% truncation — DESIGN.md
     §16) onto the run; campaign repro tokens and the soak token gain
     the "wire" flag. *)

(* A schedule entry firing [what] once, at workload step [step]. *)
let at step what = { Hostos.Injector.what; when_ = At_step step; shard = None }

let total_fired o =
  List.fold_left (fun acc (_, n) -> acc + n) 0 o.Tm.Campaign.fired

let total_injected o =
  List.fold_left (fun acc (_, n) -> acc + n) 0 o.Tm.Campaign.injected

let campaign ~budget ~faults_plan ~queues ~wire =
  Format.printf
    "RAKIS Testing Module: adversarial campaign (budget %d, queues %d)@.@."
    budget queues;
  let failures = ref 0 in
  (* Differential oracle: >= 10k scheduled steps per datapath shape. *)
  let oracle_steps = max 10_000 budget in
  List.iter
    (fun shape ->
      let r = Tm.Oracle.run ~shape ~seed:11L ~steps:oracle_steps () in
      Format.printf "%a@.@." Tm.Oracle.pp_report r;
      if not (Tm.Oracle.passed r) then incr failures)
    [ Tm.Oracle.Xsk_shape; Tm.Oracle.Iouring_shape ];
  (* End-to-end schedules.  The per-run budget splits the global budget
     over the singles (11 + 9 + the 2 zero-copy notif forgeries), a
     pairwise sample and three soups. *)
  let datapaths = [ Tm.Campaign.Xsk; Tm.Campaign.Iouring ] in
  let copy_singles = Tm.Campaign.applicable Tm.Campaign.Iouring in
  let singles =
    List.concat_map
      (fun dp -> List.map (fun a -> (dp, false, a)) (Tm.Campaign.applicable dp))
      datapaths
    @ List.filter_map
        (fun a ->
          if List.mem a copy_singles then None
          else Some (Tm.Campaign.Iouring, true, a))
        (Tm.Campaign.applicable ~zerocopy:true Tm.Campaign.Iouring)
  in
  let runs =
    List.length singles + 11
    + (if faults_plan = [] then 0 else 4)
    + if wire then 2 else 0
  in
  let per_run = max 16 (budget / runs) in
  let spec datapath seed schedule =
    {
      Tm.Campaign.defaults with
      datapath;
      seed;
      budget = per_run;
      queues;
      schedule;
    }
  in
  let summarize o =
    if Tm.Campaign.failed o then begin
      incr failures;
      Format.printf "%a@.repro: %s@.@." Tm.Campaign.pp_outcome o
        Tm.Campaign.(token_to_string (Campaign o.spec))
    end
  in
  List.iter
    (fun (dp, zerocopy, attack) ->
      let o =
        Tm.Campaign.run
          {
            (spec dp 21L [ at (per_run / 4) attack ]) with
            zerocopy;
          }
      in
      Format.printf "single %-9s %-20s ok=%d refused=%d lost=%d fired=%d %s@."
        (Tm.Campaign.datapath_name dp ^ if zerocopy then "+zc" else "")
        (Hostos.Malice.name attack)
        o.Tm.Campaign.ok o.Tm.Campaign.refused o.Tm.Campaign.lost
        (total_fired o)
        (if Tm.Campaign.failed o then "FAIL" else "ok");
      summarize o)
    singles;
  (* Pairwise sample: index and descriptor attacks composed. *)
  List.iter
    (fun dp ->
      List.iter
        (fun (a, b) ->
          let o =
            Tm.Campaign.run
              (spec dp 31L
                 [ at (per_run / 4) a; at (per_run / 2) b ])
          in
          summarize o)
        (Tm.Campaign.pairs
           Hostos.Malice.[ Prod_overshoot; Cons_regress; Oversize_len ]))
    datapaths;
  (* Soups — per datapath, plus one over the zero-copy io_uring
     datapath so the notif forgeries land mixed in with everything
     else. *)
  let soup_shapes =
    List.map (fun dp -> (dp, false)) datapaths
    @ [ (Tm.Campaign.Iouring, true) ]
  in
  List.iter
    (fun (dp, zerocopy) ->
      let schedule =
        Tm.Campaign.soup ~datapath:dp ~zerocopy ~seed:41L ~budget:per_run ()
      in
      let o = Tm.Campaign.run { (spec dp 41L schedule) with zerocopy } in
      Format.printf
        "soup   %-9s entries=%d ok=%d refused=%d lost=%d fired=%d %s@."
        (Tm.Campaign.datapath_name dp ^ if zerocopy then "+zc" else "")
        (List.length schedule) o.Tm.Campaign.ok o.Tm.Campaign.refused
        o.Tm.Campaign.lost (total_fired o)
        (if Tm.Campaign.failed o then "FAIL" else "ok");
      summarize o)
    soup_shapes;
  (* Canonical breaker-failover arc (DESIGN.md §9): a probability-1
     fault burst opens the primitive's breaker, traffic rides the
     exit-based slow path, and the fault-free tail lets it probe and
     fail back.  Asserted, not just reported: a run where the breaker
     never engaged means the degraded-mode machinery is wired out. *)
  List.iter
    (fun dp ->
      let faults = Tm.Campaign.failover_plan ~datapath:dp ~budget:per_run in
      let o = Tm.Campaign.run { (spec dp 81L []) with faults } in
      Format.printf
        "failover %-9s opens=%d failovers=%d closes=%d slow=%d \
         watchdog=%d scans=%d %s@."
        (Tm.Campaign.datapath_name dp) o.Tm.Campaign.breaker_opens
        o.Tm.Campaign.breaker_failovers o.Tm.Campaign.breaker_closes
        o.Tm.Campaign.slow_calls o.Tm.Campaign.watchdog_restarts
        o.Tm.Campaign.degraded_scans
        (if Tm.Campaign.failed o then "FAIL" else "ok");
      if o.Tm.Campaign.breaker_opens = 0 then begin
        incr failures;
        Format.printf "failover %s: breaker never opened@."
          (Tm.Campaign.datapath_name dp)
      end;
      summarize o)
    datapaths;
  (* Host-fault schedules: the plan alone (pure availability weather),
     then composed with an attack soup — a lying AND failing host. *)
  if faults_plan <> [] then
    List.iter
      (fun dp ->
        let o =
          Tm.Campaign.run { (spec dp 61L []) with faults = faults_plan }
        in
        Format.printf
          "faults %-9s injected=%d ok=%d refused=%d lost=%d %s@."
          (Tm.Campaign.datapath_name dp)
          (total_injected o) o.Tm.Campaign.ok
          o.Tm.Campaign.refused o.Tm.Campaign.lost
          (if Tm.Campaign.failed o then "FAIL" else "ok");
        summarize o;
        let schedule =
          Tm.Campaign.soup ~datapath:dp ~seed:71L ~budget:per_run ()
        in
        let o =
          Tm.Campaign.run { (spec dp 71L schedule) with faults = faults_plan }
        in
        Format.printf
          "faults+soup %-9s entries=%d injected=%d ok=%d refused=%d \
           lost=%d fired=%d %s@."
          (Tm.Campaign.datapath_name dp)
          (List.length schedule) (total_injected o) o.Tm.Campaign.ok
          o.Tm.Campaign.refused o.Tm.Campaign.lost (total_fired o)
          (if Tm.Campaign.failed o then "FAIL" else "ok");
        summarize o)
      datapaths;
  (* Hostile-wire weather (DESIGN.md §16): the canonical lossy plan —
     5% drop/reorder/dup, 1% truncation — on the XSK datapath (the
     wire faults live on the NIC link, which only XSK traffic rides),
     alone and composed with an attack soup.  Loss is availability
     weather: the run must stay violation-free, the injector must have
     actually fired, and the repro token must parse back with the
     "wire" flag set so the weather replays. *)
  if wire then begin
    let check_wire label o =
      Format.printf "%s %-9s ok=%d refused=%d lost=%d injected=%d %s@." label
        "xsk" o.Tm.Campaign.ok o.Tm.Campaign.refused o.Tm.Campaign.lost
        (total_injected o)
        (if Tm.Campaign.failed o then "FAIL" else "ok");
      if total_injected o = 0 then begin
        incr failures;
        Format.printf "%s: the lossy-wire plan never injected a fault@." label
      end;
      let token = Tm.Campaign.(token_to_string (Campaign o.spec)) in
      (match Tm.Campaign.parse_repro token with
      | Ok { Tm.Campaign.wire = true; _ } -> ()
      | _ ->
          incr failures;
          Format.printf "%s: repro token %S does not replay the wire@." label
            token);
      summarize o
    in
    check_wire "wire  "
      (Tm.Campaign.run { (spec Tm.Campaign.Xsk 101L []) with wire = true });
    let schedule =
      Tm.Campaign.soup ~datapath:Tm.Campaign.Xsk ~seed:103L ~budget:per_run ()
    in
    check_wire "wire+soup"
      (Tm.Campaign.run
         { (spec Tm.Campaign.Xsk 103L schedule) with wire = true })
  end;
  (* Shard containment (DESIGN.md §10): a persistent wakeup-drop pinned
     to shard 1 may only ever open shard 1's breaker — breaker activity
     on any other shard means the blast radius leaked across shards. *)
  if queues > 1 then begin
    let faults =
      [
        {
          Hostos.Injector.what = Hostos.Faults.Drop_wakeup;
          when_ = Persistent;
          shard = Some 1;
        };
      ]
    in
    let o = Tm.Campaign.run { (spec Tm.Campaign.Xsk 91L []) with faults } in
    let leaked =
      List.exists
        (fun (k, opens) -> k <> 1 && opens > 0)
        (List.mapi (fun k opens -> (k, opens)) o.Tm.Campaign.shard_opens)
    in
    Format.printf "containment xsk shard-1 fault: opens=[%s] lost=%d %s@."
      (String.concat ";" (List.map string_of_int o.Tm.Campaign.shard_opens))
      o.Tm.Campaign.lost
      (if leaked || Tm.Campaign.failed o then "FAIL" else "ok");
    if leaked then begin
      incr failures;
      Format.printf "containment: shard-1 fault opened another shard's \
                     breaker@."
    end;
    summarize o
  end;
  (* Shrinker demonstration on a naive-ring failure. *)
  let events = Tm.Oracle.gen_soup ~seed:51L ~steps:60 in
  if Tm.Oracle.naive_consumer_fails events then begin
    let r = Tm.Shrink.minimize ~fails:Tm.Oracle.naive_consumer_fails events in
    Format.printf "@.shrinker: naive failure %d -> %d steps (%d replays): "
      r.Tm.Shrink.original
      (List.length r.Tm.Shrink.trace)
      r.Tm.Shrink.tests;
    List.iter (fun e -> Format.printf "%a;" Tm.Oracle.pp_event e) r.Tm.Shrink.trace;
    Format.printf "@."
  end
  else begin
    Format.printf "@.shrinker: seed 51 soup did not fail the naive ring@.";
    incr failures
  end;
  if !failures > 0 then begin
    Format.printf "@.campaign FAILED (%d failures)@." !failures;
    exit 1
  end
  else Format.printf "@.campaign passed@."

let soak spec =
  let o =
    try Tm.Campaign.soak spec
    with Invalid_argument e ->
      Format.eprintf "tm_verify --soak: %s@." e;
      exit 2
  in
  Format.printf "%a@." Tm.Campaign.pp_soak_outcome o;
  if Tm.Campaign.soak_failed o then begin
    Format.printf "@.soak FAILED@.";
    exit 1
  end
  else Format.printf "@.soak passed@."

let replay token =
  match Tm.Campaign.token_of_string token with
  | Error e ->
      Format.eprintf "bad repro token: %s@." e;
      exit 2
  | Ok (Tm.Campaign.Soak spec) -> soak spec
  | Ok (Tm.Campaign.Campaign spec) ->
      let o = Tm.Campaign.run spec in
      Format.printf "%a@." Tm.Campaign.pp_outcome o;
      if Tm.Campaign.failed o then exit 1

let explore ~depth ~queues ~min_states ~max_states ~mutant =
  let mutant =
    match mutant with
    | "" -> None
    | s -> (
        match Tm.Explore.mutant_of_string s with
        | Some m -> Some m
        | None ->
            Format.eprintf "unknown --mutant %S (one of: %s)@." s
              (String.concat ", "
                 (List.map Tm.Explore.mutant_name Tm.Explore.all_mutants));
            exit 2)
  in
  (* Mutant runs weaken the breaker threshold to 1 so the witness path
     (trip, cool down, probe) fits in a shallow depth bound. *)
  let config =
    {
      Tm.Explore.default_config with
      shards = queues;
      mutant;
      threshold = (if mutant = None then Tm.Explore.default_config.threshold else 1);
    }
  in
  Format.printf
    "RAKIS Testing Module: exhaustive product-machine exploration@.@.";
  let t0 = Sys.time () in
  let r = Tm.Explore.explore ~config ~depth ~max_states () in
  let dt = Sys.time () -. t0 in
  Format.printf "%a@.elapsed:          %.1fs@." Tm.Explore.pp_report r dt;
  match mutant with
  | Some m ->
      (* a mutant run is expected to be CAUGHT *)
      if r.Tm.Explore.violations = [] then begin
        Format.printf "@.mutant %s NOT caught — the explorer's net has a hole@."
          (Tm.Explore.mutant_name m);
        exit 1
      end
      else Format.printf "@.mutant %s caught as expected@." (Tm.Explore.mutant_name m)
  | None ->
      if not (Tm.Explore.passed r) then begin
        Format.printf "@.exploration FAILED@.";
        exit 1
      end;
      if r.Tm.Explore.states < min_states then begin
        Format.printf
          "@.coverage regression: %d states < required %d (was the state \
           space or the transition set narrowed?)@."
          r.Tm.Explore.states min_states;
        exit 1
      end;
      Format.printf "@.exploration passed@."

let () =
  let depth = ref 5
  and budget = ref 2000
  and queues = ref 1
  and mode = ref `Explore
  and faults_spec = ref ""
  and min_states = ref 1_000
  and max_states = ref 250_000
  and mutant = ref ""
  and token = ref ""
  and soak_steps = ref Tm.Campaign.soak_defaults.steps
  and seed = ref Tm.Campaign.soak_defaults.seed
  and slo_p99 = ref Tm.Campaign.soak_defaults.slo_p99
  and wire = ref false in
  let spec =
    [
      ( "--campaign",
        Arg.Unit (fun () -> mode := `Campaign),
        "run the adversarial campaign instead of the exploration" );
      ( "--budget",
        Arg.Set_int budget,
        "campaign end-to-end step budget (default 2000)" );
      ( "--queues",
        Arg.Set_int queues,
        "datapath shards for the exploration and the campaign workloads \
         (default 1); > 1 additionally runs the campaign's \
         shard-containment check" );
      ( "--faults",
        Arg.Set_string faults_spec,
        "host-fault plan for the campaign (';'-separated, e.g. \
         '@0.05=transient-errno;200=monitor-crash')" );
      ( "--replay",
        Arg.String
          (fun s ->
            mode := `Replay;
            token := s),
        "replay one campaign or soak repro token" );
      ( "--depth",
        Arg.Set_int depth,
        "transition-sequence bound for the exploration (default 5)" );
      ( "--min-states",
        Arg.Set_int min_states,
        "fail the exploration below this many distinct states — the CI \
         coverage-regression gate (default 1000)" );
      ( "--max-states",
        Arg.Set_int max_states,
        "state budget for the exploration (default 250000)" );
      ( "--soak",
        Arg.Unit (fun () -> mode := `Soak),
        "run the overload-control chaos soak (flash crowd x rolling \
         shard faults x malice soup with Config.overload); gates: zero \
         unaccounted datagrams, zero control sheds, p99 SLO, goodput \
         recovery" );
      ( "--soak-steps",
        Arg.Set_int soak_steps,
        "datagram steps for --soak (default 100000)" );
      ( "--seed",
        Arg.String
          (fun s ->
            match Int64.of_string_opt s with
            | Some n -> seed := n
            | None ->
                raise
                  (Arg.Bad (Printf.sprintf "--seed: %S is not an integer" s))),
        "seed for --soak (default 0x50AD5EED)" );
      ( "--slo-p99",
        Arg.Int (fun n -> slo_p99 := Int64.of_int n),
        "p99 SLO for --soak in cycles (default 2400000, 1 ms at 2.4 GHz)" );
      ( "--wire",
        Arg.Set wire,
        "compose the canonical lossy-wire plan (5% drop/reorder/dup, 1% \
         trunc) onto --campaign (extra XSK wire-weather runs) or --soak \
         (the whole soak rides the hostile wire); tokens gain the 'wire' \
         flag" );
      ( "--mutant",
        Arg.Set_string mutant,
        "run the exploration against a known-bad driver mutation and \
         require it to be caught (probe-off-by-one | probe-slot-leak | \
         skip-reclaim | zc-release-early | fill-overrun)" );
    ]
  in
  Arg.parse spec
    (fun _ -> ())
    "tm_verify [--depth N] [--queues N] [--min-states N] [--max-states N] \
     [--mutant M] [--campaign [--budget N] [--faults PLAN] [--wire]] \
     [--replay TOKEN] [--soak ...]";
  match !mode with
  | `Campaign -> (
      match Hostos.Faults.plan_of_string !faults_spec with
      | Error e ->
          Format.eprintf "bad --faults plan: %s@." e;
          exit 2
      | Ok faults_plan ->
          campaign ~budget:!budget ~faults_plan ~queues:!queues ~wire:!wire)
  | `Replay -> replay !token
  | `Soak ->
      let queues = if !queues < 2 then 2 else !queues in
      Format.printf
        "RAKIS Testing Module: overload chaos soak (steps %d, queues %d%s)@.@."
        !soak_steps queues
        (if !wire then ", lossy wire" else "");
      soak
        {
          Tm.Campaign.seed = !seed;
          steps = !soak_steps;
          queues;
          slo_p99 = !slo_p99;
          wire = !wire;
        }
  | `Explore ->
      explore ~depth:!depth ~queues:!queues ~min_states:!min_states
        ~max_states:!max_states ~mutant:!mutant
