(* One round: boot RAKIS-SGX, run one workload's generated operations
   through it, and check the result.

   The host clocks (CPU and wall) are read at three points.  Set-up runs
   from before the boot to the end of warm-up: booting, filling the
   store or file, and the first [1 / warmup_divisor] of the operations.
   The measured window runs from there to the last operation's
   resolution.  Counters are snapshotted at the same two points, so
   per-layer figures cover the window only.

   The engine is driven in short slices of simulated time so the host
   can enforce a wall-clock cap without any event inside the
   simulation: a livelocked datapath stops the round instead of hanging
   the benchmark. *)

type topology = { shards : int; xsks : int; nic_queues : int }

(* Warm-up share of each round's operations (1 in 20). *)
let warmup_divisor = 20

let wall_cap_s = 60.

let slice = Sim.Cycles.of_us 10.

let horizon = Sim.Cycles.of_sec 60.

exception Refused of string

(* The fast-path guard: RAKIS gives every XSK of every shard its own NIC
   queue.  With fewer queues some XSKs never receive, their breakers
   open and traffic takes the exit-based fallback — a run that silently
   measures the slow path. *)
let check_topology t =
  if t.nic_queues < t.shards * t.xsks then
    raise
      (Refused
         (Printf.sprintf
            "topology refused: %d NIC queue(s) for %d shard(s) x %d XSK(s); \
             every XSK needs its own queue or the run measures the fallback \
             path"
            t.nic_queues t.shards t.xsks))

type t = {
  h : Apps.Harness.t;
  rt : Rakis.Runtime.t;
  ops : int;
  warmup : int;
  speed : float;  (** {!Calibration.factor} measured before the boot *)
  start_ns : int;
  start_cpu : float;
  lat : Sample.t;  (** simulated cycles of operations completed in the window *)
  mutable resolved : int;
  mutable completed : int;  (** in the window *)
  mutable failed : int;  (** in the window *)
  mutable violations : string list;
  mutable timed : bool;
  mutable mark_ns : int;
  mutable end_ns : int;
  mutable mark_cpu : float;
  mutable end_cpu : float;
  mutable mark_words : float;
  mutable end_words : float;
  mutable mark_sim : int64;
  mutable end_sim : int64;
  mutable before : (string * int) list;
  mutable after : (string * int) list;
  mutable finished : bool;
  mutable stopped_early : string option;
  mutable depth_max : int;
  mutable lag_max : int;
      (** cycles the open-loop generator sent behind schedule, worst case *)
}

let engine r = r.h.Apps.Harness.engine

let now r = Sim.Engine.now (engine r)

(* {1 Helpers for the workloads' client and server code} *)

(* The address RAKIS serves; workload servers bind their port on it. *)
let server_ip = Rakis.Config.default.Rakis.Config.ip

(* A UDP socket bound to [addr]; a failure is a bug in the workload. *)
let bound_socket (api : Libos.Api.t) addr ~what =
  let fd = api.udp_socket () in
  match api.bind fd addr with
  | Ok () -> fd
  | Error e -> failwith (Format.asprintf "%s bind: %a" what Abi.Errno.pp e)

(* [n] native client addresses whose flows to [dst] RSS spreads evenly
   over the NIC queues ([Apps.Shards.spread_ports]). *)
let client_addrs r ~n ~dst =
  let ip = Hostos.Kernel.client_ip r.h.Apps.Harness.kernel in
  Array.of_list
    (List.map (fun port -> (ip, port)) (Apps.Shards.spread_ports r.h ~n ~dst ~base:40000))

let violation r msg =
  if List.length r.violations < 20 then r.violations <- msg :: r.violations

(* Everything a per-layer figure may need, as flat (name, value) pairs:
   the runtime's metric registry, the engine's statistics, histogram
   counts and sums, and the runtime totals kept outside the registry. *)
let snapshot r =
  let m = Obs.metrics (Rakis.Runtime.obs r.rt) in
  let hist =
    List.concat_map
      (fun x ->
        let n = Obs.Metrics.histogram_name x in
        [ (n ^ "#count", Obs.Metrics.count x); (n ^ "#sum", Obs.Metrics.sum x) ])
      (Obs.Metrics.histograms m)
  in
  let umem_rejects =
    Array.fold_left
      (fun acc fm -> acc + Rakis.Umem.rejects (Rakis.Xsk_fm.umem fm))
      0
      (Rakis.Runtime.xsk_fms r.rt)
  in
  Obs.Metrics.counters m
  @ Sim.Stats.counters (Sim.Engine.stats (engine r))
  @ hist
  @ [
      ("runtime.edge_drops", Rakis.Runtime.total_edge_drops r.rt);
      ("runtime.umem_rejects", umem_rejects);
      ("runtime.ring_check_failures", Rakis.Runtime.total_ring_check_failures r.rt);
    ]

let boot ?(config = Rakis.Config.default) topology ~ops =
  check_topology topology;
  (* Reclaim the previous round's machine first, so every round starts
     from the same heap. *)
  Gc.full_major ();
  let speed = Calibration.factor () in
  let start_ns = Clock.now_ns () and start_cpu = Sys.time () in
  let config =
    { config with Rakis.Config.num_queues = topology.shards; num_xsks = topology.xsks }
  in
  match
    Apps.Harness.make Libos.Env.Rakis_sgx ~rakis_config:config
      ~nic_queues:topology.nic_queues ()
  with
  | Error e -> raise (Refused ("boot failed: " ^ e))
  | Ok h ->
      let rt =
        match Libos.Env.runtime h.Apps.Harness.env with
        | Some rt -> rt
        | None -> raise (Refused "RAKIS-SGX booted without a runtime")
      in
      {
        h;
        rt;
        ops;
        warmup = max 1 (ops / warmup_divisor);
        speed;
        start_ns;
        start_cpu;
        lat = Sample.create ops;
        resolved = 0;
        completed = 0;
        failed = 0;
        violations = [];
        timed = false;
        mark_ns = 0;
        end_ns = 0;
        mark_cpu = 0.;
        end_cpu = 0.;
        mark_words = 0.;
        end_words = 0.;
        mark_sim = 0L;
        end_sim = 0L;
        before = [];
        after = [];
        finished = false;
        stopped_early = None;
        depth_max = 0;
        lag_max = 0;
      }

(* End of warm-up.  The snapshot is taken before the clocks are read, so
   its own cost counts as set-up. *)
let mark r =
  r.before <- snapshot r;
  r.timed <- true;
  r.mark_sim <- now r;
  r.mark_words <- Gc.minor_words ();
  r.mark_cpu <- Sys.time ();
  r.mark_ns <- Clock.now_ns ()

let finish r =
  r.end_ns <- Clock.now_ns ();
  r.end_cpu <- Sys.time ();
  r.end_words <- Gc.minor_words ();
  r.end_sim <- now r;
  r.after <- snapshot r;
  r.finished <- true;
  Apps.Harness.stop r.h

let resolve r =
  r.resolved <- r.resolved + 1;
  if r.resolved = r.warmup && not r.timed then mark r;
  if r.resolved = r.ops then finish r

(* [latency] in simulated cycles. *)
let complete r ~latency =
  if r.timed then begin
    r.completed <- r.completed + 1;
    Sample.add r.lat (Int64.to_int latency)
  end;
  resolve r

let fail r =
  if r.timed then r.failed <- r.failed + 1;
  resolve r

let drive r =
  let cap_ns = int_of_float (wall_cap_s *. 1e9) in
  let e = engine r in
  while (not r.finished) && r.stopped_early = None do
    let t = Sim.Engine.now e in
    if Int64.compare t horizon >= 0 then
      r.stopped_early <- Some "simulated-time horizon reached"
    else begin
      Apps.Harness.run r.h ~until:(Int64.add t slice);
      if r.timed then r.depth_max <- max r.depth_max (Sim.Engine.pending e);
      if (not r.finished) && Sim.Engine.pending e = 0 then
        r.stopped_early <- Some "simulation stalled with operations outstanding"
      else if Clock.now_ns () - r.start_ns > cap_ns then
        r.stopped_early <-
          Some (Printf.sprintf "wall-clock cap of %.0f s hit" wall_cap_s)
    end
  done;
  (* A capped round still reports: every unresolved operation failed. *)
  if not r.finished then begin
    if not r.timed then mark r;
    r.failed <- r.failed + (r.ops - r.resolved);
    finish r
  end

(* Post-run safety checks shared by every workload. *)
let check_runtime r =
  if not (Rakis.Runtime.invariant_holds r.rt) then
    violation r "Runtime.invariant_holds failed after the run";
  let rcf = Rakis.Runtime.total_ring_check_failures r.rt in
  if rcf > 0 then violation r (Printf.sprintf "%d ring-check failures" rcf);
  let dr = Rakis.Runtime.total_desc_rejects r.rt in
  if dr > 0 then violation r (Printf.sprintf "%d descriptor/CQE rejects" dr);
  for k = 0 to Rakis.Runtime.shard_count r.rt - 1 do
    let opens = Rakis.Health.opens (Rakis.Runtime.shard_breaker r.rt k) in
    if opens > 0 then
      Printf.eprintf
        "warning: shard %d XSK breaker opened %d time(s); traffic took the \
         fallback path (see core.health.*)\n%!"
        k opens
  done

(* {1 Results}

   What a round leaves behind once its simulated machine is dropped: a
   run keeps many rounds, and holding their machines would make the
   heap grow with every round. *)

type outcome = {
  completed : int;  (** in the window *)
  failed : int;  (** in the window; after a cap, every unresolved op *)
  latencies : Sample.t;  (** cycles, completed operations in the window *)
  violations : string list;
  stopped : string option;
  speed : float;
  setup_s : float;  (** host CPU seconds of boot and warm-up, calibrated *)
  window_s : float;  (** host wall seconds of the window *)
  window_cpu_s : float;  (** host CPU seconds of the window, calibrated *)
  live_words : int;  (** live heap at the end of the window *)
  window_words : float;
  window_cycles : int64;
  delta : (string * int) list;  (** counter movement over the window *)
  queue_depth_max : int;
  gen_lag_max : int;
  trace_events : Obs.Trace.event list;  (** the runtime's ring, traced rounds only *)
}

let attempted o = o.completed + o.failed

let conclude ?(traced = false) r =
  drive r;
  check_runtime r;
  let before = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace before k v) r.before;
  {
    completed = r.completed;
    failed = r.failed;
    latencies = r.lat;
    violations = List.rev r.violations;
    stopped = r.stopped_early;
    speed = r.speed;
    setup_s = (r.mark_cpu -. r.start_cpu) *. r.speed;
    window_s = float_of_int (r.end_ns - r.mark_ns) /. 1e9;
    window_cpu_s = (r.end_cpu -. r.mark_cpu) *. r.speed;
    live_words =
      (Gc.full_major ();
       (Gc.quick_stat ()).Gc.live_words);
    window_words = r.end_words -. r.mark_words;
    window_cycles = Int64.sub r.end_sim r.mark_sim;
    delta =
      List.map
        (fun (k, v) -> (k, v - Option.value ~default:0 (Hashtbl.find_opt before k)))
        r.after;
    queue_depth_max = r.depth_max;
    gen_lag_max = r.lag_max;
    trace_events =
      (if traced then Obs.Trace.events (Obs.trace (Rakis.Runtime.obs r.rt)) else []);
  }
