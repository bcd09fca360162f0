(* Deterministic adversarial campaign engine (Testing Module, §5).

   A campaign run boots a full RAKIS-SGX machine (enclave, XDP/io_uring
   kernel paths, Monitor Module) via {!Apps.Harness}, installs a
   *schedule* of {!Hostos.Malice} attacks keyed to workload steps, and
   drives a verifying end-to-end workload over one datapath:

   - [Xsk]: the enclave runs a UDP echo server over the XSK fast path;
     a native peer sends step-tagged datagrams and verifies the echoes.
   - [Iouring]: the enclave performs file write/read-back cycles and a
     TCP echo conversation with a native peer, both through the
     SyncProxy / io_uring FM.

   Everything is seeded, so any outcome — in particular any violation —
   replays exactly from its {!spec}; {!token_to_string} prints the spec
   as a copy-pasteable token and {!parse_repro} reads it back.

   What counts as a violation is exactly the paper's Table 2 contract:
   the enclave must never act on corrupted control data (wrong payload
   delivered as if intact, broken ring invariant, out-of-range count).
   Detected-and-refused operations (EPERM, rejected indices, dropped
   frames) are the *correct* outcome under attack, and data-level
   corruption ([Corrupt_packet]) is deliberately not detected by RAKIS
   (TLS territory): payload mismatches while it is live are recorded as
   tolerated, not violations.  A refused file write is not proof that
   the host did nothing: the file oracle ({!File_model}) admits old or
   new data for every byte a write did not confirm. *)

type datapath = Xsk | Iouring

type violation = { at_step : int; what : string }

(* Everything that identifies a campaign run: the machine it boots and
   the weather it runs under.  [wire] composes {!wire_plan} on top of
   [faults]. *)
type spec = {
  datapath : datapath;
  seed : int64;
  budget : int;
  queues : int;  (* datapath shards the machine boots with *)
  schedule : Hostos.Malice.plan;
  faults : Hostos.Faults.plan;
  zerocopy : bool;
  overload : bool;
  wire : bool;
}

let defaults =
  {
    datapath = Xsk;
    seed = 0L;
    budget = 64;
    queues = 1;
    schedule = [];
    faults = [];
    zerocopy = false;
    overload = false;
    wire = false;
  }

(* Everything that identifies a chaos soak (DESIGN.md §15). *)
type soak_spec = {
  seed : int64;
  steps : int;
  queues : int;
  slo_p99 : int64;
  wire : bool;
}

let soak_defaults =
  {
    seed = 0x50AD5EEDL;
    steps = 100_000;
    queues = 2;
    slo_p99 = 2_400_000L;
    wire = false;
  }

type token = Campaign of spec | Soak of soak_spec

type outcome = {
  spec : spec;
  steps_run : int;
  ok : int;  (* operations that completed and verified against the model *)
  late_ok : int;  (* verified operations in the last quarter (recovery) *)
  refused : int;  (* an errno, or a write that wrote nothing *)
  lost : int;  (* timeouts / drops: availability, not integrity *)
  tolerated : int;
      (* payload mismatches while Corrupt_packet was live, and file reads
         a forged CQE result cut short *)
  indeterminate : int;  (* file writes that left bytes old-or-new *)
  fired : (Hostos.Malice.attack * int) list;
  injected : (Hostos.Faults.fault * int) list;
  ring_rejects : int;
  desc_rejects : int;
  invariant_ok : bool;
  watchdog_restarts : int;
  degraded_scans : int;
  breaker_opens : int;  (* summed over every shard's xsk breaker + uring/mm *)
  breaker_failovers : int;
  breaker_closes : int;
  shard_opens : int list;  (* per-shard XSK breaker trips, shard order *)
  slow_calls : int;  (* ops completed via the exit-based slow path *)
  zc_sends : int;  (* SEND_ZC frames lent to the kernel *)
  zc_fallbacks : int;  (* zc ops degraded to the copy path *)
  zc_notif_rejects : int;  (* forged-early + stray/duplicate notifs refused *)
  zc_leaks : int;  (* frames the host held hostage by withholding notifs *)
  ov_admitted : int;  (* admissions across every overload controller *)
  ov_shed : int;  (* accounted data-class sheds *)
  ov_control_shed : int;  (* must stay 0: Control is never shed *)
  ov_edge_drops : int;  (* NIC-edge drops while fill was throttled *)
  violations : violation list;
  trace_tail : string list;
      (* rendered tail of the runtime's trace ring, captured only on
         failure: the events leading up to the violation *)
}

let datapath_name = function Xsk -> "xsk" | Iouring -> "io_uring"

(* Attacks that can actually fire on a datapath.  The three notif
   forgeries live inside the SEND_ZC two-phase protocol, so they need
   the io_uring datapath *and* the zero-copy config.  [Dropped_notif]
   is excluded even then: withholding a notif deterministically leaks
   the lent frame, which {!failed} flags by design ([zc_leaks]) — its
   home is the golden dropped-notif failure test, not the
   no-violation singles.  The wire attacks (replay, reorder-burst,
   fragment-storm) fire in the XDP rx hook, so only the XSK datapath
   carries them. *)
let wire_attacks = Hostos.Malice.[ Replay; Reorder_burst; Fragment_storm ]

let applicable ?(zerocopy = false) = function
  | Xsk ->
      List.filter
        (fun a ->
          not
            (List.mem a
               Hostos.Malice.
                 [
                   Cqe_wrong_user_data;
                   Cqe_bogus_res;
                   Forged_early_notif;
                   Dropped_notif;
                   Double_notif;
                 ]))
        Hostos.Malice.all
  | Iouring ->
      let excluded =
        (if zerocopy then Hostos.Malice.[ Dropped_notif ]
         else Hostos.Malice.[ Forged_early_notif; Dropped_notif; Double_notif ])
        @ wire_attacks
      in
      List.filter
        (fun a -> not (List.mem a excluded))
        Hostos.Malice.all

let campaign_config =
  {
    Rakis.Config.default with
    ring_size = 32;
    umem_size = 64 * 2048;
    uring_entries = 64;
    max_io_size = 4096;
  }

(* Mutable per-run verification state shared by the workload drivers. *)
type state = {
  mutable steps_run : int;
  mutable ok : int;
  mutable late_ok : int;
  mutable refused : int;
  mutable lost : int;
  mutable tolerated : int;
  mutable indeterminate : int;
  mutable violations : violation list;
  malice : Hostos.Malice.t;
  faults : Hostos.Faults.t option;
  budget : int;
}

let tick st step =
  Hostos.Malice.set_step st.malice step;
  match st.faults with
  | Some f -> Hostos.Faults.set_step f step
  | None -> ()

let violate st ~step what = st.violations <- { at_step = step; what } :: st.violations

let data_attack_live st =
  Hostos.Malice.fired_of st.malice Hostos.Malice.Corrupt_packet > 0

(* A forged CQE result may end a chunked transfer early with a true
   prefix of its data (docs/zerocopy.md, "One synchronous path"). *)
let cqe_forged st =
  Hostos.Malice.fired_of st.malice Hostos.Malice.Cqe_bogus_res > 0
  || Hostos.Malice.fired_of st.malice Hostos.Malice.Cqe_wrong_user_data > 0

let good st ~step =
  st.ok <- st.ok + 1;
  if step >= 3 * st.budget / 4 then st.late_ok <- st.late_ok + 1

let mismatch st ~step what =
  if data_attack_live st then st.tolerated <- st.tolerated + 1
  else violate st ~step what

(* {1 XSK datapath: UDP echo with step-tagged datagrams} *)

let mk_datagram step =
  let len = 64 + (step * 13 mod 192) in
  let b = Bytes.create len in
  Bytes.blit_string (Printf.sprintf "%08d" (step mod 100_000_000)) 0 b 0 8;
  for i = 8 to len - 1 do
    Bytes.set b i (Char.chr (((step * 31) + i) land 0xff))
  done;
  b

let xsk_port = 7

let run_xsk_workload (h : Apps.Harness.t) st =
  (* Enclave-side echo server over the XSK fast path. *)
  Sim.Engine.spawn h.engine (fun () ->
      let api = Apps.Harness.api h in
      let fd = api.Libos.Api.udp_socket () in
      ignore (api.Libos.Api.bind fd (campaign_config.Rakis.Config.ip, xsk_port));
      let rec loop () =
        match api.Libos.Api.recvfrom fd 4096 with
        | Ok (payload, src) ->
            ignore (api.Libos.Api.sendto fd payload src);
            loop ()
        | Error _ -> ()
      in
      loop ());
  (* Native peer client: one tagged datagram per step, verified echo. *)
  Sim.Engine.spawn h.engine (fun () ->
      Sim.Engine.delay (Sim.Cycles.of_us 50.);
      let peer = h.peer in
      let fd = peer.Libos.Api.udp_socket () in
      let dst = (campaign_config.Rakis.Config.ip, xsk_port) in
      for step = 0 to st.budget - 1 do
        tick st step;
        let payload = mk_datagram step in
        (match peer.Libos.Api.sendto fd payload dst with
        | Error _ -> st.refused <- st.refused + 1
        | Ok _ ->
            (* Wait for the echo; a stale echo of an earlier timed-out
               step is drained and ignored (availability, not
               integrity). *)
            let rec collect tries =
              if tries = 0 then st.lost <- st.lost + 1
              else
                match
                  peer.Libos.Api.poll
                    [ (fd, [ `In ]) ]
                    ~timeout:(Some (Sim.Cycles.of_us 300.))
                with
                | Ok [] | Error _ -> st.lost <- st.lost + 1
                | Ok _ -> (
                    match peer.Libos.Api.recvfrom fd 4096 with
                    | Error _ -> st.lost <- st.lost + 1
                    | Ok (reply, _) ->
                        if Bytes.equal reply payload then good st ~step
                        else
                          (match Apps.Udp_echo.tag_of reply with
                          | Some t when t < step -> collect (tries - 1)
                          | _ ->
                              mismatch st ~step
                                (Printf.sprintf
                                   "udp echo mismatch (%d bytes)"
                                   (Bytes.length reply))))
            in
            collect 3);
        st.steps_run <- st.steps_run + 1
      done;
      Apps.Harness.stop h)

(* {1 io_uring datapath: file write/read-back + TCP echo via SyncProxy} *)

let block_size = 64

let n_slots = 8

let mk_block step =
  Bytes.init block_size (fun i -> Char.chr (((step * 17) + i) land 0xff))

let mk_tcp_msg step =
  let b = Bytes.create 32 in
  Bytes.blit_string (Printf.sprintf "%08d" (step mod 100_000_000)) 0 b 0 8;
  for i = 8 to 31 do
    Bytes.set b i (Char.chr (((step * 7) + i) land 0xff))
  done;
  b

let tcp_port = 9212

let run_iouring_workload ?(zerocopy = false) (h : Apps.Harness.t) st =
  (* Native peer: TCP echo server with an accept loop (the enclave
     reconnects after any refused stream operation). *)
  Sim.Engine.spawn h.engine (fun () ->
      let peer = h.peer in
      let l = peer.Libos.Api.tcp_socket () in
      ignore (peer.Libos.Api.bind l (Hostos.Kernel.client_ip h.kernel, tcp_port));
      ignore (peer.Libos.Api.listen l);
      let rec serve () =
        match peer.Libos.Api.accept l with
        | Error _ -> ()
        | Ok c ->
            Sim.Engine.spawn h.engine (fun () ->
                let buf = Bytes.create 256 in
                let rec echo () =
                  match peer.Libos.Api.recv c buf 0 256 with
                  | Ok n when n > 0 ->
                      ignore (peer.Libos.Api.send c buf 0 n);
                      echo ()
                  | Ok _ | Error _ -> ignore (peer.Libos.Api.close c)
                in
                echo ());
            serve ()
      in
      serve ());
  (* Enclave: alternate a verified file slot-cycle and a verified TCP
     round trip, every operation via the io_uring FM / SyncProxy. *)
  Sim.Engine.spawn h.engine (fun () ->
      Sim.Engine.delay (Sim.Cycles.of_us 50.);
      let api = Apps.Harness.api h in
      let model = File_model.create ~size:(n_slots * block_size) in
      let fd =
        match api.Libos.Api.openf ~create:true ~trunc:true "campaign.dat" with
        | Ok fd -> fd
        | Error _ -> -1
      in
      let tcp = ref None in
      let tcp_connect () =
        let s = api.Libos.Api.tcp_socket () in
        match
          api.Libos.Api.connect s (Hostos.Kernel.client_ip h.kernel, tcp_port)
        with
        | Ok () -> tcp := Some s
        | Error _ -> ignore (api.Libos.Api.close s)
      in
      let tcp_reset s =
        ignore (api.Libos.Api.close s);
        tcp := None
      in
      let file_step step =
        let off = step mod n_slots * block_size in
        let data = mk_block step in
        (match api.Libos.Api.lseek fd off with Ok _ -> () | Error _ -> ());
        let written = api.Libos.Api.write fd data 0 block_size in
        (match written with
        | Ok n when n > 0 -> ()
        | Ok _ | Error _ -> st.refused <- st.refused + 1);
        if not (File_model.write model ~off data written) then
          st.indeterminate <- st.indeterminate + 1;
        match api.Libos.Api.lseek fd off with
        | Error _ -> st.refused <- st.refused + 1
        | Ok _ -> (
            let buf = Bytes.create block_size in
            match api.Libos.Api.read fd buf 0 block_size with
            | Error _ -> st.refused <- st.refused + 1
            | Ok n -> (
                match
                  File_model.read model ~off buf n ~cqe_forged:(cqe_forged st)
                with
                | Exact -> good st ~step
                | Prefix -> st.tolerated <- st.tolerated + 1
                | Mismatch what -> mismatch st ~step what))
      in
      let tcp_step step =
        if !tcp = None then tcp_connect ();
        match !tcp with
        | None -> st.lost <- st.lost + 1
        | Some s -> (
            let msg = mk_tcp_msg step in
            match api.Libos.Api.send s msg 0 32 with
            | Ok 0 | Error Abi.Errno.EAGAIN ->
                (* Never reached the ring: no reply will come. *)
                st.refused <- st.refused + 1
            | Error _ ->
                st.refused <- st.refused + 1;
                tcp_reset s
            | Ok _ -> (
                let buf = Bytes.create 32 in
                let rec fill got tries =
                  if got >= 32 || tries = 0 then got
                  else
                    match api.Libos.Api.recv s buf got (32 - got) with
                    | Ok n when n > 0 -> fill (got + n) (tries - 1)
                    | Ok _ | Error _ -> got
                in
                match api.Libos.Api.recv s buf 0 32 with
                | Error _ ->
                    (* Refused completion: the reply bytes were consumed
                       by the kernel but discarded by the FM — resync by
                       reconnecting. *)
                    st.refused <- st.refused + 1;
                    tcp_reset s
                | Ok n ->
                    let got = if n < 32 then fill n 8 else n in
                    if got <> 32 then begin
                      st.refused <- st.refused + 1;
                      tcp_reset s
                    end
                    else if Bytes.equal buf msg then good st ~step
                    else begin
                      mismatch st ~step "tcp echo mismatch";
                      tcp_reset s
                    end))
      in
      for step = 0 to st.budget - 1 do
        tick st step;
        if step land 1 = 0 then file_step step else tcp_step step;
        st.steps_run <- st.steps_run + 1
      done;
      if zerocopy then begin
        (* The last SEND_ZC's notif trails its completion by the softirq
           delay and is only reaped during a later op's await: give it
           time to post, then run one throwaway read so the FM reaps it.
           Without this the final lent frame would read as a leak even
           under an honest host. *)
        Sim.Engine.delay (Sim.Cycles.of_ms 1.);
        ignore (api.Libos.Api.read fd (Bytes.create 1) 0 1)
      end;
      (match !tcp with Some s -> ignore (api.Libos.Api.close s) | None -> ());
      Apps.Harness.stop h)

(* {1 Running} *)

(* Canonical lossy-wire weather (DESIGN.md §16): the link loses 5% of
   frames, reorders 5%, duplicates 5% and truncates 1% of them — the
   hostile wire the reliable-datagram layer ({!Netstack.Rdp}) and the
   parsers' never-raise contract are built to survive.  Probability
   triggers so the weather covers the whole run; entries are unpinned
   so every shard's link is equally bad. *)
let wire_plan =
  let p what probability =
    { Hostos.Injector.what; when_ = Probability probability; shard = None }
  in
  [
    p Hostos.Faults.Wire_drop 0.05;
    p Hostos.Faults.Wire_reorder 0.05;
    p Hostos.Faults.Wire_dup 0.05;
    p Hostos.Faults.Wire_trunc 0.01;
  ]

(* One boot for campaigns and soaks: the harness, then Malice, then —
   for a non-empty plan — the fault injector and the enclave watchdog,
   in that order so the shared registry lists them the same way every
   run.  Malice and the injector share the runtime's registry/trace, so
   reports and the live [malice.*]/[faults.*] metrics read the same
   counters.  The injector rides the same seed, xored so its RNG stream
   never mirrors the attacker's; the watchdog is armed because a plan
   may kill the Monitor. *)
let boot config ~seed ~schedule ~plan =
  match Apps.Harness.make Libos.Env.Rakis_sgx ~rakis_config:config () with
  | Error e -> failwith ("campaign: harness boot failed: " ^ e)
  | Ok h ->
      let rt = Option.get (Libos.Env.runtime h.env) in
      let obs = Rakis.Runtime.obs rt in
      let malice = Hostos.Malice.create ~obs ~seed () in
      Hostos.Malice.install malice schedule;
      Hostos.Kernel.set_malice h.kernel (Some malice);
      let injector =
        if plan = [] then None
        else begin
          let f =
            Hostos.Faults.create ~obs ~seed:(Int64.logxor seed 0x5EEDL) ()
          in
          Hostos.Faults.install f plan;
          Hostos.Kernel.set_faults h.kernel (Some f);
          Rakis.Runtime.start_watchdog rt;
          Some f
        end
      in
      (h, rt, malice, injector)

let shard_breakers rt =
  List.init (Rakis.Runtime.shard_count rt) (Rakis.Runtime.shard_breaker rt)

let run (spec : spec) =
  if spec.budget < 1 then invalid_arg "Campaign.run: budget must be positive";
  let budget = spec.budget in
  let h, rt, malice, injector =
    boot
      {
        campaign_config with
        num_queues = spec.queues;
        zerocopy = spec.zerocopy;
        overload = spec.overload;
      }
      ~seed:spec.seed ~schedule:spec.schedule
      ~plan:(if spec.wire then spec.faults @ wire_plan else spec.faults)
  in
  let st =
    {
      steps_run = 0;
      ok = 0;
      late_ok = 0;
      refused = 0;
      lost = 0;
      tolerated = 0;
      indeterminate = 0;
      violations = [];
      malice;
      faults = injector;
      budget;
    }
  in
  (match spec.datapath with
  | Xsk -> run_xsk_workload h st
  | Iouring -> run_iouring_workload ~zerocopy:spec.zerocopy h st);
  let horizon =
    Int64.add (Sim.Cycles.of_ms 50.)
      (Int64.mul (Int64.of_int budget) (Sim.Cycles.of_ms 2.))
  in
  (try Apps.Harness.run h ~until:horizon
   with exn ->
     violate st ~step:st.steps_run
       ("workload crashed: " ^ Printexc.to_string exn));
  if st.steps_run < budget then
    (* The engine drained or hit the horizon before the driver
       finished: an availability stall is a campaign failure too —
       it would otherwise hide violations in the unexecuted tail. *)
    violate st ~step:st.steps_run
      (Printf.sprintf "stalled after %d/%d steps" st.steps_run budget);
  let invariant_ok = Rakis.Runtime.invariant_holds rt in
  let shards = shard_breakers rt in
  let sum f =
    List.fold_left (fun acc b -> acc + f b) 0 shards
    + f (Rakis.Runtime.uring_breaker rt)
    + f (Rakis.Runtime.mm_breaker rt)
  in
  let zc_leaks = Rakis.Runtime.total_zc_leaks rt in
  let ov_total f = if spec.overload then f rt else 0 in
  {
    spec;
    steps_run = st.steps_run;
    ok = st.ok;
    late_ok = st.late_ok;
    refused = st.refused;
    lost = st.lost;
    tolerated = st.tolerated;
    indeterminate = st.indeterminate;
    fired = Hostos.Malice.fired_counts malice;
    injected =
      (match injector with
      | Some f -> Hostos.Faults.fired_counts f
      | None -> []);
    ring_rejects = Rakis.Runtime.total_ring_check_failures rt;
    desc_rejects = Rakis.Runtime.total_desc_rejects rt;
    invariant_ok;
    watchdog_restarts = Rakis.Runtime.watchdog_restarts rt;
    degraded_scans = Rakis.Runtime.watchdog_degraded_scans rt;
    breaker_opens = sum Rakis.Health.opens;
    breaker_failovers = sum Rakis.Health.failovers;
    breaker_closes = sum Rakis.Health.closes;
    shard_opens = List.map Rakis.Health.opens shards;
    slow_calls =
      Obs.Metrics.get_counter
        (Obs.metrics (Rakis.Runtime.obs rt))
        "health.slow_calls";
    zc_sends = Rakis.Runtime.total_zc_sends rt;
    zc_fallbacks = Rakis.Runtime.total_zc_fallbacks rt;
    zc_notif_rejects = Rakis.Runtime.total_zc_notif_rejects rt;
    zc_leaks;
    ov_admitted = ov_total Rakis.Runtime.total_overload_admitted;
    ov_shed = ov_total Rakis.Runtime.total_overload_shed;
    ov_control_shed = ov_total Rakis.Runtime.total_control_shed;
    ov_edge_drops = ov_total Rakis.Runtime.total_edge_drops;
    violations = List.rev st.violations;
    trace_tail =
      (if st.violations = [] && invariant_ok && zc_leaks = 0 then []
       else
         List.map
           (Format.asprintf "%a" Obs.Trace.pp_event)
           (Obs.Trace.last (Obs.trace (Rakis.Runtime.obs rt)) 24));
  }

(* [zc_leaks > 0] at teardown is the dropped-notif availability attack
   landing: the host holds lent frames hostage forever.  The FM already
   degraded safely (copy-path fallback), but a campaign exists to make
   that loss visible, so it fails the run. *)
(* [ov_control_shed > 0] joins the failure conditions: shedding
   control-class traffic (breaker probes, Monitor housekeeping) would
   wedge the recovery machinery, so the controller guarantees it never
   happens — a non-zero count is a broken guarantee, not load. *)
let failed (o : outcome) =
  o.violations <> [] || not o.invariant_ok || o.zc_leaks > 0
  || o.ov_control_shed > 0

(* {1 Schedule generation} *)

let soup ~datapath ?(zerocopy = false) ~seed ?(entries = 16) ~budget () =
  let rng = Sim.Rng.create ~seed in
  let attacks = Array.of_list (applicable ~zerocopy datapath) in
  List.init entries (fun _ ->
      let what = Sim.Rng.pick rng attacks in
      let when_ =
        if Sim.Rng.int rng 4 = 0 then
          let first = Sim.Rng.int rng (max 1 (budget / 2)) in
          let last = first + 1 + Sim.Rng.int rng (max 1 (budget / 4)) in
          Hostos.Injector.Burst
            { first_step = first; last_step = last; probability = 0.3 }
        else Hostos.Injector.At_step (Sim.Rng.int rng (max 1 budget))
      in
      { Hostos.Injector.what; when_; shard = None })

let pairs attacks =
  let rec go = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ go rest
  in
  go attacks

(* Random fault plan.  Monitor faults are pinned to a single step: a
   monitor that re-dies probabilistically after every watchdog restart
   measures the watchdog's restart rate, not recovery — one crash per
   plan entry is the interesting schedule. *)
let fault_soup ~seed ?(entries = 6) ~budget () =
  let rng = Sim.Rng.create ~seed in
  let faults = Array.of_list Hostos.Faults.all in
  List.init entries (fun _ ->
      let what = Sim.Rng.pick rng faults in
      let when_ =
        match what with
        | Hostos.Faults.Monitor_crash | Hostos.Faults.Monitor_hang ->
            Hostos.Injector.At_step (Sim.Rng.int rng (max 1 budget))
        | _ -> (
            match Sim.Rng.int rng 3 with
            | 0 ->
                Hostos.Injector.Probability
                  (0.02 +. (0.08 *. Sim.Rng.float rng 1.0))
            | 1 -> Hostos.Injector.At_step (Sim.Rng.int rng (max 1 budget))
            | _ ->
                let first = Sim.Rng.int rng (max 1 (budget / 2)) in
                let last = first + 1 + Sim.Rng.int rng (max 1 (budget / 4)) in
                Hostos.Injector.Burst
                  { first_step = first; last_step = last; probability = 0.3 })
      in
      { Hostos.Injector.what; when_; shard = None })

(* Canonical breaker-failover fault window (DESIGN.md §9): a hard
   (probability-1) burst over the middle of the run, so the breaker
   opens early, the exit-based slow path carries the middle, and the
   fault-free tail exercises half-open probes and failback — all
   observable from one repro token.  For the XSK datapath we
   drop every TX wakeup (transmission dies; RX stays NIC-driven); for
   io_uring we bounce every SQE with a transient errno. *)
let failover_plan ~datapath ~budget =
  let what =
    match datapath with
    | Xsk -> Hostos.Faults.Drop_wakeup
    | Iouring -> Hostos.Faults.Transient_errno
  in
  [
    {
      Hostos.Injector.what;
      when_ =
        Burst
          {
            first_step = max 1 (budget / 8);
            last_step = budget / 2;
            probability = 1.0;
          };
      shard = None;
    };
  ]

(* {1 Repro tokens}

   One grammar for both kinds of run: [<kind>:<key>=<value>:…] with
   kind [xsk], [io_uring] or [soak].  The printer writes the keys in a
   fixed order and omits defaults (it always writes [seed] and
   [budget]/[steps]); the parser takes them in any order.  Values never
   contain [':'], and a segment splits at its first ['='], so
   [attacks=3=cons-regress] needs no escaping.  The [attacks] and
   [faults] values are {!Hostos.Malice} and {!Hostos.Faults} plans:
   one entry grammar, every trigger. *)

let token_to_string token =
  let seg key present v = if present then [ key ^ "=" ^ v ] else [] in
  let flag key on = if on then [ key ] else [] in
  String.concat ":"
    (match token with
    | Campaign s ->
        [ datapath_name s.datapath; Printf.sprintf "seed=%Ld" s.seed;
          Printf.sprintf "budget=%d" s.budget ]
        @ seg "attacks" (s.schedule <> []) (Hostos.Malice.plan_to_string s.schedule)
        @ seg "faults" (s.faults <> []) (Hostos.Faults.plan_to_string s.faults)
        @ seg "q" (s.queues <> defaults.queues) (string_of_int s.queues)
        @ flag "zc" s.zerocopy @ flag "ov" s.overload @ flag "wire" s.wire
    | Soak s ->
        [ "soak"; Printf.sprintf "seed=%Ld" s.seed;
          Printf.sprintf "steps=%d" s.steps ]
        @ seg "q" (s.queues <> soak_defaults.queues) (string_of_int s.queues)
        @ seg "slo"
            (s.slo_p99 <> soak_defaults.slo_p99)
            (Int64.to_string s.slo_p99)
        @ flag "wire" s.wire)

let token_of_string s =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let kind, segs =
    match String.split_on_char ':' s with k :: segs -> (k, segs) | [] -> (s, [])
  in
  let* valued, flags =
    match kind with
    | "xsk" | "io_uring" ->
        Ok
          ( [ "seed"; "budget"; "attacks"; "faults"; "q" ],
            [ "zc"; "ov"; "wire" ] )
    | "soak" -> Ok ([ "seed"; "steps"; "q"; "slo" ], [ "wire" ])
    | _ -> err "unknown token kind %S (xsk, io_uring or soak)" kind
  in
  let rec collect acc = function
    | [] -> Ok acc
    | seg :: rest -> (
        let key, value =
          match String.index_opt seg '=' with
          | None -> (seg, None)
          | Some i ->
              ( String.sub seg 0 i,
                Some (String.sub seg (i + 1) (String.length seg - i - 1)) )
        in
        if List.mem_assoc key acc then err "repeated key %S" key
        else
          match value with
          | _ when not (List.mem key valued || List.mem key flags) ->
              err "unknown key %S for kind %S" key kind
          | Some _ when List.mem key flags -> err "key %S takes no value" key
          | None when List.mem key valued -> err "key %S needs a value" key
          | _ -> collect ((key, Option.value value ~default:"") :: acc) rest)
  in
  let* kvs = collect [] segs in
  let get key conv ~default =
    match (List.assoc_opt key kvs, default) with
    | None, Some d -> Ok d
    | None, None -> err "missing key %S" key
    | Some v, _ -> (
        match conv v with Ok x -> Ok x | Error why -> err "key %S: %s" key why)
  in
  let int_from lo v =
    match int_of_string_opt v with
    | Some n when n >= lo -> Ok n
    | _ -> err "%S is not an integer >= %d" v lo
  in
  let int64_of v =
    match Int64.of_string_opt v with
    | Some n -> Ok n
    | None -> err "%S is not an integer" v
  in
  let flag key = List.mem_assoc key kvs in
  let* seed = get "seed" int64_of ~default:None in
  match kind with
  | "soak" ->
      let d = soak_defaults in
      let* steps = get "steps" (int_from 1) ~default:None in
      let* queues = get "q" (int_from 1) ~default:(Some d.queues) in
      let positive v =
        let* n = int64_of v in
        if n > 0L then Ok n else err "%S is not positive" v
      in
      let* slo_p99 = get "slo" positive ~default:(Some d.slo_p99) in
      Ok (Soak { seed; steps; queues; slo_p99; wire = flag "wire" })
  | _ ->
      let d = defaults in
      let* budget = get "budget" (int_from 1) ~default:None in
      let* schedule =
        get "attacks" Hostos.Malice.plan_of_string ~default:(Some d.schedule)
      in
      let* faults =
        get "faults" Hostos.Faults.plan_of_string ~default:(Some d.faults)
      in
      let* queues = get "q" (int_from 1) ~default:(Some d.queues) in
      Ok
        (Campaign
           {
             datapath = (if kind = "xsk" then Xsk else Iouring);
             seed;
             budget;
             queues;
             schedule;
             faults;
             zerocopy = flag "zc";
             overload = flag "ov";
             wire = flag "wire";
           })

let parse_repro s =
  match token_of_string s with
  | Ok (Campaign spec) -> Ok spec
  | Ok (Soak _) -> Error "a soak token names a soak, not a campaign run"
  | Error _ as e -> e

(* {1 Shrinking a failing campaign} *)

type shrunk = {
  shrunk_schedule : Hostos.Malice.plan;
  shrunk_plan : Hostos.Faults.plan;
  schedule_original : int;
  plan_original : int;
  shrink_tests : int;
}

(* Minimize both coordinates of the failure — the attack schedule AND
   the fault plan — then simplify what deletion cannot reach: armings
   whose shard pin ("#k") is not needed to reproduce lose it. *)
let shrink_failure (o : outcome) =
  let fails schedule faults = failed (run { o.spec with schedule; faults }) in
  let r = Shrink.minimize2 ~fails o.spec.schedule o.spec.faults in
  let unpin (e : _ Hostos.Injector.entry) =
    match e.shard with Some _ -> Some { e with shard = None } | None -> None
  in
  let plan, pin_tests =
    Shrink.simplify ~fails:(fun p -> fails r.Shrink.trace2 p) ~simpler:unpin
      r.Shrink.plan2
  in
  {
    shrunk_schedule = r.Shrink.trace2;
    shrunk_plan = plan;
    schedule_original = fst r.Shrink.original2;
    plan_original = snd r.Shrink.original2;
    shrink_tests = r.Shrink.tests2 + pin_tests;
  }

(* {1 Reporting} *)

let pp_outcome ppf (o : outcome) =
  let spec = o.spec in
  Format.fprintf ppf
    "@[<v>campaign %s seed=%Ld budget=%d schedule=[%a]@,\
     steps=%d ok=%d late_ok=%d refused=%d lost=%d tolerated=%d@,\
     ring_rejects=%d desc/cqe_rejects=%d invariant=%b@,\
     fired: %s@,\
     %s"
    (datapath_name spec.datapath)
    spec.seed spec.budget Hostos.Malice.pp_plan spec.schedule
    o.steps_run o.ok o.late_ok o.refused o.lost o.tolerated o.ring_rejects
    o.desc_rejects o.invariant_ok
    (if o.fired = [] then "(none)"
     else
       String.concat ", "
         (List.map
            (fun (a, n) ->
              Printf.sprintf "%s x%d" (Hostos.Malice.name a) n)
            o.fired))
    (if o.violations = [] then "no violations"
     else
       String.concat "; "
         (List.map
            (fun v -> Printf.sprintf "VIOLATION step %d: %s" v.at_step v.what)
            o.violations));
  if spec.faults <> [] then
    Format.fprintf ppf "@,faults=[%a] injected: %s" Hostos.Faults.pp_plan
      spec.faults
      (if o.injected = [] then "(none)"
       else
         String.concat ", "
           (List.map
              (fun (f, n) ->
                Printf.sprintf "%s x%d" (Hostos.Faults.name f) n)
              o.injected));
  if
    o.breaker_opens > 0 || o.slow_calls > 0 || o.watchdog_restarts > 0
    || o.degraded_scans > 0
  then
    Format.fprintf ppf
      "@,\
       health: opens=%d failovers=%d closes=%d slow_calls=%d \
       watchdog_restarts=%d degraded_scans=%d"
      o.breaker_opens o.breaker_failovers o.breaker_closes o.slow_calls
      o.watchdog_restarts o.degraded_scans;
  if spec.queues > 1 then
    Format.fprintf ppf "@,queues=%d shard xsk opens: [%s]" spec.queues
      (String.concat "; " (List.map string_of_int o.shard_opens));
  if spec.zerocopy then
    Format.fprintf ppf
      "@,zerocopy: sends=%d fallbacks=%d notif_rejects=%d leaks=%d"
      o.zc_sends o.zc_fallbacks o.zc_notif_rejects o.zc_leaks;
  if spec.overload then
    Format.fprintf ppf
      "@,overload: admitted=%d shed=%d control_shed=%d edge_drops=%d"
      o.ov_admitted o.ov_shed o.ov_control_shed o.ov_edge_drops;
  if spec.wire then
    Format.fprintf ppf
      "@,wire: canonical lossy plan (5%% drop/reorder/dup, 1%% trunc)";
  if o.trace_tail <> [] then begin
    Format.fprintf ppf "@,last %d trace events before the failure:"
      (List.length o.trace_tail);
    List.iter (fun line -> Format.fprintf ppf "@,  %s" line) o.trace_tail
  end;
  Format.fprintf ppf "@]"

(* {1 Chaos soak (DESIGN.md §15)}

   A long overload-control campaign: the XSK UDP echo workload under a
   flash crowd (an open-loop blast in the middle fifth of the run)
   composed with a rolling shard-pinned fault plan and a malice soup,
   on a multi-queue machine booted with [Config.overload].

   The oracle is accounting, not payload integrity (the regular
   campaigns own Table 2): every offered datagram must end as a
   completion, a client-visible shed, or a server-side {e accounted}
   drop — [sk_unaccounted] is the residue and must be 0.  On top of
   that: control traffic is never shed, the p99 round trip of completed
   ops stays inside the SLO, and post-crowd goodput recovers to >= 95%
   of the pre-crowd baseline in some 100 µs window (metastability
   detector: a system that sheds forever after the crowd leaves never
   produces such a window). *)

type soak_outcome = {
  sk_spec : soak_spec;
  sk_offered : int;
  sk_completed : int;
  sk_lost : int;  (* steps with no reply by the end of the run *)
  sk_late : int;  (* replies that arrived unmatchable (drained, not lost) *)
  sk_shed : int;  (* overload data-class sheds, every controller *)
  sk_control_shed : int;  (* must be 0 *)
  sk_edge_drops : int;  (* NIC-edge drops while fill was throttled *)
  sk_accounted : int;  (* total server-side accounted drops *)
  sk_unaccounted : int;  (* max 0 (lost - late - accounted): must be 0 *)
  sk_latency : Obs.Metrics.summary;
  sk_slo_ok : bool;
  sk_goodput : Apps.Loadgen.goodput;
  sk_breaker_opens : int;
  sk_watchdog_restarts : int;
  sk_stalled : bool;
}

(* Rolling maintenance weather: one Drop_wakeup burst per shard, pinned
   to that shard, staggered across the middle half of the run — every
   shard sees its own bad patch, never all at once.  The patches are
   brief (budget/16 steps at p=0.1): each one costs a few breaker
   trips and failovers, which is the composition the soak wants to
   survive — a plan that keeps a quarter of wakeups dropped for half
   the run does not model maintenance weather, it models a dead host,
   and the stranded in-flight datagrams it creates put multi-ms
   latencies on far more than 1% of completions (no admission policy
   can shed work it has already admitted). *)
let rolling_faults ~queues ~budget =
  let span = max 1 (budget / 16) in
  let stride = max 1 (budget / (2 * max 1 queues)) in
  List.init queues (fun k ->
      let first = (budget / 4) + (k * stride) in
      {
        Hostos.Injector.what = Hostos.Faults.Drop_wakeup;
        when_ =
          Burst
            { first_step = first; last_step = first + span - 1; probability = 0.25 };
        shard = Some k;
      })

let soak_flows = 8

(* The flash crowd is the main fiber's open-loop blast {e plus}
   [soak_crowd_fibers] concurrent blast fibers, each pacing one
   datagram per [soak_crowd_pace] — together they offer several times
   the service rate, which is what forces the rx gate to actually
   shed (a crowd the server can absorb exercises nothing). *)
let soak_crowd_fibers = 4

let soak_crowd_pace = Sim.Cycles.of_us 2.

let soak (spec : soak_spec) =
  let { seed; steps; queues; slo_p99; wire } = spec in
  if steps < 1 then invalid_arg "Campaign.soak: steps must be positive";
  if slo_p99 <= 0L then invalid_arg "Campaign.soak: slo_p99 must be positive";
  (* A soak-sized machine: the regular campaign's 32-entry rings and
     64-frame UMem are chosen to make ring-protocol attacks bite in few
     steps, but under a flood that tiny UMem is exhausted by design and
     every latency is backoff noise.  128-entry rings and a 1024-frame
     UMem make queueing — the thing overload control manages — the
     dominant effect, while staying small enough that saturation is
     reachable. *)
  let config =
    {
      campaign_config with
      ring_size = 128;
      umem_size = 2048 * 2048;
      num_queues = queues;
      overload = true;
    }
  in
  let h, rt, malice, injector =
    boot config ~seed
      ~schedule:
        (soup ~datapath:Xsk ~seed ~entries:(max 8 (steps / 4000))
           ~budget:steps ())
      ~plan:
        (rolling_faults ~queues ~budget:steps
        @ if wire then wire_plan else [])
  in
      (* Phase boundaries by step index: baseline 40%, crowd 20%,
         recovery 40%. *)
      let crowd_from = steps * 2 / 5 and crowd_until = steps * 3 / 5 in
      let hist =
        Obs.Metrics.histogram (Obs.Metrics.create ()) "soak.latency_cycles"
      in
      let offered = ref 0
      and completed = ref 0
      and late = ref 0
      and steps_run = ref 0 in
      let phases = Apps.Loadgen.phases () in
      let outstanding : (int, int64) Hashtbl.t = Hashtbl.create 1024 in
      (* Enclave echo server, one worker per shard's worth of service
         capacity.  Unlike the regular campaign's server it survives
         transient recv/send refusals: the soak runs long enough to meet
         them, and a shed reply is already accounted by the runtime. *)
      Sim.Engine.spawn h.engine (fun () ->
          let api = Apps.Harness.api h in
          let fd = api.Libos.Api.udp_socket () in
          ignore
            (api.Libos.Api.bind fd (campaign_config.Rakis.Config.ip, xsk_port));
          let rec loop () =
            (match api.Libos.Api.recvfrom fd 4096 with
            | Ok (payload, src) -> ignore (api.Libos.Api.sendto fd payload src)
            | Error _ -> Sim.Engine.delay (Sim.Cycles.of_us 1.));
            loop ()
          in
          loop ());
      (* Native peer: [soak_flows] sockets.  Consecutive ephemeral
         source ports are NOT spread by the Toeplitz steering — with
         the standard Microsoft key the hash's low bit is insensitive
         to the port's low bits, so ports 40000..40007 all steer to
         the same queue of two and one shard would soak the whole
         flood while the rest idle.  Probe candidate ports with the
         very {!Packet.Rss.queue} the NIC uses and bind flow [k] to
         the first one steered to queue [k mod queues]: the offered
         load covers every shard by construction. *)
      Sim.Engine.spawn h.engine (fun () ->
          Sim.Engine.delay (Sim.Cycles.of_us 50.);
          let peer = h.peer in
          let dst = (campaign_config.Rakis.Config.ip, xsk_port) in
          let src_ip =
            Packet.Addr.Ip.to_int (Hostos.Kernel.client_ip h.kernel)
          in
          let dst_ip = Packet.Addr.Ip.to_int campaign_config.Rakis.Config.ip in
          let next_port = ref 41000 in
          let port_for_queue want =
            let rec scan () =
              let p = !next_port in
              incr next_port;
              if
                Packet.Rss.queue ~queues ~src_ip ~dst_ip ~src_port:p
                  ~dst_port:xsk_port
                = want
              then p
              else scan ()
            in
            scan ()
          in
          let fds =
            Array.init soak_flows (fun k ->
                let fd = peer.Libos.Api.udp_socket () in
                ignore
                  (peer.Libos.Api.bind fd
                     ( Hostos.Kernel.client_ip h.kernel,
                       port_for_queue (k mod queues) ));
                fd)
          in
          Apps.Loadgen.enter phases Baseline ~now:(Sim.Engine.now h.engine);
          let handle_reply reply =
            let now = Sim.Engine.now h.engine in
            match Apps.Udp_echo.tag_of reply with
            | Some tag when Hashtbl.mem outstanding tag ->
                let t0 = Hashtbl.find outstanding tag in
                Hashtbl.remove outstanding tag;
                incr completed;
                let lat = Int64.sub now t0 in
                Obs.Metrics.observe hist (Int64.to_int lat);
                (* Blast-fiber datagrams own the tag space [steps, ...). *)
                Apps.Loadgen.complete phases ~now
                  (if tag < crowd_from then Baseline
                   else if tag < crowd_until || tag >= steps then Crowd
                   else Recovery)
            | _ -> incr late
          in
          let timeout = Sim.Cycles.of_us 300. in
          (* One dedicated drain fiber per flow socket: replies are
             timestamped at arrival, however busy the send loops are —
             the measured RTT is the datapath's, not the harness's
             drain cadence.  (Draining from the send loops makes a
             closed-loop op stuck in a fault-window timeout starve the
             other flows' drains; and a {e single} drain fiber paying
             one recvfrom syscall per reply caps the harness at well
             under the blast rate, so echoes pile up for milliseconds
             in the client's own socket queues — either way the
             harness manufactures multi-ms "latencies" no admission
             policy could bound.  [recvfrom] blocks when the queue is
             empty, so the fibers cost nothing when idle.) *)
          Array.iter
            (fun fd ->
              Sim.Engine.spawn h.engine ~name:"soak-drain" (fun () ->
                  let rec loop () =
                    (match peer.Libos.Api.recvfrom fd 4096 with
                    | Ok (reply, _) -> handle_reply reply
                    | Error _ -> Sim.Engine.delay (Sim.Cycles.of_us 2.));
                    loop ()
                  in
                  loop ()))
            fds;
          (* One blast fiber of the flash crowd: its own tag range
             (disjoint from the step tags), sharing the flow sockets so
             the drain fiber collects its echoes.  Unanswered blast
             datagrams are rx-gate sheds — they end the run in
             [outstanding] (lost) and must be covered by the
             server-side accounted-drop counters. *)
          let crowd_len = crowd_until - crowd_from in
          let blast j =
            for i = 0 to crowd_len - 1 do
              let tag = steps + (j * crowd_len) + i in
              let fd = fds.((i + j) mod soak_flows) in
              (match peer.Libos.Api.sendto fd (mk_datagram tag) dst with
              | Ok _ ->
                  incr offered;
                  Hashtbl.replace outstanding tag (Sim.Engine.now h.engine)
              | Error _ -> ());
              Sim.Engine.delay soak_crowd_pace
            done
          in
          for step = 0 to steps - 1 do
            Hostos.Malice.set_step malice step;
            Option.iter (fun f -> Hostos.Faults.set_step f step) injector;
            if step = crowd_from then begin
              Apps.Loadgen.enter phases Crowd ~now:(Sim.Engine.now h.engine);
              for j = 0 to soak_crowd_fibers - 1 do
                Sim.Engine.spawn h.engine
                  ~name:(Printf.sprintf "soak-blast-%d" j)
                  (fun () -> blast j)
              done
            end;
            if step = crowd_until then
              Apps.Loadgen.enter phases Recovery ~now:(Sim.Engine.now h.engine);
            let fd = fds.(step mod soak_flows) in
            let payload = mk_datagram step in
            (match peer.Libos.Api.sendto fd payload dst with
            | Ok _ ->
                incr offered;
                Hashtbl.replace outstanding step (Sim.Engine.now h.engine)
            | Error _ -> ());
            if step < crowd_from || step >= crowd_until then begin
              (* Closed loop: wait (bounded) for this step's echo — the
                 drain fiber removes it from [outstanding].  The flash
                 crowd is open loop: the blast fibers add their load and
                 the drain fibers collect whatever comes back. *)
              let deadline = Int64.add (Sim.Engine.now h.engine) timeout in
              let rec await () =
                if
                  Hashtbl.mem outstanding step
                  && Int64.compare (Sim.Engine.now h.engine) deadline < 0
                then begin
                  Sim.Engine.delay (Sim.Cycles.of_us 2.);
                  await ()
                end
              in
              await ()
            end;
            Stdlib.incr steps_run
          done;
          (* Grace: let in-flight echoes land (the drain fiber keeps
             collecting) until three full timeouts pass without
             progress. *)
          Sim.Engine.delay (Sim.Cycles.of_ms 2.);
          let rec settle quiet =
            if quiet < 3 then begin
              let before = Hashtbl.length outstanding in
              Sim.Engine.delay timeout;
              if Hashtbl.length outstanding = before then settle (quiet + 1)
              else settle 0
            end
          in
          settle 0;
          Apps.Harness.stop h);
      let horizon =
        Int64.add (Sim.Cycles.of_ms 100.)
          (Int64.mul (Int64.of_int steps) (Sim.Cycles.of_us 400.))
      in
      Apps.Harness.run h ~until:horizon;
      let accounted = Rakis.Runtime.total_losses rt in
      let lost = Hashtbl.length outstanding in
      let latency = Obs.Metrics.summary hist in
      {
        sk_spec = spec;
        sk_offered = !offered;
        sk_completed = !completed;
        sk_lost = lost;
        sk_late = !late;
        sk_shed = Rakis.Runtime.total_overload_shed rt;
        sk_control_shed = Rakis.Runtime.total_control_shed rt;
        sk_edge_drops = Rakis.Runtime.total_edge_drops rt;
        sk_accounted = accounted;
        sk_unaccounted = max 0 (lost - !late - accounted);
        sk_latency = latency;
        sk_slo_ok = Int64.compare (Int64.of_int latency.Obs.Metrics.s_p99) slo_p99 <= 0;
        sk_goodput =
          Apps.Loadgen.goodput phases ~finish:(Sim.Engine.now h.engine);
        sk_breaker_opens =
          List.fold_left
            (fun acc b -> acc + Rakis.Health.opens b)
            0 (shard_breakers rt);
        sk_watchdog_restarts = Rakis.Runtime.watchdog_restarts rt;
        sk_stalled = !steps_run < steps;
      }

(* The soak's SLO gates, in one verdict (mirrored by [tm_verify --soak]
   and the CI smoke). *)
let soak_failed (o : soak_outcome) =
  o.sk_stalled || o.sk_unaccounted > 0 || o.sk_control_shed > 0
  || (not o.sk_slo_ok) || not o.sk_goodput.recovered

let pp_soak_outcome ppf (o : soak_outcome) =
  Format.fprintf ppf
    "@[<v>soak %s steps=%d queues=%d%s@,\
     offered=%d completed=%d lost=%d late=%d shed=%d control_shed=%d@,\
     accounted=%d unaccounted=%d edge_drops=%d@,\
     latency: %a (slo_p99=%Ld %s)@,\
     goodput kops/s: baseline=%.1f crowd=%.1f recovery=%.1f recovered=%b%s@,\
     breaker_opens=%d watchdog_restarts=%d@]"
    (token_to_string (Soak o.sk_spec))
    o.sk_spec.steps o.sk_spec.queues
    (if o.sk_stalled then " STALLED" else "")
    o.sk_offered o.sk_completed o.sk_lost o.sk_late o.sk_shed o.sk_control_shed
    o.sk_accounted o.sk_unaccounted o.sk_edge_drops Obs.Metrics.pp_summary
    o.sk_latency o.sk_spec.slo_p99
    (if o.sk_slo_ok then "ok" else "VIOLATED")
    o.sk_goodput.baseline_kops o.sk_goodput.crowd_kops
    o.sk_goodput.recovery_kops o.sk_goodput.recovered
    (match o.sk_goodput.recovery_window with
    | Some w -> Printf.sprintf " (window %d)" w
    | None -> "")
    o.sk_breaker_opens o.sk_watchdog_restarts
