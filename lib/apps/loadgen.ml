(* KV load generator (DESIGN.md §15).

   Drives the {!Memcached} server over XSK UDP with the load shapes the
   overload-control evaluation needs and the simple memaslap clone in
   [Memcached.run] lacks:

   - open- or closed-loop arrival (closed loop self-clocks and masks
     server-side queueing; open loop keeps offering at a fixed rate so
     overload actually builds a standing queue);
   - Zipf key popularity (skew [s]; 0 = uniform) via an inverse-CDF
     table — hot keys concentrate lock and store traffic the way real
     cache workloads do;
   - a flash crowd: at a configured offered-count, extra full-throttle
     connections join for a burst of ops, then leave;
   - connection churn: clients periodically close and reopen their
     socket mid-run.

   Accounting is the point.  Every offered op terminates in exactly one
   of [completed] / [shed] (synchronous EAGAIN — backpressure from an
   overload controller, only seen when the client API runs on RAKIS) /
   [lost] (no reply within [timeout]).  A reply that arrives after its
   op was declared lost is drained and counted [late] — it reached the
   client, so it is not silent loss.  {!silent_loss} checks
   [lost - late] against the server-side loss total
   ({!Rakis.Runtime.total_losses}): any remainder is an unaccounted
   datagram, which is a bug.  With [retries > 0] a timed-out
   op is re-sent (datagram-level accounting then overcounts offered
   traffic by [retried]); soak runs use [retries = 0].

   Goodput is tracked per phase — [baseline] (before the crowd),
   [crowd], [recovery] (after it) — and the recovery phase is further
   split into fixed windows so the metastability check is "some window
   reaches >= 95% of baseline goodput", not just the phase average. *)

type mode = Closed of { think : int64 } | Open of { interarrival : int64 }

type flash = { at_op : int; extra_connections : int; crowd_ops : int }

type config = {
  mode : mode;
  connections : int;
  ops : int;
  value_size : int;
  zipf : float;
  key_space : int;
  set_every : int;
  timeout : int64;
  retries : int;
  flash : flash option;
  churn_every : int;
  rdp : bool;
  seed : int64;
}

let default =
  {
    mode = Closed { think = 0L };
    connections = 32;
    ops = 20_000;
    value_size = 100;
    zipf = 0.99;
    key_space = Memcached.key_space;
    set_every = 10;
    timeout = Sim.Cycles.of_us 300.;
    retries = 0;
    flash = None;
    churn_every = 0;
    rdp = false;
    seed = 0x10adL;
  }

(* {1 Zipf sampling} *)

(* Inverse-CDF table: P(rank i) proportional to 1/(i+1)^s.  Empty array
   means uniform. *)
let zipf_cdf ~n ~s =
  if s <= 0. then [||]
  else begin
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (1. /. (float_of_int (i + 1) ** s));
      cdf.(i) <- !acc
    done;
    let total = !acc in
    Array.iteri (fun i x -> cdf.(i) <- x /. total) cdf;
    cdf
  end

let sample_key rng cdf n =
  if Array.length cdf = 0 then Sim.Rng.int rng n
  else begin
    let u = Sim.Rng.float rng 1.0 in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* {1 Phase goodput} *)

(* Recovery goodput is judged in fixed windows this wide. *)
let recovery_window = Sim.Cycles.of_us 100.

type phase = Baseline | Crowd | Recovery

let index = function Baseline -> 0 | Crowd -> 1 | Recovery -> 2

(* When each phase began (0 = not yet), completions per phase, and the
   recovery completions per window since the crowd left. *)
type phases = {
  began : int64 array;
  completions : int array;
  windows : (int, int ref) Hashtbl.t;
}

let phases () =
  {
    began = Array.make 3 0L;
    completions = Array.make 3 0;
    windows = Hashtbl.create 64;
  }

let enter p phase ~now = p.began.(index phase) <- now

let complete p phase ~now =
  let i = index phase in
  p.completions.(i) <- p.completions.(i) + 1;
  if phase = Recovery then
    let w =
      Int64.to_int (Int64.div (Int64.sub now p.began.(i)) recovery_window)
    in
    match Hashtbl.find_opt p.windows w with
    | Some r -> incr r
    | None -> Hashtbl.add p.windows w (ref 1)

(* The phase a completion belongs to when only its time tells. *)
let current p =
  if p.began.(1) = 0L then Baseline
  else if p.began.(2) = 0L then Crowd
  else Recovery

let kops done_ cycles =
  if Int64.compare cycles 0L <= 0 then 0.
  else float_of_int done_ /. Sim.Cycles.to_sec cycles /. 1e3

type goodput = {
  baseline_kops : float;
  crowd_kops : float;
  recovery_kops : float;
  recovered : bool;
  recovery_window : int option;
}

let goodput p ~finish =
  (* A phase lasts until the next one begins, or until [finish]. *)
  let kops_in i =
    let until =
      if i < 2 && p.began.(i + 1) <> 0L then p.began.(i + 1) else finish
    in
    if i > 0 && p.began.(i) = 0L then 0.
    else kops p.completions.(i) (Int64.sub until p.began.(i))
  in
  let baseline_kops = kops_in 0 in
  let hit =
    Hashtbl.fold
      (fun w n best ->
        if kops !n recovery_window >= 0.95 *. baseline_kops then
          match best with Some b when b <= w -> best | _ -> Some w
        else best)
      p.windows None
  in
  {
    baseline_kops;
    crowd_kops = kops_in 1;
    recovery_kops = kops_in 2;
    recovered = p.began.(1) = 0L || hit <> None;
    recovery_window = hit;
  }

(* {1 Shared run state} *)

type state = {
  cfg : config;
  hist : Obs.Metrics.histogram;
  ph : phases;
  mutable base_offered : int;
  mutable crowd_offered : int;
  mutable completed : int;
  mutable shed : int;
  mutable lost : int;
  mutable late : int;
  mutable retried : int;
  mutable rdp_retransmits : int;
  mutable rdp_gave_up : int;
  mutable live : int;
  mutable crowd_live : int;
  on_done : unit -> unit;
}

let make_state cfg ~on_done =
  {
    cfg;
    hist = Obs.Metrics.histogram (Obs.Metrics.create ()) "loadgen.latency_cycles";
    ph = phases ();
    base_offered = 0;
    crowd_offered = 0;
    completed = 0;
    shed = 0;
    lost = 0;
    late = 0;
    retried = 0;
    rdp_retransmits = 0;
    rdp_gave_up = 0;
    live = 0;
    crowd_live = 0;
    on_done;
  }

let record_completion st now latency =
  st.completed <- st.completed + 1;
  Obs.Metrics.observe st.hist (Int64.to_int latency);
  complete st.ph (current st.ph) ~now

let maybe_finished st =
  if st.live = 0 && st.crowd_live = 0 then st.on_done ()

(* {1 Closed-loop client} *)

let dst = (Packet.Addr.Ip.of_repr "10.0.0.1", Memcached.port)

let build_request st rng cdf value =
  let key = Printf.sprintf "key-%06d" (sample_key rng cdf st.cfg.key_space) in
  if st.cfg.set_every > 0 && Sim.Rng.int rng st.cfg.set_every = 0 then
    Memcached.set_request key value
  else Memcached.get_request key

(* One closed-loop op.  Replies are matched to requests by FIFO order
   (UDP on the simulated wire is in-order per flow), which is only
   sound while the connection has no permanently-unanswered request
   ahead of the current one.  A timeout therefore RECYCLES the socket
   (close + reopen), the way real UDP cache clients treat a request
   timeout as connection trouble.  This is load-bearing for the
   accounting, not just realism: one permanently-missing reply (a
   server-side shed) would otherwise knock the FIFO association
   off-by-one for the rest of the connection — every later op would
   read its predecessor's echo, then time out itself, turning a single
   shed into a full-timeout-per-op cascade.  A fresh socket restarts
   the association clean; a straggler reply still in flight toward the
   closed port dies in the peer kernel's [udp.no_socket_drops]
   counter, which the CLI's silent-loss check reads — accounted loss,
   not silence. *)
(* The client channel: a raw UDP socket, or — with [cfg.rdp] — an RDP
   reliable-datagram link whose retransmit clock absorbs wire faults
   before they cost the op its timeout. *)
type chan = Fd of Libos.Api.fd ref | Link of Rdp_link.t ref

let open_chan api st =
  if st.cfg.rdp then Link (ref (Rdp_link.create api))
  else Fd (ref (api.Libos.Api.udp_socket ()))

(* Fold a finished link's ARQ counters into the run stats; closing it
   first turns any unacked sends into counted give-ups. *)
let retire_link st link =
  Rdp_link.close link;
  let r = Rdp_link.rdp link in
  st.rdp_retransmits <- st.rdp_retransmits + Netstack.Rdp.retransmits r;
  st.rdp_gave_up <- st.rdp_gave_up + Netstack.Rdp.gave_up r

let recycle api st chan =
  match chan with
  | Fd fdr ->
      ignore (api.Libos.Api.close !fdr);
      fdr := api.Libos.Api.udp_socket ()
  | Link lr ->
      retire_link st !lr;
      lr := Rdp_link.create api

(* End-of-client barrier.  The raw-socket path leaves its fd open (a
   straggler reply dies unread, exactly as before); the RDP path must
   pump until every DATA is acked or becomes a counted give-up, then
   fold the link's counters into the stats. *)
let finish_chan _api st chan =
  match chan with
  | Fd _ -> ()
  | Link lr ->
      Rdp_link.flush ~timeout:st.cfg.timeout !lr;
      retire_link st !lr

let one_op api st ~rng ~cdf ~chan ~value =
  let cfg = st.cfg in
  let req = build_request st rng cdf value in
  match chan with
  | Fd fdr ->
      let rec attempt n =
        let t0 = Libos.Api.now api in
        match api.Libos.Api.sendto !fdr req dst with
        | Error Abi.Errno.EAGAIN ->
            if n < cfg.retries then begin
              st.retried <- st.retried + 1;
              Libos.Api.delay api cfg.timeout;
              attempt (n + 1)
            end
            else st.shed <- st.shed + 1
        | Error _ -> st.lost <- st.lost + 1
        | Ok _ -> (
            match
              api.Libos.Api.poll [ (!fdr, [ `In ]) ] ~timeout:(Some cfg.timeout)
            with
            | Ok (_ :: _) -> (
                match api.Libos.Api.recvfrom !fdr 65536 with
                | Ok _ ->
                    let now = Libos.Api.now api in
                    record_completion st now (Int64.sub now t0)
                | Error _ ->
                    recycle api st chan;
                    st.lost <- st.lost + 1)
            | Ok [] | Error _ ->
                recycle api st chan;
                if n < cfg.retries then begin
                  st.retried <- st.retried + 1;
                  attempt (n + 1)
                end
                else st.lost <- st.lost + 1)
      in
      attempt 0
  | Link lr ->
      (* The link hides EAGAIN behind its retransmit clock, so the only
         client-visible outcomes are a (deduplicated) reply or a
         timeout.  A timeout still recycles: the fresh link restarts
         sequence state clean and the old one's unacked DATA become
         counted give-ups. *)
      let rec attempt n =
        let t0 = Libos.Api.now api in
        Rdp_link.send !lr req dst;
        match Rdp_link.recv ~timeout:cfg.timeout !lr with
        | Some _ ->
            let now = Libos.Api.now api in
            record_completion st now (Int64.sub now t0)
        | None ->
            recycle api st chan;
            if n < cfg.retries then begin
              st.retried <- st.retried + 1;
              attempt (n + 1)
            end
            else st.lost <- st.lost + 1
      in
      attempt 0

let churn api st ~chan ~count =
  if st.cfg.churn_every > 0 && !count >= st.cfg.churn_every then begin
    count := 0;
    (* Replies in flight toward the closed port can never be drained
       here; they surface in the host kernel's drop accounting. *)
    recycle api st chan
  end

let crowd_client api st ~rng ~cdf ~budget () =
  let chan = open_chan api st in
  let value = String.make st.cfg.value_size 'v' in
  for _ = 1 to budget do
    st.crowd_offered <- st.crowd_offered + 1;
    one_op api st ~rng ~cdf ~chan ~value
  done;
  finish_chan api st chan;
  st.crowd_live <- st.crowd_live - 1;
  if st.crowd_live = 0 then enter st.ph Recovery ~now:(Libos.Api.now api);
  maybe_finished st

(* Fired from the regular clients' op loop the first time the global
   offered count crosses [f.at_op]. *)
let maybe_flash api st ~cdf =
  match st.cfg.flash with
  | Some f when current st.ph = Baseline && st.base_offered >= f.at_op ->
      enter st.ph Crowd ~now:(Libos.Api.now api);
      st.crowd_live <- f.extra_connections;
      let budget = max 1 (f.crowd_ops / f.extra_connections) in
      for c = 1 to f.extra_connections do
        let rng =
          Sim.Rng.create ~seed:(Int64.add st.cfg.seed (Int64.of_int (10_000 + c)))
        in
        api.Libos.Api.spawn
          ~name:(Printf.sprintf "loadgen-crowd%d" c)
          (fun api -> crowd_client api st ~rng ~cdf ~budget ())
      done
  | _ -> ()

let closed_client api st ~rng ~cdf ~think () =
  let chan = open_chan api st in
  let value = String.make st.cfg.value_size 'v' in
  let since_churn = ref 0 in
  let rec loop () =
    if st.base_offered < st.cfg.ops then begin
      maybe_flash api st ~cdf;
      churn api st ~chan ~count:since_churn;
      st.base_offered <- st.base_offered + 1;
      incr since_churn;
      one_op api st ~rng ~cdf ~chan ~value;
      if Int64.compare think 0L > 0 then Libos.Api.delay api think;
      loop ()
    end
    else begin
      finish_chan api st chan;
      st.live <- st.live - 1;
      maybe_finished st
    end
  in
  loop ()

(* {1 Open-loop client}

   One sender fiber offering at fixed inter-arrival plus one receiver
   fiber matching replies FIFO against a queue of send timestamps. *)

let open_client api st ~rng ~cdf ~interarrival ~budget () =
  let chan = open_chan api st in
  let value = String.make st.cfg.value_size 'v' in
  let pending = Queue.create () in
  let sender_done = ref false in
  api.Libos.Api.spawn ~name:"loadgen-rx" (fun api ->
      let cfg = st.cfg in
      let prune () =
        let now = Libos.Api.now api in
        let rec go () =
          match Queue.peek_opt pending with
          | Some t0 when Int64.compare (Int64.sub now t0) cfg.timeout > 0 ->
              ignore (Queue.take pending);
              st.lost <- st.lost + 1;
              go ()
          | _ -> ()
        in
        go ()
      in
      let credit () =
        let now = Libos.Api.now api in
        match Queue.take_opt pending with
        | Some t0 -> record_completion st now (Int64.sub now t0)
        | None -> st.late <- st.late + 1
      in
      let finished () =
        if !sender_done && Queue.is_empty pending then begin
          finish_chan api st chan;
          st.live <- st.live - 1;
          maybe_finished st;
          true
        end
        else false
      in
      let rec rx () =
        match chan with
        | Fd fdr -> (
            match
              api.Libos.Api.poll [ (!fdr, [ `In ]) ] ~timeout:(Some cfg.timeout)
            with
            | Ok (_ :: _) ->
                (match api.Libos.Api.recvfrom !fdr 65536 with
                | Ok _ -> credit ()
                | Error _ -> ());
                rx ()
            | Ok [] | Error _ ->
                prune ();
                if not (finished ()) then rx ())
        | Link lr -> (
            match Rdp_link.recv ~timeout:cfg.timeout !lr with
            | Some _ ->
                credit ();
                rx ()
            | None ->
                prune ();
                if not (finished ()) then rx ())
      in
      rx ());
  for _ = 1 to budget do
    maybe_flash api st ~cdf;
    (* No churn mid-open-loop: the receiver holds the channel. *)
    st.base_offered <- st.base_offered + 1;
    let req = build_request st rng cdf value in
    (match chan with
    | Fd fdr -> (
        match api.Libos.Api.sendto !fdr req dst with
        | Ok _ -> Queue.add (Libos.Api.now api) pending
        | Error Abi.Errno.EAGAIN -> st.shed <- st.shed + 1
        | Error _ -> st.lost <- st.lost + 1)
    | Link lr ->
        (* EAGAIN is absorbed by the link's retransmit clock, so every
           offered op enters the pending queue. *)
        Rdp_link.send !lr req dst;
        Queue.add (Libos.Api.now api) pending);
    Libos.Api.delay api interarrival
  done;
  sender_done := true

(* {1 Driver and stats} *)

type stats = {
  offered : int;
  completed : int;
  shed : int;
  lost : int;
  late : int;
  retried : int;
  rdp_retransmits : int;
  rdp_gave_up : int;
  latency : Obs.Metrics.summary;
  duration : Sim.Engine.time;
  goodput_kops : float;
  phase_goodput : goodput;
}

let run ?(config = default) (h : Harness.t) ~server_threads =
  let st = make_state config ~on_done:(fun () -> Harness.stop h) in
  Sim.Engine.spawn h.engine ~name:"loadgen-server"
    (Memcached.server ~rdp:config.rdp (Harness.api h) ~server_threads);
  Sim.Engine.spawn h.engine ~name:"loadgen" (fun () ->
      (* Let the server bind before offering load. *)
      Sim.Engine.delay (Sim.Cycles.of_us 50.);
      enter st.ph Baseline ~now:(Sim.Engine.now h.engine);
      let cdf = zipf_cdf ~n:config.key_space ~s:config.zipf in
      st.live <- config.connections;
      for c = 0 to config.connections - 1 do
        let rng =
          Sim.Rng.create ~seed:(Int64.add config.seed (Int64.of_int c))
        in
        h.peer.Libos.Api.spawn
          ~name:(Printf.sprintf "loadgen-conn%d" c)
          (fun api ->
            match config.mode with
            | Closed { think } -> closed_client api st ~rng ~cdf ~think ()
            | Open { interarrival } ->
                open_client api st ~rng ~cdf ~interarrival
                  ~budget:(max 1 (config.ops / config.connections))
                  ())
      done);
  Harness.run h ~until:(Sim.Cycles.of_sec 60.);
  let finish = Sim.Engine.now h.engine in
  let duration = Int64.sub finish st.ph.began.(0) in
  {
    offered = st.base_offered + st.crowd_offered;
    completed = st.completed;
    shed = st.shed;
    lost = st.lost;
    late = st.late;
    retried = st.retried;
    rdp_retransmits = st.rdp_retransmits;
    rdp_gave_up = st.rdp_gave_up;
    latency = Obs.Metrics.summary st.hist;
    duration;
    goodput_kops = kops st.completed duration;
    phase_goodput = goodput st.ph ~finish;
  }

let silent_loss s (h : Harness.t) rt =
  let machine = Sim.Engine.stats h.Harness.engine in
  s.lost - s.late - s.rdp_gave_up
  - Rakis.Runtime.total_losses rt
  - Obs.Metrics.get_counter machine "udp.no_socket_drops"
  - Obs.Metrics.get_counter machine "udp.buffer_drops"

let pp_stats ppf s =
  let g = s.phase_goodput in
  Format.fprintf ppf
    "offered=%d completed=%d shed=%d lost=%d late=%d retried=%d@ latency: %a@ \
     goodput=%.1f kops/s (baseline=%.1f crowd=%.1f recovery=%.1f) recovered=%b%s"
    s.offered s.completed s.shed s.lost s.late s.retried Obs.Metrics.pp_summary
    s.latency s.goodput_kops g.baseline_kops g.crowd_kops g.recovery_kops
    g.recovered
    (match g.recovery_window with
    | Some w -> Printf.sprintf " (window %d)" w
    | None -> "");
  if s.rdp_retransmits > 0 || s.rdp_gave_up > 0 then
    Format.fprintf ppf "@ rdp: retransmits=%d give-ups=%d" s.rdp_retransmits
      s.rdp_gave_up
