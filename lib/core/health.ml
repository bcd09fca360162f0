type state = Closed | Open | Half_open

type decision = Fast | Probe | Slow

type t = {
  name : string;
  clock : unit -> int64;
  threshold : int;
  cooldown : int64;
  probes_needed : int;
  mutable state : state;
  mutable failures : int; (* consecutive failures while Closed *)
  mutable successes : int; (* consecutive probe successes while Half_open *)
  mutable opened_at : int64;
  mutable probe_inflight : bool;
  mutable on_open : unit -> unit;
  state_gauge : Obs.Metrics.gauge;
  opens : Obs.Metrics.counter;
  closes : Obs.Metrics.counter;
  failovers : Obs.Metrics.counter;
  probes : Obs.Metrics.counter;
  sheds : Obs.Metrics.counter;
  trace : Obs.Trace.t option;
}

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

(* Static labels so transition tracing never allocates. *)
let state_label = function
  | Closed -> "health.closed"
  | Open -> "health.open"
  | Half_open -> "health.half-open"

let state_level = function Closed -> 0. | Open -> 1. | Half_open -> 2.

let create ?obs ~name ~clock ?(threshold = 3) ?(cooldown = 400_000L)
    ?(probes_needed = 4) () =
  let m =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  let instrument what = "health." ^ name ^ "." ^ what in
  let t =
    {
      name;
      clock;
      threshold = max 1 threshold;
      cooldown;
      probes_needed = max 1 probes_needed;
      state = Closed;
      failures = 0;
      successes = 0;
      opened_at = 0L;
      probe_inflight = false;
      on_open = (fun () -> ());
      state_gauge = Obs.Metrics.gauge m (instrument "state");
      opens = Obs.Metrics.counter m (instrument "opens");
      closes = Obs.Metrics.counter m (instrument "closes");
      failovers = Obs.Metrics.counter m (instrument "failovers");
      probes = Obs.Metrics.counter m (instrument "probes");
      sheds = Obs.Metrics.counter m (instrument "sheds");
      trace = Option.map Obs.trace obs;
    }
  in
  Obs.Metrics.set t.state_gauge (state_level Closed);
  t

let name t = t.name

let state t = t.state

let degraded t = t.state <> Closed

let transition t s =
  if t.state <> s then begin
    t.state <- s;
    Obs.Metrics.set t.state_gauge (state_level s);
    (match t.trace with
    | None -> ()
    | Some tr -> Obs.Trace.instant tr ~cat:"health" ~arg:0 (state_label s));
    match s with
    | Open ->
        Obs.Metrics.incr t.opens;
        t.opened_at <- t.clock ();
        t.probe_inflight <- false;
        t.successes <- 0;
        t.on_open ()
    | Closed ->
        Obs.Metrics.incr t.closes;
        t.failures <- 0;
        t.successes <- 0;
        t.probe_inflight <- false
    | Half_open -> t.successes <- 0
  end

let allow t =
  match t.state with
  | Closed -> Fast
  | Open when Int64.sub (t.clock ()) t.opened_at >= t.cooldown ->
      transition t Half_open;
      t.probe_inflight <- true;
      Obs.Metrics.incr t.probes;
      Probe
  | Open ->
      Obs.Metrics.incr t.failovers;
      Slow
  | Half_open when not t.probe_inflight ->
      t.probe_inflight <- true;
      Obs.Metrics.incr t.probes;
      Probe
  | Half_open ->
      Obs.Metrics.incr t.failovers;
      Slow

let record_failure t =
  match t.state with
  | Closed ->
      t.failures <- t.failures + 1;
      if t.failures >= t.threshold then transition t Open
  | Half_open -> transition t Open (* a failed probe re-opens immediately *)
  | Open -> ()

let record_success t =
  match t.state with
  | Closed -> t.failures <- 0
  | Half_open ->
      t.probe_inflight <- false;
      t.successes <- t.successes + 1;
      if t.successes >= t.probes_needed then transition t Closed
  | Open -> ()

let cancel_probe t = t.probe_inflight <- false

type observation = {
  obs_state : state;
  failure_streak : int;
  probe_successes : int;
  probe_inflight : bool;
  cooldown_elapsed : bool;
}

let observe t =
  {
    obs_state = t.state;
    failure_streak = t.failures;
    probe_successes = t.successes;
    probe_inflight = t.probe_inflight;
    cooldown_elapsed =
      (t.state = Open && Int64.sub (t.clock ()) t.opened_at >= t.cooldown);
  }

let pp_observation ppf o =
  Format.fprintf ppf "%s fails=%d succs=%d inflight=%b cooled=%b"
    (state_name o.obs_state) o.failure_streak o.probe_successes
    o.probe_inflight o.cooldown_elapsed

let record_failover t = Obs.Metrics.incr t.failovers

let record_shed t = Obs.Metrics.incr t.sheds

let set_on_open t f = t.on_open <- f

let opens t = Obs.Metrics.value t.opens

let closes t = Obs.Metrics.value t.closes

let failovers t = Obs.Metrics.value t.failovers

let sheds t = Obs.Metrics.value t.sheds

let probes_sent t = Obs.Metrics.value t.probes
