(* Shard-aware overload controller (DESIGN.md §15).

   The breakers (DESIGN.md §9) protect the runtime from a hostile or
   failing host; this module protects it from too much *legitimate*
   traffic.  One instance guards one datapath shard's queues (plus one
   runtime-wide instance for the per-thread io_uring pending tables) and
   combines three classic mechanisms:

   - CoDel-style sojourn tracking: the controller watches how long
     datagrams sit in the guarded queue.  Sojourn above [target] for a
     full [interval] flips the controller into the shedding state;
     a single below-target sojourn flips it back (CoDel's "drop until
     the standing queue is gone" recast as admission control at the
     producer edge, where an SGX enclave can actually refuse work
     before paying the copy-in).

   - Token-bucket admission with priority classes: while the controller
     is under pressure (shedding or saturated), [Data] admissions are
     limited to [rate] per [interval] (burst [burst]); [Control]
     traffic — breaker probes, Monitor/Health housekeeping — is NEVER
     shed, because shedding the probe would wedge the very machinery
     that ends the overload.  Data requests that carry a deadline are
     shed earliest-deadline-first: a request whose remaining slack is
     already below the queue's current sojourn would miss its deadline
     anyway, so it is the cheapest one to refuse.

   - Hysteretic watermarks: queue depth at or above [high_wm] marks the
     shard saturated (propagating backpressure: the XSK FM stops
     restocking xFill so the host NIC drops at the edge, and app sends
     get EAGAIN); depth must fall back to [low_wm] before the mark
     clears, so the gate cannot flap at the watermark boundary.

   Every decision is *accounted*: admissions and sheds are counters in
   the shared Obs registry (["overload.<shard>.*"]), sojourns feed a
   log2 histogram, and the saturated/shedding states are gauges — the
   soak harness's "shed + completed = offered" obligation reads these. *)

type cls = Control | Data

type t = {
  name : string;
  clock : unit -> int64;
  (* CoDel *)
  target : int64;
  interval : int64;
  mutable first_above : int64 option;
  mutable shedding : bool;
  mutable last_sojourn : int64;
  (* watermarks *)
  high_wm : int;
  low_wm : int;
  depths : int array;  (* last sample per source; the shard's effective
                          depth is the max across sources *)
  mutable saturated : bool;
  (* token bucket (applies to Data only, and only under pressure) *)
  rate : int;
  burst : int;
  mutable tokens : float;
  mutable last_refill : int64;
  (* instruments *)
  admitted_data : Obs.Metrics.counter;
  admitted_control : Obs.Metrics.counter;
  shed_data : Obs.Metrics.counter;
  shed_deadline : Obs.Metrics.counter;
  edge_throttles : Obs.Metrics.counter;
  sojourn_hist : Obs.Metrics.histogram;
  depth_gauge : Obs.Metrics.gauge;
  saturated_gauge : Obs.Metrics.gauge;
  shedding_gauge : Obs.Metrics.gauge;
}

(* Watermark / CoDel constants (DESIGN.md §15).  Defaults assume the
   4096-entry socket queues and the 2.4 GHz simulated clock: target is
   ~50 µs of standing queue, interval ~200 µs (CoDel's rule of thumb:
   interval ≈ worst-case RTT, target ≈ 5-10% of it). *)
let default_target = 120_000L (* cycles, ~50 µs *)

let default_interval = 480_000L (* cycles, ~200 µs *)

let default_high_watermark = 256

let default_low_watermark = 64

let default_rate = 64 (* Data admissions per [interval] under pressure *)

let default_burst = 32

(* A shard's depth is fed from several queues — the netstack socket
   queue (src 0) and each XSK's rx-ring backlog (src 1+i).  Tracking
   the last sample per source and taking the max keeps a shallow
   socket queue from instantly clearing a saturation raised by a
   flooded ring (and vice versa). *)
let max_depth_sources = 8

let create ?obs ?(name = "overload") ?(target = default_target)
    ?(interval = default_interval) ?(high_watermark = default_high_watermark)
    ?(low_watermark = default_low_watermark) ?(rate = default_rate)
    ?(burst = default_burst) ~clock () =
  let metrics =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  let c suffix = Obs.Metrics.counter metrics (name ^ "." ^ suffix) in
  {
    name;
    clock;
    target;
    interval;
    first_above = None;
    shedding = false;
    last_sojourn = 0L;
    high_wm = high_watermark;
    low_wm = low_watermark;
    depths = Array.make max_depth_sources 0;
    saturated = false;
    rate;
    burst;
    tokens = float_of_int burst;
    last_refill = clock ();
    admitted_data = c "admitted.data";
    admitted_control = c "admitted.control";
    shed_data = c "shed.data";
    shed_deadline = c "shed.deadline";
    edge_throttles = c "edge_throttles";
    sojourn_hist = Obs.Metrics.histogram metrics (name ^ ".sojourn_cycles");
    depth_gauge = Obs.Metrics.gauge metrics (name ^ ".depth");
    saturated_gauge = Obs.Metrics.gauge metrics (name ^ ".saturated");
    shedding_gauge = Obs.Metrics.gauge metrics (name ^ ".shedding");
  }

let name t = t.name

let now t = t.clock ()

let high_watermark t = t.high_wm

let low_watermark t = t.low_wm

let shedding t = t.shedding

let saturated t = t.saturated

let under_pressure t = t.shedding || t.saturated

(* Depth sample from one of the shard's guarded queues (both enqueue
   and dequeue paths report, so a starved queue still clears the mark
   as it drains).  The watermark logic runs on the max across sources:
   one flooded queue saturates the shard; every queue must drain to
   clear it. *)
let note_depth ?(src = 0) t depth =
  let src =
    if src < 0 then 0
    else if src >= max_depth_sources then max_depth_sources - 1
    else src
  in
  t.depths.(src) <- depth;
  let depth = Array.fold_left max 0 t.depths in
  Obs.Metrics.set t.depth_gauge (float_of_int depth);
  if depth >= t.high_wm then begin
    if not t.saturated then begin
      t.saturated <- true;
      Obs.Metrics.set t.saturated_gauge 1.
    end
  end
  else if depth <= t.low_wm && t.saturated then begin
    t.saturated <- false;
    Obs.Metrics.set t.saturated_gauge 0.
  end

(* One dequeue's queueing delay, in cycles. *)
let observe_sojourn t sojourn =
  let sojourn = if Int64.compare sojourn 0L < 0 then 0L else sojourn in
  t.last_sojourn <- sojourn;
  Obs.Metrics.observe t.sojourn_hist (Int64.to_int sojourn);
  if Int64.compare sojourn t.target > 0 then begin
    let now = t.clock () in
    match t.first_above with
    | None -> t.first_above <- Some now
    | Some since ->
        if Int64.compare (Int64.sub now since) t.interval >= 0 && not t.shedding
        then begin
          t.shedding <- true;
          Obs.Metrics.set t.shedding_gauge 1.
        end
  end
  else begin
    t.first_above <- None;
    if t.shedding then begin
      t.shedding <- false;
      Obs.Metrics.set t.shedding_gauge 0.
    end
  end

(* Effective admission rate.  A fixed token rate near service capacity
   cannot drain a *standing* queue: once sojourn has plateaued above
   [target], arrivals equal completions and every one of them fits
   under the bucket, so the bloat persists forever (the failure CoDel's
   escalating control law exists to break).  While the shedding state
   holds, the rate is therefore scaled by [sqrt (target / sojourn)]
   (CoDel's control law: shed pressure grows with the square root of
   the excursion): the further the standing sojourn sits above target,
   the harder the controller sheds, and admission stays below service
   until the queue is back at target — where the factor reaches 1 and
   full rate returns.  The square root matters: linear scaling
   over-damps, starving admission for the whole drain and turning a
   timeout-synchronized client herd into lockstep shed/retry cycles. *)
let effective_rate t =
  if t.shedding && Int64.compare t.last_sojourn t.target > 0 then
    float_of_int t.rate
    *. sqrt (Int64.to_float t.target /. Int64.to_float t.last_sojourn)
  else float_of_int t.rate

let refill_tokens t now =
  let elapsed = Int64.to_float (Int64.sub now t.last_refill) in
  if elapsed > 0. then begin
    t.tokens <-
      Float.min
        (float_of_int t.burst)
        (t.tokens +. (elapsed *. effective_rate t /. Int64.to_float t.interval));
    t.last_refill <- now
  end

(* Admission verdict.  [Control] is never refused.  [Data] is free while
   the controller sees no pressure; under pressure it spends a token,
   and a request whose [slack] (cycles until its deadline) is already
   below the current standing sojourn is shed first — it would miss its
   deadline even if admitted (earliest-deadline-first shedding). *)
let admit ?slack t cls =
  match cls with
  | Control ->
      Obs.Metrics.incr t.admitted_control;
      true
  | Data ->
      if not (under_pressure t) then begin
        Obs.Metrics.incr t.admitted_data;
        true
      end
      else begin
        let doomed =
          match slack with
          | Some s -> Int64.compare s t.last_sojourn < 0
          | None -> false
        in
        if doomed then begin
          Obs.Metrics.incr t.shed_deadline;
          Obs.Metrics.incr t.shed_data;
          false
        end
        else begin
          refill_tokens t (t.clock ());
          if t.tokens >= 1. then begin
            t.tokens <- t.tokens -. 1.;
            Obs.Metrics.incr t.admitted_data;
            true
          end
          else begin
            Obs.Metrics.incr t.shed_data;
            false
          end
        end
      end

(* A data-class refusal decided elsewhere — the TX ring itself bounced
   the frame, or a degraded slow path had no route — recorded into the
   same accounting stream so "offered = completed + shed + accounted
   drops" stays an identity for callers. *)
let record_shed t = Obs.Metrics.incr t.shed_data

(* Edge-throttle query for the XSK FM's refill loop: while saturated the
   FM keeps only a trickle of fill frames outstanding, so the flood is
   dropped by the host NIC (visible in [Hostos.Xdp.rx_dropped]) instead
   of buffered into the enclave. *)
let edge_throttle t =
  if t.saturated then begin
    Obs.Metrics.incr t.edge_throttles;
    true
  end
  else false

(* {1 Accounting} *)

let data_admitted t = Obs.Metrics.value t.admitted_data

let control_admitted t = Obs.Metrics.value t.admitted_control

let deadline_shed t = Obs.Metrics.value t.shed_deadline

type observation = {
  ob_shedding : bool;
  ob_saturated : bool;
  ob_depth : int;
  ob_admitted_data : int;
  ob_admitted_control : int;
  ob_shed_data : int;
  ob_shed_deadline : int;
}

let observe t =
  {
    ob_shedding = t.shedding;
    ob_saturated = t.saturated;
    ob_depth = int_of_float (Obs.Metrics.get t.depth_gauge);
    ob_admitted_data = Obs.Metrics.value t.admitted_data;
    ob_admitted_control = Obs.Metrics.value t.admitted_control;
    ob_shed_data = Obs.Metrics.value t.shed_data;
    ob_shed_deadline = Obs.Metrics.value t.shed_deadline;
  }

let pp_observation ppf o =
  Format.fprintf ppf
    "shedding=%b saturated=%b depth=%d admitted=%d/%d shed=%d (deadline=%d)"
    o.ob_shedding o.ob_saturated o.ob_depth o.ob_admitted_data
    o.ob_admitted_control o.ob_shed_data o.ob_shed_deadline
