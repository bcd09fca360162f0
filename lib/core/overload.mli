(** Shard-aware overload control (DESIGN.md §15).

    Protects a datapath shard from {e legitimate} traffic floods the
    way {!Health} protects it from a hostile host: per-queue sojourn
    tracking (CoDel-style [target]/[interval] on the netstack rx queue
    and the SyncProxy pending table), token-bucket admission with
    priority classes, and hysteretic high/low watermarks whose
    backpressure propagates — the XSK FM throttles fill-ring refills so
    the host NIC drops at the edge, and app sends get [EAGAIN].

    Every verdict is accounted in the shared Obs registry under
    ["overload.<shard>.*"]: [admitted.data] / [admitted.control] /
    [shed.data] / [shed.deadline] counters, a [sojourn_cycles] log2
    histogram and [depth] / [saturated] / [shedding] gauges.  The soak
    harness's "shed + completed = offered" obligation is checked
    against these counters. *)

type t

(** Priority class of one admission request.  [Control] — circuit
    breaker probes and Monitor/Health housekeeping — is never shed:
    refusing the probe would wedge the recovery machinery the overload
    needs to end.  [Data] is application traffic. *)
type cls = Control | Data

val create :
  ?obs:Obs.t ->
  ?name:string ->
  ?target:int64 ->
  ?interval:int64 ->
  ?high_watermark:int ->
  ?low_watermark:int ->
  ?rate:int ->
  ?burst:int ->
  clock:(unit -> int64) ->
  unit ->
  t
(** [name] defaults to ["overload"]; the runtime passes
    ["overload.<k>"] per shard and ["overload.uring"] for the
    runtime-wide io_uring pending-table guard.  Tuning knobs default to
    {!default_target} etc. *)

(** {1 Feeding the controller} *)

val note_depth : ?src:int -> t -> int -> unit
(** Depth sample from one of the shard's guarded queues — [src] 0 is
    the netstack socket queue, [src] 1+i each XSK's rx-ring backlog
    (at most {!max_depth_sources} sources; out-of-range [src] clamps).
    The watermark logic runs on the {e max} of the last sample from
    every source, so a shallow socket queue cannot clear a saturation
    raised by a flooded ring.  Effective depth >= [high_watermark]
    sets the saturated mark; it clears only once every source falls
    back to [low_watermark] (hysteresis — no flapping at the
    boundary).  Called from both the enqueue and dequeue paths so a
    starved queue still clears the mark as it drains. *)

val max_depth_sources : int

val observe_sojourn : t -> int64 -> unit
(** One dequeue's queueing delay in cycles.  Sojourn above [target] for
    a full [interval] enters the shedding state; one below-target
    sojourn leaves it (CoDel control law at the admission edge). *)

(** {1 Verdicts} *)

val admit : ?slack:int64 -> t -> cls -> bool
(** Admission verdict, counted either way.  [Control] always passes.
    [Data] passes freely under no pressure; under pressure (shedding or
    saturated) it spends a token-bucket token ([rate] per [interval],
    burst [burst]), and a request whose [slack] — cycles until its
    deadline — is below the current standing sojourn is shed first
    (earliest-deadline-first: it would miss even if admitted). *)

val record_shed : t -> unit
(** Record a data-class refusal decided outside {!admit} (a saturated
    TX ring bouncing an already-admitted frame, a degraded path with no
    route) so it lands in the same [shed.data] accounting stream. *)

val edge_throttle : t -> bool
(** [true] while saturated (counted): the XSK FM's refill loop keeps
    only a trickle of xFill frames outstanding so the flood is dropped
    by the host NIC ({!Hostos.Xdp.rx_dropped}) instead of buffered into
    the enclave. *)

val shedding : t -> bool

val saturated : t -> bool

val under_pressure : t -> bool
(** [shedding t || saturated t]. *)

val name : t -> string

val high_watermark : t -> int

val low_watermark : t -> int

val now : t -> int64
(** The controller's clock (exposed so callers measuring sojourns use
    the same timebase the CoDel law does). *)

(** {1 Accounting} *)

val data_admitted : t -> int

val control_admitted : t -> int

val deadline_shed : t -> int

val sojourn_histogram : t -> Obs.Metrics.histogram

(** {1 Pure observation (golden traces / conformance)} *)

type observation = {
  ob_shedding : bool;
  ob_saturated : bool;
  ob_depth : int;
  ob_admitted_data : int;
  ob_admitted_control : int;
  ob_shed_data : int;
  ob_shed_deadline : int;
}

val observe : t -> observation

val pp_observation : Format.formatter -> observation -> unit

(** {1 Defaults (DESIGN.md §15)} *)

val default_target : int64

val default_interval : int64

val default_high_watermark : int

val default_low_watermark : int

val default_rate : int

val default_burst : int
