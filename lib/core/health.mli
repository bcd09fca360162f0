(** Per-primitive circuit breakers for graceful degradation
    (DESIGN.md §9).

    PR 4 taught the enclave to ride out {e transient} host faults
    (backoff, re-kick, watchdog restart).  A FIOKP that fails
    {e persistently} still ended every operation in [ETIMEDOUT] — fatal
    to the application even though the LibOS underneath RAKIS has a
    perfectly correct (slow, exit-paying) syscall path for the same
    operations.  This module is the availability answer: one circuit
    breaker per primitive — the XSK datapath, the io_uring datapath and
    the Monitor Module — with the classic three-state machine:

    {v
      Closed ──(threshold consecutive failures)──▶ Open
      Open ──(cooldown elapsed; next allow)──▶ Half_open
      Half_open ──(probe failure)──▶ Open
      Half_open ──(probes_needed consecutive successes)──▶ Closed
    v}

    While a breaker is not [Closed], callers route the affected
    operations through the exit-based slow path (measurable as cost,
    not failure); [Half_open] admits one in-flight probe of real
    traffic at a time to test whether the FIOKP healed.

    The breaker is fed by the recovery layer's terminal signals —
    io_uring retry exhaustion, SQ-full streaks, XSK re-kick streaks
    with no completions, quarantine-reinits that fail to heal, UMem
    exhaustion, watchdog restarts — never by individual certified-ring
    rejections (those are Malice's noise, rejected per-burst and
    already healed by PR 4's machinery). *)

type state = Closed | Open | Half_open

type decision =
  | Fast  (** breaker closed: take the FIOKP fast path *)
  | Probe
      (** half-open: take the fast path as the one in-flight probe; the
          caller must later report {!record_success} or
          {!record_failure} (or {!cancel_probe}) to release the slot *)
  | Slow  (** open (or probe slot taken): take the exit-based slow path *)

type t

val create :
  ?obs:Obs.t ->
  name:string ->
  clock:(unit -> int64) ->
  ?threshold:int ->
  ?cooldown:int64 ->
  ?probes_needed:int ->
  unit ->
  t
(** [threshold] (default 3) consecutive failures open the breaker; after
    [cooldown] (default 400,000, ~167 µs) clock cycles in [Open] the next
    {!allow} transitions to [Half_open]; [probes_needed] (default 4)
    consecutive probe successes close it again (the failback
    hysteresis).  [obs] registers, under ["health.<name>."]: a [state]
    gauge (0 = closed, 1 = open, 2 = half-open) and the [opens] /
    [closes] / [failovers] / [probes] / [sheds] counters, plus a
    ["health"] trace instant per state transition. *)

val name : t -> string

val state : t -> state

val degraded : t -> bool
(** [state t <> Closed] — side-effect-free check for read-side paths
    (e.g. the XDP steering decision) that must not consume probes. *)

val allow : t -> decision
(** Route one operation.  May transition [Open → Half_open] when the
    cooldown has elapsed; [Slow] results increment the failover
    counter. *)

val record_failure : t -> unit
(** A terminal failure signal from the primitive.  In [Closed] it
    counts toward [threshold]; in [Half_open] it fails the probe and
    re-opens immediately (hysteresis: one bad probe resets the whole
    failback). *)

val record_success : t -> unit
(** Evidence the fast path works.  In [Closed] it clears the failure
    streak (only {e consecutive} failures open the breaker); in
    [Half_open] it counts toward [probes_needed]. *)

val cancel_probe : t -> unit
(** Release a probe slot without an outcome — for callers that decline
    to probe with the operation {!allow} handed them (e.g. a blocking
    [recv] whose abandoned SQE could corrupt a TCP stream). *)

type observation = {
  obs_state : state;
  failure_streak : int;  (** consecutive failures while [Closed] *)
  probe_successes : int;  (** consecutive probe successes while [Half_open] *)
  probe_inflight : bool;
  cooldown_elapsed : bool;
      (** [Open] with the cooldown over: the next {!allow} probes *)
}
(** A pure snapshot of the breaker's full internal state — the
    observation hook the Testing Module's explorer and reference-model
    conformance checks (DESIGN.md §11) compare against
    {!Tm.Stm_model.Breaker} after every transition. *)

val observe : t -> observation
(** Side-effect free: never moves the state machine or the counters. *)

val pp_observation : Format.formatter -> observation -> unit

val record_failover : t -> unit
(** Count one operation rerouted to the slow path outside {!allow}
    (e.g. a fast-path attempt that exhausted retries mid-flight and
    completed via the slow path). *)

val record_shed : t -> unit
(** Count one operation refused with backpressure ([EAGAIN]) because
    no path could accept it. *)

val set_on_open : t -> (unit -> unit) -> unit
(** Hook invoked on every transition into [Open] (initial trip and
    probe failures), after the state change — the runtime uses it to
    bind fallback sockets and reroute in-flight work {e before} more
    traffic arrives. *)

val opens : t -> int

val closes : t -> int

val failovers : t -> int

val sheds : t -> int

val probes_sent : t -> int

val state_name : state -> string
