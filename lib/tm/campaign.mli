(** Deterministic adversarial campaign engine (Testing Module, §5).

    Runs full enclave↔host simulations — XSK UDP echo, io_uring
    file/TCP workloads via the SyncProxy, Monitor-driven wakeups —
    under {e schedules} of {!Hostos.Malice} attacks: single attacks
    pinned to a step, pairwise combinations, or RNG-driven soups.
    Every run is seeded and the simulator is deterministic, so any
    outcome replays exactly from its {!spec}, printed as a repro token.

    Violations are Table 2 contract breaches only: a broken certified
    invariant, corrupted data acted on as if intact, an out-of-range
    transfer count, or a stalled workload.  Detected refusals (EPERM,
    rejected indices, dropped frames) and data-level corruption while
    [Corrupt_packet] is live (deliberately unchecked by RAKIS — TLS
    territory) are counted separately, not as violations. *)

type datapath = Xsk | Iouring

val datapath_name : datapath -> string
(** ["xsk"] or ["io_uring"]: the token kind and the report label. *)

type violation = { at_step : int; what : string }

(** Everything that identifies a campaign run; a run is a function of
    its spec alone. *)
type spec = {
  datapath : datapath;
  seed : int64;
  budget : int;  (** workload steps driven; at least 1 *)
  queues : int;
      (** datapath shards the machine boots with
          ({!Rakis.Config.num_queues}); fault-plan entries and attacks
          may pin themselves to one shard ([#<k>] in the plan syntax) *)
  schedule : Hostos.Malice.plan;
      (** attack schedule, keyed to workload steps; any
          {!Hostos.Injector.trigger} may arm an attack *)
  faults : Hostos.Faults.plan;
      (** host-fault plan; non-empty arms a {!Hostos.Faults} injector
          (seeded from [seed], so replays are bit-for-bit) and the
          enclave watchdog ({!Rakis.Runtime.start_watchdog}).  Faults
          may only cost availability ([lost]/[refused]), never
          integrity. *)
  zerocopy : bool;
      (** boot with {!Rakis.Config.zerocopy}: SEND_ZC, fixed-buffer file
          IO and multishot recv on the io_uring datapath
          (docs/zerocopy.md), exposing the notif attacks *)
  overload : bool;
      (** boot with {!Rakis.Config.overload}: CoDel/watermark admission
          control on every shard plus the io_uring pending table —
          refusals surface as accounted [EAGAIN] sheds (DESIGN.md §15) *)
  wire : bool;
      (** compose the canonical lossy-wire weather ({!wire_plan}) on top
          of [faults]; the injector is armed even when [faults] is
          empty *)
}

val defaults : spec
(** Datapath [Xsk], seed 0, budget 64, one queue, no attacks, no
    faults, every flag off: the values a token omits. *)

(** Everything that identifies a chaos soak (see {!soak}). *)
type soak_spec = {
  seed : int64;
  steps : int;  (** datagram steps; at least 1 *)
  queues : int;  (** datapath shards *)
  slo_p99 : int64;  (** p99 latency gate for admitted requests, cycles *)
  wire : bool;  (** ride the canonical lossy wire ({!wire_plan}) *)
}

val soak_defaults : soak_spec
(** Seed 0x50AD5EED, 100,000 steps, two queues, a p99 SLO of 2,400,000
    cycles (1 ms at 2.4 GHz), no lossy wire. *)

type outcome = {
  spec : spec;
  steps_run : int;
  ok : int;  (** operations verified against the golden model *)
  late_ok : int;  (** verified operations in the last quarter (recovery) *)
  refused : int;  (** detected-and-refused operations *)
  lost : int;  (** timeouts / drops (availability, not integrity) *)
  tolerated : int;  (** mismatches while a data-level attack was live *)
  fired : (Hostos.Malice.attack * int) list;
  injected : (Hostos.Faults.fault * int) list;
      (** faults actually injected, with counts *)
  ring_rejects : int;  (** certified index-check rejections *)
  desc_rejects : int;  (** descriptor/UMem + CQE rejections *)
  invariant_ok : bool;
  watchdog_restarts : int;  (** Monitor restarts by the watchdog *)
  degraded_scans : int;  (** in-enclave scans run in the MM's stead *)
  breaker_opens : int;
      (** circuit-breaker trips, summed over every shard's XSK breaker
          plus the uring/mm breakers (DESIGN.md §9, §10) *)
  breaker_failovers : int;  (** ops rerouted to the exit-based slow path *)
  breaker_closes : int;  (** recoveries: half-open probes that failed back *)
  shard_opens : int list;
      (** per-shard XSK breaker trips in shard order ([queues] entries):
          the containment witness — a fault pinned to shard [k] must
          leave every other entry 0 *)
  slow_calls : int;  (** host syscalls the slow path actually performed *)
  zc_sends : int;  (** SEND_ZC frames lent to the kernel *)
  zc_fallbacks : int;
      (** zero-copy ops that degraded to the copy path (dry pool or
          bounced submission) *)
  zc_notif_rejects : int;
      (** forged-early plus stray/duplicate notifs refused *)
  zc_leaks : int;
      (** lent frames whose notif the host withheld — non-zero fails
          the campaign (see {!failed}) *)
  ov_admitted : int;  (** admissions summed over every controller *)
  ov_shed : int;  (** accounted data-class sheds *)
  ov_control_shed : int;
      (** control-class (breaker probe) sheds — the controller
          guarantees 0; non-zero fails the campaign (see {!failed}) *)
  ov_edge_drops : int;
      (** host-NIC drops while the fill ring was throttled: the flood
          dying at the edge instead of inside the enclave *)
  violations : violation list;
  trace_tail : string list;
      (** rendered tail (up to 24 events, oldest first) of the
          runtime's Obs trace ring — captured only when the run failed,
          so every repro token ships with the events that led up to the
          violation; [[]] on success *)
}

val run : spec -> outcome
(** Boot a fresh RAKIS-SGX machine as the spec says, install the
    schedule, drive [budget] verifying workload steps, and collect the
    outcome.  The oracle's verdicts do not depend on the weather:
    attacks and host faults compose in one run.

    @raise Invalid_argument if [budget < 1]. *)

val wire_plan : Hostos.Faults.plan
(** The canonical hostile-wire weather (DESIGN.md §16): 5%
    {!Hostos.Faults.Wire_drop}, 5% {!Hostos.Faults.Wire_reorder}, 5%
    {!Hostos.Faults.Wire_dup} and 1% {!Hostos.Faults.Wire_trunc},
    probability-triggered over the whole run and unpinned (every
    shard's link is equally bad).  What a spec's [wire] flag and the
    [--wire] CLI flags install. *)

val failed : outcome -> bool
(** Violations, a broken system invariant, [zc_leaks > 0] (the
    dropped-notif attack's footprint at quiescence), or
    [ov_control_shed > 0] (the never-shed-control guarantee broke). *)

val applicable : ?zerocopy:bool -> datapath -> Hostos.Malice.attack list
(** The attacks whose kernel tampering hooks lie on this datapath: the
    two CQE forgeries have no XSK-side hook, the notif forgeries
    need the io_uring datapath with [zerocopy] (default false), and the
    wire attacks (replay / reorder-burst / fragment-storm) live in the
    XDP rx hook so only the XSK datapath carries them.
    [Dropped_notif] is never included — it deterministically fails the
    campaign by leaking a frame, which is the golden dropped-notif
    test's job to witness, not the no-violation singles'. *)

val soup :
  datapath:datapath ->
  ?zerocopy:bool ->
  seed:int64 ->
  ?entries:int ->
  budget:int ->
  unit ->
  Hostos.Malice.plan
(** Seeded random schedule mixing pinned steps and burst windows over
    the datapath's applicable attacks (under [zerocopy], the notif
    forgeries join the pool). *)

val pairs : 'a list -> ('a * 'a) list
(** All unordered pairs, for pairwise campaigns. *)

val fault_soup :
  seed:int64 -> ?entries:int -> budget:int -> unit -> Hostos.Faults.plan
(** Seeded random fault plan (default 6 entries) mixing probabilistic,
    pinned-step and burst triggers.  Monitor crash/hang entries are
    always pinned to a single step — a monitor that probabilistically
    re-dies after every watchdog restart measures the restart rate, not
    recovery. *)

val failover_plan : datapath:datapath -> budget:int -> Hostos.Faults.plan
(** Canonical breaker-failover weather (DESIGN.md §9): one
    probability-1 burst over [budget/8 .. budget/2] — {!Hostos.Faults.Drop_wakeup}
    for [Xsk] (transmission dies, the XSK breaker opens),
    {!Hostos.Faults.Transient_errno} for [Iouring] (every SQE bounces).
    The fault-free tail lets the breaker half-open, probe and fail
    back, so a single run shows the whole degrade/recover arc. *)

(** {1 Repro tokens}

    One grammar for campaign runs and soaks:
    [<kind>:<key>=<value>:…], e.g.
    ["xsk:seed=21:budget=64:attacks=16=prod-overshoot:q=2:wire"] or
    ["soak:seed=42:steps=2000"].

    - [<kind>] is [xsk] or [io_uring] (a campaign run on that datapath)
      or [soak].
    - Campaign keys: [seed], [budget], [attacks] (the schedule, a
      {!Hostos.Malice} plan), [faults] (a {!Hostos.Faults} plan) — both
      in the one {!Hostos.Injector.S.plan} grammar — and [q] (queues);
      bare flags [zc], [ov] and [wire].
    - Soak keys: [seed], [steps], [q] and [slo] (the p99 SLO in
      cycles); bare flag [wire].

    The printer uses that key order and omits every value equal to
    {!defaults} / {!soak_defaults}, but always prints [seed] and
    [budget]/[steps].  A token replays bit-for-bit on the commit that
    printed it. *)

type token = Campaign of spec | Soak of soak_spec

val token_to_string : token -> string

val token_of_string : string -> (token, string) result
(** Inverse of {!token_to_string}.  Keys may come in any order; a
    segment splits at its first ['='].  Never raises: an unknown,
    repeated or missing key, a flag with a value, a key without one,
    and a bad value (including [budget], [steps] or [q] below 1 and a
    non-positive [slo]) are each an [Error] naming the key. *)

val repro : outcome -> string
(** The campaign token of [o.spec].  Feed it to {!run_repro} or
    [tm_verify --replay]. *)

val parse_repro : string -> (spec, string) result
(** {!token_of_string}, refusing soak tokens. *)

val run_repro : string -> (outcome, string) result

type shrunk = {
  shrunk_schedule : Hostos.Malice.plan;
  shrunk_plan : Hostos.Faults.plan;
  schedule_original : int;  (** schedule entries before shrinking *)
  plan_original : int;  (** fault-plan entries before shrinking *)
  shrink_tests : int;  (** campaign replays spent *)
}

val shrink_failure : outcome -> shrunk
(** Greedily minimize a failing outcome (re-running the full campaign
    per candidate) to a minimal still-failing repro — both coordinates:
    the attack schedule and the fault plan (either may go empty), plus
    an element pass that drops shard pins ([#k]) the failure does not
    need. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Chaos soak (DESIGN.md §15)} *)

type soak_outcome = {
  sk_spec : soak_spec;
  sk_offered : int;  (** datagrams the client actually put on the wire *)
  sk_completed : int;  (** tag-matched echoes (any time before run end) *)
  sk_lost : int;  (** offered datagrams never echoed *)
  sk_late : int;
      (** replies that arrived unmatchable (corrupt tag, duplicate) —
          they reached the client, so they offset [sk_lost] in the
          accounting identity *)
  sk_shed : int;  (** overload data-class sheds, summed over controllers *)
  sk_control_shed : int;  (** must be 0: control is never shed *)
  sk_edge_drops : int;  (** NIC-edge drops while fill was throttled *)
  sk_accounted : int;
      (** all server-side accounted drops: stack drop counters
          (including rx-gate sheds), NIC edge drops, ring/descriptor
          rejects, plus TX-side overload sheds *)
  sk_unaccounted : int;
      (** [max 0 (lost - late - accounted)] — a non-zero value is a
          silently lost datagram, which fails the soak *)
  sk_latency : Obs.Metrics.summary;  (** completed-op round trips, cycles *)
  sk_slo_ok : bool;  (** [p99 <= slo_p99] (conservative: p99 is a log2
                         bucket upper bound) *)
  sk_baseline_kops : float;  (** goodput before the flash crowd *)
  sk_crowd_kops : float;
  sk_recovery_kops : float;
  sk_recovered : bool;
      (** some post-crowd 100 µs window reached >= 95% of baseline *)
  sk_recovery_window : int option;
  sk_breaker_opens : int;
  sk_watchdog_restarts : int;
  sk_stalled : bool;  (** the driver did not finish inside the horizon *)
}

val soak : soak_spec -> soak_outcome
(** Run the chaos soak: the XSK UDP echo workload on a multi-queue
    machine booted with {!Rakis.Config.overload}, [steps] datagrams
    across 8 flows — closed-loop for the first 40%, an
    open-loop flash-crowd blast for the middle 20%, closed-loop recovery
    for the rest — composed with a rolling shard-pinned
    {!Hostos.Faults.Drop_wakeup} plan and a seeded malice soup.  [wire]
    additionally installs the canonical lossy-wire weather
    ({!wire_plan}) for the whole run.  Deterministic in the spec.

    @raise Invalid_argument if [steps] or [slo_p99] is not positive
    (before anything boots). *)

val soak_failed : soak_outcome -> bool
(** The soak's gates: a stall, an unaccounted datagram, a shed control
    op, a p99 SLO breach, or goodput that never recovered. *)

val pp_soak_outcome : Format.formatter -> soak_outcome -> unit
