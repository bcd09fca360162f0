(** Observability layer: one {!Metrics} registry plus one {!Trace} ring
    (DESIGN.md §7).

    The paper's evaluation (§6) is an exercise in cycle accounting —
    enclave exits avoided, ring batch efficiency, Monitor wakeup
    latency — so the reproduction carries an always-on, low-overhead
    observability sink through every layer that touches the trust
    boundary.  The RAKIS runtime creates one [Obs.t] per boot, clocks
    it from the simulation engine's cycle counter, and hands it to the
    FastPath Modules ({!module:Metrics} counters per ring, UMem and FM),
    the Monitor Module (scan/wakeup counters and events), the SyncProxy
    (submit-to-complete spans) and the adversarial kernel (per-attack
    injection counts) — replacing the ad-hoc per-module counters those
    layers used to keep.

    Subsystems accept an optional [?obs] at creation and fall back to a
    private sink, so every module still works standalone (unit tests
    construct rings and allocators with no registry in sight). *)

module Metrics = Metrics
module Trace = Trace

type t

val create : ?trace_capacity:int -> ?clock:(unit -> int) -> unit -> t
(** [trace_capacity] bounds the event ring (default 4096);  [clock]
    timestamps trace events as native ints (default: a constant [0] —
    fine for metrics-only use). *)

val metrics : t -> Metrics.t
(** The shared registry all subsystems register into. *)

val trace : t -> Trace.t
(** The shared event ring all subsystems record into. *)

(** {1 Registration shorthands}

    Equivalent to going through {!metrics}; handles are find-or-create,
    so registering the same name twice yields the same handle. *)

val counter : t -> string -> Metrics.counter
