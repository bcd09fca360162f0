(** One seeded, schedulable host injector.

    RAKIS's host is untrusted in two ways: it may lie ({!Malice}, the
    Table 2 tampering) and it may fail ({!Faults}).  Both are the same
    mechanism over a different event enum: kernel paths ask {!S.roll}
    whether an event fires at this opportunity, apply it, and call
    {!S.record}; campaign drivers arm events with a {!trigger} and
    advance the step clock with {!S.set_step}.  This module is that
    mechanism, instantiated once per enum by {!Make}, together with the
    one plan grammar both injectors print and parse. *)

(** When an armed event fires. *)
type trigger =
  | Probability of float  (** each opportunity, with this probability *)
  | Once of float  (** rolls each opportunity; spent on the first hit *)
  | At_step of int
      (** once, at the first opportunity on or after a step;
          deterministic, consumes no randomness *)
  | Burst of { first_step : int; last_step : int; probability : float }
      (** each opportunity while the step is within
          [first_step..last_step] (inclusive), with [probability] *)
  | Persistent
      (** every opportunity, forever — never spent, never heals.  The
          canonical way to force a circuit breaker open: the event
          outlives every retry budget, so only failover keeps the run
          alive. *)

(** One plan entry: fire [what] on [when_].  [shard = Some k] pins the
    entry to datapath shard [k]: it matches only opportunities whose
    {!S.roll} carries the same shard context, so an event aimed at
    shard [k] provably cannot touch shard [j]'s traffic. *)
type 'a entry = { what : 'a; when_ : trigger; shard : int option }

val trigger_to_string : trigger -> string
(** The part of a plan entry left of its [=]: ["@P"], ["once"],
    ["once@P"], ["STEP"], ["A..B@P"] or ["persist"].  [P] is the
    shortest decimal that reads back as the same float, so a printed
    plan replays bit-for-bit. *)

val trigger_of_string : string -> (trigger, string) result
(** Inverse of {!trigger_to_string}; never raises. *)

(** The event enum an injector is built over. *)
module type EVENT = sig
  type t

  val all : t list
  (** Every event, in report order. *)

  val name : t -> string
  (** Stable kebab-case name: the plan grammar's event name. *)

  val prefix : string
  (** Registry prefix and trace category (["malice"], ["faults"]): one
      [<prefix>.<name>] counter per event. *)

  val total : string
  (** The registry name of the all-events total. *)
end

module type S = sig
  type event

  type t

  (** A printable, parseable schedule: what campaign repro tokens embed
      and what the [--faults] CLI flags parse.  Entry syntax, [;]
      separated:
      - ["@P=name"] — {!Probability} [P];
      - ["once=name"] / ["once@P=name"] — {!Once};
      - ["STEP=name"] — {!At_step};
      - ["A..B@P=name"] — {!Burst};
      - ["persist=name"] — {!Persistent}.

      A ["#k"] suffix on the name (e.g. ["persist=drop-wakeup#1"]) pins
      the entry to datapath shard [k]. *)
  type plan = event entry list

  val create : ?obs:Obs.t -> seed:int64 -> unit -> t
  (** [obs] puts the fired counts in the shared registry — the total
      plus one [<prefix>.<name>] counter per event — and records a
      [<prefix>] trace instant per {!record}. *)

  val arm : t -> ?shard:int -> trigger -> event -> unit
  (** A {!Probability} arming replaces every arming installed earlier
      for the event; any other trigger appends to them. *)

  val install : t -> plan -> unit
  (** {!arm} each entry, in plan order. *)

  val disarm : t -> event -> unit
  (** Remove every arming of the event. *)

  val armed : t -> event -> bool
  (** Is any unspent arming installed for the event? *)

  val set_step : t -> int -> unit
  (** Advance the step clock of {!At_step} and {!Burst}.  Campaign
      drivers tick it per workload step; [rakis_run --faults] ticks it
      on simulated time. *)

  val roll : ?shard:int -> t option -> event -> bool
  (** Should the event fire now?  [None] (no injector) is never and
      allocates nothing.  [shard] is the datapath shard of this
      opportunity, if any. *)

  val rng : t -> Sim.Rng.t
  (** The injector's RNG, for kernel paths that randomize how they
      apply an event. *)

  val record : t -> event -> unit
  (** Called by kernel paths when they actually apply an event. *)

  val fired : t -> int
  (** Total events applied (incremented by {!record}). *)

  val fired_of : t -> event -> int

  val fired_counts : t -> (event * int) list
  (** Events applied at least once, with counts, in {!EVENT.all}
      order. *)

  val plan_to_string : plan -> string
  (** Inverse of {!plan_of_string} (canonical rendering). *)

  val plan_of_string : string -> (plan, string) result
  (** [""] parses to the empty plan; never raises. *)

  val pp_plan : Format.formatter -> plan -> unit
end

module Make (E : EVENT) : S with type event = E.t
