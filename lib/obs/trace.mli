(** Cycle-accurate event tracing into a fixed-size ring buffer (Obs
    layer; see DESIGN.md §7).

    This is the temporal half of the observability layer: the paper's
    evaluation (§6) reasons about {e where cycles go} — ring batch
    timing, Monitor wakeup latency, SyncProxy submit-to-complete spans
    — and this module records exactly those moments.  Timestamps come
    from a caller-supplied clock (the simulation engine's cycle
    counter), so traces are deterministic and cycle-accurate.

    The buffer is a preallocated struct-of-arrays ring: recording an
    event is a handful of array stores (instrument names are code
    literals, stored by pointer), never an allocation, and old events
    are overwritten once the ring wraps — always-on tracing with a
    bounded footprint.

    Two exporters: {!to_chrome} writes Chrome [trace_event] JSON
    loadable in [about://tracing] / Perfetto, and {!pp_timeline} prints
    a human-readable text timeline.  {!last} feeds the campaign's
    failure reports (the tail of events preceding a violation). *)

type event = {
  ts : int64;  (** start time, in clock cycles *)
  dur : int64;  (** span duration in cycles; [0] for instants *)
  cat : string;  (** category: ["ring"], ["umem"], ["mm"], ["syncproxy"], ["malice"], ... *)
  name : string;  (** event name, e.g. ["xsk0.xRX.consume"] *)
  arg : int;  (** one integer payload (batch size, offset, result) *)
}

type t

val create : ?capacity:int -> clock:(unit -> int) -> unit -> t
(** [capacity] (default 4096, minimum 1) fixes the ring size — and
    thereby the memory footprint — forever.  [clock] supplies
    timestamps as native ints; the RAKIS runtime passes the engine's
    cycle counter ({!Sim.Engine.clock}). *)

val set_enabled : t -> bool -> unit
(** Recording toggle; events arriving while disabled are discarded.
    Export still works on whatever the ring holds. *)

val now : t -> int
(** Read the trace clock — capture this before an operation and hand it
    to {!span} after. *)

(** {1 Recording (allocation-free)} *)

val instant : t -> cat:string -> arg:int -> string -> unit
(** Record a point event at the current clock value.  [arg] is the
    event's integer payload, [0] for none. *)

val span : t -> cat:string -> arg:int -> string -> start:int -> unit
(** Record a complete span from [start] (a {!now} capture) to the
    current clock value. *)

(** {1 Inspection} *)

val recorded : t -> int
(** Events ever recorded, including those the ring has overwritten. *)

val dropped : t -> int
(** Events lost to wraparound: [max 0 (recorded - capacity)]. *)

val events : t -> event list
(** Retained events, oldest first. *)

val last : t -> int -> event list
(** The most recent [n] retained events, oldest first. *)

(** {1 Export} *)

val to_chrome : ?us_per_cycle:float -> Format.formatter -> t -> unit
(** Chrome [trace_event] JSON, in the object form whose top-level key
    is [traceEvents].  [us_per_cycle] converts clock cycles to the format's
    microsecond timestamps; the default [1e-3] treats one cycle as one
    nanosecond, callers with a known frequency pass
    [1e6 /. frequency_hz]. *)

val pp_event : Format.formatter -> event -> unit
(** One-line rendering: [[ts] cat name arg=N [dur=D]]. *)

val pp_timeline : Format.formatter -> t -> unit
(** The retained events one per line, preceded by a note when
    wraparound has dropped earlier ones. *)
