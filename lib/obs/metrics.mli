(** Metrics registry: named counters, gauges and log2-bucketed
    histograms (Obs layer; see DESIGN.md §7).

    This is the quantitative half of the observability layer backing the
    paper's evaluation methodology (§6): enclave exits avoided, ring
    batch efficiency, Monitor wakeup counts and reject tallies all
    become named instruments in one registry instead of ad-hoc mutable
    fields scattered across the FastPath/Monitor modules.

    Instruments are {e handles}: a subsystem looks its instrument up
    once by dot-separated name at creation time ({!counter}, {!gauge},
    {!histogram} — find-or-create, so the same name always yields the
    same handle) and afterwards updates it through the handle.  Updates
    ({!incr}, {!add}, {!set}, {!observe}) are single field mutations:
    no allocation, no hashing, nothing that could distort the hot path
    being measured.

    Naming convention used by the RAKIS runtime: subsystem-prefixed
    dot-separated lowercase, e.g. ["xsk0.rx_packets"],
    ["xsk0.xFill.bursts"], ["mm.wakeups.tx"], ["malice.prod-overshoot"],
    ["stack.drop.bad-udp"]. *)

type t
(** A registry.  The RAKIS runtime owns one per boot; standalone
    subsystems create private ones when none is supplied. *)

type counter
(** Monotonically increasing integer (events, packets, rejects). *)

type gauge
(** Instantaneous float level (occupancy, rates). *)

type histogram
(** Log2-bucketed distribution of non-negative integer observations
    (batch sizes, latencies in cycles). *)

val create : unit -> t

val reset : t -> unit
(** Zero every registered instrument, keeping all registrations (and
    outstanding handles) valid. *)

(** {1 Registration (find-or-create; not for hot paths)} *)

val counter : t -> string -> counter
(** [counter t name] is the unique counter called [name] in [t],
    created at 0 on first use. *)

val gauge : t -> string -> gauge

val histogram : t -> string -> histogram

(** {1 Hot-path updates (allocation-free)} *)

val incr : counter -> unit

val add : counter -> int -> unit

val set : gauge -> float -> unit

val observe : histogram -> int -> unit
(** Record one observation [v].  Bucket 0 counts [v <= 0]; bucket [k]
    ([k >= 1]) counts [2{^k-1} <= v < 2{^k}]. *)

(** {1 Reading handles} *)

val value : counter -> int

val get : gauge -> float

val count : histogram -> int
(** Total observations recorded. *)

val sum : histogram -> int
(** Sum of all observed values. *)

val mean : histogram -> float
(** [sum / count]; [0.] when empty. *)

val histogram_name : histogram -> string

val buckets : histogram -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending.  The [v <= 0]
    bucket reports [lo = min_int], [hi = 0]. *)

val percentile : histogram -> float -> int
(** [percentile h p] (0 <= [p] <= 100, clamped) estimates the p-th
    percentile of observed values at log2-bucket resolution: the upper
    bound of the bucket holding the ceil(p% · count)-th smallest
    observation — a conservative estimate.  [0] when empty; bucket 0
    ([v <= 0]) reports 0. *)

val bucket_of : int -> int
(** The bucket index {!observe} files a value under (exposed for the
    property tests). *)

type summary = {
  s_count : int;
  s_mean : float;
  s_p50 : int;  (** 50th percentile (median), bucket upper bound. *)
  s_p99 : int;  (** 99th percentile, bucket upper bound. *)
  s_p999 : int;  (** 99.9th percentile, bucket upper bound. *)
}
(** Latency digest extracted from a log2 histogram.  Error bound: each
    percentile is the holding bucket's upper bound, so for a true value
    [v >= 1] the reported figure is in [[v, 2v)] — an overestimate of
    strictly less than 2x, never an underestimate.  SLO checks against
    a summary are therefore conservative (a passing p99 really is
    within the SLO; a failing one may be a near miss). *)

val summary : histogram -> summary
(** Digest [h] in one pass per percentile.  All-zero when empty. *)

val pp_summary : Format.formatter -> summary -> unit
(** ["count=N mean=M p50=A p99=B p999=C"]. *)

(** {1 Registry-wide queries} *)

val find : t -> string -> int option
(** Counter value by name; [None] if never registered. *)

val get_counter : t -> string -> int
(** Like {!find} but [0] when absent. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val histograms : t -> histogram list

val with_prefix : t -> string -> (string * int) list
(** Counters whose name starts with [prefix], with the prefix stripped
    — e.g. [with_prefix t "stack.drop."] lists drop reasons. *)

val sum_counters : ?infix:string -> t -> prefix:string -> suffix:string -> int
(** [sum_counters t ~prefix ~suffix] sums every counter whose name
    starts with [prefix] and ends with [suffix], the two not
    overlapping; with [infix], the part between them must also contain
    [infix] — e.g. [~prefix:"stack" ~infix:".drop." ~suffix:""] totals
    the drop reasons of every stack instance.  [0] when nothing
    matches.  Allocation-free, and linear in the number of registered
    counters: meant for end-of-run totals, not per-packet paths. *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** Aligned name/value table: counters, then gauges, then histograms. *)
