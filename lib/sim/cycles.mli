(** Cycle/time conversions.

    The simulated clock counts cycles of the paper's evaluation machine,
    an Intel Xeon Gold 6312U at 2.40 GHz.  All conversions in the
    reproduction go through this module so the frequency is defined in
    exactly one place. *)

val frequency_hz : float
(** 2.4e9. *)

val of_sec : float -> int64

val of_ms : float -> int64

val of_us : float -> int64

val to_sec : int64 -> float

val to_us : int64 -> float

val per_byte_at_gbps : float -> float
(** [per_byte_at_gbps r] is the wire time, in cycles, of one byte on a
    link of [r] gigabits per second (e.g. 0.768 cycles/byte at 25 Gbps). *)

val pp_duration : Format.formatter -> int64 -> unit
(** Human-readable duration ("1.50 ms", "2.30 s", ...). *)
