(** Named counters and gauges for a simulation run.

    The engine owns one registry; subsystems record enclave exits,
    syscalls, packets, drops, validation failures, etc. under
    dot-separated keys (e.g. ["sgx.exits"], ["xsk.rx_packets"]).  Counters
    are plain ints; gauges are floats. *)

type t

val create : unit -> t

val reset : t -> unit

val incr : t -> string -> unit
(** Add 1 to counter [key] (creating it at 0). *)

val add : t -> string -> int -> unit

val get : t -> string -> int
(** Value of counter [key], 0 if absent. *)

type counter
(** A handle on one counter, for hot paths that bump the same key per
    event: no key string is built or hashed per bump.  The key is
    registered on the first {!bump}, so a handle that never fires adds
    nothing to {!counters}. *)

val counter : t -> string -> counter

val bump : counter -> unit
(** [incr] through the handle. *)

val count : counter -> int
(** Current value, 0 if never bumped. *)

val set_gauge : t -> string -> float -> unit

val add_gauge : t -> string -> float -> unit

val gauge : t -> string -> float
(** Value of gauge [key], 0. if absent. *)

val counters : t -> (string * int) list
(** All counters, sorted by key. *)

val gauges : t -> (string * float) list

val pp : Format.formatter -> t -> unit
