(** Deterministic pseudo-random numbers (SplitMix64).

    The simulator never uses the global [Random] state: every consumer
    owns an [Rng.t] seeded explicitly, so runs are reproducible and
    independent streams do not perturb each other. *)

type t

val create : seed:int64 -> t

val next_int64 : t -> int64
(** Uniform over all 2{^64} bit patterns. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val byte : t -> char

val fill_bytes : t -> Bytes.t -> unit

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
