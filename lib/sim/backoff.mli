(** Deterministic exponential backoff with jitter.

    The retry clock for every enclave-side recovery path (DESIGN.md §8):
    delay grows as [base * 2^n] up to [cap], with uniform jitter of at
    most one doubling so distinct FMs retrying the same host failure
    decorrelate without ever reordering — the delay sequence is
    monotone nondecreasing until it saturates at [cap].

    Jitter comes from an own {!Sim.Rng} seeded at creation, so a given
    FM's retry timing is a pure function of its seed — campaign repro
    tokens replay fault runs bit-for-bit. *)

type t

val create : ?seed:int64 -> base:int64 -> cap:int64 -> unit -> t
(** [base] and [cap] in cycles (e.g. [Sgx.Params.backoff_base] /
    [backoff_cap]).  Raises [Invalid_argument] unless
    [0 < base <= cap]. *)

val next : t -> int64
(** The delay for the next retry; advances the attempt counter. *)

val reset : t -> unit
(** Back to attempt 0 — call after a success or on giving up. *)

val attempt : t -> int
(** Retries taken since the last {!reset}. *)
