(** libxdp/liburing-style ring accessors — deliberately NOT hardened.

    This module reproduces the two §5 case studies: it mirrors the logic
    of [xsk_prod_nb_free] (libxdp) and [io_uring_get_sqe] (liburing),
    which read the peer index straight from shared memory and use it
    without checking it against the ring size.  Running it against the
    adversarial host kernel demonstrates the vulnerabilities RAKIS's
    {!Certified} rings close:

    - a hostile consumer index makes [prod_nb_free] report more free
      slots than the ring has, so a batch producer overwrites in-flight
      descriptors (the libxdp buffer-overflow anomaly);
    - a hostile producer index makes [available]/[consume] hand back
      never-produced or replayed descriptors (the liburing data-
      exfiltration primitive of Appendix A).

    It exists only for the Testing Module and the security benchmarks;
    nothing in RAKIS proper links against it. *)

type t

val create : Layout.t -> t
(** Attach to a shared ring; caches both indices like libxdp does. *)

val prod_nb_free : t -> wanted:int -> int
(** Faithful port of libxdp's [xsk_prod_nb_free]: returns the cached
    free count if it satisfies [wanted], otherwise refreshes the cached
    consumer from shared memory and recomputes — with no bound check,
    so the result can exceed [size] under a hostile peer. *)

val produce_batch : t -> count:int -> write:(slot_off:int -> int -> unit) -> int
(** Produce up to [count] entries, limited only by {!prod_nb_free}; the
    callback receives the slot offset and the batch position.  Returns
    how many were written. *)

val available : t -> int
(** Trusts the shared producer index blindly. *)

val consume : t -> read:(slot_off:int -> 'a) -> 'a option
(** Consume one entry if {!available} says any exist — no validation of
    what the peer actually produced. *)

val cached_prod : t -> int
(** Last producer index read from shared memory (unvalidated). *)

val cached_cons : t -> int
(** Last consumer index read from shared memory (unvalidated). *)
