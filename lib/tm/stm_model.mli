(** Pure reference models of the FM state machines (DESIGN.md §11).

    Immutable-state mirrors of the circuit breaker ({!Rakis.Health}),
    the certified ring index discipline ({!Rings.Certified}) and the
    UMem ownership partition ({!Rakis.Umem}).  The QCheck state-machine
    tests and the {!Explore} product-machine explorer execute every
    command against both the model and the real module and fail on any
    observable divergence — the executable-OCaml stand-in for BesFS's
    mechanized interface proofs. *)

(** Mirror of {!Rakis.Health}: the three-state breaker with failure
    streaks, probe hysteresis and a single in-flight probe slot. *)
module Breaker : sig
  type t = {
    threshold : int;
    probes_needed : int;
    cooldown : int64;
    state : Rakis.Health.state;
    failures : int;
    successes : int;
    probe_inflight : bool;
    opened_at : int64;
    opens : int;  (** transitions into [Open] so far *)
    closes : int;  (** transitions into [Closed] so far *)
  }

  val create : threshold:int -> probes_needed:int -> cooldown:int64 -> t

  val allow : t -> now:int64 -> t * Rakis.Health.decision

  val record_failure : t -> now:int64 -> t

  val record_success : t -> t

  val cancel_probe : t -> t

  val legal_edge : Rakis.Health.state -> Rakis.Health.state -> bool
  (** Breaker monotonicity: the only legal transitions are
      [Closed→Open], [Half_open→Open], [Open→Half_open] and
      [Half_open→Closed] (plus staying put). *)

  val agrees : t -> now:int64 -> Rakis.Health.observation -> bool
  (** Does the real breaker's pure observation match this model? *)
end

(** Mirror of {!Rings.Certified}: trusted index copies, the Table 2
    window checks and the monotonicity (no-regress) check, over the
    shared index words the host may smash at any time. *)
module Ring : sig
  type t = {
    size : int;
    tprod : int;
    tcons : int;
    shared_prod : int;
    shared_cons : int;
    failures : int;
  }

  val create : size:int -> t

  val host_write_prod : t -> int -> t
  (** The host (honest or hostile) stores to the shared producer word. *)

  val host_write_cons : t -> int -> t

  val available : t -> t * int

  val consume : t -> t * int option
  (** [Some slot_index] (the pre-increment trusted consumer) on
      success, [None] when the validated window is empty. *)

  val skip : t -> t

  val consume_batch : t -> max:int -> t * int
  (** Mirror of {!Rings.Certified.consume_batch}: one refresh, then up
      to [max] slots released with a single consumer-word store.
      Returns the slots moved. *)

  val produce_batch : t -> count:int -> t * int
  (** Mirror of {!Rings.Certified.produce_batch}: one refresh, then up
      to [count] slots published with a single producer-word store. *)

  val invariant_holds : t -> bool
  (** Paper eq. 1: [0 <= Pt - Ct <= St]. *)

  val agrees : t -> Rings.Certified.t -> bool
  (** Trusted copies and reject count match the real ring. *)

  val shared_agrees : t -> Rings.Layout.t -> bool
  (** Both shared index words hold what the model says was last stored
      to them — by the enclave for its owned word, by the host for the
      peer word. *)
end

(** Mirror of {!Rakis.Umem}: the free / out-Rx / out-Tx / limbo /
    registered frame partition, FIFO allocation order and descriptor
    validation. *)
module Umem : sig
  type frame = Free | Limbo | Out_rx | Out_tx | Registered

  type t = {
    frame_size : int;
    frames : frame array;
    queue : int list;
    rejects : int;
  }

  val create : frames:int -> frame_size:int -> t

  val alloc : t -> t * int option

  val commit : t -> int -> Rakis.Umem.routine -> t

  val cancel : t -> int -> t

  val reclaim : t -> Rakis.Umem.routine -> offset:int -> len:int -> t * bool
  (** [(model', accepted)] with the same validation order as the real
      {!Rakis.Umem.reclaim}. *)

  val register : t -> int -> t
  (** [Limbo -> Registered]: the frame is lent to the kernel on a
      zero-copy send, awaiting its notif. *)

  val release : t -> offset:int -> t * bool
  (** [(model', accepted)]: mirror of {!Rakis.Umem.release} — the only
      exit from [Registered], validated like {!reclaim} because the
      prompting notif CQE is host-controlled. *)

  val limbo : t -> int

  val registered : t -> int

  val conservation_holds : t -> bool

  val agrees : t -> Rakis.Umem.t -> bool
  (** Partition counts and reject count match the real UMem. *)
end
