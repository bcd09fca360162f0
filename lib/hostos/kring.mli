(** Kernel-side ring endpoint with a private index.

    Real kernels keep their ring cursors in kernel-internal memory and
    only {e write} the shared index word on publish; they never read
    their own index back from shared memory.  This module gives the
    simulated kernel the same structure, so a {!Malice} smash of a
    kernel-owned shared index confuses the {e enclave's} view (which
    the certified rings must catch) without corrupting the kernel's own
    bookkeeping — and the next honest publish repairs the shared word,
    making index attacks transient unless re-applied. *)

type t

val consumer : Rings.Layout.t -> t
(** Kernel consumes this ring (xFill, xTX, iSub): private head starts
    at the current shared consumer index. *)

val producer : Rings.Layout.t -> t
(** Kernel produces this ring (xRX, xCompl, iCompl): private tail
    starts at the current shared producer index. *)

val free : t -> int
(** Slots a producer endpoint may fill, clamped likewise. *)

val consume_slot : t -> int
(** Byte offset of the slot at the private head of a consumer
    endpoint, or -1 when nothing is available.  Read the slot, then
    {!advance}. *)

val produce_slot : t -> int
(** Byte offset of the slot at the private tail of a producer endpoint,
    or -1 when the ring is full.  Write the slot, then {!advance}. *)

val advance : t -> unit
(** Move the private cursor one slot on and republish the endpoint's
    shared word honestly. *)

val publish_consumer : t -> unit
(** Rewrite the shared consumer word from the private cursor (honest
    refresh — repairs any smash). *)

val publish_producer : t -> unit
