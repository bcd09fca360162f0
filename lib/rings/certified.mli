(** RAKIS-certified ring accessors (paper §4.1 and Table 2).

    The enclave's role in a given ring is fixed at setup: it is the
    {e producer} of xFill, xTX and iSub, and the {e consumer} of xRX,
    xCompl and iCompl.  For each ring the enclave keeps {e trusted}
    copies of the ring size and of both indices in enclave memory.  The
    index the enclave owns is write-only in shared memory; the index the
    peer owns is read from shared memory and must pass a window check
    before the trusted copy is updated:

    - enclave is consumer: accept untrusted producer [Pu] iff
      [0 <= Pu - Ct <= St] (Table 2, row "Producer value ...");
    - enclave is producer: accept untrusted consumer [Cu] iff
      [0 <= Pt - Cu <= St] (Table 2, row "Consumer value ...").

    On failure the trusted copy is left unchanged (the Table 2 fail
    action) and the failure is reported via [on_failure].  All index
    arithmetic is modulo 2{^32} ({!U32}), which subsumes the paper's
    supplementary wrap-around checks.  Additionally the trusted copy
    never regresses: an accepted peer index that would shrink the
    already-validated window is rejected too (a monotonicity check the
    RAKIS implementation enforces via its trusted versions).

    The invariant verified by the Testing Module (paper eq. 1):
    [0 <= Pt - Ct <= St] after every operation. *)

type role = Producer | Consumer

type failure =
  | Out_of_window of { observed : int; trusted_prod : int; trusted_cons : int }
      (** The peer index fails the Table 2 window check. *)
  | Regressed of { observed : int; previous : int }
      (** The peer index passed the window check but moved backwards
          relative to the validated trusted copy. *)

type t

val create :
  Layout.t ->
  role:role ->
  ?on_failure:(failure -> unit) ->
  ?init:int ->
  ?obs:Obs.t ->
  ?name:string ->
  unit ->
  t
(** The ring size is copied to trusted memory here and never re-read.
    [init] (default 0) seeds both trusted indices, for attaching to a
    ring whose indices already stand at a known position — tests use it
    to start near the u32 wrap point; it must match the ring's actual
    shared indices or the first refresh will reject them.

    [obs] wires the ring's failure/burst counters into a shared
    {!Obs.Metrics} registry under [name] (e.g. ["xsk0.xFill.failures"])
    and records one trace event per non-empty batch
    ([<name>.produce] / [<name>.consume], [arg] = slots moved).  When
    absent the same counters live in a private registry, so the
    accessors below work regardless. *)

val role : t -> role

val size : t -> int

(** {1 Producer-role operations} *)

val free_slots : t -> int
(** Refresh the trusted consumer copy (with checks) and return the number
    of slots that can be produced.  Always in [\[0, size\]]. *)

val produce : t -> write:(slot_off:int -> unit) -> (unit, [ `Ring_full ]) result
(** Write one descriptor at the trusted producer slot and advance the
    trusted producer.  Not visible to the peer until {!publish}. *)

val publish : t -> unit
(** Store the trusted producer index to shared memory (release). *)

(** {1 Consumer-role operations} *)

val available : t -> int
(** Refresh the trusted producer copy (with checks) and return the number
    of entries ready to consume.  Always in [\[0, size\]]. *)

val consume : t -> read:(slot_off:int -> 'a) -> ('a, [ `Ring_empty ]) result
(** Read the descriptor at the trusted consumer slot, advance the trusted
    consumer and release it to shared memory. *)

val skip : t -> unit
(** Advance the trusted consumer without processing the entry — the
    Table 2 fail action "Refuse and advance consumer" for bad UMem
    offsets.  No-op when nothing is available. *)

(** {1 Batch operations}

    The per-descriptor accessors above pay one untrusted-index read (and
    its Table 2 window check) plus one trusted-index store per slot.
    The batch variants amortize both over a burst: the peer index is
    refreshed and validated {e once} before the burst, every slot is
    processed against that trusted snapshot, and the enclave-owned index
    is stored to shared memory {e once} after it.  The checks are on
    index {e values}, not on per-slot access timing, so the §4.1
    guarantees are unchanged: a hostile index move mid-burst cannot
    influence the burst in progress and is caught by the next refresh. *)

val produce_batch :
  t -> count:int -> write:(slot_off:int -> int -> unit) -> int
(** Refresh the trusted consumer once, write up to [count] descriptors
    ([write] also receives the intra-burst position, [0..n-1]), advance
    the trusted producer by the number written and publish it in a
    single store.  Returns the number written ([0] when the ring is
    full; never exceeds the validated free window). *)

val consume_batch : t -> max:int -> read:(slot_off:int -> int -> unit) -> int
(** Refresh the trusted producer once, read up to [max] descriptors and
    release them with a single consumer-index store.  Per-descriptor
    refusal keeps the Table 2 "refuse and advance consumer" semantics:
    the callback refuses internally (counting the reject) and the burst
    still advances past the slot. *)

(** {1 Introspection (tests and the Testing Module)} *)

val trusted_prod : t -> int

val trusted_cons : t -> int

val failures : t -> int
(** Count of rejected peer-index reads. *)

val bursts : t -> int
(** Number of non-empty batch operations executed on this ring. *)

val burst_slots : t -> int
(** Total slots moved by those batches; [burst_slots / bursts] is the
    average burst length. *)

val invariant_holds : t -> bool
(** [0 <= Pt - Ct <= St] (paper eq. 1). *)

val resync : t -> (unit, [ `Bad_window of int * int ]) result
(** Re-adopt both shared index words as the trusted baseline — the
    quarantine-and-reinit step of XSK recovery (DESIGN.md §8), called
    after the kernel has republished its indices so the shared words
    reflect kernel truth again.  Accepted only if they describe a legal
    window ([0 <= P - C <= St]); on [`Bad_window (prod, cons)] the
    trusted copies are unchanged and the caller retries later. *)

val rebase : t -> unit
(** Adopt the {e peer}-owned index for both cursors — declaring the ring
    empty at the peer's position — and republish the owned word to
    match.  The escape hatch for the divergence {!resync} cannot heal: a
    smashed owned word that transiently looked legal lets the peer's
    private cursor run past the honest one, after which every window is
    negative and resync returns [`Bad_window] forever.  Call only after
    the kernel has republished its indices (so the adopted word is
    honest) and after reclaiming every frame this ring's slots named —
    none of them will ever come back through the ring.  Availability
    cost only; never creates a double-owned frame. *)

val republish : t -> unit
(** Rewrite the shared copy of the {e owned} index (producer word for a
    [Producer] ring, consumer word for a [Consumer] ring) from the
    trusted copy, without moving it.  Certification only ever inspects
    the peer-owned word, so a Malice smash of an owned word is invisible
    to the owner — the kernel simply clamps the garbage to zero and
    stops consuming — and on an otherwise-idle ring no produce/consume
    ever comes along to rewrite it.  An explicit republish is the honest
    repair (DESIGN.md §8); idempotent and always safe. *)

val region : t -> Mem.Region.t
(** The shared region holding this ring (where slot offsets resolve). *)
