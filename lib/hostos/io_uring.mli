(** Kernel-side io_uring implementation.

    One submission ring (iSub) and one completion ring (iCompl) in
    shared untrusted memory (paper §2.4), drained by a dedicated kernel
    worker process — the analogue of the io_uring kernel routine
    scheduled by [io_uring_enter] (paper §4.3 notes the syscall is
    non-blocking and the work happens in kernel context).

    Opcode semantics are delegated to an [exec] closure supplied by
    {!Kernel}, which owns the fd table; the worker hands it the SQE's
    fields as read in place, never a decoded record; this module owns the ring
    protocol, the per-op cost, the registered-buffer/file tables, the
    two-phase zero-copy completion machinery and the malice hooks on
    CQEs (including the three notif attacks of docs/zerocopy.md). *)

type exec_result =
  | Done of int  (** completed inline by the worker *)
  | Blocking of (unit -> int)
      (** may wait: run in a dedicated kernel context so the ring worker
          keeps draining (io_uring's async poll/recv machinery) *)
  | Done_zc of { res : int; notif_delay : int64 }
      (** zero-copy send already queued on the NIC: the worker posts the
          completion CQE ([cqe_f_more]) now and the notif CQE
          ([cqe_f_notif]) after [notif_delay] — unless malice reorders,
          duplicates or withholds it.  The submitter's buffer stays
          kernel-owned until the notif. *)
  | Multishot of (unit -> int * int)
      (** multishot op: the closure blocks for the next event and
          returns [(res, buf_id)].  Each [res > 0] posts a
          [cqe_f_more]-flagged CQE naming the provided buffer; the first
          [res <= 0] posts the terminating CQE (no [cqe_f_more]) and
          ends the stream. *)

type t

val create :
  Sim.Engine.t ->
  alloc:Mem.Alloc.t ->
  entries:int ->
  exec:
    (opcode:Abi.Uring_abi.opcode ->
    fd:int ->
    file_off:int ->
    addr:int ->
    len:int ->
    poll_events:int ->
    fixed:bool ->
    exec_result) ->
  malice:Malice.t option ref ->
  faults:Faults.t option ref ->
  t
(** Allocates iSub ([entries] SQE slots) and iCompl ([2*entries] CQE
    slots, like the real default) from the shared allocator. *)

val uring_id : t -> int

val set_shard : t -> int -> unit
(** Tag this ring with the datapath shard of its owning thread, giving
    fault/malice rolls on the io_uring path their shard context. *)

val shard : t -> int option

val sq_layout : t -> Rings.Layout.t

val cq_layout : t -> Rings.Layout.t

val enter : t -> unit
(** The [io_uring_enter] wakeup: non-blocking nudge of the worker. *)

(** {1 Registration (IORING_REGISTER_BUFFERS)}

    Registration is the trust-boundary moment of the zero-copy design:
    the buffer set is validated {e once} (in-region, non-empty, pairwise
    disjoint — {!Mem.Regtable}), then every fixed SQE merely names a
    table index and is bounds-checked against it ([EFAULT] on a miss).
    After registration the kernel may DMA from/into any registered frame
    it has been handed via a fixed SQE, until it yields it back — at
    completion for fixed read/write, at {e notif} for [Send_zc]. *)

val register_buffers : t -> (int * int) list -> (unit, Mem.Regtable.error) result
(** Pin [(region_offset, len)] buffer ranges; index is positional.
    Replaces any previous table. *)

val reg_bufs : t -> Mem.Regtable.t option

val provide_buffer : t -> int -> unit
(** Hand registered buffer [id] to the kernel for multishot recv to
    fill.  Models a write to the shared provided-buffer ring: no
    syscall, callable from enclave context. *)

val take_buffer : t -> int option
(** Kernel side: claim the next provided buffer ([None] = ring empty,
    the multishot stream must terminate with [ENOBUFS]). *)

val cq_notify : t -> Sim.Condition.t
(** Broadcast on every CQE post; simulation stand-in for the SyncProxy's
    shared-memory completion polling (see {!Xdp.rx_notify}). *)
