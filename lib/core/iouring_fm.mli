(** io_uring FastPath Module (paper §4.1).

    One FM per user thread (the paper runs the io_uring FM in the same
    thread as the IO requester, avoiding contention).  It owns a
    certified iSub producer and iCompl consumer plus a bounce buffer in
    untrusted memory: user data is staged through the bounce buffer so
    the kernel never sees (or names) enclave addresses — closing the
    liburing-style exfiltration channel of Appendix A.

    Completion validation (Table 2): a CQE whose [user_data] does not
    match the single in-flight request, or whose result is outside the
    expected range for the operation (e.g. more bytes than requested),
    is refused and surfaces to the caller as [EPERM].

    {1 Zero-copy datapath}

    With [config.zerocopy] the FM additionally owns a pool of frames in
    untrusted memory, registered with the kernel once at setup
    ([IORING_REGISTER_BUFFERS]) — docs/zerocopy.md is the full contract.
    Three mechanisms ride on it:

    - {b SEND_ZC}: {!send} stages into a pool frame and lends it to the
      kernel ([Umem.Registered]).  The op completes on the first CQE
      ([F_MORE]); the frame returns to the pool only when the second —
      the notif ([F_NOTIF]) — is validated.  A notif arriving before
      its completion, twice, or for a frame never lent is refused
      (counted under [zc_notif_early]/[zc_notif_stray]); a withheld
      notif costs pool capacity, never memory safety.
    - {b Multishot recv}: {!recv} arms one [Recv_multi] SQE per fd and
      promises pool frames through the shared provided-buffer ring
      ([With_kernel Rx], the XSK fill-ring discipline).  Data CQEs are
      validated by the pool's ownership map, staged in, and the frame
      is immediately re-provided; the stream ends on a CQE without
      [F_MORE] ([ENOBUFS] triggers re-arming).
    - {b Fixed-buffer file IO}: {!read}/{!write} stage through a pool
      frame named by its registration index, skipping the kernel-side
      bounce copy that classic SQEs pay.

    Every path degrades to the copy path when the pool runs dry
    ([zc_fallbacks]) — a hostile host can tax throughput, not
    correctness. *)

type init_error =
  | Bad_fd of int
  | Pointer_in_trusted of string
  | Overlapping of string
  | Bad_layout of string

type t

val create :
  ?obs:Obs.t ->
  ?name:string ->
  enclave:Sgx.Enclave.t ->
  config:Config.t ->
  fd:int ->
  uring:Hostos.Io_uring.t ->
  bounce:Mem.Ptr.t ->
  ?zc_arena:Mem.Ptr.t ->
  unit ->
  (t, init_error) result
(** [bounce] is the FM's staging buffer of [config.max_io_size] bytes in
    untrusted memory (allocated by the runtime, validated here).

    [zc_arena], when given, is the zero-copy pool arena of
    [config.zc_frames * config.zc_frame_size] bytes in untrusted memory
    whose frames the runtime has already registered with the kernel
    (entry [i] = frame [i]); it is validated (untrusted, in-bounds,
    disjoint from rings and bounce) and wrapped in a {!Umem.t} ownership
    map named ["<name>.zc"].  Omitted = copy path only.

    [obs] (with [name], default ["uring"] — the runtime passes
    ["uring0"], ["uring1"], ... per thread) registers SQE/CQE counters
    (["<name>.sqes_submitted"], ["<name>.cqes_reaped"],
    ["<name>.cqe_rejects"], ["<name>.cqe_strays"]), a
    submit-to-complete latency histogram
    (["<name>.sync_wait_cycles"]), and the certified-ring instruments
    for ["<name>.iSub"] / ["<name>.iCompl"].  Each synchronous
    operation additionally records a ["syncproxy"] span in the trace,
    from submit to validated completion. *)

val set_kick : t -> (unit -> unit) -> unit
(** Install the Monitor Module's wakeup hook, invoked after every
    SQE batch is published so the host side gets scanned promptly. *)

val set_breaker : t -> Health.t -> unit
(** Attach the io_uring circuit breaker.  The FM feeds it overload
    signals only — SQ-full streaks (3 consecutive full-looking
    publishes) as failures and admission sheds — leaving
    success/failure verdicts on synchronous ops to {!Syncproxy}, which
    knows whether an op was probe traffic. *)

val set_probe_mode : t -> bool -> unit
(** While on, synchronous ops get no retry budget (one attempt, then
    [ETIMEDOUT]): half-open probes must answer cheaply, not win. *)

val forget_fd : t -> fd:int -> unit
(** Drop the outstanding readiness probe for a closed [fd], retiring
    its in-flight record (previously leaked forever). *)

val read :
  t -> fd:int -> off:int -> buf:Bytes.t -> pos:int -> len:int ->
  (int, Abi.Errno.t) result
(** File read at absolute offset [off] into trusted [buf]; chunked
    through the bounce buffer when larger than it. *)

val write :
  t -> fd:int -> off:int -> buf:Bytes.t -> pos:int -> len:int ->
  (int, Abi.Errno.t) result
(** File write at absolute offset [off] from trusted [buf]; chunked
    like {!read}. *)

val send :
  t -> fd:int -> buf:Bytes.t -> pos:int -> len:int -> (int, Abi.Errno.t) result
(** TCP send via the bounce buffer; returns bytes accepted. *)

val recv :
  t -> fd:int -> buf:Bytes.t -> pos:int -> len:int -> (int, Abi.Errno.t) result
(** TCP receive via the bounce buffer; returns bytes read. *)

val poll : t -> fd:int -> events:int -> (int, Abi.Errno.t) result
(** Returns the ready-events mask. *)

val nop : t -> (int, Abi.Errno.t) result
(** Submit a no-op SQE and wait for its CQE (plumbing check). *)

(** {1 Introspection} *)

val sq_ring : t -> Rings.Certified.t
(** The certified iSub (submission) ring. *)

val cq_ring : t -> Rings.Certified.t
(** The certified iCompl (completion) ring. *)

val cqe_rejects : t -> int
(** CQEs refused for wrong user_data or out-of-range result. *)

val retries : t -> int
(** Transient-failure retries taken (["<name>.retries"]).  Every
    synchronous operation retries [config.retry_limit] times with
    {!Sim.Backoff} before reporting [ETIMEDOUT] (DESIGN.md §8). *)

val retry_successes : t -> int
(** Operations that succeeded only after at least one retry. *)

val retries_exhausted : t -> int
(** Operations that gave up after [config.retry_limit] retries. *)

val burst_counters : t -> (string * (int * int)) list
(** Per-ring [(name, (bursts, slots))] batch counters (see
    {!Xsk_fm.burst_counters}). *)

val invariant_holds : t -> bool
(** Both certified rings satisfy the paper's eq. 1 invariant. *)

val inflight : t -> int
(** Ops submitted but not yet settled, abandoned or forgotten.  Zero at
    quiescence (after every synchronous op has returned and every
    polled fd is closed); a leak here is what the ETIMEDOUT regression
    test pins. *)

val sheds : t -> int
(** Ops refused with [EAGAIN] by admission control
    (["<name>.sheds"]): the pending table already held
    [config.max_pending] ops. *)

val accounting_holds : t -> bool
(** In-flight accounting is internally consistent: the op-by-op [live]
    shadow counter matches the pending table, every unsettled readiness
    probe still has its pending record, and — zero-copy — the pool's
    frame conservation holds with exactly one notif-pending entry per
    [Registered] frame.  Rolled into {!Runtime.invariant_holds}. *)

(** {1 Zero-copy introspection}

    The zero-copy counters live only in the registry: ["<name>.zc_sends"]
    (frames lent to SEND_ZC), ["<name>.zc_fallbacks"] (ops degraded to
    the copy path: dry pool or bounced submission), ["<name>.zc_notifs"]
    (validated notifs) and the refused notifs ["<name>.zc_notif_early"]
    and ["<name>.zc_notif_stray"], which also count under
    {!cqe_rejects}. *)

val zc_pool : t -> Umem.t option
(** The zero-copy frame pool's ownership map ([None] on the copy
    path). *)

val zc_leaks : t -> int
(** Completed sends whose notif never arrived.  At quiescence each is a
    frame the host holds hostage by withholding its notif — the
    dropped-notif availability attack's footprint, and a campaign
    failure condition. *)

val pp_init_error : Format.formatter -> init_error -> unit
(** Human-readable rendering of a {!init_error}. *)

val poll_multi :
  t ->
  (int * int) list ->
  timeout:Sim.Engine.time option ->
  ((int * int) option, Abi.Errno.t) result
(** [poll_multi t [(fd, events); ...] ~timeout] maintains one
    outstanding [Poll_add] per fd (reused across calls, like a
    level-triggered readiness cache) and blocks until one completes or
    the timeout passes.  Returns [Some (fd, revents)] or [None] on
    timeout. *)
