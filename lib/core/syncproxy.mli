(** SyncProxy (paper §4.2): a per-thread passthrough stub that serves
    synchronous IO syscalls by forwarding them to the thread's io_uring
    FM and blocking until completion.  RAKIS uses it for exactly five
    syscalls: TCP [send]/[recv], [read], [write] and [poll] (through
    {!poll_multi}).

    Since DESIGN.md §9 the proxy is also the io_uring failover point:
    every op is routed through the {!Health} breaker — [Fast] ops take
    the FM (and a terminal [ETIMEDOUT] fails over to the {!Slowpath}
    instead of surfacing; that completion is at-least-once, since an
    attempt abandoned on the FM's sync-op deadline may still execute
    later), [Probe] ops test the FM with the retry budget disabled,
    and [Slow] ops go straight to the exit-based {!Slowpath}. *)

type t
(** A SyncProxy bound to one thread's io_uring FM.  A fast call is one
    {!Iouring_fm.io}: it submits one SQE per chunk and attempt, and
    spins (inside the enclave, no exit) until each CQE lands.  Every
    attempt emits one ["syncproxy"] trace span and one
    [<name>.sync_wait_cycles] histogram observation on the FM's Obs
    registry. *)

val create :
  slow:Slowpath.t ->
  breaker:Health.t ->
  overload:Overload.t option ->
  Iouring_fm.t ->
  t
(** Wrap an io_uring FM behind the shared io_uring [breaker] (the same
    one the FM was created with); [slow] is where failover goes.

    [overload] is the runtime-wide io_uring overload controller
    (DESIGN.md §15), when the runtime runs one.  Ops then pass
    {!Overload.admit} before running — refusals surface as accounted
    [EAGAIN] — while breaker probes are control traffic
    ({!Overload.admit_control}) and are never shed.  Admitted fast ops
    feed their wall time and the FM's in-flight count back as the
    controller's sojourn/depth samples. *)

val fm : t -> Iouring_fm.t
(** The underlying io_uring FastPath Module. *)

val io :
  t -> Iouring_fm.op -> fd:int -> off:int -> buf:Bytes.t -> pos:int ->
  len:int -> (int, Abi.Errno.t) result
(** One proxied op, as {!Iouring_fm.io} describes it: a positional file
    [Read]/[Write] at [off], or a [Send]/[Recv] on a connected TCP
    socket.  Returns the bytes moved ([Read]: 0 at EOF).  A [Recv]
    declines probe slots: an abandoned probe [Recv] SQE executed late
    by the kernel would consume stream bytes nobody is waiting for. *)

val poll_multi :
  t ->
  (int * int) list ->
  deadline:int ->
  ((int * int) option, Abi.Errno.t) result
(** See {!Iouring_fm.poll_multi}.  Not breaker-routed: callers own the
    deadline and mix providers (see [Libos.Rakis_env.poll]). *)

val forget_fd : t -> fd:int -> unit
(** {!Iouring_fm.forget_fd} on the underlying FM (called on fd close). *)
