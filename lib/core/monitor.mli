(** Monitor Module (paper §4.3).

    One dedicated thread running entirely {e outside} the enclave.  It
    observes the shared producer indices of every ring where RAKIS is
    the producer — xFill and xTX of each XSK, iSub of each io_uring —
    and, when one advances, issues the matching non-blocking wakeup
    syscall ([recvfrom], [sendto], [io_uring_enter]) on the enclave's
    behalf.  Because the MM is outside the enclave, its syscalls cost
    only {!Sgx.Params.syscall_cycles}; no enclave exits are incurred.

    The MM is untrusted: it reads only untrusted memory and can affect
    availability but never integrity (paper §5 excludes it from the
    security analysis on those grounds).

    FMs call {!kick} after publishing; this stands in for the MM's
    busy-poll noticing the change within one {!Sgx.Params.mm_poll_period}
    (simulating every poll iteration individually would swamp the event
    queue without changing any figure). *)

type t

val create :
  ?obs:Obs.t ->
  ?name:string ->
  ?shard:int ->
  Sim.Engine.t ->
  kernel:Hostos.Kernel.t ->
  t
(** [obs] registers the MM's counters in the shared registry —
    ["mm.wakeups"] (with [".rx"] / [".tx"] / [".uring"] breakdowns),
    ["mm.scans"] and ["mm.forced_enters"] — and records an ["mm"]
    trace instant per wakeup syscall issued.  [name] (default ["mm"])
    prefixes the counters, so per-shard Monitors (["mm.0"], ["mm.1"],
    …) get distinct metric cells instead of silently sharing the
    find-or-create defaults.  [shard] is the datapath shard this MM
    serves: its crash/hang fault rolls carry that context, so a
    shard-pinned [Monitor_crash] kills only shard [k]'s MM. *)

val watch_xsk : t -> Hostos.Xdp.xsk -> unit

val watch_uring : t -> Hostos.Io_uring.t -> unit

val kick : t -> unit
(** Signal the MM that some watched producer index may have advanced. *)

val nudge_uring : t -> Hostos.Io_uring.t -> unit
(** Ask the MM to issue an [io_uring_enter] for this uring on its next
    scan even if iSub has not advanced.  The io_uring FM uses this to
    recover liveness when a hostile iCompl producer value freezes its
    certified view: only kernel re-entry rewrites the shared word.
    Call {!kick} afterwards to schedule the scan. *)

val nudge_xsk : t -> Hostos.Xdp.xsk -> unit
(** The XSK analogue: issue a [sendto] TX wakeup for this XSK on the
    next scan even if xTX has not advanced.  The XSK FM's rekick timer
    uses this when TX frames stay outstanding with no completions — the
    recovery for a dropped or withheld xTX wakeup (DESIGN.md §8). *)

val start : t -> unit
(** Spawn the MM thread: a new generation, superseding any prior
    incarnation (the watchdog's restart). *)

(** {1 Liveness and the watchdog (DESIGN.md §8)}

    The MM thread is untrusted and may crash or hang ({!Hostos.Faults}).
    While a fault injector is installed it maintains a heartbeat every
    {!Sgx.Params.mm_heartbeat_period} cycles; {!Runtime}'s in-enclave
    watchdog samples {!alive} and {!last_beat} and calls {!start} again when
    the beat goes stale.  Generations fence superseded incarnations out:
    a hung thread that wakes after a restart exits without touching
    anything. *)

val force_scan : t -> unit
(** Run one watched-ring scan in the {e caller's} context — the
    watchdog's degraded polling while the MM is being replaced.  From
    inside the enclave the wakeup syscalls it issues cost enclave
    exits, which is exactly why this is a stopgap, not the design. *)

val alive : t -> bool
(** False once the current MM incarnation has crashed. *)

val last_beat : t -> int
(** Simulation time of the current incarnation's most recent beat, as
    {!Sim.Engine.clock} reads it. *)

val generation : t -> int
(** Number of times the MM has been started (boot plus every watchdog restart). *)

val wakeup_syscalls : t -> int
(** Wakeup syscalls issued so far (all kinds). *)

val rx_wakeup_syscalls : t -> int
(** [recvfrom]-style wakeups issued for xFill advances. *)

val tx_wakeup_syscalls : t -> int
(** [sendto]-style wakeups issued for xTX advances. *)

val uring_wakeup_syscalls : t -> int
(** [io_uring_enter] wakeups issued for iSub advances. *)

