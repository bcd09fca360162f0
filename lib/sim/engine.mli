(** Discrete-event simulation engine.

    Time is a simulated CPU-cycle counter ([int64]); nothing here touches
    the wall clock, so every run is deterministic.  Concurrency is
    expressed with lightweight processes implemented on OCaml 5 effect
    handlers: a process is a plain [unit -> unit] function that may call
    {!delay}, {!yield} or {!park} (directly or through {!Condition} /
    {!Mailbox}), which suspend it and hand control back to the scheduler.

    The engine is strictly single-threaded: processes interleave only at
    suspension points, so shared state needs no locking (simulated locks
    exist purely to model contention costs). *)

type time = int64
(** Simulated time in CPU cycles since the start of the run. *)

type t
(** A simulation engine instance: clock, event queue and counter registry. *)

exception Not_in_process
(** Raised when {!self} or {!park} is called outside a process spawned
    on an engine. *)

val create : unit -> t

val now : t -> time
(** Current simulated time.  Boxed on the first call after the clock
    moves, so events that never read it pay nothing. *)

val stats : t -> Obs.Metrics.t
(** The machine's counter registry: what the simulated hardware and host
    count whichever environment runs on it (enclave exits, boundary
    bytes, NIC and host-UDP counters).  A RAKIS runtime keeps its own
    registry per boot ({!Obs.metrics}); native and Gramine runs boot no
    runtime, so the machine's counters live here. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] schedules process [f] to start at the current simulated
    time.  [name] labels error reports.  An exception escaping [f] aborts
    the whole run and is re-raised from {!run}. *)

val at : t -> time -> (unit -> unit) -> unit
(** [at t time f] runs callback [f] (not a process: it must not suspend)
    at absolute time [time].  Times in the past run "now".  Events run
    in (time, order scheduled) order: same-time events are FIFO. *)

val delay : time -> unit
(** [delay d] suspends the calling process for [d] cycles, saturating
    at the end of time like {!at}: a [d] that would overflow the clock
    parks the process behind every finite event.  Outside any
    process (setup code running before {!run}) it is a no-op: simulated
    time cannot advance there and setup costs precede every measurement
    window. *)

val yield : unit -> unit
(** Suspend and resume at the same simulated time, after other events
    already scheduled for that time. *)

type process
(** A simulated process, as seen by whatever will wake it. *)

val self : unit -> process
(** The calling process.  Raises {!Not_in_process} outside one. *)

val suspension : process -> int
(** The number of [p]'s next (or current) suspension.  A waiting
    primitive records the pair [(p, suspension p)] wherever the wake-up
    will come from, then calls {!park}; the pair is the whole waker, so
    waiting allocates nothing beyond the continuation. *)

val park : unit -> unit
(** Suspend the calling process until {!wake} names its suspension.
    Raises {!Not_in_process} outside a process. *)

val wake : process -> int -> unit
(** [wake p n] reschedules [p] at the current simulated time if [n] is
    the suspension it is parked in.  At most one wake of a suspension
    takes effect, and a stale [n] (a suspension already woken, e.g. by
    another condition of a {!Condition.wait_any}) is ignored. *)

val stop : t -> unit
(** Request the run loop to return after the current event.  Used by
    workloads to end a run while server processes are still live. *)

val run : ?until:time -> t -> unit
(** Execute events in time order until the queue is empty, [stop] was
    called, or the clock would pass [until].  May be called again to
    resume after a [stop] or [until] cut-off. *)

val pending : t -> int
(** Number of queued events (diagnostic). *)

val in_process : unit -> bool
(** Whether the caller is executing inside a simulated process (i.e.
    suspension is possible). *)
