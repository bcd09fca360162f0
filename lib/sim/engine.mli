(** Discrete-event simulation engine.

    Time is a simulated CPU-cycle counter ([int64]); nothing here touches
    the wall clock, so every run is deterministic.  Concurrency is
    expressed with lightweight processes implemented on OCaml 5 effect
    handlers: a process is a plain [unit -> unit] function that may call
    {!delay}, {!yield} or {!park} (directly or through {!Condition} /
    {!Mailbox}), which suspend it and hand control back to the scheduler.
    A loop that never needs a stack can instead be an {e actor}
    ({!actor}): a process whose work is a chain of stages, woken and
    charged at the same (time, order) a fiber would be, with no stack
    to switch to.

    The engine is strictly single-threaded: processes interleave only at
    suspension points, so shared state needs no locking (simulated locks
    exist purely to model contention costs).

    Events wait in two queues.  A 4-ary heap in one flat [int] array
    holds everything due later; a FIFO ready ring holds events due at
    the current time whose scheduling order is above the ring tail's —
    every {!wake}, {!spawn} and {!yield}, which then cost a ring store
    instead of a heap sift.
    The run loop takes whichever of the ring head and the heap minimum
    comes first on (time, order scheduled), so events run in exactly
    the order one queue would run them.  Scheduling an event stores
    ints only: processes are named by number, and callbacks sit in a
    table whose slot is emptied when the callback runs. *)

type time = int64
(** Simulated time in CPU cycles since the start of the run. *)

type t
(** A simulation engine instance: clock, event queue and counter registry. *)

exception Not_in_process
(** Raised when {!self} or {!park} is called outside a process spawned
    on an engine. *)

exception Suspend_in_actor
(** Raised when an actor calls {!delay}, {!delay_cycles}, {!yield},
    {!park}, {!timed_park} or arms a timeout: an actor has no stack to
    suspend.  It waits with {!Condition.listen} and charges with
    {!charge} instead. *)

val create : unit -> t

val now : t -> time
(** Current simulated time.  Boxed on the first call after the clock
    moves, so events that never read it pay nothing. *)

val clock : t -> int
(** {!now} as a native int.  Simulated cycles stay far below 2{^62},
    and reading the clock this way never allocates. *)

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

val at_clock : t -> int -> (unit -> unit) -> unit
(** {!at} with a native time, as {!clock} reads it: the same event, at
    the same (time, order scheduled), with nothing boxed. *)

val delay_cycles : int -> unit
(** [delay_cycles d] suspends the calling process for [d] cycles, a
    native int as {!clock} reads it, saturating at the end of time like
    {!at}: a [d] that would overflow the clock parks the process behind
    every finite event.  A [d] of 0 or less is a {!yield}.  Outside any
    process (setup code running before {!run}) it is a no-op: simulated
    time cannot advance there and setup costs precede every measurement
    window.

    A delay whose resumption would be the next event run skips the
    queue: when its wake time is strictly earlier than every queued
    event, no later than the running {!run}'s [until], and {!stop} has
    not been called, the clock moves to the wake time and the process
    carries on without suspending.  It still takes the [seq] its event
    would have had, so every event runs exactly when it would have.
    The ready ring must be empty too: an event in it is due now, and so
    comes before any resumption the delay could take. *)

val delay : time -> unit
(** {!delay_cycles} with an [int64] count: the same event, and nothing
    boxed beyond the argument. *)

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

(** {2 Timed waits}

    Each process owns one reusable timeout.  A timed wait arms it once
    per call, parks with {!timed_park} as often as it likes, and
    disarms it on the way out.  Arming allocates nothing and takes a
    [seq] like {!at}, but queues an event only when the process has
    none queued or the new deadline is earlier than the queued one; a
    queued event that finds a later timeout armed re-queues itself at
    that timeout's (time, [seq]).  A process therefore keeps one
    timeout event queued however many waits it abandons early. *)

val arm_timeout : time -> unit
(** [arm_timeout d] arms the calling process's timeout to fire [d]
    cycles from now (saturating like {!delay}), superseding any armed
    one and clearing {!timed_out}.  A firing that is no longer the armed
    one — superseded, or after {!disarm_timeout} — is a no-op.  Raises
    {!Not_in_process} outside a process. *)

val arm_timeout_at : int -> unit
(** {!arm_timeout} to fire at a native clock time, as {!clock} reads
    it ("now" if it has passed), with nothing boxed. *)

val disarm_timeout : unit -> unit
(** Make the armed timeout's firing a no-op.  Its event is not removed:
    when the queued timeout event next runs with nothing armed, it
    re-queues once as a no-op at the latest deadline the process ever
    armed, so {!run}'s [until] cut-off and the final {!now} are the same
    as if every armed deadline had stayed queued until it passed. *)

val timed_out : unit -> bool
(** Whether the timeout armed last has fired. *)

val timed_park : unit -> unit
(** {!park}, but a firing of the armed timeout also wakes this
    suspension.  Suspensions entered any other way ({!delay}, plain
    {!park}) are never woken by the timeout. *)

(** {2 Actors}

    An actor is a process without a stack: a pid, suspensions and
    {!wake} like a fiber's, but no continuation.  Its work is a chain
    of {e stages}, closures built once when the actor is made.  A wake
    runs its {e wake stage}, at the (time, [seq]) where a woken fiber
    would have resumed.  A stage waits by queueing the actor's
    suspension ({!Condition.listen}, or {!suspension} published to a
    waker) and returning; it costs time by ending with {!charge}.  A
    stage that returns having done neither leaves the actor idle for
    good. *)

val actor : t -> ?name:string -> (process -> unit -> unit) -> process
(** [actor t build] makes an actor whose wake stage is [build p], [p]
    being the new actor.  Like {!spawn}, it runs its wake stage first
    at the current time, in an event taking the [seq] a spawn's start
    would.  An exception escaping a stage aborts the run, as from a
    fiber. *)

val charge : process -> int -> (unit -> unit) -> unit
(** [charge p d stage], called last in a stage of the running actor
    [p], runs [stage] [d] cycles later: the same event, at the same
    (time, [seq]), that {!delay_cycles} [d] would queue, and the same
    fast path — when that event would run next anyway, the clock moves
    and [stage] runs in this event, without queueing.  Called from a
    callback ({!at}, {!at_clock}) the charge is free, as a delay there
    is, and [stage] runs at once.  Called from a fiber it is
    {!delay_cycles} [d] then [stage ()], so a chain of stages also runs
    in the caller's context. *)

val fibers : t -> int
(** Fibers spawned and not yet returned (diagnostic); actors do not
    count. *)

val stop : t -> unit
(** Request the run loop to return after the current event.  Used by
    workloads to end a run while server processes are still live. *)

val run : ?until:time -> t -> unit
(** Execute events in time order until the queue is empty, [stop] was
    called, or the clock would pass [until].  May be called again to
    resume after a [stop] or [until] cut-off.  An [until] behind the
    clock has passed: the run returns at once and leaves the clock and
    the queue as they are. *)

val pending : t -> int
(** Number of queued events (diagnostic): the heap plus the ready
    ring.  A process's timeouts count
    as one event, not one per armed deadline (plus one per deadline it
    armed earlier than the queued one, until the later one's time
    comes); a delay that skipped the queue counts as none.  A run ends
    with [pending t = 0] exactly when it did when every armed deadline
    stayed queued. *)

val in_process : unit -> bool
(** Whether the caller is executing inside a simulated fiber (i.e.
    suspension is possible): false in callbacks and actors. *)
