(** Condition variables for simulated processes.

    [wait] suspends the calling process until another process calls
    [signal] or [broadcast].  There is no separate mutex: the engine is
    cooperative, so the classic "recheck the predicate in a loop" pattern
    is still required (a waiter may be overtaken between wake-up and
    resumption), but no data race is possible.

    Waiting allocates nothing beyond the suspended continuation: a
    waiter is a [(process, suspension)] pair held unboxed in a growable
    ring (see {!Engine.wake}). *)

type t

val create : unit -> t

val wait : t -> unit
(** Suspend the calling process until signalled.  Raises
    {!Engine.Not_in_process} outside a process. *)

val listen : t -> unit
(** Queue the calling process's next suspension on [t] without parking:
    [listen] on several conditions, then {!Engine.park} (or
    {!Engine.timed_park}), is {!wait_any} without the list, with the
    same broadcast-only caveat.  Raises {!Engine.Not_in_process}
    outside a process. *)

val signal : t -> unit
(** Wake the longest-waiting process, if any. *)

val broadcast : t -> unit
(** Wake every waiting process. *)

val waiters : t -> int
(** Number of queued waiters (diagnostic), counting the stale entries
    a {!wait_any} leaves on its other conditions and a timed wait
    leaves when its timeout wakes it.  Stale entries are dropped
    before the ring would grow, so they never grow it: with at most
    [w] live waiters at a time, [waiters] stays at most [max 4 (2 * w)]. *)

val wait_any : t list -> unit
(** Suspend until any of the conditions is signalled.  Only sound for
    conditions that are always woken with {!broadcast}: after wake-up a
    stale entry remains queued on the other conditions, and a [signal]
    delivered to a stale entry would be swallowed.  Build the list once
    per waiter: walking it allocates nothing. *)
