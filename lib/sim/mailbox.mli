(** Bounded FIFO channel between simulated processes.

    [put] blocks while the mailbox is full; [get] blocks while it is
    empty.  Used to model socket queues, worker queues and the like where
    back-pressure matters. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] defaults to [max_int] (unbounded). *)

val put : 'a t -> 'a -> unit
(** Blocking enqueue; suspends while full. *)

val try_put : 'a t -> 'a -> bool
(** Non-blocking enqueue; [false] when full. *)

val get : 'a t -> 'a
(** Blocking dequeue; suspends while empty. *)

val listen : 'a t -> unit
(** Queue the calling process's next suspension on the mailbox's next
    {!put}, as {!Condition.listen} does: how an actor
    ({!Engine.actor}) waits for an item.  Check {!is_empty} first: a
    non-empty mailbox signals nobody until it empties and refills. *)

val try_get : 'a t -> 'a option

val peek : 'a t -> 'a option

val length : 'a t -> int

val is_empty : 'a t -> bool

val capacity : 'a t -> int
