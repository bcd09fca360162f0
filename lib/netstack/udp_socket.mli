(** In-enclave UDP socket: a bounded datagram queue filled by the stack
    input path (XSK FM thread) and drained by user threads. *)

type t

val create : ?clock:(unit -> int64) -> port:int -> unit -> t
(** A socket queueing up to 4,096 datagrams.  [clock] (default
    [fun () -> 0L]) stamps each datagram at enqueue so the dequeue path
    can report its queue sojourn — the overload controller's CoDel
    signal (DESIGN.md §15). *)

val port : t -> int

val enqueue : t -> Bytes.t -> src:Packet.Addr.Ip.t * int -> bool
(** Stack side: [false] when the socket queue is full (datagram is
    dropped, as UDP allows). *)

val recvfrom : t -> max:int -> Bytes.t * (Packet.Addr.Ip.t * int)
(** User side: blocks until a datagram arrives; truncates to [max].
    Raises [Invalid_argument] on a negative [max] before dequeuing, so
    the datagram stays queued. *)

val set_on_dequeue : t -> (sojourn:int64 -> depth:int -> unit) -> unit
(** Install the dequeue observer: called once per {!recvfrom} with the
    datagram's queue sojourn (cycles) and the post-dequeue depth.  The
    runtime points this at the owning shard's overload controller. *)

val readable : t -> bool

val pending : t -> int

val activity : t -> Sim.Condition.t
(** Broadcast on every enqueued datagram; the API submodule's poll waits
    on it. *)
