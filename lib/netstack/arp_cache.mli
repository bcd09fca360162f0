(** ARP resolution cache of the in-enclave stack.

    Entries are learned from ARP replies and from gratuitous sender
    information in requests; resolution waiters are simulated processes
    blocked on a condition.

    The cache learns from {e untrusted} wire traffic, so it is bounded
    and conflict-averse (DESIGN.md §16): at most [capacity] entries
    live at once, with least-recently-used eviction when a new
    neighbour arrives at the cap (counter ["arp.evicted"]), and a
    re-learn that contradicts a live entry keeps the existing binding
    and bumps ["arp.conflict"] — first-learned wins, so one spoofed
    reply cannot repoint an in-use neighbour.  The failover path's
    broadcast-MAC placeholders are the exception: genuine sender
    information overwrites a placeholder, and a placeholder never
    downgrades a resolved entry. *)

type t

val create : ?obs:Obs.t -> ?capacity:int -> Sim.Engine.t -> unit -> t
(** [capacity] defaults to {!Sgx.Params.arp_cache_capacity}; [obs]
    registers the ["arp.conflict"] / ["arp.evicted"] counters in the
    shared registry. *)

val lookup : t -> Packet.Addr.Ip.t -> Packet.Addr.Mac.t option
(** A hit also marks the entry most-recently-used. *)

val learn : t -> Packet.Addr.Ip.t -> Packet.Addr.Mac.t -> unit
(** Insert/refresh an entry and wake resolution waiters; evicts the
    LRU entry when the table is at capacity, and refuses (but counts)
    a conflicting re-learn of a live non-placeholder entry. *)

val resolve :
  t ->
  Packet.Addr.Ip.t ->
  request:(Packet.Addr.Ip.t -> unit) ->
  Packet.Addr.Mac.t option
(** Blocking resolve: returns immediately on a cache hit, allocating
    nothing; otherwise calls [request ip] (which should emit an ARP
    request frame) and waits,
    retrying a few times before giving up with [None]. *)

val entries : t -> int

val conflicts : t -> int
(** Conflicting re-learns refused so far (["arp.conflict"]). *)

val evictions : t -> int
(** LRU evictions so far (["arp.evicted"]). *)
