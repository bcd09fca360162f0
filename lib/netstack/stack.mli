(** The in-enclave UDP/IP stack (RAKIS's Service Module core, §4.2).

    Functional equivalent of the LWIP trimmed to <5 kLoC that the paper
    embeds: Ethernet/ARP/IPv4/UDP only, every layer validated, packets
    delivered to per-socket queues.  It runs entirely on trusted memory:
    the XSK FastPath Module hands it frames already copied inside the
    enclave ({!input}), and it hands frames to the FM for transmission
    (the [transmit] hook).

    Two locking disciplines are provided, reproducing the paper's
    implementation note that LWIP's single global lock caused contention
    and was replaced by finer read/write locks: [`Global] wraps all
    packet processing in one lock; [`Fine] (the RAKIS design) locks only
    the socket-table updates, letting per-socket work proceed in
    parallel.  The ablation benchmark compares the two. *)

type locking = [ `Global | `Fine ]

type t

type send_error = Unresolvable | Payload_too_big | No_transmit

val create :
  ?obs:Obs.t ->
  ?name:string ->
  ?arp:Arp_cache.t ->
  Sim.Engine.t ->
  mac:Packet.Addr.Mac.t ->
  ip:Packet.Addr.Ip.t ->
  ?locking:locking ->
  unit ->
  t
(** [name] (default ["stack"]) prefixes the metric names, so per-shard
    stack instances get distinct counters.  [arp] shares an existing ARP
    cache instead of creating one: sharded runtimes pass one cache to
    every shard stack, because ARP traffic has no 4-tuple and RSS pins
    it to queue 0 — a private per-shard cache would never hear replies
    on other shards.

    [obs] registers the stack's delivery counter
    (["stack.rx_delivered"]) and per-cause drop counters
    (["stack.drop.<reason>"], created on first occurrence) in the
    shared registry; without it they live in a private one and are
    reachable only through the accessors below. *)

val set_transmit : t -> (Bytes.t -> unit) -> unit
(** Install the FM's frame-transmit hook. *)

val set_overload_hooks :
  t ->
  rx_gate:(depth:int -> bool) ->
  on_dequeue:(sojourn:int64 -> depth:int -> unit) ->
  unit
(** Install the overload controller's hooks (DESIGN.md §15).
    [rx_gate] is consulted with the destination socket's queue depth
    before every UDP enqueue — returning [false] sheds the datagram,
    accounted as the ["<name>.drop.overload-shed"] counter (a shed is a
    {e counted} refusal, distinct from the silent ["queue-full"] drop).
    [on_dequeue] observes every recvfrom's queue sojourn (cycles) and
    post-dequeue depth; it is retrofitted onto already-bound sockets. *)

(** {1 User-thread side} *)

val bind : t -> port:int -> (Udp_socket.t, [ `Port_in_use ]) result
(** [port] 0 picks an ephemeral port from [50000..65535], wrapping at
    the top of the range; [`Port_in_use] is also returned when one full
    lap finds every ephemeral port taken (exhaustion). *)

val unbind : t -> Udp_socket.t -> unit

val sendto :
  t ->
  src_port:int ->
  dst:Packet.Addr.Ip.t * int ->
  Bytes.t ->
  (int, send_error) result
(** Encapsulate and transmit one datagram; blocks during ARP
    resolution of a previously unseen destination. *)

(** {1 FM-thread side} *)

val input : t -> Bytes.t -> unit
(** Process one layer-2 frame (trusted copy).  Invalid frames at any
    layer are counted and dropped; ARP is answered; UDP lands in the
    matching socket queue.  IPv4 fragments go through the bounded
    {!Reassembly} buffer — completed datagrams deliver like any other,
    refusals and timeouts land in the drop counters (DESIGN.md §16). *)

val input_borrowed : t -> Bytes.t -> len:int -> unit
(** Like {!input} but the frame occupies the first [len] bytes of a
    borrowed buffer the caller will reuse (the FM's scratch frame).
    The headers are validated in place, so the buffer must be trusted
    memory the host cannot change.  Everything the stack keeps past the
    call — ARP entries, fragments, queued UDP payloads — is copied out,
    and for a whole UDP datagram the queued payload is the only copy. *)

(** {1 Introspection} *)

val rx_delivered : t -> int

val rx_dropped : t -> int
(** Total dropped, all causes. *)

val drop_reasons : t -> (string * int) list
(** Per-cause drop counters (bad-eth, bad-ip, bad-udp, not-ours,
    no-socket, queue-full, plus the {!Reassembly} refusals
    frag-bounds / frag-table-full / frag-src-quota / frag-too-many /
    frag-overlap / frag-expired). *)

val arp : t -> Arp_cache.t

val lock_contention : t -> int
(** Contended acquisitions of the stack's lock(s). *)
