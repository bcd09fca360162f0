(** Simulated network interface.

    Two interfaces are wired back-to-back ("loopback configuration" in
    the paper's testbed).  Transmission is paced at the link rate
    ({!Sgx.Params.nic_link_gbps}); each interface has a configurable
    number of receive queues of bounded depth, with RSS-style steering
    by UDP source port.  A queue whose mailbox is full drops the frame
    (counted under ["nic.<id>.drops"]) — the memory-pressure drop
    behaviour the paper's QoS discussion (§4.1) is about.

    Each receive queue runs its own handler process ("softirq"): the
    handler installed by the kernel may block and charge cycles without
    stalling the wire.

    The link between the two interfaces can turn hostile: the shared
    {!Faults} injector drives seeded wire faults per transmitted frame —
    loss ([Wire_drop]), duplication ([Wire_dup]), bounded reorder
    ([Wire_reorder], overtaken by at most one successor or flushed by
    timer), added latency ([Wire_delay]) and length corruption
    ([Wire_trunc]/[Wire_runt]/[Wire_giant]).  Each injection is counted
    under ["nic.<id>.wire.<fault>"], and the destructive ones roll up
    into {!wire_losses} so no frame the wire destroys can ever read as
    silent loss.  Shard-pinned armings ("#k") match the datapath shard
    of the {e receiving} queue; RSS hashing is symmetric, so a pinned
    fault tracks one shard's flows in both directions. *)

type t

val create :
  ?faults:Faults.t option ref ->
  Sim.Engine.t ->
  id:int ->
  mac:Packet.Addr.Mac.t ->
  ip:Packet.Addr.Ip.t ->
  queues:int ->
  t
(** [faults] (shared with {!Kernel}) drives [Nic_stall] windows in the
    transmit process. *)

val id : t -> int

val mac : t -> Packet.Addr.Mac.t

val ip : t -> Packet.Addr.Ip.t

val queue_count : t -> int

val wire : t -> t -> unit
(** Connect two interfaces; must be called once per pair. *)

val set_rx_handler : t -> queue:int -> (Bytes.t -> unit) -> unit
(** Install the consumer for one receive queue.  The handler runs in a
    dedicated queue process and may suspend. *)

val transmit : t -> Bytes.t -> unit
(** Hand a frame to the interface for transmission.  Returns
    immediately; serialization delay is paid by the NIC's own process.
    Frames are dropped when the transmit queue overflows. *)

val steer : t -> Bytes.t -> int
(** The receive queue a frame lands on: hash of the UDP source port for
    UDP frames (RSS), queue 0 otherwise. *)

val rx_packets : t -> int

val udp_rx_per_queue : t -> int array
(** UDP frames enqueued per receive queue (snapshot copy).  Ground truth
    for "this queue — hence its datapath shard — was offered traffic":
    apps compare it against per-shard delivery counters to catch a shard
    that went silently idle. *)

val tx_packets : t -> int

val drops : t -> int

val set_shards : t -> int -> unit
(** Announce the datapath shard count: receive queue [q] belongs to
    shard [q mod shards], the context shard-pinned wire-fault armings
    match against.  Defaults to the queue count (identity mapping). *)

val wire_losses : t -> int
(** Frames this interface's transmit side lost or corrupted to injected
    wire faults (drop + trunc + runt + giant) — the wire's contribution
    to the runtime's accounted-drop total. *)
