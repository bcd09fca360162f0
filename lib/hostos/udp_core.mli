(** Kernel UDP sockets (the regular, non-XDP path).

    This is the path Native and Gramine environments use: every packet
    traverses the simulated kernel stack at
    {!Sgx.Params.kernel_udp_per_packet} and lands in a bounded
    per-socket receive buffer ({!Sgx.Params.udp_socket_buffer}).

    Address resolution is on-demand ARP: a send to an unresolved IP
    emits an ARP request on the route's interface and blocks the caller
    until the reply arrives (or retries time out). *)

type t

type sock

val create : Sim.Engine.t -> route:(Packet.Addr.Ip.t -> Nic.t option) -> t

val socket : t -> sock

val bind : t -> sock -> Packet.Addr.Ip.t -> int -> (unit, Abi.Errno.t) result
(** Port 0 picks an ephemeral port.  [EADDRINUSE] when taken. *)

val sendto :
  t ->
  sock ->
  Bytes.t ->
  dst:Packet.Addr.Ip.t * int ->
  (int, Abi.Errno.t) result
(** Charges the kernel stack cost and hands a full frame to the route's
    interface.  Binds the socket ephemerally if needed. *)

val recvfrom :
  t -> sock -> max:int -> (Bytes.t * (Packet.Addr.Ip.t * int), Abi.Errno.t) result
(** Blocks until a datagram arrives; truncates to [max] like POSIX.
    A negative [max] is [EINVAL] before anything is dequeued. *)

val readable : sock -> bool

val close : t -> sock -> unit

val stack_input : t -> Nic.t -> Nic.rx_handler
(** Kernel network-stack entry point, the staged handler of a NIC
    receive queue for frames not claimed by XDP.  Charges the softirq's
    stack traversal first, then handles ARP (request reply + table
    learning) and UDP delivery; everything else is dropped. *)

val activity : sock -> Sim.Condition.t
(** Broadcast whenever a datagram lands in the socket buffer. *)
