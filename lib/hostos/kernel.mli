(** The simulated host machine: syscall façade over VFS, UDP, TCP, XDP
    and io_uring.

    One [Kernel.t] models the paper's testbed: a single machine with two
    Ethernet interfaces wired in loopback (iface 0 = 10.0.0.1, the
    server/enclave side; iface 1 = 10.0.0.2, the client side, standing
    in for the client's network namespace).  Every public operation
    charges {!Sgx.Params.syscall_cycles} — the bare syscall cost Native
    execution pays; LibOS layers add their own costs on top.

    FIOKP setup entry points ([xsk_create], [uring_create], [attach])
    model the initialization syscalls RAKIS performs outside the enclave
    at startup; the wakeup entry points ([xsk_tx_wakeup],
    [uring_enter]) are what the Monitor Module calls at runtime. *)

type t

type fd = int

val create : Sim.Engine.t -> ?nic_queues:int -> unit -> t

val engine : t -> Sim.Engine.t

val vfs : t -> Vfs.t

val nic : t -> int -> Nic.t
(** [nic t 0] is the server-side interface, [nic t 1] the client-side. *)

val wire_losses : t -> int
(** {!Nic.wire_losses} summed over every interface the kernel built. *)

val server_ip : t -> Packet.Addr.Ip.t

val client_ip : t -> Packet.Addr.Ip.t

val set_malice : t -> Malice.t option -> unit

val malice : t -> Malice.t option

val set_faults : t -> Faults.t option -> unit
(** Install a fault injector; consulted by the wakeup syscalls
    ([Drop_wakeup]/[Delay_wakeup]), the io_uring worker and the NICs. *)

val faults : t -> Faults.t option

(** {1 Generic} *)

val close : t -> fd -> (unit, Abi.Errno.t) result

(** {1 UDP} *)

val udp_socket : t -> fd

val bind : t -> fd -> Packet.Addr.Ip.t -> int -> (unit, Abi.Errno.t) result

val sendto :
  t -> fd -> Bytes.t -> dst:Packet.Addr.Ip.t * int -> (int, Abi.Errno.t) result

val recvfrom :
  t -> fd -> max:int -> (Bytes.t * (Packet.Addr.Ip.t * int), Abi.Errno.t) result

(** {1 TCP} *)

val tcp_socket : t -> fd

val listen : t -> fd -> (unit, Abi.Errno.t) result

val accept : t -> fd -> (fd, Abi.Errno.t) result

val connect : t -> fd -> Packet.Addr.Ip.t -> int -> (unit, Abi.Errno.t) result

val send : t -> fd -> Bytes.t -> int -> int -> (int, Abi.Errno.t) result

val recv : t -> fd -> Bytes.t -> int -> int -> (int, Abi.Errno.t) result

(** {1 Files} *)

val openf :
  t -> ?create:bool -> ?trunc:bool -> string -> (fd, Abi.Errno.t) result

val read : t -> fd -> Bytes.t -> int -> int -> (int, Abi.Errno.t) result
(** Sequential read at the fd's position. *)

val write : t -> fd -> Bytes.t -> int -> int -> (int, Abi.Errno.t) result

val pread :
  t -> fd -> off:int -> Bytes.t -> int -> int -> (int, Abi.Errno.t) result

val pwrite :
  t -> fd -> off:int -> Bytes.t -> int -> int -> (int, Abi.Errno.t) result

val lseek : t -> fd -> int -> (int, Abi.Errno.t) result

val fsize : t -> fd -> (int, Abi.Errno.t) result

(** {1 Poll} *)

type poll_event = Pollin | Pollout

val poll :
  t ->
  (fd * poll_event list) list ->
  timeout:Sim.Engine.time option ->
  ((fd * poll_event list) list, Abi.Errno.t) result
(** Returns fds with their ready events; [] on timeout. *)

val fd_ready : t -> fd -> poll_event -> bool
(** Non-blocking single readiness probe (used by RAKIS's API busy-wait
    when mixing IO providers). *)

(** {1 FIOKP setup and wakeups} *)

val xsk_create :
  ?obs:Obs.t ->
  ?name:string ->
  t ->
  alloc:Mem.Alloc.t ->
  umem_size:int ->
  frame_size:int ->
  ring_size:int ->
  fd * Xdp.xsk
(** The "at least 14 syscalls" XSK setup, charged as such.  [obs] and
    [name] register the XSK's edge counters ({!Xdp.create_xsk}). *)

val xsk_attach :
  t -> xsk:Xdp.xsk -> nic_id:int -> queue:int -> prog:Xdp.prog -> unit

val xsk_tx_wakeup : t -> Xdp.xsk -> unit
(** The [sendto] flavour of XSK wakeup (MM path). *)

val xsk_rx_wakeup : t -> Xdp.xsk -> unit

val uring_create : t -> alloc:Mem.Alloc.t -> entries:int -> fd * Io_uring.t

val uring_enter : t -> Io_uring.t -> unit

val uring_register_buffers :
  t -> Io_uring.t -> (int * int) list -> (unit, Mem.Regtable.error) result
(** [io_uring_register(IORING_REGISTER_BUFFERS)]: one syscall to pin the
    [(region_offset, len)] buffer set; fixed SQEs then name table
    indices with no further per-op syscall or kernel-side copy. *)

val uring_register_files : t -> Io_uring.t -> int list -> unit
(** [IORING_REGISTER_FILES]: pin an fd table for fixed-file SQEs. *)
