(** The POSIX-style syscall surface applications are written against.

    "Unmodified user application" (paper §2.2/§4.2) is modelled as
    program text parameterized only by this record: the same workload
    code runs under Native, Gramine-Direct, Gramine-SGX, RAKIS-Direct
    and RAKIS-SGX by being handed a different [Api.t].

    The record is per-thread in environments that need thread-local
    state (RAKIS creates one io_uring FM per user thread); [spawn]
    starts a new simulated thread with its own [Api.t]. *)

type fd = int

type sockaddr = Packet.Addr.Ip.t * int

type event = [ `In | `Out ]

type t = {
  name : string;  (** environment name, e.g. "rakis-sgx" *)
  engine : Sim.Engine.t;
  udp_socket : unit -> fd;
  tcp_socket : unit -> fd;
  bind : fd -> sockaddr -> (unit, Abi.Errno.t) result;
  listen : fd -> (unit, Abi.Errno.t) result;
  accept : fd -> (fd, Abi.Errno.t) result;
  connect : fd -> sockaddr -> (unit, Abi.Errno.t) result;
  sendto : fd -> Bytes.t -> sockaddr -> (int, Abi.Errno.t) result;
  recvfrom : fd -> int -> (Bytes.t * sockaddr, Abi.Errno.t) result;
  send : fd -> Bytes.t -> int -> int -> (int, Abi.Errno.t) result;
  recv : fd -> Bytes.t -> int -> int -> (int, Abi.Errno.t) result;
  openf : create:bool -> trunc:bool -> string -> (fd, Abi.Errno.t) result;
  read : fd -> Bytes.t -> int -> int -> (int, Abi.Errno.t) result;
  write : fd -> Bytes.t -> int -> int -> (int, Abi.Errno.t) result;
  lseek : fd -> int -> (int, Abi.Errno.t) result;
  fsize : fd -> (int, Abi.Errno.t) result;
  close : fd -> (unit, Abi.Errno.t) result;
  poll :
    (fd * event list) list ->
    timeout:Sim.Engine.time option ->
    ((fd * event list) list, Abi.Errno.t) result;
  spawn : name:string -> (t -> unit) -> unit;
}

val now : t -> Sim.Engine.time

val delay : t -> Sim.Engine.time -> unit
(** Spend application CPU time (the workload's own compute). *)
