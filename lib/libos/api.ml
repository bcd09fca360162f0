type fd = int

type sockaddr = Packet.Addr.Ip.t * int

type event = [ `In | `Out ]

type t = {
  name : string;
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

let now t = Sim.Engine.now t.engine

let delay _t cycles = Sim.Engine.delay cycles
