(** The exit-based slow path (paper §4.2, DESIGN.md §9): the regular
    LibOS route for a syscall RAKIS does not accelerate — in-enclave
    dispatch ({!Sgx.Params.libos_dispatch_cycles}), one enclave exit,
    the host syscall, and the payload copied across the boundary.  The
    circuit breakers fail over to it: {!Syncproxy} for its four IO
    ops ({!io}), {!Runtime} for UDP (same-port host sockets bound on
    {!Hostos.Kernel.server_ip}).  Degraded RAKIS thus costs what
    Gramine-SGX costs, by construction.

    Every op except {!udp_readable} counts once on
    ["health.slow_calls"] and files its cycle cost (exit + copy +
    kernel work) under the ["health.slow_path_cycles"] histogram. *)

type t
(** The slow path of one runtime: its host kernel, its enclave and the
    two metric handles, bound once at {!Runtime.boot}. *)

val create : obs:Obs.t -> Hostos.Kernel.t -> Sgx.Enclave.t -> t

val libos_exit : Sgx.Enclave.t -> unit
(** LibOS dispatch plus one enclave exit, unmetered: the cost of every
    syscall routed outside the enclave ([Libos.Rakis_env]'s
    non-accelerated syscalls too). *)

(** {1 The io_uring fallback (SyncProxy ops)} *)

val io :
  t -> Iouring_fm.op -> fd:int -> off:int -> buf:Bytes.t -> pos:int ->
  len:int -> (int, Abi.Errno.t) result
(** One SyncProxy op as a host syscall ([pread], [pwrite], [send] or
    [recv]; [off] is the file offset of [Read]/[Write]), its payload
    copied across the boundary. *)

(** {1 The UDP fallback (host sockets)} *)

val udp_socket : t -> int

val udp_bind : t -> int -> port:int -> (unit, Abi.Errno.t) result

val udp_sendto :
  t -> int -> Bytes.t -> dst:Packet.Addr.Ip.t * int -> (int, Abi.Errno.t) result

val udp_recvfrom :
  t -> int -> max:int -> (Bytes.t * (Packet.Addr.Ip.t * int), Abi.Errno.t) result

val udp_readable : t -> int -> bool
(** Readiness probe only: no exit charged, nothing metered — a
    datagram's crossing cost lands when {!udp_recvfrom} moves it. *)

val udp_close : t -> int -> unit
