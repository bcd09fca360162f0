(** The campaign's model of one file written and read back through the
    io_uring datapath (DESIGN.md §6b).  It keeps, for every byte, the
    values the file may hold there, because a write's result is all
    the enclave learns of it:

    - a write's [Ok n] confirms exactly its first [n] bytes;
    - every other byte it covered may hold the old or the new value
      (the host may have run any prefix of the unconfirmed tail) after
      a short [Ok], [EPERM] or any other errno, until the next read of
      that byte pins it;
    - the admission [EAGAIN] was never submitted and changes nothing.

    The file length is a range for the same reason, pinned by the next
    read that stops short of its request. *)

type t

val create : size:int -> t
(** An empty file of at most [size] bytes. *)

val write : t -> off:int -> Bytes.t -> (int, Abi.Errno.t) result -> bool
(** [write t ~off data r] applies a write of all of [data] at [off]
    whose result was [r]; [false] when it left some byte undetermined. *)

type verdict =
  | Exact  (** what the model admits, in full *)
  | Prefix
      (** admitted bytes, fewer than the modelled length: only under
          [~cqe_forged:true], and never a verified op *)
  | Mismatch of string  (** what the model does not admit, in words *)

val read : t -> off:int -> Bytes.t -> int -> cqe_forged:bool -> verdict
(** [read t ~off buf n ~cqe_forged] checks a read of [Bytes.length buf]
    bytes at [off] that returned [n] bytes into [buf], and pins what it
    settles.  [cqe_forged]: a CQE-result attack has fired, so a forged
    result may have cut the read short.  A mismatch pins nothing. *)
