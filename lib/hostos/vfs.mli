(** In-memory filesystem of the simulated host.

    Costs: every read/write charges {!Sgx.Params.vfs_per_op} plus
    {!Sgx.Params.storage_cycles_per_byte} per byte to the calling
    process, modelling the page-cache path of the paper's testbed (no
    durable-storage latency: fstime and mcrypt in the paper run hot in
    the page cache). *)

type t

type inode

val create : unit -> t

val open_file : t -> ?create:bool -> ?trunc:bool -> string -> (inode, Abi.Errno.t) result
(** [open_file t path] resolves (optionally creating/truncating) the
    inode.  No permission model: the simulated host trusts itself. *)

val size : inode -> int

val read : t -> inode -> off:int -> Bytes.t -> int -> int -> int
(** Charges costs; returns bytes read. *)

val write : t -> inode -> off:int -> Bytes.t -> int -> int -> int
(** Charges costs; returns bytes written. *)

val unlink : t -> string -> (unit, Abi.Errno.t) result

val file_count : t -> int

val path : inode -> string
