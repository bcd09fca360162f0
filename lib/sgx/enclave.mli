(** The SGX trust-boundary and cost model.

    An [Enclave.t] represents one protected execution context.  In SGX
    mode every OCALL (enclave exit + re-enter) charges
    {!Params.enclave_exit_cycles} of simulated time and is counted in the
    run statistics (the Figure 2 metric), and every copy crossing the
    boundary pays {!Params.boundary_copy_extra_per_byte} on top of plain
    memcpy.  In "direct" mode (Gramine-Direct / RAKIS-Direct) the same
    code runs but exits and boundary copies cost nothing extra — exactly
    how Gramine's direct mode behaves.

    The counters kept here, on the engine's registry
    ({!Sim.Engine.stats}): ["sgx.exits"] (count) and
    ["sgx.boundary_bytes"].  Every enclave on one engine shares them. *)

type t

val create : Sim.Engine.t -> sgx:bool -> name:string -> t

val engine : t -> Sim.Engine.t

val sgx_enabled : t -> bool

val trusted_region : t -> size:int -> name:string -> Mem.Region.t
(** Allocate a region of enclave (trusted) memory. *)

val untrusted_region : t -> size:int -> name:string -> Mem.Region.t
(** Allocate a region of host-shared (untrusted) memory. *)

val ocall : t -> unit
(** Charge one enclave exit + re-enter (a syscall made the LibOS way).
    Counted even in direct mode (the count is the Figure 2 metric for
    the SGX environments; direct environments report it as zero cost). *)

val exits : t -> int
(** Number of {!ocall}s so far. *)

val charge : t -> int64 -> unit
(** Spend plain compute cycles. *)

val charge_copy : t -> crossing:bool -> int -> unit
(** Spend the cost of copying [len] bytes; [crossing] adds the enclave
    boundary surcharge in SGX mode and counts the bytes. *)

val copy_cycles : t -> crossing:bool -> int -> int
(** The cost {!charge_copy} would charge, without spending it. *)
