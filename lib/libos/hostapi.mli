(** Host-syscall-backed environments: Native and the Gramine baseline.

    [native] is a thin pass-through to the simulated kernel — each call
    costs one bare syscall.

    [gramine] reproduces the LibOS architecture of paper Figure 1: each
    IO syscall pays the in-enclave LibOS dispatch
    ({!Sgx.Params.libos_dispatch_cycles}), one enclave exit + re-enter
    (costed only in SGX mode), and — in SGX mode — the copy of the IO
    payload across the enclave boundary in each direction, since the
    kernel can only read/write untrusted buffers. *)

val native : Hostos.Kernel.t -> Api.t

val gramine :
  ?exitless:bool -> Hostos.Kernel.t -> sgx:bool -> Api.t * Sgx.Enclave.t
(** The returned enclave exposes the exit counter (Figure 2 metric).
    [exitless] (default false) models Gramine's Exitless/RPC-thread mode
    (the HotCalls/Eleos switchless design the paper's §8 surveys): IO
    syscalls are handed to an untrusted worker over shared memory
    instead of exiting, paying {!Sgx.Params.switchless_rpc_cycles}
    per call instead of an enclave exit — but still the full kernel
    path, unlike RAKIS's FIOKPs. *)
