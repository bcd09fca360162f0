(** The RAKIS environments (RAKIS-Direct / RAKIS-SGX).

    Implements the paper's API submodule (§4.2): the LibOS syscall
    table is rerouted so that

    - UDP socket syscalls go to the in-enclave UDP/IP stack over XSKs —
      no enclave exits at all;
    - TCP [send]/[recv], file [read]/[write] and [poll] go through the
      SyncProxy to the per-thread io_uring FM — no enclave exits;
    - everything else (socket/bind/listen/accept/connect/open/close and
      metadata) takes the regular Gramine path: LibOS dispatch plus one
      enclave exit ({!Rakis.Slowpath.libos_exit}), exactly as the paper's
      RAKIS does for syscalls it does not accelerate;
    - [poll] over a mixed fd set busy-waits across both providers, the
      coordination the paper describes for its API submodule.

    Breaker failover needs no wiring here: the runtime boots with its
    own {!Rakis.Slowpath}. *)

val create :
  Hostos.Kernel.t ->
  sgx:bool ->
  ?config:Rakis.Config.t ->
  unit ->
  (Api.t * Rakis.Runtime.t, string) result
