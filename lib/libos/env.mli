(** The five test environments of the paper's evaluation (§6). *)

type kind =
  | Native
  | Gramine_direct
  | Gramine_sgx
  | Gramine_sgx_exitless
      (** Gramine's Exitless/RPC-thread mode — the switchless-syscall
          design (HotCalls, Eleos) the paper's §8 surveys.  An extra
          baseline beyond the paper's five, used by the ablation bench
          to separate what exit elimination alone buys from what
          RAKIS's FIOKPs buy. *)
  | Rakis_direct
  | Rakis_sgx

type t

val all : kind list
(** The paper's five environments, in its presentation order: Native,
    RAKIS-Direct, RAKIS-SGX, Gramine-Direct, Gramine-SGX
    ([Gramine_sgx_exitless] is extra and not part of [all]). *)

val kind_name : kind -> string

val create :
  Hostos.Kernel.t ->
  kind ->
  ?rakis_config:Rakis.Config.t ->
  unit ->
  (t, string) result

val kind : t -> kind

val api : t -> Api.t
(** The main-thread syscall surface for workloads. *)

val runtime : t -> Rakis.Runtime.t option
(** RAKIS internals, for introspection ([None] unless a RAKIS kind). *)

val exits : t -> int
(** Enclave exits so far (0 for Native). *)
