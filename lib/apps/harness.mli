(** Experiment harness: one simulated machine, a workload environment
    and a Native peer (the paper runs benchmark clients natively in
    their own network namespace on the same box). *)

type t = {
  engine : Sim.Engine.t;
  kernel : Hostos.Kernel.t;
  env : Libos.Env.t;  (** the environment under test *)
  peer : Libos.Api.t;  (** native peer (client or server, per workload) *)
}

val make :
  Libos.Env.kind ->
  ?rakis_config:Rakis.Config.t ->
  ?nic_queues:int ->
  unit ->
  (t, string) result
(** Boot one machine.  [nic_queues] defaults to one NIC queue per XSK
    of [rakis_config] ([num_queues × num_xsks]), and at least 4: an
    AF_XDP socket is bound to one queue, and a RAKIS boot refuses a
    NIC with fewer queues than XSKs ({!Rakis.Runtime.boot}). *)

val api : t -> Libos.Api.t
(** The environment-under-test's syscall surface. *)

val run : ?until:Sim.Engine.time -> t -> unit
(** Drive the simulation until {!Sim.Engine.stop} or the horizon. *)

val stop : t -> unit
