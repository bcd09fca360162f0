(** Redis benchmark over TCP (paper §6.2, Figure 5(b)).

    A single-threaded event-loop server (the paper compiled Redis to
    use [select] because RAKIS lacks epoll; our API's [poll] plays that
    role) serving PING / SET / GET in a RESP-like line protocol, driven
    by a redis-benchmark-style client: one native thread multiplexing
    [connections] closed-loop connections (the paper used 50). *)

type command = Ping | Set | Get

type result = {
  env : string;
  command : command;
  completed_ops : int;
  duration : Sim.Engine.time;
  kops_per_sec : float;
}

val command_name : command -> string

val run :
  ?connections:int -> Harness.t -> command:command -> ops:int -> result

val pp_result : Format.formatter -> result -> unit
