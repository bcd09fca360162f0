(** Memcached-over-UDP benchmark (paper §6.1, Figure 4(c)).

    A multi-threaded key-value cache server speaking a compact
    memcached-like request/reply protocol over UDP, driven by a
    memaslap-style closed-loop load generator: [connections] (default
    32) concurrent connections, a 9:1 GET/SET mix and 100-byte values
    (memaslap defaults).  The paper
    varies the server thread count; RAKIS gives each XSK its own FM
    thread, so the harness should be created with [num_xsks] matching
    the server threads (the paper used four XSKs). *)

type result = {
  env : string;
  server_threads : int;
  completed_ops : int;
  duration : Sim.Engine.time;
  kops_per_sec : float;
  timeouts : int;  (** client-side request retries *)
}

val port : int

val key_space : int
(** Keys are ["key-%06d"] over [0, key_space). *)

val get_request : string -> Bytes.t

val set_request : string -> string -> Bytes.t
(** Wire format builders (['G' ^ key] and ['S' ^ key ^ '\x00' ^ value]),
    shared with {!Loadgen} so both generators speak the same protocol. *)

val server : ?rdp:bool -> Libos.Api.t -> server_threads:int -> unit -> unit
(** The server half alone: binds UDP [port] on 10.0.0.1, spawns
    [server_threads - 1] workers and serves on the calling fiber
    forever.  Exposed so {!Loadgen} (and [rakis_run memcached]) can
    drive it with their own load shapes.

    [rdp] (default [false]) serves over {!Netstack.Rdp} reliable
    datagrams instead of raw UDP: all threads share one
    {!Rdp_link}, whose engine deduplicates retransmitted requests (a
    SET retried by the client's link must not execute twice) and
    retransmits replies the wire eats.  Pair with
    {!Loadgen.config.rdp}. *)

val run :
  ?connections:int ->
  Harness.t ->
  server_threads:int ->
  ops:int ->
  result

val pp_result : Format.formatter -> result -> unit
