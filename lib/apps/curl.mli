(** Curl-over-QUIC download benchmark (paper §6.1, Figure 4(b)).

    The paper downloads files of 10 MB–1 GB over QUIC (UDP) from a
    native web server, with the curl client in the environment under
    test.  QUIC itself is replaced by a minimal reliable-transfer
    protocol over UDP (go-back-N with cumulative ACKs) — curl only
    exercises QUIC as a UDP byte pump, and what the figure measures is
    the per-datagram receive cost in each environment.  File sizes are
    scaled down (the default sweep uses 4–64 MB) to keep simulated
    event counts tractable; transfer time is linear in size in both the
    paper and the simulation, so the ratios are unaffected (see
    EXPERIMENTS.md). *)

type result = {
  env : string;
  file_size : int;
  received_bytes : int;
  duration : Sim.Engine.time;
  seconds : float;
  retransmits : int;
}

val chunk_payload : int
(** Data bytes per datagram (1400). *)

val run : Harness.t -> file_size:int -> result
(** Serve a [file_size] file from the native side; download it with the
    client in the environment under test. *)

val pp_result : Format.formatter -> result -> unit
