(** iperf3-style TCP bulk send, sender in the environment under test.

    The mirror image of {!Iperf} (UDP, server-side): here the enclave
    is the {e sender}, because SEND_ZC is a transmit-side optimisation
    — one connection, [bytes] streamed through {!Libos.Api.send},
    drained to EOF by a native receiver.  Under a RAKIS environment
    with [config.zerocopy] the sends go out as [IORING_OP_SEND_ZC]
    from registered frames (docs/zerocopy.md); otherwise through the
    bounce-buffer copy path.  The headline number is [cycles_per_byte]
    at the sender — the metric `bench --json` archives to
    [BENCH_zerocopy.json] and the zero-copy acceptance gate compares
    across the two paths. *)

type result = {
  env : string;
  zerocopy : bool;  (** the runtime's [config.zerocopy] (false off-RAKIS) *)
  chunk_size : int;
  bytes_sent : int;
  bytes_received : int;  (** receiver-side byte count (delivery check) *)
  duration : Sim.Engine.time;
      (** sender-side, first send to last completion; excludes the
          teardown drain that reaps the final notif *)
  goodput_gbps : float;
  cycles_per_byte : float;  (** [duration / bytes_sent] *)
  zc_sends : int;  (** frames lent on SEND_ZC ({!Rakis.Runtime.total_zc_sends}) *)
  zc_fallbacks : int;
  zc_notifs : int;
  zc_leaks : int;
      (** frames whose notif never arrived — 0 under an honest host *)
}

val run : ?chunk_size:int -> Harness.t -> bytes:int -> result
(** Runs the full simulation; [chunk_size] (default 16 KiB, one
    zero-copy frame) is the size of each [send] call. *)

val pp_result : Format.formatter -> result -> unit
