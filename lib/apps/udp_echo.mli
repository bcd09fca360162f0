(** UDP echo round trips — the paper-introduction scenario (§1): an
    in-enclave echo server answering a closed-loop native client.

    Unlike {!Iperf} (open-loop offered load, measures goodput), every
    datagram here waits for its echo, so the result measures request
    latency through the whole XSK datapath: certified rings in both
    directions, UMem frame recycling and Monitor Module wakeups per
    round trip.  This is the canonical workload for reading the Obs
    metrics and trace output (see README, "Reading metrics and
    traces"). *)

type result = {
  env : string;
  datagrams : int;  (** round trips attempted *)
  echoed : int;  (** round trips completed *)
  shed : int;
      (** server-side {e accounted} losses excluding wire faults:
          {!Rakis.Runtime.total_losses} less [wire_dropped];
          [datagrams - echoed - shed - wire_dropped > 0] means silent
          loss.  [0] for non-RAKIS baselines. *)
  wire_dropped : int;
      (** accounted wire-fault losses (drop / truncate / runt / giant
          under a {!Hostos.Nic} link-fault plan) — the middle leg of
          the tri-state loss split: explicit shed, accounted wire
          drop, silent loss.  Only the last one is a bug. *)
  flows : int;  (** concurrent closed-loop client flows *)
  payload_size : int;
  duration : Sim.Engine.time;  (** first send to last echo *)
  round_trips_per_sec : float;
  rtt_p50 : int;  (** median round-trip cycles (log2-bucket resolution) *)
  rtt_p99 : int;  (** 99th-percentile round-trip cycles *)
  rdp : bool;  (** round trips rode {!Netstack.Rdp} *)
  rdp_retransmits : int;  (** RDP retransmissions across all endpoints *)
  rdp_gave_up : int;
      (** datagrams RDP abandoned after retry exhaustion (accounted) *)
  shards : Shards.report option;
      (** per-shard exit accounting ([None] for non-RAKIS baselines);
          {!run} fails on a silently idle shard (see {!Shards}) *)
}

val run :
  ?flows:int ->
  ?rdp:bool ->
  Harness.t ->
  datagrams:int ->
  payload_size:int ->
  result
(** [flows] (default 1) concurrent closed-loop clients split the
    [datagrams] budget.  Multi-flow clients bind deterministic source
    ports picked by {!Shards.spread_ports} so RSS spreads them uniformly
    over the datapath shards; the single-flow default keeps the
    historical ephemeral-port behaviour.

    Round trips are sequence-tagged and each waits a bounded 2 ms: a
    shed echo costs one timeout, not the flow (stale echoes of
    given-up round trips are drained, never credited).  Compare
    [echoed + shed + wire_dropped] against [datagrams] to separate
    accounted shedding and wire-fault loss from silent loss.

    [rdp] (default [false]) runs both ends over {!Netstack.Rdp}
    reliable datagrams: under a lossy wire plan, retransmission
    recovers most round trips and whatever it abandons shows up as
    [rdp_gave_up] — counted, never silent. *)

val pp_result : Format.formatter -> result -> unit

val tag_of : Bytes.t -> int option
(** The sequence tag in a round trip's first 8 payload bytes (decimal,
    zero-padded), or [None] when they hold none. *)
