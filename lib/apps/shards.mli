(** Per-shard exit accounting for the benchmark apps (DESIGN.md §10).

    Cross-checks two independent counters at workload exit: the NIC's
    per-queue UDP enqueue counts (what each shard was {e offered}) and
    the runtime's per-shard stack delivery counts (what each shard
    {e did}).  A shard that was offered traffic, delivered nothing, and
    shows no breaker activity explaining the silence (an open breaker
    PASSes its traffic to the host fallback socket) went silently idle
    — the steering/wiring bug class that aggregate throughput averages
    away.  {!Iperf} and {!Udp_echo} capture a report at exit, print it
    alongside the aggregate result, and {!check_exn} fails the run. *)

type stat = {
  shard : int;
  offered : int;  (** UDP frames the NIC enqueued on this shard's queues *)
  rx_delivered : int;  (** datagrams the shard's stack delivered to sockets *)
  tx_frames : int;  (** frames submitted through the shard's transmit hook *)
  breaker : string;  (** shard XSK breaker state name at capture time *)
  breaker_opens : int;
  breaker_failovers : int;
}

type report = { queues : int; stats : stat list }

val capture : Harness.t -> report option
(** Snapshot the per-shard view; [None] when the environment under test
    has no RAKIS runtime (native / plain-LibOS baselines). *)

val spread_ports :
  Harness.t -> n:int -> dst:Packet.Addr.Ip.t * int -> base:int -> int list
(** [n] deterministic client source ports (>= [base], ascending) chosen
    so flow [i] RSS-hashes to NIC queue [i mod queue_count] against
    [dst] — a uniform spread over the datapath shards regardless of
    Toeplitz luck.  With a single queue this is just [base, base+1, …];
    runs replay bit-for-bit either way. *)

val total_rx : report -> int

val silently_idle : report -> int list
(** Shards with [offered > 0], [rx_delivered = 0] and no breaker
    opens/failovers — unexplained silence. *)

val check_exn : what:string -> report option -> unit
(** [failwith] naming the silently idle shards, if any; no-op on [None]
    or a clean report. *)

val pp : Format.formatter -> report -> unit
