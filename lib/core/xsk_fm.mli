(** XSK FastPath Module (paper §4.1).

    One FM per XSK, driving the four certified rings and the UMem
    ownership allocator from inside the enclave.  The FM is the only
    RAKIS component that touches untrusted memory; everything it hands
    to the Service Module is a trusted copy.

    At creation it performs the paper's initialization checks (Table 2,
    top rows) on the values the host returned from XSK setup: the file
    descriptor, the four ring pointers and the UMem pointer must be
    non-negative / exclusively in untrusted memory / non-overlapping,
    and ring geometry is taken from the trusted {!Config.t}, never from
    the host. *)

type init_error =
  | Bad_fd of int
  | Pointer_in_trusted of string  (** which object *)
  | Overlapping of string
  | Bad_layout of string

type t

val create :
  ?obs:Obs.t ->
  ?name:string ->
  enclave:Sgx.Enclave.t ->
  kernel:Hostos.Kernel.t ->
  config:Config.t ->
  stack:Netstack.Stack.t ->
  monitor:Monitor.t ->
  breaker:Health.t ->
  overload:(Overload.t * int) option ->
  fd:int ->
  xsk:Hostos.Xdp.xsk ->
  unit ->
  (t, init_error) result
(** [xsk] carries the host-returned pointers being validated; the FM
    never trusts any other part of it.

    [obs] (with [name], default ["xsk"] — the runtime passes ["xsk0"],
    ["xsk1"], ...) registers this FM's packet/drop counters, its rx
    burst-length histogram, and the per-ring and UMem instruments
    (["<name>.xFill.*"], ["<name>.umem.*"]) in the shared registry,
    with ring-batch and frame-level trace events.

    The FM is wired to its shard at creation:
    - [monitor] is kicked after every publish, and asked for a forced
      xTX wakeup ({!Monitor.nudge_xsk}) when TX frames stay outstanding
      past {!Sgx.Params.xsk_rekick_period} with no completions — the
      recovery for a dropped or withheld xTX wakeup (DESIGN.md §8).
    - [kernel] is re-entered on this XSK by one OCALL on
      quarantine-and-reinit, so the kernel rewrites all four shared
      index words from its private cursors before the FM re-adopts them
      ({!Rings.Certified.resync}).
    - [breaker] is the XSK circuit breaker the FM feeds terminal
      signals: forced TX re-kicks, UMem exhaustion that outlasts the
      backoff budget, xTX ring-full drops and reinits that leave a ring
      quarantined are failures; reaped completions are successes
      (clearing the streak, or — in half-open — settling the probe
      frame's verdict).
    - [overload], when the runtime runs overload control, is the
      shard's controller and this XSK's depth source in it (DESIGN.md
      §15).  Each receive-loop iteration reports the xRX backlog to
      {!Overload.note_depth}, so a flooded ring saturates the shard
      even while the socket queue behind it stays shallow.  At most
      {!Overload.high_watermark} RX frames are ever promised to the
      kernel, and while the controller is saturated
      ({!Overload.edge_throttle}) refill keeps only a trickle, so the
      host NIC drops the flood at the edge; each throttled refill
      increments ["<name>.fill_throttled"].  While
      {!Overload.under_pressure}, UMem exhaustion in {!transmit} fails
      fast — one retry instead of the full backoff budget — and does
      {e not} count as a breaker failure: the frames are pinned by the
      very traffic being shed, and the caller accounts the refusal as
      an overload shed. *)

val start : t -> unit
(** Spawn the FM's dedicated receive thread (paper §4.1, QoS): it moves
    packets from UMem into trusted memory, feeds them to the UDP/IP
    stack, and keeps xFill replenished. *)

val step : t -> int
(** One pass of the receive loop {!start} runs, without parking: drain
    one xRX burst into the stack, reap xCompl, restock xFill and run
    the recovery checks.  Returns the descriptors moved.  Lets a test
    play the kernel side of the rings by hand. *)

val failover_reroute : t -> resend:(Bytes.t -> bool) -> int
(** Breaker-open rescue (DESIGN.md §9): reap what completed, copy every
    frame still committed to xTX into trusted memory and hand each to
    [resend] (the runtime's exit-based host-socket path), then
    quarantine-and-reinit the rings so the XSK is clean for half-open
    probes.  Returns the number of frames rerouted — with a working
    slow path, accepted datagrams survive the breaker trip. *)

val transmit : t -> Bytes.t -> bool
(** Send one layer-2 frame: allocate a UMem frame, copy the payload
    across the boundary, produce on xTX and kick the MM.  [false] when
    no frame could be obtained (transient exhaustion: caller drops, as
    UDP permits). *)

(** {1 Introspection} *)

val fill_ring : t -> Rings.Certified.t
(** Certified xFill ring (enclave produces free frames). *)

val rx_ring : t -> Rings.Certified.t
(** Certified xRX ring (enclave consumes received frames). *)

val tx_ring : t -> Rings.Certified.t
(** Certified xTX ring (enclave produces frames to send). *)

val compl_ring : t -> Rings.Certified.t
(** Certified xCompl ring (enclave reclaims sent frames). *)

val umem : t -> Umem.t
(** The FM's UMem frame allocator. *)

val ring_check_failures : t -> int
(** Rejected untrusted ring-index reads across all four rings. *)

val burst_counters : t -> (string * (int * int)) list
(** Per-ring [(name, (bursts, slots))] batch counters: how many
    non-empty certified-ring bursts each ring executed and how many
    slots they moved in total ([slots / bursts] = average burst
    length, the amortization factor over the Table 2 checks). *)

val rx_packets : t -> int
(** Frames successfully moved into the enclave. *)

val tx_packets : t -> int
(** Frames queued on xTX. *)

val tx_inflight : t -> int
(** Frames committed to xTX and not yet reclaimed (what
    {!failover_reroute} would rescue right now). *)

val reinits : t -> int
(** Quarantine-and-reinit episodes: persistent certified-ring failures
    (≥ 32 across consecutive iterations) triggered a ring resync
    (["<name>.reinits"]). *)

val invariant_holds : t -> bool
(** Paper eq. 1 on all four rings — the Testing Module's property. *)

val pp_init_error : Format.formatter -> init_error -> unit
