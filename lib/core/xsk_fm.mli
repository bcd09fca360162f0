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
  config:Config.t ->
  stack:Netstack.Stack.t ->
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
    with ring-batch and frame-level trace events. *)

val set_kick : t -> (unit -> unit) -> unit
(** Install the Monitor Module kick called after publishing work. *)

val set_renudge : t -> (unit -> unit) -> unit
(** Install the forced-TX-wakeup hook ({!Monitor.nudge_xsk} + kick),
    invoked when TX frames stay outstanding past
    {!Sgx.Params.xsk_rekick_period} with no completions — the recovery
    for a dropped or withheld xTX wakeup (DESIGN.md §8). *)

val set_republish : t -> (unit -> unit) -> unit
(** Install the ring-republish hook for quarantine-and-reinit: one
    OCALL driving kernel re-entry on this XSK so the kernel rewrites
    all four shared index words from its private cursors, after which
    the FM re-adopts them ({!Rings.Certified.resync}). *)

val set_throttle : t -> (unit -> bool) -> unit
(** Install the overload edge-throttle query (DESIGN.md §15; the
    runtime points it at {!Overload.edge_throttle} of the owning
    shard's controller).  While it returns [true] the refill loop keeps
    only a trickle of xFill frames outstanding, so the host NIC drops
    the flood at the edge instead of the enclave buffering it; each
    throttled refill increments ["<name>.fill_throttled"]. *)

val set_fill_cap : t -> int -> unit
(** Bound the NIC-side buffer (DESIGN.md §15): with a cap installed, at
    most [cap] RX frames are ever promised to the kernel (clamped up to
    the fill floor), so a flood can add at most [cap] frames of rx-ring
    queueing delay before the excess dies at the NIC.  Without a cap
    (the default) refill tops up to every free frame, which under
    sustained overload buffers a whole ring of bloat ahead of the
    admission gate. *)

val set_pressure : t -> (unit -> bool) -> unit
(** Install the shard-pressure query for the transmit path (the runtime
    points it at {!Overload.under_pressure}).  While it returns [true],
    UMem exhaustion in {!transmit} fails fast — one retry instead of
    the full exponential-backoff budget — and does {e not} count as a
    breaker failure: under a legitimate flood the frames are pinned by
    the very traffic being shed, blocking the caller for the whole
    budget serializes the drain loop that would free them, and a
    failover would only slow that drain further.  The caller accounts
    the refusal as an overload shed. *)

val set_note_backlog : t -> (int -> unit) -> unit
(** Install the overload depth feed: each receive-loop iteration
    reports the xRX backlog — frames the kernel has produced that the
    enclave has not yet consumed — to the shard's controller (the
    runtime points it at {!Overload.note_depth} with this XSK's source
    index).  A flooded ring then saturates the shard even while the
    socket queue behind it stays shallow. *)

val set_breaker : t -> Health.t -> unit
(** Attach the XSK circuit breaker.  The FM feeds it terminal signals:
    forced TX re-kicks (a rekick period with outstanding TX and no
    completions), UMem exhaustion that outlasts the backoff budget,
    xTX ring-full drops and reinits that leave a ring quarantined are
    failures; reaped completions are successes (clearing the streak,
    or — in half-open — settling the probe frame's verdict). *)

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

val tx_frame_drops : t -> int
(** Transmits abandoned because no UMem frame was free. *)

val tx_rekicks : t -> int
(** Forced TX wakeups requested by the rekick timer
    (["<name>.tx_rekicks"]). *)

val reinits : t -> int
(** Quarantine-and-reinit episodes: persistent certified-ring failures
    (≥ 32 across consecutive iterations) triggered a ring resync
    (["<name>.reinits"]). *)

val reinit_reclaimed : t -> int
(** UMem frames pulled home by those reinits
    (["<name>.reinit_reclaimed"]) — frames the kernel would otherwise
    have leaked forever. *)

val rx_starvation_reclaims : t -> int
(** Reinits forced by the stranded-RX deadman
    (["<name>.rx_starvation_reclaims"]): RX frames stayed promised to
    the kernel — consumed off xFill, never surfacing on xRX — for a
    full {!Sgx.Params.xsk_rx_reclaim_period} with every ring view
    self-consistent.  Descriptor refusals under attack strand frames
    this way; without the deadman the fill clamp then starves refill
    forever with the breaker closed (metastable wedge). *)

val invariant_holds : t -> bool
(** Paper eq. 1 on all four rings — the Testing Module's property. *)

val pp_init_error : Format.formatter -> init_error -> unit
