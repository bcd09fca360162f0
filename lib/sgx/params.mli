(** Calibration constants for the simulated testbed.

    These are the only tuned numbers in the reproduction; every figure is
    generated from this single set.  Time unit: CPU cycles of the paper's
    Xeon Gold 6312U @ 2.40 GHz ({!Sim.Cycles.frequency_hz}).  Provenance
    for each value is given inline; EXPERIMENTS.md discusses
    sensitivity. *)

val enclave_exit_cycles : int64 ref
(** Cost of one EEXIT + OCALL + EENTER round trip: 8,200 cycles, the
    floor reported by Weisse et al. (HotCalls, ISCA'17), cited in paper
    §2.1.  Mutable (with {!enclave_udp_stack_per_packet}) so the
    sensitivity bench can sweep it; everything else treats it as a
    constant. *)

val syscall_cycles : int64
(** Bare Linux syscall entry/exit and dispatch: ~500 cycles (getpid-class
    measurements on Ice Lake with KPTI). *)

val libos_dispatch_cycles : int64
(** Gramine's in-enclave syscall emulation shim per IO syscall (FD table,
    handle locking, argument marshalling): ~800 cycles — chosen so
    Gramine-Direct lands ~25 % under native on small-packet UDP, the
    paper's Figure 4(a) observation. *)

val memcpy_cycles_per_byte : float
(** Plain memcpy throughput: ~0.06 cycles/B (≈ 40 GB/s single core). *)

val boundary_copy_extra_per_byte : float
(** Additional per-byte cost of copies that cross the enclave boundary
    (MEE-encrypted EPC on one side): ~0.25 cycles/B, matching the 3-5x
    memcpy slowdown reported for EPC traffic in prior SGX studies
    (paper §6.2 attributes RAKIS-SGX's fstime overhead to this). *)

val kernel_udp_softirq_per_packet : int64
(** Kernel receive softirq per packet (driver, route, socket lookup,
    skb enqueue): ~1,200 cycles, charged in the NIC queue context. *)

val kernel_udp_rx_syscall_cycles : int64
(** recvfrom syscall-side work (socket lock, skb dequeue, copy_to_user
    bookkeeping): ~1,800 cycles, charged to the receiving thread.
    Together with the bare syscall cost this yields ~1 Mpps for a
    single-socket native receiver — the right magnitude for iperf3. *)

val kernel_udp_tx_syscall_cycles : int64
(** sendto syscall-side work (full TX stack traversal down to the
    driver queue): ~2,600 cycles. *)

val kernel_tcp_per_op : int64
(** Kernel TCP send/recv path per call: ~3,000 cycles. *)

val xdp_redirect_per_packet : int64
(** XDP program run + XSK redirect per packet: ~350 cycles (AF_XDP
    technology-guide numbers are 4-5x the full stack's pps). *)

val enclave_udp_stack_per_packet : int64 ref
(** RAKIS's in-enclave slimmed UDP/IP stack per packet: ~1,700 cycles —
    a trimmed LWIP is slower per packet at raw parsing than the
    optimized kernel fast path, but avoids all syscall machinery; with
    the boundary copy this puts the RAKIS receive path ~10 % under the
    native per-packet cost, the paper's C1 margin.  Mutable for the
    sensitivity bench. *)

val iouring_kernel_per_op : int64
(** Kernel-side io_uring SQE fetch + dispatch + CQE post: ~600 cycles. *)

val iouring_sync_wait_cycles : int64
(** Latency a synchronous caller pays waiting for the asynchronous
    kernel worker to pick up its SQE (paper §6.2: "waiting for another
    thread to execute the task"): ~1,200 cycles. *)

val iouring_copy_cycles_per_byte : float
(** Kernel-side copy between the shared IO buffer and kernel/page-cache
    memory on the classic (non-registered) io_uring data ops: plain
    memcpy throughput, ~0.06 cycles/B.  Fixed-buffer ops and
    [SEND_ZC]/[SENDMSG_ZC] skip it — the kernel DMAs straight from the
    pinned registered frame, which is exactly the zero-copy payoff
    (docs/zerocopy.md). *)

val zc_notif_base_cycles : int64
(** Fixed latency between a zero-copy completion CQE and its notif CQE —
    softirq + ubuf_info release once the NIC has drained the skb frags:
    ~800 cycles, on top of the wire serialization time of the payload. *)

val switchless_rpc_cycles : int64
(** Hand-off latency of a switchless (exitless) syscall to an untrusted
    RPC worker thread, HotCalls/Eleos-style (paper §8): ~1,500 cycles —
    the spin-wait round trip HotCalls reports (~620 cycles each way)
    plus queueing. *)

val vfs_per_op : int64
(** VFS write/read path per call (page-cache hit): ~1,000 cycles. *)

val storage_cycles_per_byte : float
(** Page-cache copy cost per byte on the file path: ~0.12 cycles/B. *)

val mm_poll_period : int64
(** MM thread polling period over the shared producer indices: 2,000
    cycles — frequent enough that wakeup latency is negligible, as the
    paper's dedicated-thread design intends. *)

(** {1 Fault model and recovery clocks (DESIGN.md §8)} *)

val mm_heartbeat_period : int64
(** MM loop liveness beat while idle: 50,000 cycles (~20 µs), the clock
    the in-enclave watchdog samples. *)

val watchdog_period : int64
(** How often the watchdog samples the MM heartbeat: 100,000 cycles. *)

val retry_limit : int
(** Max retries of one transient host failure before an FM gives up and
    reports [ETIMEDOUT] (DESIGN.md §8): 8. *)

val backoff_base : int64
(** First retry backoff, doubling per attempt: 500 cycles. *)

val backoff_cap : int64
(** Retry backoff ceiling: 16,000 cycles (~6.7 µs). *)

val watchdog_timeout : int64
(** Heartbeat staleness beyond which the MM counts as dead or hung:
    150,000 cycles (three missed beats).  Worst-case detection latency
    is [watchdog_period + watchdog_timeout]. *)

val xsk_rekick_period : int64
(** Idle timeout while TX frames are outstanding before the XSK FM
    forces a sendto wakeup: 20,000 cycles — recovers from a dropped or
    withheld xTX wakeup. *)

val xsk_rx_reclaim_period : int64
(** How long RX frames may stay {e stranded} — consumed off xFill by
    the kernel yet never surfacing on xRX (their descriptors were
    refused, or the kernel lied about consuming them) — before the FM
    declares them lost to a dead ring epoch and sweeps them home:
    150,000 cycles.  Bounds the metastable wedge where refused
    descriptors pin every promised frame, the fill clamp then starves
    refill forever, and no batch operation ever runs to accumulate the
    ring-check failures that would trigger quarantine-and-reinit. *)

val fault_wakeup_delay : int64
(** Extra latency a [Delay_wakeup] fault adds to one wakeup syscall:
    5,000 cycles. *)

val fault_nic_stall : int64
(** Length of one injected NIC transmit stall window: 50,000 cycles. *)

val fault_wire_delay : int64
(** Extra in-flight latency a [Wire_delay] fault adds to one frame:
    20,000 cycles (~8 µs). *)

val fault_wire_reorder_flush : int64
(** Upper bound on how long a [Wire_reorder] fault may hold a frame
    waiting to be overtaken before the link delivers it anyway: 30,000
    cycles.  Reordering is bounded in time as well as distance, so a
    held frame can never turn into silent loss. *)

(** {1 Bounded IPv4 reassembly (DESIGN.md §16)}

    Every cap is deliberately small: the reassembler sits on the
    untrusted rx path, so a hostile host gets a short, fixed-size
    window — never a parking lot it can fill. *)

val reassembly_timeout : int64
(** How long an incomplete reassembly may wait for its missing
    fragments: 2,000,000 cycles (~0.8 ms) — generous against the link's
    bounded delay/reorder faults, tiny against RFC 791's 15 s. *)

val reassembly_max_datagrams : int
(** Concurrent reassemblies across all sources: 64. *)

val reassembly_max_per_source : int
(** Concurrent reassemblies any single source IP may hold open: 8. *)

val reassembly_max_fragments : int
(** Fragments accepted into one reassembly before it is abandoned: 64. *)

val arp_cache_capacity : int
(** Resolved-neighbour entries the in-enclave ARP cache holds before
    evicting least-recently-used ones: 256.  The cache learns from
    untrusted wire traffic, so it is a bounded working set, never a
    host-fed parking lot. *)

val fault_monitor_hang : int64
(** How long a [Monitor_hang] fault freezes the MM loop: 400,000 cycles,
    comfortably past {!watchdog_timeout} so a hang is indistinguishable
    from a crash. *)

val nic_link_gbps : float
(** 25.0 — the testbed's loopback-wired link capacity. *)

val nic_queue_len : int
(** 2,048 descriptors per NIC queue (paper §6.1 setup). *)

val default_ring_size : int
(** 2,048 entries per XSK ring (paper §6.1 setup). *)

val default_umem_size : int
(** 16 MiB UMem (paper §6.1 setup). *)

val umem_frame_size : int
(** 2,048 B per UMem frame — one MTU-sized packet per frame, the AF_XDP
    default. *)

val zc_frames : int
(** Registered frames per io_uring FM zero-copy pool (docs/zerocopy.md):
    32. *)

val zc_frame_size : int
(** Bytes per registered zero-copy frame: 16 KiB — large frames amortize
    per-op costs on streaming sends. *)

val udp_socket_buffer : int
(** 16 MiB kernel UDP socket buffer (paper §6.1 setup). *)

val wire_cycles_per_byte : float
(** Link serialization cost, from {!nic_link_gbps}. *)

val live_wire_cycles_per_byte : float ref
(** The serialization cost NIC transmit engines charge right now.
    Defaults to {!wire_cycles_per_byte}; the bench queue sweep raises
    the link rate through {!set_link_gbps} so aggregate throughput is
    bounded by the enclave datapath, not the wire. *)

val set_link_gbps : float -> unit
(** Reset {!live_wire_cycles_per_byte} for a [gbps] link. *)
