let enclave_exit_cycles = ref 8200L

let syscall_cycles = 500L

let libos_dispatch_cycles = 800L

let memcpy_cycles_per_byte = 0.06

let boundary_copy_extra_per_byte = 0.25

let kernel_udp_softirq_per_packet = 1200L

let kernel_udp_rx_syscall_cycles = 1800L

let kernel_udp_tx_syscall_cycles = 2600L

let kernel_tcp_per_op = 3000L

let xdp_redirect_per_packet = 350L

let enclave_udp_stack_per_packet = ref 1700L

let iouring_kernel_per_op = 600L

let iouring_sync_wait_cycles = 1200L

let iouring_copy_cycles_per_byte = 0.06

let zc_notif_base_cycles = 800L

let switchless_rpc_cycles = 1500L

let vfs_per_op = 1000L

let storage_cycles_per_byte = 0.12

let mm_poll_period = 2000L

(* Fault model and recovery clocks (DESIGN.md §8). *)

let mm_heartbeat_period = 50_000L
(* MM loop liveness beat while idle: ~20 us at 2.4 GHz. *)

let watchdog_period = 100_000L
(* How often the in-enclave watchdog samples the MM heartbeat. *)

let retry_limit = 8
(* Retries of one transient host failure before an FM gives up with
   ETIMEDOUT. *)

let backoff_base = 500L

let backoff_cap = 16_000L
(* First retry backoff (doubling per attempt) and its ceiling. *)

let watchdog_timeout = 150_000L
(* Heartbeat staleness beyond which the MM counts as dead/hung: three
   missed beats.  Worst-case detection latency is period + timeout. *)

let xsk_rekick_period = 20_000L
(* Idle timeout while TX frames are outstanding before the FM forces a
   sendto wakeup — recovers from a dropped/withheld xTX wakeup. *)

let xsk_rx_reclaim_period = 150_000L
(* How long RX frames may stay stranded — consumed off xFill by the
   kernel yet never surfacing on xRX — before the FM declares them lost
   to a dead ring epoch and sweeps them home via reinit. *)

let fault_wakeup_delay = 5_000L
(* Extra latency a Delay_wakeup fault adds to one wakeup syscall. *)

let fault_nic_stall = 50_000L
(* Length of one injected NIC transmit stall window. *)

let fault_wire_delay = 20_000L
(* Extra in-flight latency a Wire_delay fault adds to one frame. *)

let fault_wire_reorder_flush = 30_000L
(* How long a Wire_reorder fault may hold a frame waiting for a
   successor to overtake it before the link flushes it anyway — the
   bound that makes reordering a latency event, never a loss. *)

(* Bounded IPv4 reassembly (DESIGN.md §16).  Every cap is small: the
   reassembler sits on the untrusted rx path, so a hostile host gets a
   short, fixed-size window — never a parking lot it can fill. *)

let reassembly_timeout = 2_000_000L
(* How long an incomplete reassembly may wait for its missing fragments
   (~0.8 ms at 2.4 GHz): generous against the link's bounded delay and
   reorder faults, tiny against RFC 791's 15 s. *)

let reassembly_max_datagrams = 64
(* Concurrent reassemblies across all sources. *)

let reassembly_max_per_source = 8
(* Concurrent reassemblies any single source IP may hold open. *)

let reassembly_max_fragments = 64
(* Fragments accepted into one reassembly before it is abandoned. *)

let arp_cache_capacity = 256
(* Resolved-neighbour entries the in-enclave ARP cache holds before
   evicting least-recently-used ones: the cache learns from untrusted
   wire traffic, so it must be a bounded working set, not a host-fed
   parking lot. *)

let fault_monitor_hang = 400_000L
(* How long a Monitor_hang fault freezes the MM loop: comfortably past
   watchdog_timeout, so a hang is indistinguishable from a crash. *)

let nic_link_gbps = 25.0

let nic_queue_len = 2048

let default_ring_size = 2048

let default_umem_size = 16 * 1024 * 1024

let umem_frame_size = 2048

let zc_frames = 32

let zc_frame_size = 16 * 1024

let udp_socket_buffer = 16 * 1024 * 1024

let wire_cycles_per_byte = Sim.Cycles.per_byte_at_gbps nic_link_gbps

(* The link rate actually charged by the NIC transmit engines.  A ref so
   the queue-scaling bench sweep can model a faster link (the 25 Gbps
   default saturates before a single enclave shard does); everything
   else leaves it alone. *)
let live_wire_cycles_per_byte = ref wire_cycles_per_byte

let set_link_gbps gbps =
  live_wire_cycles_per_byte := Sim.Cycles.per_byte_at_gbps gbps
