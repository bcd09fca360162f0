(** RAKIS runtime configuration.

    The paper's deployment story (§7): the user supplies only essential
    networking parameters — MAC address, IP address and NIC queue ids
    for the XSKs — plus memory sizing.  Values here are copied into
    trusted memory at startup and treated as the ground truth against
    which all host-provided values are checked (e.g. ring masks are
    derived from [ring_size], never read from the host). *)

type t = {
  ip : Packet.Addr.Ip.t;  (** the enclave's IP (defaults to iface 0's) *)
  mac : Packet.Addr.Mac.t;  (** the enclave's MAC *)
  num_xsks : int;  (** one FM thread per XSK (paper §4.1 QoS) *)
  num_queues : int;
      (** datapath shards: each shard owns one set of XSKs + UMem, its
          own in-enclave stack instance and its own Monitor, and serves
          the NIC queues whose RSS hash maps to it.  Default 1 — one
          shard over all NIC queues, the pre-sharding behaviour. *)
  ring_size : int;  (** entries per XSK ring (power of two) *)
  umem_size : int;  (** bytes of UMem per XSK *)
  uring_entries : int;  (** iSub entries per per-thread io_uring *)
  max_io_size : int;  (** bounce-buffer bytes per io_uring FM *)
  locking : Netstack.Stack.locking;  (** UDP/IP stack lock discipline *)
  use_sqpoll : bool;
      (** [IORING_SETUP_SQPOLL] (paper §4.3): a kernel thread polls iSub
          itself, so submissions need no [io_uring_enter] from the MM at
          all — trading a busy kernel thread for the last wakeup
          syscalls.  Default false (the paper's MM-driven design). *)
  max_pending : int;
      (** admission bound on in-flight io_uring ops per FM; beyond it
          new work is shed with [EAGAIN]; default 256 *)
  zerocopy : bool;
      (** enable the zero-copy io_uring datapath (docs/zerocopy.md):
          each FM registers a pool of {!Sgx.Params.zc_frames}
          shared-memory frames at setup;
          sends go out as [SEND_ZC] from Registered UMem frames (freed
          only on notif), file read/write use fixed-buffer SQEs (no
          kernel-side bounce copy) and TCP receive is armed multishot.
          Default false — the classic bounce-buffer path. *)
  overload : bool;
      (** enable the overload-control subsystem (DESIGN.md §15): one
          {!Overload} controller per datapath shard guarding the
          netstack rx queues (CoDel sojourn + hysteretic watermarks,
          with fill-ring edge throttling and [EAGAIN] send pushback)
          plus one runtime-wide controller on the io_uring pending
          tables.  Default false — no admission beyond [max_pending]. *)
}

val default : t
(** The paper's evaluation setup: 1 XSK, 2 K rings, 16 MiB UMem, 2 KiB
    frames, fine-grained stack locking. *)

val validate : t -> (unit, string) result
(** Sanity rules: positive XSK and queue counts, power-of-two rings,
    UMem a whole number of {!Sgx.Params.umem_frame_size} frames and at
    least [2 * ring_size] of them, positive [max_io_size] and
    [max_pending]. *)
