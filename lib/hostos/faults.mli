(** The faulty (but not malicious) host kernel.

    RAKIS's host is untrusted in two distinct ways: it may lie
    ({!Malice} — Table 2 tampering) and it may simply {e fail} — wakeup
    syscalls withheld or late, io_uring submissions bounced with
    transient errnos, short reads/writes, partial completion batches,
    a stalled NIC, a crashed or hung Monitor thread.  This module is
    the second half of that threat model: a seeded, schedulable fault
    injector consulted by the kernel's syscall, io_uring, XDP-wakeup
    and NIC paths, mirroring {!Malice}'s arming/roll/record discipline
    so faults and attacks compose in one campaign.

    Every fault is {e legal-but-unhelpful} host behaviour: nothing here
    corrupts data or indices (that is Malice's job), so the enclave's
    obligation is pure availability — retry, back off, re-kick, restart
    — with zero integrity loss and zero leaked UMem frames. *)

type fault =
  | Transient_errno
      (** io_uring: post [-EAGAIN]/[-EINTR]/[-ENOBUFS]/[-EIO] instead of
          executing the SQE (the op never ran; retry is legal) *)
  | Short_io
      (** io_uring: truncate the length of a Read/Write/Send SQE — the
          kernel transfers a prefix and reports it honestly *)
  | Partial_cqe
      (** io_uring: the worker stops draining iSub mid-batch; the tail
          stays queued until the next [io_uring_enter] *)
  | Drop_wakeup  (** a wakeup syscall is silently swallowed *)
  | Delay_wakeup
      (** a wakeup syscall is delayed by
          {!Sgx.Params.fault_wakeup_delay} before taking effect *)
  | Nic_stall
      (** the NIC transmit process pauses for
          {!Sgx.Params.fault_nic_stall} cycles before the next frame *)
  | Monitor_crash  (** the Monitor thread exits (detected by heartbeat) *)
  | Monitor_hang
      (** the Monitor thread freezes for
          {!Sgx.Params.fault_monitor_hang} cycles *)
  | Wire_drop  (** the link loses the frame in flight (counted: the NIC
          books it under [nic.<id>.wire.drop], which rolls up into
          {!Nic.wire_losses} and the runtime's accounted-drop total) *)
  | Wire_dup  (** the link delivers the frame twice *)
  | Wire_reorder
      (** bounded reorder: the frame is held back and delivered after
          the next frame on the link (or after
          {!Sgx.Params.fault_wire_reorder_flush} cycles if the link
          goes idle — a held frame is never silently lost) *)
  | Wire_delay
      (** the frame arrives {!Sgx.Params.fault_wire_delay} cycles late,
          without blocking frames behind it *)
  | Wire_trunc
      (** the frame is cut to a random shorter length (>= 1 byte): a
          CRC-style mid-frame loss the parsers must reject *)
  | Wire_runt  (** the frame is cut below the 14-byte Ethernet header *)
  | Wire_giant
      (** the frame grows a garbage tail past the UMem frame size, so
          the receive edge must refuse it as oversize *)

(** When an armed fault fires (same semantics as {!Malice}'s triggers). *)
type trigger =
  | Probability of float  (** each opportunity, with this probability *)
  | Once of float  (** rolls each opportunity; spent on the first hit *)
  | At_step of int  (** once, at the first opportunity on/after a step *)
  | Burst of { first_step : int; last_step : int; probability : float }
  | Persistent
      (** every opportunity, forever — never spent, never heals.  The
          canonical way to force a circuit breaker open: the fault
          outlives every retry budget, so only failover keeps the run
          alive. *)

type t

val create : ?obs:Obs.t -> seed:int64 -> unit -> t
(** [obs] puts the injected counts in the shared registry —
    ["faults.injected"] plus one ["faults.<fault-name>"] counter per
    fault — and records a ["faults"] trace instant per injection. *)

val arm : t -> ?probability:float -> ?shard:int -> fault -> unit
(** Fire with [probability] (default 1.0) at each opportunity.
    Replaces any schedule previously installed for the fault.  [shard]
    pins the arming to one datapath shard: it only matches opportunities
    whose {!roll} carries the same shard context, so an attack on shard
    [k] provably cannot touch shard [j]'s traffic. *)

val arm_once : t -> ?probability:float -> ?shard:int -> fault -> unit

val arm_at : t -> step:int -> ?shard:int -> fault -> unit

val arm_burst :
  t ->
  first_step:int ->
  last_step:int ->
  ?probability:float ->
  ?shard:int ->
  fault ->
  unit

val arm_persistent : t -> ?shard:int -> fault -> unit
(** {!Persistent}: fire at every opportunity until {!disarm}. *)

val disarm : t -> fault -> unit

val armed : t -> fault -> bool

val set_step : t -> int -> unit
(** Advance the step counter ({!arm_at}/{!arm_burst} clock).  Campaign
    drivers call this per workload step; [rakis_run --faults] ticks it
    on simulated time. *)

val step : t -> int

val roll : ?shard:int -> t option -> fault -> bool
(** Should the fault fire now?  [None] (no injector) is never.  [shard]
    is the datapath shard this opportunity belongs to (if any): armings
    pinned to a shard match only opportunities on that shard, unpinned
    armings match all opportunities. *)

val rng : t -> Sim.Rng.t

val armings : t -> (fault * trigger * int option * bool) list
(** Every installed arming as [(fault, trigger, shard pin, spent)], in
    deterministic {!all_faults} + installation order — the pure
    observation hook the Testing Module's explorer hashes as the fault
    dimension of its product state (DESIGN.md §11). *)

val record : t -> fault -> unit
(** Called by kernel paths when they actually inject a fault. *)

val injected : t -> int
(** Total faults injected (incremented by {!record}). *)

val injected_of : t -> fault -> int

val injected_counts : t -> (fault * int) list
(** Faults that fired at least once, with counts, in {!all_faults}
    order. *)

val pick_errno : t -> Abi.Errno.t
(** Uniform choice from {!Abi.Errno.transient} (for [Transient_errno]). *)

val all_faults : fault list

val fault_name : fault -> string
(** Stable kebab-case name (the {!pp_fault} rendering). *)

val fault_of_string : string -> fault option

val pp_fault : Format.formatter -> fault -> unit

(** {1 Plans}

    A plan is a printable fault schedule: what campaign repro tokens
    embed and what the [--faults] CLI flags parse.  Entry syntax, [;]
    separated:
    - ["@P=fault"] — {!Probability} [P];
    - ["once=fault"] / ["once@P=fault"] — {!Once};
    - ["STEP=fault"] — {!At_step};
    - ["A..B@P=fault"] — {!Burst};
    - ["persist=fault"] — {!Persistent}.

    A ["#k"] suffix on the fault name (e.g. ["persist=drop-wakeup#1"])
    pins the entry to datapath shard [k]. *)

val trigger_to_string : trigger -> string
(** The part of an entry left of its [=]: ["@P"], ["once"], ["once@P"],
    ["STEP"], ["A..B@P"] or ["persist"].  [P] is the shortest decimal
    that reads back as the same float, so a printed plan replays
    bit-for-bit.  Campaign attack schedules share this grammar. *)

val trigger_of_string : string -> (trigger, string) result
(** Inverse of {!trigger_to_string}; never raises. *)

type plan_entry = { fault : fault; when_ : trigger; shard : int option }

type plan = plan_entry list

val install_plan : t -> plan -> unit

val plan_to_string : plan -> string
(** Inverse of {!plan_of_string} (canonical rendering). *)

val plan_of_string : string -> (plan, string) result
(** [""] parses to the empty plan. *)

val pp_plan : Format.formatter -> plan -> unit
