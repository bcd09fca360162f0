(** The faulty (but not malicious) host kernel.

    RAKIS's host is untrusted in two distinct ways: it may lie
    ({!Malice} — Table 2 tampering) and it may simply {e fail} — wakeup
    syscalls withheld or late, io_uring submissions bounced with
    transient errnos, short reads/writes, partial completion batches,
    a stalled NIC, a crashed or hung Monitor thread.  This module is
    the second half of that threat model: the {!Injector} instance over
    host faults, consulted by the kernel's syscall, io_uring,
    XDP-wakeup and NIC paths.  It shares {!Malice}'s trigger engine and
    plan grammar, so faults and attacks compose in one campaign.

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

val all : fault list

val name : fault -> string
(** Stable kebab-case name: the plan grammar's fault name. *)

include Injector.S with type event = fault
(** Registry names: ["faults.injected"] and one ["faults.<name>"]
    counter per fault; trace category ["faults"]. *)

val pick_errno : t -> Abi.Errno.t
(** Uniform choice from {!Abi.Errno.transient} (for [Transient_errno]). *)
