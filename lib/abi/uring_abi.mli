(** io_uring wire ABI: submission and completion queue entries.

    The layout is a faithful subset of the Linux ABI: 64-byte SQEs and
    16-byte CQEs living in shared (untrusted) memory, manipulated through
    {!Mem.Region} accessors at ring-slot offsets.  RAKIS uses io_uring
    for five syscalls (paper §4.2) — send/recv on TCP sockets, read,
    write and poll; [Nop] exists for testing.

    The zero-copy extension (docs/zerocopy.md) adds three opcodes and a
    CQE [flags] word.  [Send_zc]/[Sendmsg_zc] complete in {e two phases}:
    a completion CQE carrying {!cqe_f_more} (the byte count), then a
    later notification CQE carrying {!cqe_f_notif} once the NIC has
    drained the buffer — only the notif returns buffer ownership to the
    submitter.  [Recv_multi] is multishot: one SQE produces a stream of
    CQEs, each flagged {!cqe_f_more} (+ {!cqe_f_buffer} with the provided
    buffer id in the upper bits); the terminating CQE carries no
    [cqe_f_more]. *)

type opcode =
  | Nop
  | Read
  | Write
  | Send
  | Recv
  | Poll_add
  | Send_zc  (** zero-copy send: completion + later notif CQE *)
  | Sendmsg_zc  (** msghdr variant of [Send_zc]; same lifetime rules *)
  | Recv_multi  (** multishot receive into provided (registered) buffers *)

type sqe = {
  opcode : opcode;
  fd : int;
  file_off : int64;  (** file offset for read/write; ignored otherwise *)
  addr : int;  (** byte offset of the IO buffer in the shared region *)
  len : int;
  poll_events : int;  (** POLLIN/POLLOUT mask for [Poll_add] *)
  user_data : int64;
  buf_index : int;
      (** registered-buffer table index when [fixed]; provided-buffer
          group id for [Recv_multi]; ignored otherwise *)
  fixed : bool;
      (** the IO buffer is a registered buffer: the kernel DMAs straight
          from/into the pinned frame instead of bouncing through a
          kernel-side copy *)
}

type cqe = { user_data : int64; res : int; flags : int }
(** [res] is the syscall-style result: >= 0 on success, [-errno] on
    failure.  [flags] is a {!cqe_f_more}/{!cqe_f_notif}/{!cqe_f_buffer}
    bit set (plus a buffer id in the upper bits, see {!cqe_buffer_id}). *)

val sqe_size : int
(** 64. *)

val cqe_size : int
(** 16. *)

val pollin : int

val pollout : int

val mask_of_events : [< `In | `Out ] list -> int
(** The poll mask ({!pollin}/{!pollout}) of a set of events. *)

val events_of_mask : int -> [> `In | `Out ] list

val cqe_f_buffer : int
(** The upper {!cqe_buffer_shift} bits of [flags] carry the id of the
    provided buffer the kernel wrote into (multishot recv). *)

val cqe_f_more : int
(** More CQEs follow for the same SQE: a zero-copy completion whose
    notif is still pending, or a non-final multishot hit.  A buffer
    referenced by a CQE with this flag is {e still owned by the
    kernel}. *)

val cqe_f_notif : int
(** Zero-copy notification: the NIC is done with the buffer and
    ownership returns to the submitter.  This CQE — never the
    completion — is what releases the frame (SNIPPETS.md Snippet 1:
    the buffer node hangs off the notif, not the request). *)

val cqe_buffer_shift : int
(** 16. *)

val cqe_buffer_id : int -> int
(** [cqe_buffer_id flags] extracts the provided-buffer id. *)

val opcode_to_int : opcode -> int

val opcode_of_int : int -> opcode option

val write_sqe : Mem.Region.t -> int -> sqe -> unit
(** Serialize at a slot offset. *)

val read_sqe : Mem.Region.t -> int -> (sqe, string) result
(** Total over arbitrary bytes: an unknown opcode is an [Error], not an
    exception — the kernel (and the FM) must survive garbage. *)

val write_cqe : Mem.Region.t -> int -> cqe -> unit

val read_cqe : Mem.Region.t -> int -> cqe

(** {2 In place}

    The same encoding read and written straight in a ring slot, with
    native ints, so that neither side builds a record or boxes an
    [int64] per entry: [sqe_len r off] is [(read_sqe r off).len] for a
    valid SQE, and so on.  A 64-bit field ([file_off], [addr],
    [user_data]) reads as its low 63 bits, as [Int64.to_int] keeps them,
    and is written sign-extended, as [Int64.of_int] makes it; a
    [user_data] that does not fit 63 bits is indistinguishable from the
    one that differs in bit 63 only.  The FM issues identities counting
    up from 1, and a host that forges one gains nothing by choosing that
    spelling over the exact one. *)

val set_sqe :
  Mem.Region.t ->
  int ->
  opcode:opcode ->
  fd:int ->
  file_off:int ->
  addr:int ->
  len:int ->
  poll_events:int ->
  user_data:int ->
  buf_index:int ->
  fixed:bool ->
  unit

val sqe_opcode : Mem.Region.t -> int -> opcode option
(** [None] for a byte that names no opcode. *)

val sqe_fd : Mem.Region.t -> int -> int

val sqe_file_off : Mem.Region.t -> int -> int

val sqe_addr : Mem.Region.t -> int -> int

val sqe_len : Mem.Region.t -> int -> int

val sqe_poll_events : Mem.Region.t -> int -> int

val sqe_user_data : Mem.Region.t -> int -> int

val sqe_buf_index : Mem.Region.t -> int -> int

val sqe_fixed : Mem.Region.t -> int -> bool

val set_cqe : Mem.Region.t -> int -> user_data:int -> res:int -> flags:int -> unit

val cqe_user_data : Mem.Region.t -> int -> int

val cqe_res : Mem.Region.t -> int -> int

val cqe_flags : Mem.Region.t -> int -> int

val res_of_errno : Errno.t -> int
(** [-errno]. *)
