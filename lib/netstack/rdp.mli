(** Loss-tolerant reliable datagrams over UDP (DESIGN.md §16).

    A deliberately small ARQ layer for the hostile wire: [DATA] carries
    a per-peer sequence number, the receiver always answers [ACK], the
    sender retransmits on a {!Sim.Backoff}-driven clock seeded from a
    Jacobson/Karels RTO estimate (Karn-filtered samples), and gives up
    — visibly, counted in {!gave_up} — after a bounded number of
    attempts.  Receivers deduplicate with a 64-entry sliding window, so
    the faults RDP exists to absorb (duplication, replay, bounded
    reorder) never deliver twice.

    The engine is pure protocol state: no sockets, no timers, no
    fibers.  Callers thread [now] through every entry point and put the
    returned datagrams on whatever wire they have — {!Apps.Rdp_link}
    pumps one over a {!Libos.Api} UDP socket; tests and the fuzzer
    drive it directly.  Everything is deterministic in the call
    sequence, so campaign repro tokens replay runs exactly.

    RDP is opt-in per workload (loadgen, udp_echo, the KV client): the
    plain datapath stays byte-identical when it is off. *)

type t

type addr = Packet.Addr.Ip.t * int

val create : ?max_attempts:int -> unit -> t
(** A fresh endpoint; its counters ({!retransmits} … {!junk}) start at 0.
    The RTO starts at 200 µs before the first sample and is clamped to [50 µs, 2 ms].
    [max_attempts] (6) bounds total transmissions of one datagram; at
    most 64 datagrams (the dedup window's depth) stay unacked per peer,
    the oldest abandoned (an accounted give-up) rather than growing.

    @raise Invalid_argument if [max_attempts < 1]. *)

val send : t -> now:int64 -> dst:addr -> Bytes.t -> Bytes.t
(** Wrap [payload] for [dst], register it for retransmission, and
    return the wire datagram to transmit now. *)

type rx =
  | Deliver of Bytes.t * Bytes.t
      (** Fresh payload, plus the ack datagram to send back to [src]. *)
  | Duplicate of Bytes.t
      (** Already delivered (dup/replay): re-ack with this, drop. *)
  | Acked  (** One of our pending DATA was confirmed. *)
  | Ack_unknown  (** Ack for nothing pending (late or duplicated). *)
  | Junk  (** Not an RDP datagram; never raises on any bytes. *)

val input : t -> now:int64 -> src:addr -> Bytes.t -> rx

val due : t -> now:int64 -> (addr * Bytes.t) list
(** Retransmissions whose deadline passed, oldest-first per peer; each
    advances its attempt counter and {!Sim.Backoff} delay.  Datagrams
    out of attempts are abandoned instead (counted in {!gave_up}) and
    not returned. *)

val next_deadline : t -> int64 option
(** Earliest retransmit deadline over all pending datagrams — feed it
    (minus [now]) to the poll timeout. *)

val pending : t -> int
(** Unacked DATA across all peers. *)

val abandon : t -> unit
(** Give up every pending DATA (all counted): endpoint teardown must
    not let unacked sends vanish without an accounting trail. *)

val retransmits : t -> int

val acked : t -> int

val gave_up : t -> int
(** Datagrams abandoned after [max_attempts] (or window overflow) —
    the {e accounted} loss this layer admits to. *)

val dups : t -> int
(** Received DATA suppressed by the dedup window. *)

val junk : t -> int
(** Received datagrams that failed RDP framing. *)
