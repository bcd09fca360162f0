(** Ethernet II framing. *)

type ethertype = Ipv4 | Arp | Unknown of int

type t = {
  dst : Addr.Mac.t;
  src : Addr.Mac.t;
  ethertype : ethertype;
  payload : Bytes.t;
}

type error = Truncated of int  (** actual length; a frame needs >= 14 B *)

val header_size : int
(** 14. *)

val ethertype_to_int : ethertype -> int

val ethertype_of_int : int -> ethertype

val build : t -> Bytes.t
(** Serialize header + payload into a fresh buffer. *)

val write_header :
  Bytes.t -> off:int -> dst:Addr.Mac.t -> src:Addr.Mac.t -> ethertype -> unit
(** Write the 14-byte header at [off] — the one serializer behind
    {!build} and [Frame.build_udp]. *)

(** {1 In-place validation}

    The one Ethernet validation routine: {!parse} and {!parse_sub} are
    {!validate} plus a payload copy.  Callers that only need the header
    fields read them from the buffer with the [_at] accessors — valid
    only on a range {!validate} accepted — and copy no payload. *)

val validate : Bytes.t -> off:int -> len:int -> int
(** Check the [len]-byte frame at [off]: the length [n] of its payload,
    which starts at [off + header_size], or -1 when [len] is shorter
    than a header (the one Ethernet error, [Truncated len]).  A plain
    int, so validating allocates nothing.  Raises [Invalid_argument]
    when the range exceeds the buffer. *)

val dst_at : Bytes.t -> int -> Addr.Mac.t

val dst_is : Bytes.t -> int -> Addr.Mac.t -> bool
(** [dst_is b off mac]: whether the destination at [off] is [mac],
    compared in place. *)

val src_at : Bytes.t -> int -> Addr.Mac.t

val ethertype_at : Bytes.t -> int -> ethertype

(** {1 Copying parsers} *)

val parse : Bytes.t -> (t, error) result
(** The payload is a copy: callers may mutate it freely. *)

val parse_sub : Bytes.t -> len:int -> (t, error) result
(** Parse the first [len] bytes of a possibly larger (borrowed) buffer;
    the payload is still a fresh copy, so the buffer may be reused as
    soon as this returns.  Raises [Invalid_argument] when [len] exceeds
    the buffer. *)

val pp_error : Format.formatter -> error -> unit
