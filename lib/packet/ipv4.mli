(** IPv4 headers (RFC 791), without options — matching the slimmed LWIP
    the paper retains for RAKIS's UDP path.  {!parse} still refuses
    fragments (the XDP fast path treats them as an exception, not the
    rule); {!parse_fragment}/{!build_fragment} expose the fragment
    machinery so the netstack's bounded reassembler — and the hostile
    host impersonating one — can speak it (DESIGN.md §16). *)

type proto = Udp | Tcp | Icmp | Other of int

type t = {
  src : Addr.Ip.t;
  dst : Addr.Ip.t;
  proto : proto;
  ttl : int;
  ident : int;
  payload : Bytes.t;
}

type error =
  | Truncated of int
  | Bad_version of int
  | Bad_ihl of int
  | Bad_total_length of int * int  (** header claims, buffer has *)
  | Bad_checksum of int * int  (** expected, found *)
  | Fragmented
  | Ttl_expired

val header_size : int
(** 20 (no options). *)

val proto_to_int : proto -> int

val proto_of_int : int -> proto

type fragment = { packet : t; frag_offset : int; more : bool }
(** One fragment: [packet.payload] is this fragment's slice of the
    original datagram, starting [frag_offset] bytes in (always a
    multiple of 8); [more] is the wire MF bit.  An unfragmented packet
    is [{ frag_offset = 0; more = false }]. *)

val build : t -> Bytes.t
(** Serializes with a correct header checksum. *)

val build_fragment : t -> frag_offset:int -> more:bool -> Bytes.t
(** Like {!build} with the MF bit and fragment offset (in bytes) set.

    @raise Invalid_argument
      if [frag_offset] is negative, not a multiple of 8 or beyond the
      13-bit field. *)

val write_header :
  Bytes.t ->
  off:int ->
  src:Addr.Ip.t ->
  dst:Addr.Ip.t ->
  proto:proto ->
  ttl:int ->
  ident:int ->
  flags_frag:int ->
  payload_len:int ->
  unit
(** Write the 20-byte header, checksum included, at [off] — the one
    serializer behind {!build}, {!build_fragment} and
    [Frame.build_udp].  [flags_frag] is the raw flags/offset word. *)

(** {1 In-place validation}

    The one IPv4 validation routine: {!parse} and {!parse_fragment} are
    {!validate} plus a payload copy.  The [_at] accessors read header
    fields of a packet {!validate} accepted straight from the buffer. *)

val validate :
  fragments:bool -> Bytes.t -> off:int -> len:int -> (int, error) result
(** Check the [len]-byte packet at [off]: version, IHL, total length,
    header checksum, then — unless [fragments] — that it is not a
    fragment, then TTL > 0.  [Ok n]: the [n]-byte payload (trimmed to
    the header's total length) starts at [off + header_size].  The
    [expected] checksum of [Bad_checksum] is computed only on that
    error path.  Raises [Invalid_argument] when the range exceeds the
    buffer; never raises otherwise. *)

val src_at : Bytes.t -> int -> Addr.Ip.t

val dst_at : Bytes.t -> int -> Addr.Ip.t

val proto_at : Bytes.t -> int -> proto

val is_fragment_at : Bytes.t -> int -> bool
(** MF set or a non-zero fragment offset. *)

val fragment_at : Bytes.t -> int -> payload_len:int -> fragment
(** The header at [off] as a record, with a copy of its [payload_len]
    payload bytes — the single copy a fragment makes on its way to the
    reassembler. *)

(** {1 Copying parsers} *)

val parse : Bytes.t -> (t, error) result
(** {!validate} without [fragments] over the whole buffer; the returned
    payload is a copy. *)

val parse_fragment : Bytes.t -> (fragment, error) result
(** Like {!parse} but accepts fragments instead of rejecting them with
    [Fragmented]: same header validation, fragment metadata surfaced
    for the reassembler.  Never raises on any input. *)

val pp_error : Format.formatter -> error -> unit
