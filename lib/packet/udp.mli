(** UDP (RFC 768). *)

type t = { src_port : int; dst_port : int; payload : Bytes.t }

type error =
  | Truncated of int
  | Bad_length of int * int  (** header claims, buffer has *)
  | Bad_checksum of int * int  (** expected, found *)
  | Bad_port  (** source or destination port 0 is rejected *)

val header_size : int
(** 8. *)

val max_payload : int
(** Largest UDP payload in a standard 1500-byte MTU frame: 1472. *)

val build : src:Addr.Ip.t -> dst:Addr.Ip.t -> t -> Bytes.t
(** Serializes with the pseudo-header checksum filled in. *)

val write_header :
  src:Addr.Ip.t ->
  dst:Addr.Ip.t ->
  Bytes.t ->
  off:int ->
  src_port:int ->
  dst_port:int ->
  payload_len:int ->
  unit
(** Write the 8-byte header at [off] over a payload already in place at
    [off + header_size]: the checksum covers it.  The one serializer
    behind {!build} and [Frame.build_udp]. *)

(** {1 In-place validation}

    The one UDP validation routine: {!parse} is {!validate} plus a
    payload copy. *)

val validate :
  src:Addr.Ip.t ->
  dst:Addr.Ip.t ->
  Bytes.t ->
  off:int ->
  len:int ->
  (int, error) result
(** Check the datagram in the [len] bytes at [off]: length field, ports,
    then (when the stored checksum is non-zero) that pseudo-header plus
    datagram, stored checksum included, sum to 0xffff.  [Ok n]: the
    [n]-byte payload starts at [off + header_size].  The [expected]
    checksum of [Bad_checksum] is computed only on that error path.
    Raises [Invalid_argument] when the range exceeds the buffer. *)

val src_port_at : Bytes.t -> int -> int

val dst_port_at : Bytes.t -> int -> int

(** {1 Copying parser} *)

val parse : src:Addr.Ip.t -> dst:Addr.Ip.t -> Bytes.t -> (t, error) result
(** {!validate} over the whole buffer; the returned payload is a copy. *)

val pp_error : Format.formatter -> error -> unit
