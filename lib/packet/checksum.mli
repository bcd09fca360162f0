(** RFC 1071 Internet checksum. *)

val ones_sum : ?init:int -> Bytes.t -> int -> int -> int
(** [ones_sum ~init b off len] folds the 16-bit one's-complement sum of
    [len] bytes starting at [off] into [init], a non-negative partial
    sum (an odd trailing byte is padded with zero, as the RFC
    specifies).  A [len <= 0] sums nothing and returns [init] folded;
    otherwise a range outside [b] raises [Invalid_argument] before any
    byte is read.  Internally sums native-endian 64-bit words in two
    accumulators and byte-swaps the folded sum once — RFC 1071 §2(A)
    and §2(B) allow any grouping and either byte order because the sum
    is mod [0xffff].  Allocates nothing. *)

val ones_sum_scalar : ?init:int -> Bytes.t -> int -> int -> int
(** The straightforward 16-bit-at-a-time loop, kept as the reference
    implementation: property tests assert it agrees with {!ones_sum}
    everywhere, and the micro-benchmark reports the speedup. *)

val finish : int -> int
(** One's-complement of a folded sum, as the 16-bit checksum field
    value. *)

val compute : Bytes.t -> int -> int -> int
(** [compute b off len] is [finish (ones_sum b off len)]. *)

val valid : Bytes.t -> int -> int -> bool
(** A region that embeds its own checksum field sums to 0xffff. *)

val pseudo_header_sum : src:int -> dst:int -> proto:int -> len:int -> int
(** One's-complement sum of the IPv4 pseudo-header used by UDP/TCP. *)
