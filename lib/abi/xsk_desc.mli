(** XSK ring descriptor encoding.

    Each entry of the four XSK rings is one [u64].  xFill and xCompl
    carry a bare UMem byte offset; xRX and xTX carry an (offset, length)
    descriptor.  We pack the length in bits 48..63 and the offset in
    bits 0..47 — the layout AF_XDP uses for its [addr]+[len] pair,
    flattened to one word since our UMem offsets fit 48 bits. *)

val entry_size : int
(** 8. *)

val encode : offset:int -> len:int -> int64
(** Requires [0 <= offset < 2{^48}] and [0 <= len < 2{^16}]. *)

val decode : int64 -> int * int
(** [decode d] is [(offset, len)].  Total: any bit pattern decodes, as
    untrusted input must. *)

val encode_offset : int -> int64
(** For xFill/xCompl entries ([len] = 0). *)

val decode_offset : int64 -> int
(** The offset half of {!decode}, for any entry. *)

(** {2 In place}

    The same encoding read and written straight in a ring slot as native
    ints: [get_offset r off] is [decode_offset (Mem.Region.get_u64 r
    off)] without boxing an [int64], and so on. *)

val get_offset : Mem.Region.t -> int -> int

val get_len : Mem.Region.t -> int -> int

val set : Mem.Region.t -> int -> offset:int -> len:int -> unit
(** Range checks as {!encode}. *)

val set_offset : Mem.Region.t -> int -> int -> unit
