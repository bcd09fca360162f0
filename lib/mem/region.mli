(** Byte-addressable memory regions with a trust tag.

    The reproduction models the SGX address space as a set of disjoint
    regions, each either [Trusted] (enclave memory: inaccessible to the
    host kernel) or [Untrusted] (shared memory: the host kernel — and the
    adversary — may read and write it at will).  All FIOKP ring and UMem
    state lives in untrusted regions; RAKIS's trusted shadow state lives
    in trusted regions.

    Every accessor bounds-checks and raises {!Out_of_bounds}; multi-byte
    accessors are little-endian, matching the x86 layout of the real ring
    structures. *)

type kind = Trusted | Untrusted

exception Out_of_bounds of string
(** Raised on any access outside [\[0, size)]. *)

type t

val create : kind:kind -> name:string -> size:int -> t
(** Fresh zero-filled region. *)

val name : t -> string

val size : t -> int

val is_trusted : t -> bool

val same : t -> t -> bool
(** Physical identity: two handles on the same region. *)

val get_u8 : t -> int -> int

val set_u8 : t -> int -> int -> unit

val get_u16 : t -> int -> int

val set_u16 : t -> int -> int -> unit

val get_u32 : t -> int -> int
(** Result in [\[0, 2{^32})], held in an OCaml [int]. *)

val set_u32 : t -> int -> int -> unit
(** Stores the low 32 bits of the argument. *)

val get_u64 : t -> int -> int64

val set_u64 : t -> int -> int64 -> unit

val blit_from_bytes : Bytes.t -> int -> t -> int -> int -> unit
(** [blit_from_bytes src soff dst doff len]. *)

val blit_to_bytes : t -> int -> Bytes.t -> int -> int -> unit

val blit : t -> int -> t -> int -> int -> unit
(** Region-to-region copy. *)

val read_string : t -> int -> int -> string

val write_string : t -> int -> string -> unit

val fill : t -> int -> int -> char -> unit

val in_bounds : t -> off:int -> len:int -> bool
(** [in_bounds r ~off ~len] holds when [\[off, off+len)] lies inside the
    region and does not overflow. *)
