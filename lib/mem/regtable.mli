(** Registered-buffer table: the kernel-side record of pinned IO buffers.

    [io_uring_register(IORING_REGISTER_BUFFERS)] hands the kernel a
    fixed set of buffer ranges up front; fixed-buffer SQEs then name a
    table index instead of an arbitrary pointer, and the kernel DMAs
    straight from/into the pinned range with no per-op copy.  This
    module is the host's validated table: creation performs the
    registration-time checks (every range in-region, non-empty, pairwise
    disjoint — the same Table-2 top-row discipline {!Ptr} provides for
    ring setup), and {!covers} is the per-op check that a fixed SQE's
    [addr]/[len] actually lies inside the buffer it names. *)

type t

type error =
  | Empty
  | Out_of_range of int  (** entry index whose range leaves the region *)
  | Zero_len of int
  | Overlapping of int * int

val pp_error : Format.formatter -> error -> unit

val create : Region.t -> (int * int) list -> (t, error) result
(** [create region [(off, len); ...]] validates and pins the ranges.
    Indices are positional: the [i]-th list element is buffer [i]. *)

val find : t -> int -> (int * int) option
(** [find t idx] is the [(off, len)] of buffer [idx], if registered. *)

val covers : t -> int -> addr:int -> len:int -> bool
(** [covers t idx ~addr ~len]: the [len]-byte range at region offset
    [addr] lies wholly inside registered buffer [idx].  False for
    unknown indices or negative lengths — fixed SQEs failing this check
    must be refused ([EFAULT]), exactly like an unregistered pointer. *)
