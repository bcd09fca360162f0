(** A pointer is a (region, offset) pair.

    RAKIS's initialization checks (paper Table 2, top rows) are questions
    about pointers the host OS hands to the enclave: do they live
    exclusively in untrusted memory, and are the objects they denote
    non-overlapping?  This module provides those predicates. *)

type t = { region : Region.t; off : int }

val v : Region.t -> int -> t

val add : t -> int -> t

val is_untrusted : t -> bool
(** The pointed-to region is untrusted (host-shared). *)

val valid : t -> len:int -> bool
(** The [len]-byte object at [t] lies wholly inside its region. *)

val overlaps : t -> len1:int -> t -> len2:int -> bool
(** Two objects overlap iff they are in the same region and their byte
    ranges intersect.  Distinct regions never alias. *)

val all_disjoint : (t * int) list -> bool
(** [all_disjoint objs] holds when no two (pointer, length) objects
    overlap pairwise. *)
