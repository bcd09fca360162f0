(** Hash tables keyed by [int].

    The stdlib's [Hashtbl] over an int equality, hashing a key to
    itself: a lookup calls neither the polymorphic hash ([caml_hash])
    nor the polymorphic compare, which the generic [Hashtbl] calls on
    every [find].  Iteration order differs from a generic [Hashtbl]'s,
    so nothing may depend on it. *)

include Hashtbl.S with type key = int
