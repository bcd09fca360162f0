(** Greedy trace shrinker for the Testing Module.

    Reduces a failing schedule to a minimal reproducing one by repeated
    chunk deletion (a ddmin-style pass: chunk sizes halve from half the
    trace down to single elements, re-running the deterministic replay
    predicate after each candidate deletion).  The result is 1-minimal:
    deleting any single remaining step no longer reproduces the
    failure. *)

type 'a result = {
  trace : 'a list;  (** the minimized failing trace *)
  original : int;  (** length of the input trace *)
  tests : int;  (** predicate evaluations spent *)
}

val minimize : fails:('a list -> bool) -> 'a list -> 'a result
(** [minimize ~fails trace] assumes [fails trace = true] (if not, the
    input is returned unchanged).  [fails] must be deterministic —
    replay any seeded RNG from scratch on every call.  At most 10,000
    predicate evaluations are spent; on
    exhaustion the best trace found so far is returned (still
    failing). *)

type ('a, 'b) result2 = {
  trace2 : 'a list;  (** the minimized failing trace *)
  plan2 : 'b list;  (** the minimized companion list (e.g. fault plan) *)
  original2 : int * int;  (** input lengths: (trace, plan) *)
  tests2 : int;
}

val minimize2 :
  fails:('a list -> 'b list -> bool) ->
  'a list ->
  'b list ->
  ('a, 'b) result2
(** Two-coordinate ddmin: alternate deletion passes over the trace and
    the companion list until neither shrinks.  Unlike {!minimize},
    either side may shrink to empty — a failure reproducible with no
    faults at all drops the whole plan.  [fails] must be deterministic;
    at most 20,000 evaluations are spent. *)

val simplify :
  fails:('a list -> bool) ->
  simpler:('a -> 'a option) ->
  'a list ->
  'a list * int
(** Element-wise simplification to fixpoint: for each element, propose
    a simpler variant ([simpler], e.g. dropping a fault arming's shard
    pin) and keep the replacement when the list still fails.  Returns
    the simplified list and the predicate evaluations spent (at most
    1,000). *)
