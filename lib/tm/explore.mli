(** Exhaustive bounded exploration of the full FM product machine
    (DESIGN.md §11) — the Testing Module's ring and offset checker.

    The explorer walks the product of everything the FM composes per
    shard — the certified xRX and xFill ring indices, driven through
    the same [consume_batch]/[produce_batch] bursts the FMs use, the
    UMem ownership partition (including zero-copy [Registered] frames),
    the circuit breaker, a fault trigger and the shard id — under an
    interleaved adversary, over a deliberately tiny bounded
    configuration.  States are deduplicated by a structural
    abstraction; after every transition eight invariant families
    (V1–V8) are asserted, most of them conformance checks against the
    pure {!Stm_model} reference machines.  V8 is the notif-anchored
    zero-copy ownership contract of docs/zerocopy.md: one pending notif
    per Registered frame, honest notifs accepted, forged or duplicated
    ones refused. *)

(** Deliberately re-introduced bug shapes, used to demonstrate that
    the explorer actually catches the defect classes it patrols
    ("known-bad mutation" tests).  Each mutates the {e driver}'s use
    of the real modules, never the modules themselves. *)
type mutant =
  | Probe_off_by_one  (** a probe success is counted twice *)
  | Probe_slot_leak  (** a declined probe never releases its slot *)
  | Skip_reclaim  (** consumed descriptors bypass UMem validation *)
  | Zc_release_early
      (** a zero-copy frame is freed on its completion CQE instead of
          its notif — the use-after-reuse-before-notif bug shape of
          docs/zerocopy.md, caught by V4/V8 *)
  | Fill_overrun
      (** a refused xFill produce is written and published anyway — a
          producer trusting its cached view past the validated free
          window, caught by V3 *)

val mutant_name : mutant -> string

val mutant_of_string : string -> mutant option

val all_mutants : mutant list

type config = {
  shards : int;
  ring_size : int;  (** entries per xRX and xFill ring (power of two) *)
  frames : int;  (** UMem frames per shard *)
  frame_size : int;
  threshold : int;  (** breaker failure threshold *)
  probes_needed : int;
  cooldown : int64;
  mutant : mutant option;
}

val default_config : config
(** 2 shards, 2-entry rings, 3 frames of 64 B, breaker 2/2/100, no
    mutant. *)

type violation = {
  path : string list;  (** transition names from the initial state *)
  what : string list;  (** the invariant families that failed *)
}

type report = {
  cfg : config;
  depth : int;  (** the requested bound *)
  depth_reached : int;
  states : int;  (** distinct abstract states visited *)
  transitions : int;  (** transitions executed (including duplicates) *)
  truncated : bool;  (** the state budget cut the search short *)
  violations : violation list;
}

val explore :
  ?config:config ->
  ?depth:int ->
  ?max_states:int ->
  unit ->
  report
(** Breadth-first search to [depth] transitions (default 5), stopping
    early after [max_states] distinct states (default 250_000) or once
    16 counterexample paths are found — the
    shortest ones, since the search is breadth-first.  Deterministic:
    no randomness anywhere in the machine. *)

val passed : report -> bool
(** No violations and a non-trivial state count. *)

val drive :
  ?config:config -> choices:int list -> unit -> violation list * string list
(** One checked random walk instead of a search: each choice indexes
    into the enabled-transition list (modulo its length) and the full
    V1–V8 battery runs after every step.  Deterministic in [choices],
    so a QCheck-generated choice list shrinks naturally.  Returns the
    violations hit and the trail of transition names walked — the
    state-machine-test entry point for sequences far deeper than the
    breadth-first bound. *)

val pp_report : Format.formatter -> report -> unit
