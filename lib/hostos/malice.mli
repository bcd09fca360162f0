(** The adversarial host kernel (threat-model driver).

    RAKIS's threat model (paper §3) trusts nothing outside enclave
    memory, including every FIOKP control value.  This module is how the
    reproduction exercises that model: a [Malice.t] armed with a set of
    attacks makes the simulated kernel's XDP and io_uring paths tamper
    with exactly the untrusted data items of Table 2, and provides
    standalone smash helpers for direct use by tests and the Testing
    Module.

    Each attack corresponds to a Table 2 check (and a §5 case study):

    - ring-index attacks ([Prod_overshoot], [Prod_regress],
      [Cons_overshoot], [Cons_regress]) violate
      [0 <= P - C <= size] from either side;
    - UMem descriptor attacks ([Bad_umem_offset], [Misaligned_offset],
      [Foreign_frame], [Oversize_len]) violate the "offset & size fully
      points within UMem / owned by routine" checks;
    - CQE attacks ([Cqe_wrong_user_data], [Cqe_bogus_res]) violate the
      "return code is expected for the requested operation" check;
    - [Corrupt_packet] mangles user data values, which Table 2
      deliberately does {e not} check (left to TLS) — RAKIS must stay
      robust (not crash) but need not detect it;
    - zero-copy notif attacks ([Forged_early_notif], [Dropped_notif],
      [Double_notif]) abuse the two-phase SEND_ZC completion protocol
      (docs/zerocopy.md): a notif CQE posted before the completion tries
      to trick the FM into reusing a frame the NIC still reads (a
      use-after-reuse — the CQE-class "return code is expected" check
      must refuse it); a withheld notif starves the registered-frame
      pool (availability, like a withheld wakeup — degrades to the copy
      path, never corrupts); a duplicated notif tries to double-free a
      frame (refused as a stray CQE);
    - wire attacks ([Replay], [Reorder_burst], [Fragment_storm]) are the
      host re-presenting traffic it legitimately saw: a retained frame
      re-injected later (tests idempotence and the RDP dedup window), a
      window of frames released in reverse order (a burstier cousin of
      the link's bounded [Wire_reorder] fault), and a valid datagram
      exploded into an IPv4 fragment volley with adversarial overlap —
      aimed squarely at the enclave's reassembly quotas (DESIGN.md §16).
      Like [Corrupt_packet], these tamper with user data the Table 2
      checks deliberately leave to the application layer: the enclave
      must stay safe and accounted, not detect them.

    Beyond always-on/probabilistic arming, the Testing Module's campaign
    engine installs {e schedules}: fire exactly once, fire at a given
    campaign step, or fire with some probability inside a step window
    ({!arm_once}, {!arm_at}, {!arm_burst}).  The campaign driver
    advances the step counter with {!set_step}; kernel paths keep
    calling {!roll} unchanged. *)

type attack =
  | Prod_overshoot
  | Prod_regress
  | Cons_overshoot
  | Cons_regress
  | Bad_umem_offset
  | Misaligned_offset
  | Foreign_frame
  | Oversize_len
  | Cqe_wrong_user_data
  | Cqe_bogus_res
  | Corrupt_packet
  | Forged_early_notif
  | Dropped_notif
  | Double_notif
  | Replay
  | Reorder_burst
  | Fragment_storm

type t

val create : ?obs:Obs.t -> seed:int64 -> unit -> t
(** [obs] puts the fired counts in the shared registry —
    ["malice.fired"] plus one ["malice.<attack-name>"] counter per
    attack — and records a ["malice"] trace instant per tampering, so
    campaign reports and live metrics read the same cells. *)

val arm : t -> ?probability:float -> ?shard:int -> attack -> unit
(** Make [attack] fire with the given probability (default 1.0) at each
    opportunity.  Replaces any schedule previously installed for the
    attack.  [shard] pins the arming to one datapath shard: it matches
    only opportunities whose {!roll} carries the same shard context. *)

val arm_once : t -> ?probability:float -> ?shard:int -> attack -> unit
(** Fire at most once: each opportunity rolls with [probability]
    (default 1.0 — fire at the very next opportunity); the arming is
    spent on the first hit. *)

val arm_at : t -> step:int -> ?shard:int -> attack -> unit
(** Fire once at the first opportunity on or after campaign [step]
    (see {!set_step}).  Deterministic: consumes no randomness. *)

val arm_burst :
  t ->
  first_step:int ->
  last_step:int ->
  ?probability:float ->
  ?shard:int ->
  attack ->
  unit
(** Fire with [probability] at every opportunity while the campaign
    step is within [first_step..last_step] (inclusive). *)

val disarm : t -> attack -> unit
(** Remove every arming of [attack]. *)

val armed : t -> attack -> bool
(** Is any unspent arming installed for [attack]? *)

val set_step : t -> int -> unit
(** Advance the campaign step counter ({!arm_at}/{!arm_burst} clock). *)

val roll : ?shard:int -> t option -> attack -> bool
(** Should the attack fire now?  [None] (no adversary) is never.
    [shard] is the datapath shard of this opportunity: shard-pinned
    armings match only rolls on their shard. *)

val rng : t -> Sim.Rng.t

val fired : t -> int
(** Total number of tamperings performed (incremented by {!record}). *)

val record : t -> attack -> unit
(** Called by kernel paths when they actually apply an attack. *)

val fired_of : t -> attack -> int
(** Tamperings actually performed for one specific attack. *)

val fired_counts : t -> (attack * int) list
(** All attacks that fired at least once, with their counts, in
    {!all_attacks} order. *)

(** {1 Standalone ring smashing (tests / explorer)} *)

val smash_prod : Rings.Layout.t -> int -> unit
(** Overwrite the shared producer index. *)

val smash_cons : Rings.Layout.t -> int -> unit

val all_attacks : attack list

val attack_name : attack -> string
(** Stable kebab-case name (the {!pp_attack} rendering). *)

val attack_of_string : string -> attack option
(** Inverse of {!attack_name}; [None] on unknown names. *)

val pp_attack : Format.formatter -> attack -> unit
