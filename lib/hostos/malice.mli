(** The adversarial host kernel (threat-model driver).

    RAKIS's threat model (paper §3) trusts nothing outside enclave
    memory, including every FIOKP control value.  This module is how the
    reproduction exercises that model: a [Malice.t] armed with a set of
    attacks makes the simulated kernel's XDP and io_uring paths tamper
    with exactly the untrusted data items of Table 2.

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

    It is the {!Injector} instance over attacks, so it arms, rolls and
    prints plans exactly like {!Faults}: the Testing Module's campaign
    schedule is a Malice plan, and every {!Injector.trigger} can arm an
    attack. *)

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

val all : attack list

val name : attack -> string
(** Stable kebab-case name: the plan grammar's attack name. *)

include Injector.S with type event = attack
(** Registry names: ["malice.fired"] and one ["malice.<name>"] counter
    per attack; trace category ["malice"]. *)
