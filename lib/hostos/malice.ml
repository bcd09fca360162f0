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

let all =
  [
    Prod_overshoot;
    Prod_regress;
    Cons_overshoot;
    Cons_regress;
    Bad_umem_offset;
    Misaligned_offset;
    Foreign_frame;
    Oversize_len;
    Cqe_wrong_user_data;
    Cqe_bogus_res;
    Corrupt_packet;
    Forged_early_notif;
    Dropped_notif;
    Double_notif;
    Replay;
    Reorder_burst;
    Fragment_storm;
  ]

let name = function
  | Prod_overshoot -> "prod-overshoot"
  | Prod_regress -> "prod-regress"
  | Cons_overshoot -> "cons-overshoot"
  | Cons_regress -> "cons-regress"
  | Bad_umem_offset -> "bad-umem-offset"
  | Misaligned_offset -> "misaligned-offset"
  | Foreign_frame -> "foreign-frame"
  | Oversize_len -> "oversize-len"
  | Cqe_wrong_user_data -> "cqe-wrong-user-data"
  | Cqe_bogus_res -> "cqe-bogus-res"
  | Corrupt_packet -> "corrupt-packet"
  | Forged_early_notif -> "forged-early-notif"
  | Dropped_notif -> "dropped-notif"
  | Double_notif -> "double-notif"
  | Replay -> "replay"
  | Reorder_burst -> "reorder-burst"
  | Fragment_storm -> "fragment-storm"

include Injector.Make (struct
  type t = attack

  let all = all
  let name = name
  let prefix = "malice"
  let total = "malice.fired"
end)
