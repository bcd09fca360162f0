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

type trigger =
  | Probability of float
  | Once of float
  | At_step of int
  | Burst of { first_step : int; last_step : int; probability : float }

type arming = { trigger : trigger; shard : int option; mutable spent : bool }

let all_attacks =
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

let attack_name = function
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

let attack_index = function
  | Prod_overshoot -> 0
  | Prod_regress -> 1
  | Cons_overshoot -> 2
  | Cons_regress -> 3
  | Bad_umem_offset -> 4
  | Misaligned_offset -> 5
  | Foreign_frame -> 6
  | Oversize_len -> 7
  | Cqe_wrong_user_data -> 8
  | Cqe_bogus_res -> 9
  | Corrupt_packet -> 10
  | Forged_early_notif -> 11
  | Dropped_notif -> 12
  | Double_notif -> 13
  | Replay -> 14
  | Reorder_burst -> 15
  | Fragment_storm -> 16

type t = {
  rng : Sim.Rng.t;
  armed : (attack, arming list ref) Hashtbl.t;
  (* Per-attack fired counts live in the (possibly shared) registry as
     [malice.<attack-name>], so campaign reports and live metrics read
     the same cells and cannot drift. *)
  counts : Obs.Metrics.counter array; (* indexed by attack_index *)
  total : Obs.Metrics.counter;
  labels : string array; (* trace labels, one per attack *)
  trace : Obs.Trace.t option;
  mutable step : int;
}

let create ?obs ~seed () =
  let m =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  let labels =
    Array.of_list (List.map (fun a -> "malice." ^ attack_name a) all_attacks)
  in
  {
    rng = Sim.Rng.create ~seed;
    armed = Hashtbl.create 8;
    counts = Array.map (Obs.Metrics.counter m) labels;
    total = Obs.Metrics.counter m "malice.fired";
    labels;
    trace = Option.map Obs.trace obs;
    step = 0;
  }

let install t attack arming =
  match Hashtbl.find_opt t.armed attack with
  | Some l -> l := !l @ [ arming ]
  | None -> Hashtbl.replace t.armed attack (ref [ arming ])

let arm t ?(probability = 1.0) ?shard attack =
  (* Replace semantics: re-arming an always/probability attack resets
     whatever schedule was installed before (test suites rely on it). *)
  Hashtbl.replace t.armed attack
    (ref [ { trigger = Probability probability; shard; spent = false } ])

let arm_once t ?(probability = 1.0) ?shard attack =
  install t attack { trigger = Once probability; shard; spent = false }

let arm_at t ~step ?shard attack =
  install t attack { trigger = At_step step; shard; spent = false }

let arm_burst t ~first_step ~last_step ?(probability = 1.0) ?shard attack =
  install t attack
    {
      trigger = Burst { first_step; last_step; probability };
      shard;
      spent = false;
    }

let disarm t attack = Hashtbl.remove t.armed attack

let armed t attack =
  match Hashtbl.find_opt t.armed attack with
  | None -> false
  | Some l -> List.exists (fun a -> not a.spent) !l

let set_step t step = t.step <- step

let hit t p = p >= 1.0 || Sim.Rng.float t.rng 1.0 < p

(* Same shard-pinning discipline as {!Faults.roll}. *)
let shard_matches arming_shard roll_shard =
  match arming_shard with
  | None -> true
  | Some k -> ( match roll_shard with Some k' -> k = k' | None -> false)

let roll ?shard t attack =
  match t with
  | None -> false
  | Some t -> (
      match Hashtbl.find_opt t.armed attack with
      | None -> false
      | Some l ->
          List.exists
            (fun a ->
              (not a.spent)
              && shard_matches a.shard shard
              &&
              match a.trigger with
              | Probability p -> hit t p
              | Once p ->
                  if hit t p then begin
                    a.spent <- true;
                    true
                  end
                  else false
              | At_step n ->
                  if t.step >= n then begin
                    a.spent <- true;
                    true
                  end
                  else false
              | Burst { first_step; last_step; probability } ->
                  t.step >= first_step && t.step <= last_step
                  && hit t probability)
            !l)

let rng t = t.rng

let fired t = Obs.Metrics.value t.total

let record t attack =
  Obs.Metrics.incr t.total;
  let i = attack_index attack in
  Obs.Metrics.incr t.counts.(i);
  match t.trace with
  | None -> ()
  | Some tr -> Obs.Trace.instant tr ~cat:"malice" t.labels.(i)

let fired_of t attack = Obs.Metrics.value t.counts.(attack_index attack)

let smash_prod layout v = Rings.Layout.write_prod layout v

let smash_cons layout v = Rings.Layout.write_cons layout v

let fired_counts t =
  List.filter_map
    (fun a ->
      match fired_of t a with 0 -> None | n -> Some (a, n))
    all_attacks

let attack_of_string s =
  List.find_opt (fun a -> String.equal (attack_name a) s) all_attacks

let pp_attack ppf a = Format.pp_print_string ppf (attack_name a)
