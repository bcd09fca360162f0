type fault =
  | Transient_errno
  | Short_io
  | Partial_cqe
  | Drop_wakeup
  | Delay_wakeup
  | Nic_stall
  | Monitor_crash
  | Monitor_hang
  | Wire_drop
  | Wire_dup
  | Wire_reorder
  | Wire_delay
  | Wire_trunc
  | Wire_runt
  | Wire_giant

type trigger =
  | Probability of float
  | Once of float
  | At_step of int
  | Burst of { first_step : int; last_step : int; probability : float }
  | Persistent

type arming = { trigger : trigger; shard : int option; mutable spent : bool }

type plan_entry = { fault : fault; when_ : trigger; shard : int option }

type plan = plan_entry list

let all_faults =
  [
    Transient_errno;
    Short_io;
    Partial_cqe;
    Drop_wakeup;
    Delay_wakeup;
    Nic_stall;
    Monitor_crash;
    Monitor_hang;
    Wire_drop;
    Wire_dup;
    Wire_reorder;
    Wire_delay;
    Wire_trunc;
    Wire_runt;
    Wire_giant;
  ]

let fault_name = function
  | Transient_errno -> "transient-errno"
  | Short_io -> "short-io"
  | Partial_cqe -> "partial-cqe"
  | Drop_wakeup -> "drop-wakeup"
  | Delay_wakeup -> "delay-wakeup"
  | Nic_stall -> "nic-stall"
  | Monitor_crash -> "monitor-crash"
  | Monitor_hang -> "monitor-hang"
  | Wire_drop -> "wire-drop"
  | Wire_dup -> "wire-dup"
  | Wire_reorder -> "wire-reorder"
  | Wire_delay -> "wire-delay"
  | Wire_trunc -> "wire-trunc"
  | Wire_runt -> "wire-runt"
  | Wire_giant -> "wire-giant"

let fault_index = function
  | Transient_errno -> 0
  | Short_io -> 1
  | Partial_cqe -> 2
  | Drop_wakeup -> 3
  | Delay_wakeup -> 4
  | Nic_stall -> 5
  | Monitor_crash -> 6
  | Monitor_hang -> 7
  | Wire_drop -> 8
  | Wire_dup -> 9
  | Wire_reorder -> 10
  | Wire_delay -> 11
  | Wire_trunc -> 12
  | Wire_runt -> 13
  | Wire_giant -> 14

type t = {
  rng : Sim.Rng.t;
  armed : (fault, arming list ref) Hashtbl.t;
  (* Per-fault injected counts live in the (possibly shared) registry as
     [faults.<fault-name>], so campaign reports and live metrics read
     the same cells — exactly the Malice counter discipline. *)
  counts : Obs.Metrics.counter array; (* indexed by fault_index *)
  total : Obs.Metrics.counter;
  labels : string array;
  trace : Obs.Trace.t option;
  mutable step : int;
}

let create ?obs ~seed () =
  let m =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  let labels =
    Array.of_list (List.map (fun f -> "faults." ^ fault_name f) all_faults)
  in
  {
    rng = Sim.Rng.create ~seed;
    armed = Hashtbl.create 8;
    counts = Array.map (Obs.Metrics.counter m) labels;
    total = Obs.Metrics.counter m "faults.injected";
    labels;
    trace = Option.map Obs.trace obs;
    step = 0;
  }

let install t fault arming =
  match Hashtbl.find_opt t.armed fault with
  | Some l -> l := !l @ [ arming ]
  | None -> Hashtbl.replace t.armed fault (ref [ arming ])

let arm t ?(probability = 1.0) ?shard fault =
  Hashtbl.replace t.armed fault
    (ref [ { trigger = Probability probability; shard; spent = false } ])

let arm_once t ?(probability = 1.0) ?shard fault =
  install t fault { trigger = Once probability; shard; spent = false }

let arm_at t ~step ?shard fault =
  install t fault { trigger = At_step step; shard; spent = false }

let arm_burst t ~first_step ~last_step ?(probability = 1.0) ?shard fault =
  install t fault
    {
      trigger = Burst { first_step; last_step; probability };
      shard;
      spent = false;
    }

let arm_persistent t ?shard fault =
  install t fault { trigger = Persistent; shard; spent = false }

let disarm t fault = Hashtbl.remove t.armed fault

let set_step t step = t.step <- step

let hit t p = p >= 1.0 || Sim.Rng.float t.rng 1.0 < p

(* An arming pinned to shard [k] only matches opportunities that carry
   shard context [Some k]; unpinned armings match every opportunity. *)
let shard_matches arming_shard roll_shard =
  match arming_shard with
  | None -> true
  | Some k -> ( match roll_shard with Some k' -> k = k' | None -> false)

let roll ?shard t fault =
  match t with
  | None -> false
  | Some t -> (
      match Hashtbl.find_opt t.armed fault with
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
                  && hit t probability
              | Persistent -> true)
            !l)

let rng t = t.rng

let injected t = Obs.Metrics.value t.total

let record t fault =
  Obs.Metrics.incr t.total;
  let i = fault_index fault in
  Obs.Metrics.incr t.counts.(i);
  match t.trace with
  | None -> ()
  | Some tr -> Obs.Trace.instant tr ~cat:"faults" t.labels.(i)

let injected_of t fault = Obs.Metrics.value t.counts.(fault_index fault)

let injected_counts t =
  List.filter_map
    (fun f -> match injected_of t f with 0 -> None | n -> Some (f, n))
    all_faults

let transient_errnos = Array.of_list Abi.Errno.transient

let pick_errno t = Sim.Rng.pick t.rng transient_errnos

let fault_of_string s =
  List.find_opt (fun f -> String.equal (fault_name f) s) all_faults

(* {1 Plans: printable, parseable fault schedules} *)

let install_plan t plan =
  List.iter
    (fun { fault; when_; shard } ->
      match when_ with
      | Probability probability -> arm t ~probability ?shard fault
      | Once probability -> arm_once t ~probability ?shard fault
      | At_step step -> arm_at t ~step ?shard fault
      | Burst { first_step; last_step; probability } ->
          arm_burst t ~first_step ~last_step ~probability ?shard fault
      | Persistent -> arm_persistent t ?shard fault)
    plan

(* The shortest decimal that reads back as the very same float, so a
   printed plan replays bit-for-bit whatever probability it carries. *)
let float_to_string p =
  let s = Printf.sprintf "%.15g" p in
  if float_of_string s = p then s
  else
    let s = Printf.sprintf "%.16g" p in
    if float_of_string s = p then s else Printf.sprintf "%.17g" p

let trigger_to_string = function
  | Probability p -> "@" ^ float_to_string p
  | Once p when p >= 1.0 -> "once"
  | Once p -> "once@" ^ float_to_string p
  | At_step n -> string_of_int n
  | Burst { first_step; last_step; probability } ->
      Printf.sprintf "%d..%d@%s" first_step last_step
        (float_to_string probability)
  | Persistent -> "persist"

let trigger_of_string s =
  let bad what = Error (Printf.sprintf "bad %s %S" what s) in
  let prob p mk =
    match float_of_string_opt p with
    | Some p -> Ok (mk p)
    | None -> bad "probability"
  in
  match String.index_opt s '@' with
  | None -> (
      match s with
      | "once" -> Ok (Once 1.0)
      | "persist" -> Ok Persistent
      | _ -> (
          match int_of_string_opt s with
          | Some n -> Ok (At_step n)
          | None -> bad "trigger"))
  | Some at -> (
      let p = String.sub s (at + 1) (String.length s - at - 1) in
      match String.sub s 0 at with
      | "" -> prob p (fun p -> Probability p)
      | "once" -> prob p (fun p -> Once p)
      | lhs -> (
          match String.split_on_char '.' lhs with
          | [ a; ""; b ] -> (
              match (int_of_string_opt a, int_of_string_opt b) with
              | Some first_step, Some last_step ->
                  prob p (fun probability ->
                      Burst { first_step; last_step; probability })
              | _ -> bad "window")
          | _ -> bad "window"))

let entry_to_string { fault; when_; shard } =
  let name =
    match shard with
    | None -> fault_name fault
    | Some k -> Printf.sprintf "%s#%d" (fault_name fault) k
  in
  trigger_to_string when_ ^ "=" ^ name

let plan_to_string plan = String.concat ";" (List.map entry_to_string plan)

let parse_entry s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad fault entry %S" s)
  | Some eq -> (
      let where = String.sub s 0 eq in
      let name = String.sub s (eq + 1) (String.length s - eq - 1) in
      (* A "#k" suffix pins the fault to datapath shard k. *)
      let name, shard =
        match String.index_opt name '#' with
        | None -> (Ok name, None)
        | Some h -> (
            let n = String.sub name 0 h in
            match
              int_of_string_opt
                (String.sub name (h + 1) (String.length name - h - 1))
            with
            | Some k when k >= 0 -> (Ok n, Some k)
            | _ -> (Error (Printf.sprintf "bad shard suffix %S" name), None))
      in
      match name with
      | Error e -> Error e
      | Ok name -> (
          match fault_of_string name with
          | None -> Error (Printf.sprintf "unknown fault %S" name)
          | Some fault ->
              Result.map
                (fun when_ -> { fault; when_; shard })
                (trigger_of_string where)))

let plan_of_string s =
  if String.trim s = "" then Ok []
  else
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match parse_entry p with
          | Ok e -> collect (e :: acc) rest
          | Error _ as e -> e)
    in
    collect [] (String.split_on_char ';' s)

let pp_plan ppf plan = Format.pp_print_string ppf (plan_to_string plan)
