type trigger =
  | Probability of float
  | Once of float
  | At_step of int
  | Burst of { first_step : int; last_step : int; probability : float }
  | Persistent

type 'a entry = { what : 'a; when_ : trigger; shard : int option }

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

module type EVENT = sig
  type t

  val all : t list
  val name : t -> string
  val prefix : string
  val total : string
end

module type S = sig
  type event
  type t
  type plan = event entry list

  val create : ?obs:Obs.t -> seed:int64 -> unit -> t
  val arm : t -> ?shard:int -> trigger -> event -> unit
  val install : t -> plan -> unit
  val disarm : t -> event -> unit
  val armed : t -> event -> bool
  val set_step : t -> int -> unit
  val roll : ?shard:int -> t option -> event -> bool
  val rng : t -> Sim.Rng.t
  val record : t -> event -> unit
  val fired : t -> int
  val fired_of : t -> event -> int
  val fired_counts : t -> (event * int) list
  val plan_to_string : plan -> string
  val plan_of_string : string -> (plan, string) result
  val pp_plan : Format.formatter -> plan -> unit
end

type arming = { trigger : trigger; pin : int option; mutable spent : bool }

module Make (E : EVENT) = struct
  type event = E.t

  type plan = E.t entry list

  (* One slot per event: its armings, in install order (a roll tries
     them in that order, which fixes the RNG draw sequence), and its
     fired counter — a [<prefix>.<name>] cell of the (possibly shared)
     registry, so campaign reports and live metrics read the same
     counts. *)
  type slot = {
    mutable armings : arming list;
    counter : Obs.Metrics.counter;
    label : string;
  }

  type t = {
    rng : Sim.Rng.t;
    slots : (E.t, slot) Hashtbl.t;
    total : Obs.Metrics.counter;
    trace : Obs.Trace.t option;
    mutable step : int;
  }

  let create ?obs ~seed () =
    let m =
      match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
    in
    let slots = Hashtbl.create 32 in
    List.iter
      (fun e ->
        let label = E.prefix ^ "." ^ E.name e in
        Hashtbl.replace slots e
          { armings = []; counter = Obs.Metrics.counter m label; label })
      E.all;
    {
      rng = Sim.Rng.create ~seed;
      slots;
      total = Obs.Metrics.counter m E.total;
      trace = Option.map Obs.trace obs;
      step = 0;
    }

  (* A [Probability] arming replaces the event's earlier armings (test
     suites re-arm to reset); every other trigger appends, so a plan can
     stack several windows on one event. *)
  let arm t ?shard trigger e =
    let s = Hashtbl.find t.slots e in
    let a = { trigger; pin = shard; spent = false } in
    match trigger with
    | Probability _ -> s.armings <- [ a ]
    | _ -> s.armings <- s.armings @ [ a ]

  let install t plan =
    List.iter (fun { what; when_; shard } -> arm t ?shard when_ what) plan

  let disarm t e = (Hashtbl.find t.slots e).armings <- []

  let armed t e =
    List.exists (fun a -> not a.spent) (Hashtbl.find t.slots e).armings

  let set_step t step = t.step <- step

  let hit t p = p >= 1.0 || Sim.Rng.float t.rng 1.0 < p

  (* An arming pinned to shard [k] only matches opportunities that carry
     shard context [Some k]; unpinned armings match every opportunity. *)
  let fires t shard a =
    (not a.spent)
    && (match a.pin with
       | None -> true
       | Some k -> ( match shard with Some k' -> k = k' | None -> false))
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
        t.step >= first_step && t.step <= last_step && hit t probability
    | Persistent -> true

  let roll ?shard t e =
    match t with
    | None -> false
    | Some t ->
        let rec any = function
          | [] -> false
          | a :: rest -> fires t shard a || any rest
        in
        any (Hashtbl.find t.slots e).armings

  let rng t = t.rng

  let record t e =
    let s = Hashtbl.find t.slots e in
    Obs.Metrics.incr t.total;
    Obs.Metrics.incr s.counter;
    match t.trace with
    | None -> ()
    | Some tr -> Obs.Trace.instant tr ~cat:E.prefix ~arg:0 s.label

  let fired t = Obs.Metrics.value t.total

  let fired_of t e = Obs.Metrics.value (Hashtbl.find t.slots e).counter

  let fired_counts t =
    List.filter_map
      (fun e -> match fired_of t e with 0 -> None | n -> Some (e, n))
      E.all

  (* {1 Plans} *)

  let entry_to_string { what; when_; shard } =
    let name =
      match shard with
      | None -> E.name what
      | Some k -> Printf.sprintf "%s#%d" (E.name what) k
    in
    trigger_to_string when_ ^ "=" ^ name

  let plan_to_string plan = String.concat ";" (List.map entry_to_string plan)

  let parse_entry s =
    match String.index_opt s '=' with
    | None -> Error (Printf.sprintf "bad plan entry %S" s)
    | Some eq -> (
        let where = String.sub s 0 eq in
        let name = String.sub s (eq + 1) (String.length s - eq - 1) in
        (* A "#k" suffix pins the entry to datapath shard k. *)
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
            match List.find_opt (fun e -> E.name e = name) E.all with
            | None -> Error (Printf.sprintf "unknown %s name %S" E.prefix name)
            | Some what ->
                Result.map
                  (fun when_ -> { what; when_; shard })
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
end
