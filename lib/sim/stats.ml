type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  mutable epoch : int; (* resets so far: invalidates bound handles *)
}

let create () =
  { counters = Hashtbl.create 64; gauges = Hashtbl.create 16; epoch = 0 }

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  t.epoch <- t.epoch + 1

let counter_ref t key =
  match Hashtbl.find_opt t.counters key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters key r;
      r

let gauge_ref t key =
  match Hashtbl.find_opt t.gauges key with
  | Some r -> r
  | None ->
      let r = ref 0. in
      Hashtbl.add t.gauges key r;
      r

let incr t key = Stdlib.incr (counter_ref t key)

let add t key n =
  let r = counter_ref t key in
  r := !r + n

let get t key =
  match Hashtbl.find_opt t.counters key with Some r -> !r | None -> 0

(* A handle binds to its registry cell on the first [bump] after creation
   or a [reset]; until then the key stays unregistered. *)
type counter = {
  owner : t;
  key : string;
  mutable cell : int ref;
  mutable bound : int; (* the owner's epoch [cell] belongs to, or -1 *)
}

let counter t key = { owner = t; key; cell = ref 0; bound = -1 }

let bump c =
  if c.bound <> c.owner.epoch then begin
    c.cell <- counter_ref c.owner c.key;
    c.bound <- c.owner.epoch
  end;
  Stdlib.incr c.cell

let count c = get c.owner c.key

let set_gauge t key v = gauge_ref t key := v

let add_gauge t key v =
  let r = gauge_ref t key in
  r := !r +. v

let gauge t key =
  match Hashtbl.find_opt t.gauges key with Some r -> !r | None -> 0.

let sorted_bindings tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.counters

let gauges t = sorted_bindings t.gauges

let pp ppf t =
  let pp_counter ppf (k, v) = Format.fprintf ppf "%s = %d" k v in
  let pp_gauge ppf (k, v) = Format.fprintf ppf "%s = %g" k v in
  Format.fprintf ppf "@[<v>%a@,%a@]"
    (Format.pp_print_list pp_counter)
    (counters t)
    (Format.pp_print_list pp_gauge)
    (gauges t)
