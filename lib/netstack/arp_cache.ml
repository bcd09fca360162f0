(* Bounded LRU neighbour cache.  Entries are learned from untrusted
   wire traffic, so the table is a fixed-size working set (a hostile
   peer sweeping source IPs evicts cold entries, it does not grow the
   enclave heap), and a re-learn that contradicts a live entry keeps
   the entry and bumps the [arp.conflict] counter — first-learned wins,
   so one spoofed reply cannot repoint an in-use neighbour.  The single
   exception is the failover path's broadcast-MAC placeholder
   (lib/core/runtime.ml): it exists only to unblock resolution waiters
   while the XSK is dead, so genuine sender information overwrites it
   and a placeholder never downgrades a real entry. *)

(* [answer] is [Some mac], boxed once when the entry is made, so a hit
   allocates nothing. *)
type entry = {
  mac : Packet.Addr.Mac.t;
  answer : Packet.Addr.Mac.t option;
  mutable tick : int;
}

let entry mac tick = { mac; answer = Some mac; tick }

type t = {
  engine : Sim.Engine.t;
  capacity : int;
  table : (int, entry) Hashtbl.t;
  mutable clock : int;  (* LRU clock: bumped on every hit and learn *)
  conflicts : Obs.Metrics.counter;
  evictions : Obs.Metrics.counter;
  updated : Sim.Condition.t;
}

let create ?obs ?(capacity = Sgx.Params.arp_cache_capacity) engine () =
  let metrics =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  {
    engine;
    capacity = max 1 capacity;
    table = Hashtbl.create 8;
    clock = 0;
    conflicts = Obs.Metrics.counter metrics "arp.conflict";
    evictions = Obs.Metrics.counter metrics "arp.evicted";
    updated = Sim.Condition.create ();
  }

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let lookup t ip =
  match Hashtbl.find t.table (Packet.Addr.Ip.to_int ip) with
  | e ->
      touch t e;
      e.answer
  | exception Not_found -> None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best.tick <= e.tick -> acc
        | _ -> Some (k, e))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      Obs.Metrics.incr t.evictions

let insert t key mac =
  if Hashtbl.length t.table >= t.capacity then evict_lru t;
  t.clock <- t.clock + 1;
  Hashtbl.add t.table key (entry mac t.clock)

let is_placeholder mac = mac = Packet.Addr.Mac.broadcast

let learn t ip mac =
  let key = Packet.Addr.Ip.to_int ip in
  (match Hashtbl.find_opt t.table key with
  | None -> insert t key mac
  | Some e when e.mac = mac -> touch t e
  | Some e when is_placeholder e.mac ->
      (* real sender information replaces the failover placeholder *)
      Hashtbl.replace t.table key (entry mac e.tick);
      touch t (Hashtbl.find t.table key)
  | Some e when is_placeholder mac ->
      (* a placeholder never downgrades a resolved entry *)
      touch t e
  | Some e ->
      (* contradiction between two live claims: keep the first, count
         the attempt — silent overwrite is how caches get poisoned *)
      touch t e;
      Obs.Metrics.incr t.conflicts);
  Sim.Condition.broadcast t.updated

let resolve t ip ~request =
  let rec attempt tries =
    match lookup t ip with
    | Some mac -> Some mac
    | None when tries = 0 -> None
    | None when not (Sim.Engine.in_process ()) ->
        (* Static harnesses (the fuzzer) run outside the engine: emit
           the request and re-check once, without suspending. *)
        request ip;
        lookup t ip
    | None ->
        request ip;
        let fired = ref false in
        Sim.Engine.at t.engine
          (Int64.add (Sim.Engine.now t.engine) (Sim.Cycles.of_us 100.))
          (fun () ->
            if not !fired then begin
              fired := true;
              Sim.Condition.broadcast t.updated
            end);
        Sim.Condition.wait t.updated;
        attempt (tries - 1)
  in
  attempt 5

let entries t = Hashtbl.length t.table

let conflicts t = Obs.Metrics.value t.conflicts

let evictions t = Obs.Metrics.value t.evictions
