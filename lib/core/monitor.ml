type watched =
  | Xsk of {
      xsk : Hostos.Xdp.xsk;
      fill : Rings.Layout.t;
      tx : Rings.Layout.t;
      mutable fill_seen : int;
      mutable tx_seen : int;
      mutable forced : bool;
    }
  | Uring of {
      uring : Hostos.Io_uring.t;
      sq : Rings.Layout.t;
      mutable sq_seen : int;
      mutable forced : bool;
    }

type t = {
  engine : Sim.Engine.t;
  kernel : Hostos.Kernel.t;
  (* Which datapath shard this MM serves (None = the only MM).  Gives
     Monitor_crash/Monitor_hang rolls their shard context and names the
     spawned thread. *)
  shard : int option;
  work : Sim.Condition.t;
  mutable watched : watched list;
  mutable pending : bool;
  wakeups : Obs.Metrics.counter;
  rx_wakeups : Obs.Metrics.counter;
  tx_wakeups : Obs.Metrics.counter;
  uring_wakeups : Obs.Metrics.counter;
  scans : Obs.Metrics.counter;
  forced_enters : Obs.Metrics.counter;
  forced_tx : Obs.Metrics.counter;
  beats : Obs.Metrics.counter;
  crashes : Obs.Metrics.counter;
  trace : Obs.Trace.t option;
  (* Liveness state the in-enclave watchdog samples (DESIGN.md §8).
     The MM thread is untrusted and may crash or hang; [generation]
     fences stale incarnations out after a restart. *)
  mutable generation : int;
  mutable alive : bool;
  mutable last_beat : int; (* native clock, as [Sim.Engine.clock] reads it *)
  mutable hb_armed : bool;
  hb_fire : unit -> unit; (* the heartbeat timer's callback, built once *)
}

let heartbeat_period = Int64.to_int Sgx.Params.mm_heartbeat_period

let create ?obs ?name ?shard engine ~kernel =
  let m =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  let name = Option.value name ~default:"mm" in
  let rec t =
    {
      engine;
      kernel;
      shard;
      work = Sim.Condition.create ();
      watched = [];
      pending = false;
      wakeups = Obs.Metrics.counter m (name ^ ".wakeups");
      rx_wakeups = Obs.Metrics.counter m (name ^ ".wakeups.rx");
      tx_wakeups = Obs.Metrics.counter m (name ^ ".wakeups.tx");
      uring_wakeups = Obs.Metrics.counter m (name ^ ".wakeups.uring");
      scans = Obs.Metrics.counter m (name ^ ".scans");
      forced_enters = Obs.Metrics.counter m (name ^ ".forced_enters");
      forced_tx = Obs.Metrics.counter m (name ^ ".forced_tx");
      beats = Obs.Metrics.counter m (name ^ ".heartbeats");
      crashes = Obs.Metrics.counter m (name ^ ".crashes");
      trace = Option.map Obs.trace obs;
      generation = 0;
      alive = false;
      last_beat = 0;
      hb_armed = false;
      hb_fire =
        (fun () ->
          t.hb_armed <- false;
          Sim.Condition.broadcast t.work);
    }
  in
  t

let watch_xsk t xsk =
  t.watched <-
    Xsk
      {
        xsk;
        fill = Hostos.Xdp.fill_layout xsk;
        tx = Hostos.Xdp.tx_layout xsk;
        fill_seen = 0;
        tx_seen = 0;
        forced = false;
      }
    :: t.watched

let watch_uring t uring =
  t.watched <-
    Uring
      { uring; sq = Hostos.Io_uring.sq_layout uring; sq_seen = 0; forced = false }
    :: t.watched

(* An explicit enter request from the FM, index movement or not: a
   hostile iCompl producer value freezes the certified view until the
   kernel next rewrites the shared word, so the FM periodically asks
   for a re-enter even when it has published nothing new. *)
(* A walk, not [List.iter]: a nudge allocates no closure. *)
let rec force_uring id = function
  | [] -> ()
  | w :: ws ->
      (match w with
      | Uring r when Hostos.Io_uring.uring_id r.uring = id -> r.forced <- true
      | _ -> ());
      force_uring id ws

let nudge_uring t uring = force_uring (Hostos.Io_uring.uring_id uring) t.watched

(* The XSK flavour of a forced wakeup: the FM suspects a TX wakeup was
   dropped (frames outstanding, completions quiet), so ask for a sendto
   even though xTX has not advanced. *)
let nudge_xsk t xsk =
  List.iter
    (fun w ->
      match w with
      | Xsk r when Hostos.Xdp.xsk_id r.xsk = Hostos.Xdp.xsk_id xsk ->
          r.forced <- true
      | _ -> ())
    t.watched

(* [pending] survives kicks that arrive while the MM is mid-scan (the
   condition would otherwise drop them). *)
let kick t =
  t.pending <- true;
  Sim.Condition.signal t.work

let wakeup_syscalls t = Obs.Metrics.value t.wakeups

let rx_wakeup_syscalls t = Obs.Metrics.value t.rx_wakeups

let tx_wakeup_syscalls t = Obs.Metrics.value t.tx_wakeups

let uring_wakeup_syscalls t = Obs.Metrics.value t.uring_wakeups

let alive t = t.alive

let last_beat t = t.last_beat

let generation t = t.generation

let advanced ~seen ~now = Rings.U32.distance ~ahead:now ~behind:seen > 0

let wakeup t kind_counter label =
  Obs.Metrics.incr t.wakeups;
  Obs.Metrics.incr kind_counter;
  match t.trace with
  | None -> ()
  | Some tr -> Obs.Trace.instant tr ~cat:"mm" ~arg:0 label

let syscall_cycles = Int64.to_int Sgx.Params.syscall_cycles

let hang_cycles = Int64.to_int Sgx.Params.fault_monitor_hang

let wakeup_delay = Int64.to_int Sgx.Params.fault_wakeup_delay

(* What a wakeup in flight asks the kernel for. *)
type kind = Rx | Tx | Enter

(* One scan of the watched rings, staged: the stage returned walks
   [t.watched] and issues a wakeup syscall for each producer index that
   advanced (or that an FM nudged).  A wakeup charges the syscall, rolls its fate
   ({!Hostos.Kernel.wakeup_fate}), charges a delayed one's delay, and
   lands.  [next] runs when the walk is done.  [here] is the watched
   ring in hand, [kind] the wakeup in flight.  Charged to [p]; from a
   fiber, the whole walk runs in that fiber. *)
let scanner t p ~next =
  let here = ref [] and kind = ref Rx in
  let rec walk = function
    | [] -> next ()
    | (Xsk r :: _) as ws ->
        here := ws;
        let fill_now = Rings.Layout.read_prod r.fill in
        if advanced ~seen:r.fill_seen ~now:fill_now then begin
          r.fill_seen <- fill_now;
          wakeup t t.rx_wakeups "mm.wakeup.rx";
          syscall Rx
        end
        else tx ()
    | (Uring r :: _) as ws ->
        here := ws;
        let sq_now = Rings.Layout.read_prod r.sq in
        if r.forced || advanced ~seen:r.sq_seen ~now:sq_now then begin
          if r.forced && not (advanced ~seen:r.sq_seen ~now:sq_now) then
            Obs.Metrics.incr t.forced_enters;
          r.forced <- false;
          r.sq_seen <- sq_now;
          wakeup t t.uring_wakeups "mm.wakeup.uring";
          syscall Enter
        end
        else rest ()
  and tx () =
    match !here with
    | Xsk r :: _ ->
        let tx_now = Rings.Layout.read_prod r.tx in
        let adv = advanced ~seen:r.tx_seen ~now:tx_now in
        if r.forced || adv then begin
          if r.forced && not adv then Obs.Metrics.incr t.forced_tx;
          r.forced <- false;
          r.tx_seen <- tx_now;
          wakeup t t.tx_wakeups "mm.wakeup.tx";
          syscall Tx
        end
        else rest ()
    | _ -> rest ()
  and rest () = match !here with _ :: ws -> walk ws | [] -> next ()
  and syscall k =
    kind := k;
    Sim.Engine.charge p syscall_cycles trapped
  and trapped () =
    let shard =
      match !here with
      | Xsk r :: _ -> Hostos.Xdp.shard r.xsk
      | Uring r :: _ -> Hostos.Io_uring.shard r.uring
      | [] -> None
    in
    match Hostos.Kernel.wakeup_fate ?shard t.kernel with
    | Lands -> lands ()
    | Dropped -> landed ()
    | Delayed -> Sim.Engine.charge p wakeup_delay lands
  and lands () =
    (match (!kind, !here) with
    | Rx, Xsk r :: _ -> Hostos.Xdp.rx_wakeup r.xsk
    | Tx, Xsk r :: _ -> Hostos.Xdp.tx_wakeup r.xsk
    | Enter, Uring r :: _ -> Hostos.Io_uring.enter r.uring
    | _ -> ());
    landed ()
  and landed () = match !kind with Rx -> tx () | Tx | Enter -> rest ()
  in
  fun () ->
    Obs.Metrics.incr t.scans;
    walk t.watched

(* From inside the enclave (the watchdog's fiber), so the wakeups'
   charges are that fiber's delays; a stopgap, built per call. *)
let force_scan t = scanner t (Sim.Engine.self ()) ~next:ignore ()

(* Idle wait, with a liveness beat.  Arming the heartbeat timer only
   when a fault injector is installed keeps fault-free runs' event
   queues drainable (several tests terminate on queue exhaustion) and
   costs nothing: without faults the MM cannot crash, so nothing
   samples the beat.  At most one timer is outstanding ([hb_armed]) no
   matter how often the loop passes through here. *)
let heartbeat_wait t =
  (match Hostos.Kernel.faults t.kernel with
  | Some _ when not t.hb_armed ->
      t.hb_armed <- true;
      Sim.Engine.at_clock t.engine
        (Sim.Engine.clock t.engine + heartbeat_period)
        t.hb_fire
  | _ -> ());
  Sim.Condition.listen t.work

(* One MM incarnation, an actor: beat, roll the crash and hang faults,
   scan if kicked, else wait for a kick or the heartbeat timer. *)
let incarnation t gen p =
  let scan = ref ignore in
  let rec loop () =
    (* A later restart fences this incarnation out: scans and beats
       from a superseded MM thread must stop (it may have been woken
       from a hang long after its replacement took over). *)
    if t.generation = gen then begin
      t.last_beat <- Sim.Engine.clock t.engine;
      Obs.Metrics.incr t.beats;
      match Hostos.Kernel.faults t.kernel with
      | Some f
        when Hostos.Faults.roll ?shard:t.shard (Some f)
               Hostos.Faults.Monitor_crash ->
          Hostos.Faults.record f Hostos.Faults.Monitor_crash;
          Obs.Metrics.incr t.crashes;
          t.alive <- false
          (* thread exits; the watchdog notices the stale beat *)
      | Some f
        when Hostos.Faults.roll ?shard:t.shard (Some f)
               Hostos.Faults.Monitor_hang ->
          Hostos.Faults.record f Hostos.Faults.Monitor_hang;
          Sim.Engine.charge p hang_cycles loop
      | _ ->
          if t.pending then begin
            t.pending <- false;
            !scan ()
          end
          else heartbeat_wait t
    end
  in
  scan := scanner t p ~next:loop;
  loop

let start t =
  t.generation <- t.generation + 1;
  t.alive <- true;
  t.last_beat <- Sim.Engine.clock t.engine;
  let name =
    match t.shard with
    | None -> "rakis-mm"
    | Some k -> Printf.sprintf "rakis-mm%d" k
  in
  ignore (Sim.Engine.actor t.engine ~name (incarnation t t.generation))
