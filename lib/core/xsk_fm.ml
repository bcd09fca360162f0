type init_error =
  | Bad_fd of int
  | Pointer_in_trusted of string
  | Overlapping of string
  | Bad_layout of string

type t = {
  enclave : Sgx.Enclave.t;
  config : Config.t;
  stack : Netstack.Stack.t;
  fill : Rings.Certified.t;
  rx : Rings.Certified.t;
  tx : Rings.Certified.t;
  compl_ : Rings.Certified.t;
  umem : Umem.t;
  umem_ptr : Mem.Ptr.t;
  rx_notify : Sim.Condition.t;
  compl_notify : Sim.Condition.t;
  rx_scratch : Bytes.t; (* trusted staging frame, reused per packet *)
  rx_burst : int;
  mutable kick : unit -> unit;
  mutable renudge : unit -> unit; (* forced TX wakeup via the MM *)
  mutable republish : unit -> unit; (* OCALL: kernel re-enter + republish *)
  backoff : Sim.Backoff.t;
  (* Persistence detection for quarantine-and-reinit: [failure_mark] is
     the ring-failure count last iteration; [failure_base] rebases on
     every clean iteration so only uninterrupted runs of failures reach
     the threshold. *)
  mutable failure_mark : int;
  mutable failure_base : int;
  (* Dropped-TX-wakeup recovery: at most one rekick timer outstanding
     ([rekick_armed]); its deadline lives here, not in a per-wait ref —
     a fired timer's broadcast often wakes a *later* wait, which must
     still recognize the deadline as passed. *)
  mutable rekick_armed : bool;
  mutable rekick_deadline : int64;
  (* Stranded-RX reclaim (the RX analogue of the rekick): frames the
     kernel consumed off xFill that never surfaced on xRX are invisible
     to certification — every ring view stays self-consistent while the
     UMem tracker still counts them outstanding, the fill clamp starves
     refill, and no batch op ever runs to accumulate failures.  Track
     the last instant the shard had no such frames; past
     {!Sgx.Params.xsk_rx_reclaim_period} they are declared lost and
     swept home by a full reinit. *)
  mutable rx_stuck_since : int64;
  mutable starve_armed : bool;
  mutable starve_deadline : int64;
  (* Wedge evidence feeding the deadman: [refill_blocked] — the last
     refill pass wanted frames promised but the outstanding-RX clamp
     pinned it at zero; [rx_progress] — at least one RX frame came
     home since the deadman last looked. *)
  mutable refill_blocked : bool;
  mutable rx_progress : bool;
  (* Frames committed to xTX and not yet reclaimed, by UMem offset.
     This is what failover can still save: when the breaker opens these
     are copied out and resent via the slow path before [reinit] pulls
     the frames home (zero lost accepted datagrams, DESIGN.md §9). *)
  tx_inflight : (int, int) Hashtbl.t; (* offset -> frame length *)
  mutable breaker : Health.t option;
  (* Overload backpressure (DESIGN.md §15): while the hook returns true
     the refill loop keeps only [fill_floor] frames promised to the
     kernel, so a traffic flood is dropped by the host NIC at the edge
     ([Hostos.Xdp.rx_dropped]) instead of buffered into the enclave. *)
  mutable throttle : unit -> bool;
  fill_floor : int;
  (* NIC-side buffer bound (overload mode): with a cap installed, at
     most [cap] RX frames are ever promised to the kernel, so a flood
     can bloat the xRX backlog — and the queueing delay of admitted
     datagrams — by at most [cap] frames before the excess dies at the
     NIC.  [None] (the default) keeps the historical top-up-to-free
     behavior. *)
  mutable fill_cap : int option;
  (* Overload depth feed: when installed, each rx_loop iteration
     reports the xRX backlog (frames the kernel has produced that the
     enclave has not yet consumed) to the shard's controller. *)
  mutable note_backlog : (int -> unit) option;
  (* Shard-pressure query for the transmit path: while it returns true,
     UMem exhaustion fails fast (one retry) instead of burning the full
     exponential-backoff budget — under overload the frames are pinned
     by the flood, and a caller blocked for the whole budget serializes
     the very drain loop that would free them.  The refusal is
     accounted by the caller as an overload shed. *)
  mutable pressure : unit -> bool;
  fill_throttled : Obs.Metrics.counter;
  rx_packets : Obs.Metrics.counter;
  tx_packets : Obs.Metrics.counter;
  tx_frame_drops : Obs.Metrics.counter;
  tx_rekicks : Obs.Metrics.counter;
  reinits : Obs.Metrics.counter;
  reinit_reclaimed : Obs.Metrics.counter;
  rx_starvation_reclaims : Obs.Metrics.counter;
  rx_burst_hist : Obs.Metrics.histogram; (* slots moved per rx burst *)
}

let pp_init_error ppf = function
  | Bad_fd fd -> Format.fprintf ppf "negative xsk fd %d" fd
  | Pointer_in_trusted what ->
      Format.fprintf ppf "%s points into trusted memory" what
  | Overlapping what -> Format.fprintf ppf "overlapping objects: %s" what
  | Bad_layout what -> Format.fprintf ppf "invalid layout: %s" what

(* Rebuild a ring layout from host-provided pointers but with geometry
   taken from the trusted config: the host's idea of size/mask is never
   used (paper: "RAKIS calculates it based on the user-provided ring
   size"). *)
let certify_layout config name (host : Rings.Layout.t) =
  if Mem.Region.is_trusted host.region then Error (Pointer_in_trusted name)
  else
    match
      Rings.Layout.make host.region ~prod_off:host.prod_off
        ~cons_off:host.cons_off ~desc_off:host.desc_off
        ~entry_size:Abi.Xsk_desc.entry_size ~size:config.Config.ring_size
    with
    | layout -> Ok layout
    | exception Invalid_argument msg -> Error (Bad_layout (name ^ ": " ^ msg))

let layout_objects name (l : Rings.Layout.t) =
  [
    (name ^ ".prod", Mem.Ptr.v l.region l.prod_off, 4);
    (name ^ ".cons", Mem.Ptr.v l.region l.cons_off, 4);
    (name ^ ".desc", Mem.Ptr.v l.region l.desc_off, l.entry_size * l.size);
  ]

let ( let* ) = Result.bind

let create ?obs ?(name = "xsk") ~enclave ~config ~stack ~fd ~xsk () =
  if fd < 0 then Error (Bad_fd fd)
  else
    let* fill = certify_layout config "xFill" (Hostos.Xdp.fill_layout xsk) in
    let* rx = certify_layout config "xRX" (Hostos.Xdp.rx_layout xsk) in
    let* tx = certify_layout config "xTX" (Hostos.Xdp.tx_layout xsk) in
    let* compl_ = certify_layout config "xCompl" (Hostos.Xdp.compl_layout xsk) in
    let umem_ptr = Hostos.Xdp.umem_ptr xsk in
    let* () =
      if not (Mem.Ptr.is_untrusted umem_ptr) then
        Error (Pointer_in_trusted "UMem")
      else if not (Mem.Ptr.valid umem_ptr ~len:config.Config.umem_size) then
        Error (Bad_layout "UMem does not fit its region")
      else Ok ()
    in
    let objects =
      ("UMem", umem_ptr, config.Config.umem_size)
      :: List.concat_map
           (fun (name, l) -> layout_objects name l)
           [ ("xFill", fill); ("xRX", rx); ("xTX", tx); ("xCompl", compl_) ]
    in
    let* () =
      if Mem.Ptr.all_disjoint (List.map (fun (_, p, len) -> (p, len)) objects)
      then Ok ()
      else
        Error
          (Overlapping
             (String.concat ", " (List.map (fun (n, _, _) -> n) objects)))
    in
    let ring role ring_name layout =
      Rings.Certified.create layout ~role ?obs ~name:(name ^ "." ^ ring_name) ()
    in
    let m =
      match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
    in
    Ok
      {
        enclave;
        config;
        stack;
        fill = ring Rings.Certified.Producer "xFill" fill;
        rx = ring Rings.Certified.Consumer "xRX" rx;
        tx = ring Rings.Certified.Producer "xTX" tx;
        compl_ = ring Rings.Certified.Consumer "xCompl" compl_;
        umem =
          Umem.create ?obs ~name:(name ^ ".umem") ~size:config.Config.umem_size
            ~frame_size:config.Config.frame_size ();
        umem_ptr;
        rx_notify = Hostos.Xdp.rx_notify xsk;
        compl_notify = Hostos.Xdp.compl_notify xsk;
        (* One trusted staging frame, allocated (and charged) once; the
           rx path reuses it for every packet instead of a per-packet
           Bytes.create.  Safe because the stack copies what it keeps
           ({!Netstack.Stack.input_borrowed}). *)
        rx_scratch =
          (Sgx.Enclave.charge_copy enclave ~crossing:false
             config.Config.frame_size;
           Bytes.create config.Config.frame_size);
        rx_burst = min config.Config.rx_burst config.Config.ring_size;
        kick = (fun () -> ());
        renudge = (fun () -> ());
        republish = (fun () -> ());
        backoff =
          Sim.Backoff.create
            ~seed:(Int64.of_int (Hashtbl.hash name))
            ~base:config.Config.backoff_base ~cap:config.Config.backoff_cap ();
        failure_mark = 0;
        failure_base = 0;
        rekick_armed = false;
        rekick_deadline = 0L;
        rx_stuck_since = 0L;
        starve_armed = false;
        starve_deadline = 0L;
        refill_blocked = false;
        rx_progress = false;
        tx_inflight = Hashtbl.create 16;
        breaker = None;
        throttle = (fun () -> false);
        fill_floor = max 1 (config.Config.ring_size / 16);
        fill_cap = None;
        note_backlog = None;
        pressure = (fun () -> false);
        fill_throttled = Obs.Metrics.counter m (name ^ ".fill_throttled");
        rx_packets = Obs.Metrics.counter m (name ^ ".rx_packets");
        tx_packets = Obs.Metrics.counter m (name ^ ".tx_packets");
        tx_frame_drops = Obs.Metrics.counter m (name ^ ".tx_frame_drops");
        tx_rekicks = Obs.Metrics.counter m (name ^ ".tx_rekicks");
        reinits = Obs.Metrics.counter m (name ^ ".reinits");
        reinit_reclaimed = Obs.Metrics.counter m (name ^ ".reinit_reclaimed");
        rx_starvation_reclaims =
          Obs.Metrics.counter m (name ^ ".rx_starvation_reclaims");
        rx_burst_hist = Obs.Metrics.histogram m (name ^ ".rx_burst_slots");
      }

let set_kick t f = t.kick <- f

let set_renudge t f = t.renudge <- f

let set_republish t f = t.republish <- f

let set_breaker t b = t.breaker <- Some b

let set_throttle t f = t.throttle <- f

let set_fill_cap t cap = t.fill_cap <- Some (max t.fill_floor cap)

let set_note_backlog t f = t.note_backlog <- Some f

let set_pressure t f = t.pressure <- f

let breaker_failure t =
  match t.breaker with None -> () | Some b -> Health.record_failure b

let breaker_success t =
  match t.breaker with None -> () | Some b -> Health.record_success b

let tx_inflight t = Hashtbl.length t.tx_inflight

let fill_ring t = t.fill

let rx_ring t = t.rx

let tx_ring t = t.tx

let compl_ring t = t.compl_

let umem t = t.umem

let rx_packets t = Obs.Metrics.value t.rx_packets

let tx_packets t = Obs.Metrics.value t.tx_packets

let tx_frame_drops t = Obs.Metrics.value t.tx_frame_drops

let tx_rekicks t = Obs.Metrics.value t.tx_rekicks

let reinits t = Obs.Metrics.value t.reinits

let reinit_reclaimed t = Obs.Metrics.value t.reinit_reclaimed

let rx_starvation_reclaims t = Obs.Metrics.value t.rx_starvation_reclaims

let ring_check_failures t =
  Rings.Certified.failures t.fill
  + Rings.Certified.failures t.rx
  + Rings.Certified.failures t.tx
  + Rings.Certified.failures t.compl_

let burst_counters t =
  List.map
    (fun (name, ring) ->
      (name, (Rings.Certified.bursts ring, Rings.Certified.burst_slots ring)))
    [ ("xFill", t.fill); ("xRX", t.rx); ("xTX", t.tx); ("xCompl", t.compl_) ]

let invariant_holds t =
  Rings.Certified.invariant_holds t.fill
  && Rings.Certified.invariant_holds t.rx
  && Rings.Certified.invariant_holds t.tx
  && Rings.Certified.invariant_holds t.compl_

(* Keep xFill stocked with frames for incoming packets: one burst
   validates the peer index once and publishes the producer once,
   however many frames are stocked. *)
let refill t =
  let count = Umem.free_frames t.umem in
  (* Edge backpressure: while the shard's overload controller reports
     saturation, keep at most [fill_floor] frames promised to the
     kernel — a trickle, not zero, so arrivals keep waking this loop
     and the throttle can be re-evaluated once the rx queues drain
     (a full stop would park [rx_loop] in [idle_wait] with no RX
     frames left to wake it).  The flood beyond the trickle dies at
     the NIC ([Hostos.Xdp.rx_dropped]), outside the trust boundary. *)
  let count =
    if t.throttle () then begin
      Obs.Metrics.incr t.fill_throttled;
      min count (max 0 (t.fill_floor - Umem.outstanding t.umem Umem.Rx))
    end
    else
      match t.fill_cap with
      | Some cap -> min count (max 0 (cap - Umem.outstanding t.umem Umem.Rx))
      | None -> count
  in
  t.refill_blocked <- count = 0 && Umem.outstanding t.umem Umem.Rx > 0;
  if count > 0 then begin
    let produced =
      Rings.Certified.produce_batch t.fill ~count ~write:(fun ~slot_off _ ->
          match Umem.alloc t.umem with
          | Some offset ->
              Mem.Region.set_u64 (Rings.Certified.region t.fill) slot_off
                (Abi.Xsk_desc.encode_offset offset);
              Umem.commit t.umem offset Umem.Rx
          | None ->
              (* produce_batch never writes more slots than [count] and
                 only this callback allocates. *)
              assert false)
    in
    if produced > 0 then t.kick ()
  end
  else if Umem.outstanding t.umem Umem.Rx > 0 then
    (* Fully stocked, nothing to produce — certify the peer index
       anyway.  This clamp is exactly where a diverged kernel cursor
       hides: if a smashed producer word let the kernel's consumer run
       past the honest producer, the promised frames never come back,
       this branch is taken forever, and no batch operation would ever
       run the Table-2 checks that make [maybe_reinit] notice.  The
       probe costs one shared-word read; on divergence it records the
       ring-check failure that walks the loop toward reinit-and-rebase. *)
    ignore (Rings.Certified.free_slots t.fill)

(* Reclaim completed transmissions so their frames can be reused: drain
   everything xCompl holds in one burst. *)
let reap_completions t =
  let reclaimed = ref 0 in
  ignore
    (Rings.Certified.consume_batch t.compl_
       ~max:(Rings.Certified.size t.compl_)
       ~read:(fun ~slot_off _ ->
         let offset =
           Abi.Xsk_desc.decode_offset
             (Mem.Region.get_u64 (Rings.Certified.region t.compl_) slot_off)
         in
         (* Rejects are already counted by the UMem tracker; the burst
            advances past the slot regardless — exactly the "refuse and
            advance consumer" fail action. *)
         match Umem.reclaim t.umem Umem.Tx ~offset () with
         | Ok () ->
             Hashtbl.remove t.tx_inflight offset;
             incr reclaimed
         | Error _ -> ()));
  (* Completions flowing is direct evidence the TX datapath works:
     clears the breaker's failure streak, and in half-open counts the
     probe frame's round trip as the probe verdict. *)
  if !reclaimed > 0 then breaker_success t

(* Drain a burst of received descriptors into the enclave and hand them
   to the UDP/IP stack.  Returns the number of descriptors moved (valid
   or refused); 0 when xRX was empty. *)
let rx_burst t =
  let moved =
    Rings.Certified.consume_batch t.rx ~max:t.rx_burst ~read:(fun ~slot_off _ ->
        let offset, len =
          Abi.Xsk_desc.decode
            (Mem.Region.get_u64 (Rings.Certified.region t.rx) slot_off)
        in
        match Umem.reclaim t.umem Umem.Rx ~offset ~len () with
        | Error _ -> () (* refused; the burst advances past the slot *)
        | Ok () ->
            t.rx_progress <- true;
            Sgx.Enclave.charge_copy t.enclave ~crossing:true len;
            Mem.Region.blit_to_bytes t.umem_ptr.Mem.Ptr.region
              (t.umem_ptr.Mem.Ptr.off + offset)
              t.rx_scratch 0 len;
            Obs.Metrics.incr t.rx_packets;
            Netstack.Stack.input_borrowed t.stack t.rx_scratch ~len)
  in
  if moved > 0 then Obs.Metrics.observe t.rx_burst_hist moved;
  moved

(* Quarantine-and-reinit (DESIGN.md §8): when certified-ring failures
   persist, the trusted view and the kernel's have diverged beyond what
   per-burst rejection heals.  Ask the kernel to re-enter and republish
   its indices (one OCALL), re-adopt the shared words as the trusted
   baseline, pull home every frame still promised to the old ring
   epoch, and restock xFill.  A stale kernel descriptor naming a
   reclaimed frame is later refused as [Wrong_owner] — availability
   cost only, never a double-owned frame. *)
let reinit ?(keep_rx = false) t =
  Obs.Metrics.incr t.reinits;
  t.republish ();
  let unhealed = ref false in
  List.iter
    (fun (ring, swept) ->
      match Rings.Certified.resync ring with
      | Ok () -> ()
      | Error (`Bad_window _) when swept ->
          (* Unhealable divergence (kernel cursor ran past the honest
             one, window negative forever) on a ring whose frames the
             sweep below brings home: rebase — adopt the kernel's
             republished position, restart the ring empty.  Retrying
             resync could never succeed. *)
          Rings.Certified.rebase ring
      | Error (`Bad_window _) ->
          (* A ring whose frames stay promised (keep_rx) cannot be
             rebased — its slots still name live frames.  Leave it
             quarantined; the failure counter keeps climbing and the
             next threshold crossing retries. *)
          unhealed := true)
    [
      (t.fill, not keep_rx);
      (t.rx, not keep_rx);
      (t.tx, true);
      (t.compl_, true);
    ];
  (* A reinit that leaves a ring quarantined is a terminal recovery
     failure — exactly what should push the breaker toward Open. *)
  if !unhealed then breaker_failure t;
  let reclaimed =
    (* The breaker-open reinit keeps xFill promises alive: the kernel
       still honors them (only the TX half died), and reclaiming them
       would make post-failback arrivals land in [Wrong_owner] frames
       — accepted datagrams lost.  Attack-driven reinits (DESIGN.md §8)
       sweep both routines: after ring divergence nothing the kernel
       holds is trusted. *)
    if keep_rx then Umem.reclaim_outstanding ~only:Umem.Tx t.umem
    else Umem.reclaim_outstanding t.umem
  in
  Obs.Metrics.add t.reinit_reclaimed reclaimed;
  (* Every rescuable frame is home now; in-flight records refer to a
     dead ring epoch (failover copies frames out *before* reinit). *)
  Hashtbl.reset t.tx_inflight;
  refill t

let maybe_reinit t =
  let f = ring_check_failures t in
  if f = t.failure_mark then
    (* A clean iteration rebases the window: sporadic rejections (lone
       smashes, probabilistic attacks) never accumulate to a reinit;
       only an uninterrupted run of failing iterations does. *)
    t.failure_base <- f
  else if f - t.failure_base >= t.config.Config.reinit_threshold then begin
    t.failure_base <- f;
    reinit t
  end;
  t.failure_mark <- f

(* RX frames the enclave still counts as promised to the kernel, minus
   every place a live frame could legitimately be: still-unconsumed
   xFill entries and the xRX backlog.  A positive result means frames
   the kernel took and never returned — their descriptors were refused
   ([Wrong_owner]/garbage under attack), or the consumed-count itself
   was a lie.  Both certified reads refresh the peer index, so a
   diverged cursor discovered here is also counted as a ring-check
   failure. *)
let stranded_rx t =
  let pending =
    Rings.Certified.size t.fill - Rings.Certified.free_slots t.fill
  in
  let backlog = Rings.Certified.available t.rx in
  Umem.outstanding t.umem Umem.Rx - pending - backlog

(* The RX analogue of [check_rekick].  Stranded frames are invisible to
   every other recovery path: the UMem tracker counts them outstanding
   so the fill clamp pins refill at zero, yet all four ring views stay
   self-consistent, so no batch op ever records the failures that drive
   [maybe_reinit] — the shard is wedged with the breaker closed (the
   metastable state the 100k soak found).  Only time distinguishes a
   stranded frame from one the kernel is about to return: past
   {!Sgx.Params.xsk_rx_reclaim_period} of uninterrupted strandedness,
   declare the ring epoch dead and sweep every promised frame home.

   A full reinit is disruptive (the kernel's pending xFill entries from
   the dead epoch turn into [Wrong_owner] rejects), so it takes the
   whole wedge signature, held for the whole window, to fire:
   - [refill_blocked]: refill wanted frames promised but the
     outstanding-RX clamp pinned it at zero.  A lone stranded frame on
     a healthy shard (one forged descriptor's bounded leak) never
     blocks refill and must not trigger epoch teardown.
   - no [rx_progress]: not a single frame came home.  A shard whose
     other frames still circulate is degraded, not wedged.
   - [stranded_rx t > 0]: the promises are provably nowhere — not in
     xFill, not in the xRX backlog.
   Skipped while the breaker is [Open]: the failover reinit keeps xFill
   promises alive on purpose, and failback re-evaluates from scratch. *)
let check_rx_starvation t engine =
  let now = Sim.Engine.now engine in
  if t.starve_armed && Int64.compare now t.starve_deadline >= 0 then
    t.starve_armed <- false;
  let breaker_open =
    match t.breaker with
    | Some b -> Health.state b = Health.Open
    | None -> false
  in
  if
    breaker_open || t.rx_progress
    || (not t.refill_blocked)
    || stranded_rx t <= 0
  then begin
    t.rx_progress <- false;
    t.rx_stuck_since <- now
  end
  else if
    Int64.compare (Int64.sub now t.rx_stuck_since)
      Sgx.Params.xsk_rx_reclaim_period
    >= 0
  then begin
    t.rx_stuck_since <- now;
    Obs.Metrics.incr t.rx_starvation_reclaims;
    reinit t
  end

(* Idle wait, with the dropped-TX-wakeup recovery: while TX frames are
   outstanding, arm a rekick timer — if neither a packet nor a
   completion arrives within {!Sgx.Params.xsk_rekick_period}, the xTX
   wakeup was likely dropped and only a forced sendto can unstick the
   kernel (the kernel reads the shared xFill producer directly, so RX
   needs no analogue). *)
(* Expire the rekick deadline if it has passed: disarm, and if TX work
   is still outstanding the xTX wakeup was likely dropped — force one.
   Must run on entry as well as after the wait, because the timer's
   broadcast may land while the loop is busy (or parked with nothing
   outstanding): the flag would otherwise stay armed forever and no
   future timer could ever be set. *)
let check_rekick t engine =
  if
    t.rekick_armed
    && Int64.compare (Sim.Engine.now engine) t.rekick_deadline >= 0
  then begin
    t.rekick_armed <- false;
    if Umem.outstanding t.umem Umem.Tx > 0 then begin
      Obs.Metrics.incr t.tx_rekicks;
      (* A forced renudge means a whole rekick period passed with TX
         outstanding and no completions: a breaker failure signal (3 of
         these ≈ 60k cycles opens the breaker at default thresholds;
         completions in between clear the streak via [breaker_success]). *)
      breaker_failure t;
      t.renudge ()
    end
  end

(* Honest-republish before parking (DESIGN.md §8): Malice can smash the
   shared words this enclave itself owns — the xFill producer and xRX
   consumer.  Certification never inspects owned words, so the smash is
   invisible here; the kernel just clamps the garbage distance to zero
   and starts edge-dropping every arrival for "no fill frames" / "xRX
   full".  Those drops are exactly what would have woken this loop, so
   without repair the shard is silenced forever (the metastable failure
   the 100k soak found).  Rewriting the owned words from the trusted
   copies on the idle edge makes every such smash transient: the next
   starvation-drop wakeup (see [Hostos.Xdp.rx_deliver]) lands after the
   words are honest again. *)
let republish_owned t =
  Rings.Certified.republish t.fill;
  Rings.Certified.republish t.rx

let idle_wait t =
  let engine = Sgx.Enclave.engine t.enclave in
  republish_owned t;
  check_rekick t engine;
  if Umem.outstanding t.umem Umem.Tx > 0 && not t.rekick_armed then begin
    t.rekick_armed <- true;
    t.rekick_deadline <-
      Int64.add (Sim.Engine.now engine) Sgx.Params.xsk_rekick_period;
    Sim.Engine.at engine t.rekick_deadline (fun () ->
        Sim.Condition.broadcast t.rx_notify)
  end;
  (* Starvation deadman: a fully-wedged shard receives no rx/compl
     broadcasts at all (arrivals die at the NIC edge), so the
     starvation check below the wait would never run.  While any RX
     frame is promised, keep one timer outstanding that forces a
     wake-up at the reclaim horizon. *)
  if Umem.outstanding t.umem Umem.Rx > 0 && not t.starve_armed then begin
    t.starve_armed <- true;
    t.starve_deadline <-
      Int64.add (Sim.Engine.now engine) Sgx.Params.xsk_rx_reclaim_period;
    Sim.Engine.at engine t.starve_deadline (fun () ->
        Sim.Condition.broadcast t.rx_notify)
  end;
  Sim.Condition.wait_any [ t.rx_notify; t.compl_notify ];
  check_rekick t engine

let rx_loop t () =
  refill t;
  let rec loop () =
    (* Depth feed before consuming: a full backlog sample is what sets
       the shard's saturation; the post-consume drain clears it on a
       later iteration once the flood subsides. *)
    (match t.note_backlog with
    | Some f -> f (Rings.Certified.available t.rx)
    | None -> ());
    let moved = rx_burst t in
    (* Reaping completions here (not only on the transmit path) drains
       outstanding TX even when the application goes quiet after its
       last send — a precondition for the rekick gate above going
       false. *)
    reap_completions t;
    refill t;
    maybe_reinit t;
    check_rx_starvation t (Sgx.Enclave.engine t.enclave);
    if moved = 0 then idle_wait t;
    loop ()
  in
  loop ()

let start t =
  Sim.Engine.spawn (Sgx.Enclave.engine t.enclave) ~name:"xsk-fm-rx" (rx_loop t)

let transmit t frame =
  let len = Bytes.length frame in
  if len > t.config.Config.frame_size then begin
    Obs.Metrics.incr t.tx_frame_drops;
    false
  end
  else begin
    reap_completions t;
    Sim.Backoff.reset t.backoff;
    let rec acquire tries =
      match Umem.alloc t.umem with
      | Some offset -> Some offset
      | None when tries = 0 -> None
      | None ->
          (* Transient exhaustion: back off exponentially while
             in-flight sends complete (a stalled NIC holds frames for
             whole stall windows — fixed short sleeps just burn the
             window polling). *)
          Sim.Engine.delay (Sim.Backoff.next t.backoff);
          reap_completions t;
          acquire (tries - 1)
    in
    let under_pressure = t.pressure () in
    let tries = if under_pressure then 1 else 2 * t.config.Config.retry_limit in
    match acquire tries with
    | None ->
        Obs.Metrics.incr t.tx_frame_drops;
        (* UMem exhaustion that outlasted the whole backoff budget is an
           overload signal, not noise — but when the shard's controller
           already reports pressure, the exhaustion is the legitimate
           flood pinning frames: fail fast, let the caller account the
           shed, and leave the breaker alone (the host did nothing
           wrong, and a failover would slow the drain further). *)
        if not under_pressure then breaker_failure t;
        false
    | Some offset -> (
        Sgx.Enclave.charge_copy t.enclave ~crossing:true len;
        Mem.Region.blit_from_bytes frame 0 t.umem_ptr.Mem.Ptr.region
          (t.umem_ptr.Mem.Ptr.off + offset)
          len;
        match
          Rings.Certified.produce t.tx ~write:(fun ~slot_off ->
              Mem.Region.set_u64 (Rings.Certified.region t.tx) slot_off
                (Abi.Xsk_desc.encode ~offset ~len))
        with
        | Ok () ->
            Umem.commit t.umem offset Umem.Tx;
            Hashtbl.replace t.tx_inflight offset len;
            Rings.Certified.publish t.tx;
            Obs.Metrics.incr t.tx_packets;
            t.kick ();
            (* Wake our own rx loop: if it parked in the untimed branch
               of [idle_wait] before this frame went outstanding, it
               would never arm the rekick timer — and a dropped xTX
               wakeup would then stall this frame forever. *)
            Sim.Condition.broadcast t.rx_notify;
            true
        | Error `Ring_full ->
            Umem.cancel t.umem offset;
            Obs.Metrics.incr t.tx_frame_drops;
            breaker_failure t;
            false)
  end

(* Breaker-open hook (DESIGN.md §9): rescue every frame still committed
   to the dead ring epoch.  Completed-but-unreaped frames are reaped
   first so nothing is sent twice; the rest are copied into trusted
   memory (paying the crossing) and handed to [resend] — the runtime
   pushes them through the exit-based host socket — before [reinit]
   reclaims the UMem frames and restocks xFill for the half-open probe
   that will eventually test this XSK again.  Returns the number of
   frames rerouted. *)
let failover_reroute t ~resend =
  (* Drain xRX first: frames the kernel has already handed over would
     otherwise be reclaimed unread by [reinit] — accepted datagrams
     lost, which degraded mode promises never happens.  The netstack's
     receive side does not depend on the dead TX half. *)
  while rx_burst t > 0 do
    ()
  done;
  reap_completions t;
  let frames =
    List.sort compare
      (Hashtbl.fold (fun offset len acc -> (offset, len) :: acc) t.tx_inflight [])
  in
  let rerouted = ref 0 in
  List.iter
    (fun (offset, len) ->
      let buf = Bytes.create len in
      Sgx.Enclave.charge_copy t.enclave ~crossing:true len;
      Mem.Region.blit_to_bytes t.umem_ptr.Mem.Ptr.region
        (t.umem_ptr.Mem.Ptr.off + offset)
        buf 0 len;
      if resend buf then incr rerouted)
    frames;
  reinit ~keep_rx:true t;
  !rerouted
