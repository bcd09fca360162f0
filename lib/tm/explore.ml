(* Exhaustive bounded exploration of the full FM product machine
   (DESIGN.md §11) — the Testing Module's one ring and offset checker.

   This module explores the {e product} of everything the FM composes
   per shard: the certified xRX (consumer) and xFill (producer) ring
   indices x the UMem ownership partition (free / out-Rx / out-Tx /
   limbo / registered) x the circuit breaker (Closed / Open /
   Half_open, probe in flight, cooldown) x a fault trigger x the shard
   id — under an interleaved adversary that may, at every step, deliver
   frames honestly, deliver garbage descriptors, smash the shared
   xRX producer or xFill consumer index, forge or withhold zero-copy
   notifs, arm a persistent fault, or stall.  The rings are driven the
   way the FM drives them: xRX is drained with [consume_batch], xFill
   is stocked with [produce_batch].

   The search is a breadth-first enumeration of transition sequences
   over a deliberately tiny configuration (2 shards, 2-entry rings,
   3 UMem frames, breaker threshold 2) with state hashing: states are
   deduplicated by a structural abstraction (trusted-index window,
   per-slot descriptor classes, the full frame partition and free-list
   order, breaker observation, fault arming) that captures everything
   the enabled-transition relation and the invariants can see.
   Monotone counters (opens, closes, reject totals) are capped in the
   abstraction so the reachable space is finite.

   Because the machines are mutable, a state is reconstructed by
   replaying its transition path on a fresh machine; determinism makes
   the replay exact.  After every transition the explorer asserts:

   - V1  UMem conservation: free + outRx + outTx + limbo + registered
         = frames;
   - V2  certified ring invariant (paper eq. 1): 0 <= Pt - Ct <= St,
         on xRX and xFill;
   - V3  ring conformance with the pure {!Stm_model.Ring} — trusted
         copies, reject counts and both shared index words — on xRX
         and xFill;
   - V4  UMem conformance with {!Stm_model.Umem} (partition + rejects);
   - V5  breaker conformance with {!Stm_model.Breaker}, edge legality
         (breaker monotonicity) and exact opens/closes/on_open counts;
   - V6  descriptor accept/reject verdicts match the model's;
   - V7  shard containment: a transition on shard [k] leaves every
         other shard's observation untouched;
   - V8  notif-anchored zero-copy ownership: exactly one pending notif
         per Registered frame, honest notifs accepted, forged or
         duplicated notifs refused, and release verdicts match the
         model's.

   The [mutant] parameter re-introduces five historical bug shapes
   (probe double-counting, probe slot leak, skipped reclaim
   validation, completion-anchored zero-copy release, an xFill write
   past the validated free window) in the
   {e driver}'s use of the real modules; the test suite proves each one
   is caught, which is the evidence that the explorer's net actually
   catches the fish it claims to. *)

type mutant =
  | Probe_off_by_one  (** a probe success is counted twice *)
  | Probe_slot_leak  (** a declined probe never releases its slot *)
  | Skip_reclaim  (** consumed descriptors bypass UMem validation *)
  | Zc_release_early
      (** a zero-copy frame is freed on completion instead of notif *)
  | Fill_overrun
      (** a refused xFill produce is written and published anyway *)

let mutant_name = function
  | Probe_off_by_one -> "probe-off-by-one"
  | Probe_slot_leak -> "probe-slot-leak"
  | Skip_reclaim -> "skip-reclaim"
  | Zc_release_early -> "zc-release-early"
  | Fill_overrun -> "fill-overrun"

let all_mutants =
  [
    Probe_off_by_one; Probe_slot_leak; Skip_reclaim; Zc_release_early;
    Fill_overrun;
  ]

let mutant_of_string s =
  List.find_opt (fun m -> mutant_name m = s) all_mutants

type config = {
  shards : int;
  ring_size : int;
  frames : int;  (** UMem frames per shard *)
  frame_size : int;
  threshold : int;
  probes_needed : int;
  cooldown : int64;
  mutant : mutant option;
}

(* {1 The concrete per-shard machine} *)

type shard = {
  rx_layout : Rings.Layout.t;
  rx : Rings.Certified.t;  (* consumer role *)
  fill_layout : Rings.Layout.t;
  fill : Rings.Certified.t;  (* producer role *)
  umem : Rakis.Umem.t;
  breaker : Rakis.Health.t;
  clock : int64 ref;
  on_open_fires : int ref;
  mutable fault_armed : bool;
  mutable limbo : int option;  (* allocated, not yet committed *)
  mutable tx_out : int list;  (* committed Tx frames awaiting completion *)
  mutable zc_out : int list;  (* Registered frames awaiting their notif *)
  mutable rx_shadow : int;  (* the honest host's true xRX producer index *)
  mutable fill_shadow : int;  (* the honest host's true xFill consumer index *)
  (* pure mirrors, advanced in lockstep *)
  mutable m_rx : Stm_model.Ring.t;
  mutable m_fill : Stm_model.Ring.t;
  mutable m_umem : Stm_model.Umem.t;
  mutable m_breaker : Stm_model.Breaker.t;
}

type machine = { cfg : config; shards : shard array }

let make_shard cfg k =
  let region =
    Mem.Region.create ~kind:Untrusted
      ~name:(Printf.sprintf "explore.%d" k)
      ~size:
        (2 * (Rings.Layout.footprint ~entry_size:8 ~size:cfg.ring_size + 64))
  in
  let alloc = Mem.Alloc.create region () in
  let ring () = Rings.Layout.alloc alloc ~entry_size:8 ~size:cfg.ring_size in
  let rx_layout = ring () in
  let fill_layout = ring () in
  let clock = ref 0L in
  let breaker =
    Rakis.Health.create
      ~name:(Printf.sprintf "explore.%d" k)
      ~clock:(fun () -> !clock)
      ~threshold:cfg.threshold ~cooldown:cfg.cooldown
      ~probes_needed:cfg.probes_needed ()
  in
  let on_open_fires = ref 0 in
  Rakis.Health.set_on_open breaker (fun () -> incr on_open_fires);
  {
    rx_layout;
    rx = Rings.Certified.create rx_layout ~role:Rings.Certified.Consumer ();
    fill_layout;
    fill = Rings.Certified.create fill_layout ~role:Rings.Certified.Producer ();
    umem =
      Rakis.Umem.create
        ~size:(cfg.frames * cfg.frame_size)
        ~frame_size:cfg.frame_size ();
    breaker;
    clock;
    on_open_fires;
    fault_armed = false;
    limbo = None;
    tx_out = [];
    zc_out = [];
    rx_shadow = 0;
    fill_shadow = 0;
    m_rx = Stm_model.Ring.create ~size:cfg.ring_size;
    m_fill = Stm_model.Ring.create ~size:cfg.ring_size;
    m_umem = Stm_model.Umem.create ~frames:cfg.frames ~frame_size:cfg.frame_size;
    m_breaker =
      Stm_model.Breaker.create ~threshold:cfg.threshold
        ~probes_needed:cfg.probes_needed ~cooldown:cfg.cooldown;
  }

let boot cfg = { cfg; shards = Array.init cfg.shards (make_shard cfg) }

(* {1 Transitions} *)

type bad = Bad_misaligned | Bad_foreign | Bad_oversize

type step =
  | Alloc  (** FM takes a free frame *)
  | Commit_rx  (** FM produces the limbo frame into xFill *)
  | Commit_tx  (** FM produces the limbo frame into xTX *)
  | Cancel  (** FM returns the limbo frame unused *)
  | Host_deliver  (** honest host: next xFill frame into xRX *)
  | Host_deliver_bad of bad  (** hostile host: garbage descriptor *)
  | Smash of int  (** hostile host: smash xRX's shared producer index *)
  | Smash_fill of int  (** hostile host: smash xFill's shared consumer index *)
  | Fm_poll  (** FM receive poll, routed through the breaker *)
  | Reap_tx  (** honest host completes a Tx frame *)
  | Reap_tx_bad  (** hostile completion for a frame not out on Tx *)
  | Register  (** FM lends the limbo frame zero-copy (SEND_ZC) *)
  | Notif  (** honest host: notif for the oldest lent frame *)
  | Notif_bad  (** hostile notif for a frame not Registered *)
  | Tick  (** the breaker cooldown elapses *)
  | Fault_toggle  (** arm / clear the persistent fault *)

type transition = { shard : int; step : step }

let bad_name = function
  | Bad_misaligned -> "misaligned"
  | Bad_foreign -> "foreign"
  | Bad_oversize -> "oversize"

let step_name = function
  | Alloc -> "alloc"
  | Commit_rx -> "commit-rx"
  | Commit_tx -> "commit-tx"
  | Cancel -> "cancel"
  | Host_deliver -> "deliver"
  | Host_deliver_bad b -> "deliver-bad:" ^ bad_name b
  | Smash i -> Printf.sprintf "smash:%d" i
  | Smash_fill i -> Printf.sprintf "smash-fill:%d" i
  | Fm_poll -> "poll"
  | Reap_tx -> "reap-tx"
  | Reap_tx_bad -> "reap-tx-bad"
  | Register -> "register"
  | Notif -> "notif"
  | Notif_bad -> "notif-bad"
  | Tick -> "tick"
  | Fault_toggle -> "fault-toggle"

let transition_name t = Printf.sprintf "%s#%d" (step_name t.step) t.shard

(* Hostile values for xRX's shared producer word, relative to the
   trusted state: a regress, a just-out-of-window jump, the maximal
   in-window overshoot (accepted — the slots hold whatever the host
   left there) and a far-future value. *)
let smash_candidates cfg sh =
  let tp = Rings.Certified.trusted_prod sh.rx in
  let tc = Rings.Certified.trusted_cons sh.rx in
  [
    Rings.U32.sub tc 1;
    Rings.U32.add tc (cfg.ring_size + 1);
    Rings.U32.add tc cfg.ring_size;
    Rings.U32.add tp 0x4000_0000;
  ]

(* The same four kinds for xFill's shared consumer word: a regress, a
   value past the trusted producer, the in-window edge (accepted — the
   host claims every stocked frame) and a far value. *)
let smash_fill_candidates sh =
  let tp = Rings.Certified.trusted_prod sh.fill in
  let tc = Rings.Certified.trusted_cons sh.fill in
  [ Rings.U32.sub tc 1; Rings.U32.succ tp; tp; Rings.U32.add tp 0x4000_0000 ]

let good_len cfg = cfg.frame_size - 4

(* Room in xRX as the honest host sees it: its own true producer index
   against the consumer word the enclave published. *)
let host_has_room cfg sh =
  Rings.U32.distance ~ahead:sh.rx_shadow
    ~behind:(Rings.Layout.read_cons sh.rx_layout)
  < cfg.ring_size

(* The honest host holds a frame iff the producer word the enclave
   published for xFill is ahead of its own consumer index. *)
let host_has_frame sh =
  Rings.Layout.read_prod sh.fill_layout <> sh.fill_shadow

(* A frame currently NOT out on [routine], as a wrong-owner probe
   target; [None] when every frame is out on it. *)
let foreign_frame_for sh routine =
  let not_owned st =
    match routine with
    | Rakis.Umem.Rx -> st <> Stm_model.Umem.Out_rx
    | Rakis.Umem.Tx -> st <> Stm_model.Umem.Out_tx
  in
  let frames = sh.m_umem.Stm_model.Umem.frames in
  let rec find i =
    if i >= Array.length frames then None
    else if not_owned frames.(i) then
      Some (i * sh.m_umem.Stm_model.Umem.frame_size)
    else find (i + 1)
  in
  find 0

(* A frame currently NOT Registered, as a forged-notif target; [None]
   when every frame is lent out zero-copy. *)
let unregistered_frame sh =
  let frames = sh.m_umem.Stm_model.Umem.frames in
  let rec find i =
    if i >= Array.length frames then None
    else if frames.(i) <> Stm_model.Umem.Registered then
      Some (i * sh.m_umem.Stm_model.Umem.frame_size)
    else find (i + 1)
  in
  find 0

let enabled_on cfg m k =
  let sh = m.shards.(k) in
  let obs = Rakis.Health.observe sh.breaker in
  let room = host_has_room cfg sh in
  let steps = ref [] in
  let add c s = if c then steps := s :: !steps in
  add (sh.limbo = None && Rakis.Umem.free_frames sh.umem > 0) Alloc;
  add (sh.limbo <> None) Commit_rx;
  add (sh.limbo <> None) Commit_tx;
  add (sh.limbo <> None) Cancel;
  let frame = host_has_frame sh in
  add (room && frame) Host_deliver;
  add room (Host_deliver_bad Bad_misaligned);
  add
    (room && foreign_frame_for sh Rakis.Umem.Rx <> None)
    (Host_deliver_bad Bad_foreign);
  add (room && frame) (Host_deliver_bad Bad_oversize);
  List.iteri (fun i _ -> add true (Smash i)) (smash_candidates cfg sh);
  List.iteri (fun i _ -> add true (Smash_fill i)) (smash_fill_candidates sh);
  add true Fm_poll;
  add (sh.tx_out <> []) Reap_tx;
  add (foreign_frame_for sh Rakis.Umem.Tx <> None) Reap_tx_bad;
  add (sh.limbo <> None) Register;
  add (sh.zc_out <> []) Notif;
  add (unregistered_frame sh <> None) Notif_bad;
  add
    (obs.Rakis.Health.obs_state = Rakis.Health.Open
    && not obs.Rakis.Health.cooldown_elapsed)
    Tick;
  add true Fault_toggle;
  List.rev_map (fun step -> { shard = k; step }) !steps

let enabled m =
  List.concat (List.init (Array.length m.shards) (enabled_on m.cfg m))

(* {2 Applying a transition}

   [note] collects divergence reports (invariant V6 verdict checks are
   done inline here, where both verdicts are in hand). *)

let desc_of ~offset ~len =
  Int64.logor
    (Int64.logand (Int64.of_int offset) 0xFFFF_FFFFL)
    (Int64.shift_left (Int64.of_int len) 32)

let desc_offset desc = Int64.to_int (Int64.logand desc 0xFFFF_FFFFL)

let deliver sh ~offset ~len =
  let slot = Rings.Layout.slot_off sh.rx_layout sh.rx_shadow in
  Mem.Region.set_u64 sh.rx_layout.Rings.Layout.region slot
    (desc_of ~offset ~len);
  sh.rx_shadow <- Rings.U32.succ sh.rx_shadow;
  Rings.Layout.write_prod sh.rx_layout sh.rx_shadow;
  sh.m_rx <- Stm_model.Ring.host_write_prod sh.m_rx sh.rx_shadow

(* The honest host takes the next xFill frame for delivery: it reads
   the slot at its own consumer index and publishes the advanced index. *)
let host_take sh =
  let desc =
    Mem.Region.get_u64 sh.fill_layout.Rings.Layout.region
      (Rings.Layout.slot_off sh.fill_layout sh.fill_shadow)
  in
  sh.fill_shadow <- Rings.U32.succ sh.fill_shadow;
  Rings.Layout.write_cons sh.fill_layout sh.fill_shadow;
  sh.m_fill <- Stm_model.Ring.host_write_cons sh.m_fill sh.fill_shadow;
  desc_offset desc

(* The FM stocks the limbo frame into xFill with one produce burst.  A
   refused produce (no validated free slot) leaves the frame in limbo. *)
let commit_rx note sh ~mutant =
  let off = Option.get sh.limbo in
  let write ~slot_off =
    Mem.Region.set_u64 sh.fill_layout.Rings.Layout.region slot_off
      (desc_of ~offset:off ~len:0);
    Rakis.Umem.commit sh.umem off Rakis.Umem.Rx;
    sh.m_umem <- Stm_model.Umem.commit sh.m_umem off Rakis.Umem.Rx;
    sh.limbo <- None
  in
  let n =
    Rings.Certified.produce_batch sh.fill ~count:1 ~write:(fun ~slot_off _ ->
        write ~slot_off)
  in
  let mf, mn = Stm_model.Ring.produce_batch sh.m_fill ~count:1 in
  sh.m_fill <- mf;
  if n <> mn then note "V3: xFill produce diverges from model";
  if n = 0 && mutant = Some Fill_overrun then begin
    (* The mutant trusts its own cached view: it writes the slot at the
       trusted producer and publishes past the validated free window. *)
    let tp = Rings.Certified.trusted_prod sh.fill in
    write ~slot_off:(Rings.Layout.slot_off sh.fill_layout tp);
    Rings.Layout.write_prod sh.fill_layout (Rings.U32.succ tp)
  end

let fm_poll note cfg sh ~mutant =
  let now = !(sh.clock) in
  let d = Rakis.Health.allow sh.breaker in
  let mb, md = Stm_model.Breaker.allow sh.m_breaker ~now in
  sh.m_breaker <- mb;
  if d <> md then note "V5: breaker decision diverges from model";
  match d with
  | Rakis.Health.Slow -> ()
  | Rakis.Health.Fast | Rakis.Health.Probe -> (
      let is_probe = d = Rakis.Health.Probe in
      if sh.fault_armed then (
        (* the armed fault makes the fast-path op fail terminally *)
        Rakis.Health.record_failure sh.breaker;
        sh.m_breaker <- Stm_model.Breaker.record_failure sh.m_breaker ~now)
      else
        let read ~slot_off _ =
          let desc =
            Mem.Region.get_u64 sh.rx_layout.Rings.Layout.region slot_off
          in
          let offset = desc_offset desc in
          let len = Int64.to_int (Int64.shift_right_logical desc 32) in
          let accepted =
            match mutant with
            | Some Skip_reclaim -> true
            | _ ->
                Result.is_ok
                  (Rakis.Umem.reclaim sh.umem Rakis.Umem.Rx ~offset ~len ())
          in
          let mu, m_accepted =
            Stm_model.Umem.reclaim sh.m_umem Rakis.Umem.Rx ~offset ~len
          in
          sh.m_umem <- mu;
          if accepted <> m_accepted then
            note "V6: descriptor verdict diverges from model"
        in
        let n = Rings.Certified.consume_batch sh.rx ~max:cfg.ring_size ~read in
        let mr, mn = Stm_model.Ring.consume_batch sh.m_rx ~max:cfg.ring_size in
        sh.m_rx <- mr;
        if n <> mn then note "V3: xRX consume diverges from model";
        if n = 0 then (
          if is_probe then (
            (* nothing to receive: decline the probe, release the slot *)
            (match mutant with
            | Some Probe_slot_leak -> ()
            | _ -> Rakis.Health.cancel_probe sh.breaker);
            sh.m_breaker <- Stm_model.Breaker.cancel_probe sh.m_breaker))
        else (
          Rakis.Health.record_success sh.breaker;
          if is_probe && mutant = Some Probe_off_by_one then
            Rakis.Health.record_success sh.breaker;
          sh.m_breaker <- Stm_model.Breaker.record_success sh.m_breaker))

let apply note m { shard; step } =
  let cfg = m.cfg in
  let sh = m.shards.(shard) in
  match step with
  | Alloc -> (
      match Rakis.Umem.alloc sh.umem with
      | None -> note "umem: alloc failed on an enabled transition"
      | Some off ->
          sh.limbo <- Some off;
          let mu, moff = Stm_model.Umem.alloc sh.m_umem in
          sh.m_umem <- mu;
          if moff <> Some off then
            note "V4: alloc order diverges from model FIFO")
  | Commit_rx -> commit_rx note sh ~mutant:cfg.mutant
  | Commit_tx ->
      let off = Option.get sh.limbo in
      Rakis.Umem.commit sh.umem off Rakis.Umem.Tx;
      sh.m_umem <- Stm_model.Umem.commit sh.m_umem off Rakis.Umem.Tx;
      sh.tx_out <- sh.tx_out @ [ off ];
      sh.limbo <- None
  | Cancel ->
      let off = Option.get sh.limbo in
      Rakis.Umem.cancel sh.umem off;
      sh.m_umem <- Stm_model.Umem.cancel sh.m_umem off;
      sh.limbo <- None
  | Host_deliver -> deliver sh ~offset:(host_take sh) ~len:(good_len cfg)
  | Host_deliver_bad Bad_misaligned ->
      deliver sh ~offset:(cfg.frame_size / 2) ~len:(good_len cfg)
  | Host_deliver_bad Bad_foreign ->
      let off = Option.get (foreign_frame_for sh Rakis.Umem.Rx) in
      deliver sh ~offset:off ~len:(good_len cfg)
  | Host_deliver_bad Bad_oversize ->
      (* a real stocked frame, but with a length past the frame end *)
      deliver sh ~offset:(host_take sh) ~len:(cfg.frame_size + 1)
  | Smash i ->
      let v = List.nth (smash_candidates cfg sh) i in
      Hostos.Malice.smash_prod sh.rx_layout v;
      sh.m_rx <- Stm_model.Ring.host_write_prod sh.m_rx v
  | Smash_fill i ->
      let v = List.nth (smash_fill_candidates sh) i in
      Hostos.Malice.smash_cons sh.fill_layout v;
      sh.m_fill <- Stm_model.Ring.host_write_cons sh.m_fill v
  | Fm_poll -> fm_poll note cfg sh ~mutant:cfg.mutant
  | Reap_tx -> (
      let off = List.hd sh.tx_out in
      sh.tx_out <- List.tl sh.tx_out;
      let accepted =
        Result.is_ok (Rakis.Umem.reclaim sh.umem Rakis.Umem.Tx ~offset:off ())
      in
      let mu, m_accepted =
        Stm_model.Umem.reclaim sh.m_umem Rakis.Umem.Tx ~offset:off ~len:0
      in
      sh.m_umem <- mu;
      if accepted <> m_accepted then
        note "V6: Tx completion verdict diverges from model";
      match (accepted, m_accepted) with
      | false, false -> note "umem: honest Tx completion refused"
      | _ -> ())
  | Reap_tx_bad ->
      let off = Option.get (foreign_frame_for sh Rakis.Umem.Tx) in
      let accepted =
        Result.is_ok (Rakis.Umem.reclaim sh.umem Rakis.Umem.Tx ~offset:off ())
      in
      let mu, m_accepted =
        Stm_model.Umem.reclaim sh.m_umem Rakis.Umem.Tx ~offset:off ~len:0
      in
      sh.m_umem <- mu;
      if accepted then note "V6: wrong-owner Tx completion accepted";
      if accepted <> m_accepted then
        note "V6: Tx completion verdict diverges from model"
  | Register ->
      let off = Option.get sh.limbo in
      Rakis.Umem.register sh.umem off;
      sh.m_umem <- Stm_model.Umem.register sh.m_umem off;
      sh.zc_out <- sh.zc_out @ [ off ];
      sh.limbo <- None;
      (* The mutant frees on the completion CQE instead of waiting for
         the notif — the use-after-reuse-before-notif bug shape.  The
         frame goes free while its notif is still pending, so V4 (the
         model still says Registered) and V8 (registered <> pending
         notifs) flag it on the very next check. *)
      if cfg.mutant = Some Zc_release_early then
        ignore (Rakis.Umem.release sh.umem ~offset:off)
  | Notif -> (
      let off = List.hd sh.zc_out in
      sh.zc_out <- List.tl sh.zc_out;
      let accepted = Result.is_ok (Rakis.Umem.release sh.umem ~offset:off) in
      let mu, m_accepted = Stm_model.Umem.release sh.m_umem ~offset:off in
      sh.m_umem <- mu;
      if accepted <> m_accepted then
        note "V8: notif verdict diverges from model";
      match (accepted, m_accepted) with
      | false, false -> note "V8: honest notif refused"
      | _ -> ())
  | Notif_bad ->
      let off = Option.get (unregistered_frame sh) in
      let accepted = Result.is_ok (Rakis.Umem.release sh.umem ~offset:off) in
      let mu, m_accepted = Stm_model.Umem.release sh.m_umem ~offset:off in
      sh.m_umem <- mu;
      if accepted then note "V8: forged/duplicate notif accepted";
      if accepted <> m_accepted then
        note "V8: notif verdict diverges from model"
  | Tick -> sh.clock := Int64.add !(sh.clock) cfg.cooldown
  | Fault_toggle -> sh.fault_armed <- not sh.fault_armed

(* {1 Invariants (V1-V8)} *)

let check_ring note name ring layout model =
  if not (Rings.Certified.invariant_holds ring) then
    note
      (Printf.sprintf "V2: %s certified ring invariant (eq. 1) violated" name);
  if
    not
      (Stm_model.Ring.agrees model ring
      && Stm_model.Ring.shared_agrees model layout)
  then note (Printf.sprintf "V3: %s ring state diverges from model" name)

let check_shard note sh ~prev_state =
  let now = !(sh.clock) in
  if not (Rakis.Umem.conservation_holds sh.umem) then
    note "V1: UMem conservation violated";
  check_ring note "xRX" sh.rx sh.rx_layout sh.m_rx;
  check_ring note "xFill" sh.fill sh.fill_layout sh.m_fill;
  if not (Stm_model.Umem.agrees sh.m_umem sh.umem) then
    note "V4: UMem partition diverges from model";
  if
    not
      (Stm_model.Breaker.agrees sh.m_breaker ~now
         (Rakis.Health.observe sh.breaker))
  then note "V5: breaker state diverges from model";
  let cur = Rakis.Health.state sh.breaker in
  if not (Stm_model.Breaker.legal_edge prev_state cur) then
    note
      (Printf.sprintf "V5: illegal breaker edge %s -> %s"
         (Rakis.Health.state_name prev_state)
         (Rakis.Health.state_name cur));
  if Rakis.Health.opens sh.breaker <> sh.m_breaker.Stm_model.Breaker.opens then
    note "V5: opens count diverges from model";
  if Rakis.Health.closes sh.breaker <> sh.m_breaker.Stm_model.Breaker.closes
  then note "V5: closes count diverges from model";
  if !(sh.on_open_fires) <> Rakis.Health.opens sh.breaker then
    note "V5: on_open firings do not match opens";
  (* Notif-anchored ownership: every Registered frame has exactly one
     notif pending (the driver's zc_out list), mirroring the io_uring
     FM's accounting_holds. *)
  if Rakis.Umem.registered sh.umem <> List.length sh.zc_out then
    note "V8: registered frames do not match pending notifs"

(* {1 State abstraction (dedup key)} *)

type rel = In_window of int | Behind of int | Far

type desc_class = { dc_frame : int; dc_len_ok : bool }
(* [dc_frame] is the frame index, or [-1] for junk (misaligned or out
   of range). *)

(* One certified ring: the trusted window, the slot under the enclave's
   own index, both shared words and the honest host's private index
   relative to the trusted consumer, and every slot's descriptor. *)
type ring_obs = {
  o_used : int;
  o_lsb : int;  (* trusted consumer mod ring size: slot addressing *)
  o_shared_prod : rel;
  o_shared_cons : rel;
  o_shadow : rel;  (* honest host's index vs trusted consumer *)
  o_slots : desc_class list;
  o_fail : int;  (* capped *)
}

type shard_obs = {
  o_rx : ring_obs;
  o_fill : ring_obs;
  o_frames : Stm_model.Umem.frame list;
  o_queue : int list;  (* free-list order: alloc determinism *)
  o_rejects : int;  (* capped *)
  o_limbo : int option;
  o_txq : int list;
  o_zcq : int list;  (* Registered frames in notif order *)
  o_breaker : Rakis.Health.state;
  o_bf : int;
  o_bs : int;
  o_inflight : bool;
  o_cooled : bool;
  o_fault : bool;
}

let cap n v = min n v

let rel_of cfg ~tcons v =
  let d = Rings.U32.distance ~ahead:v ~behind:tcons in
  if d <= cfg.ring_size + 1 then In_window d
  else
    let b = Rings.U32.distance ~ahead:tcons ~behind:v in
    if b <= cfg.ring_size + 1 then Behind b else Far

let desc_class_at cfg layout idx =
  let desc =
    Mem.Region.get_u64 layout.Rings.Layout.region
      (Rings.Layout.slot_off layout idx)
  in
  let offset = desc_offset desc in
  let len = Int64.to_int (Int64.shift_right_logical desc 32) in
  let umem_size = cfg.frames * cfg.frame_size in
  {
    dc_frame =
      (if offset >= 0 && offset < umem_size && offset mod cfg.frame_size = 0
       then offset / cfg.frame_size
       else -1);
    dc_len_ok = len <= cfg.frame_size;
  }

let observe_ring cfg ring layout ~shadow =
  let tc = Rings.Certified.trusted_cons ring in
  {
    o_used =
      Rings.U32.distance ~ahead:(Rings.Certified.trusted_prod ring) ~behind:tc;
    o_lsb = tc land (cfg.ring_size - 1);
    o_shared_prod = rel_of cfg ~tcons:tc (Rings.Layout.read_prod layout);
    o_shared_cons = rel_of cfg ~tcons:tc (Rings.Layout.read_cons layout);
    o_shadow = rel_of cfg ~tcons:tc shadow;
    o_slots = List.init cfg.ring_size (desc_class_at cfg layout);
    o_fail = cap 2 (Rings.Certified.failures ring);
  }

let observe_shard cfg sh =
  let obs = Rakis.Health.observe sh.breaker in
  {
    o_rx = observe_ring cfg sh.rx sh.rx_layout ~shadow:sh.rx_shadow;
    o_fill = observe_ring cfg sh.fill sh.fill_layout ~shadow:sh.fill_shadow;
    o_frames = Array.to_list sh.m_umem.Stm_model.Umem.frames;
    o_queue = sh.m_umem.Stm_model.Umem.queue;
    o_rejects = cap 2 (Rakis.Umem.rejects sh.umem);
    o_limbo = Option.map (fun off -> off / cfg.frame_size) sh.limbo;
    o_txq = List.map (fun off -> off / cfg.frame_size) sh.tx_out;
    o_zcq = List.map (fun off -> off / cfg.frame_size) sh.zc_out;
    o_breaker = obs.Rakis.Health.obs_state;
    o_bf = obs.Rakis.Health.failure_streak;
    o_bs = obs.Rakis.Health.probe_successes;
    o_inflight = obs.Rakis.Health.probe_inflight;
    o_cooled = obs.Rakis.Health.cooldown_elapsed;
    o_fault = sh.fault_armed;
  }

let observe m =
  List.init (Array.length m.shards) (fun k -> observe_shard m.cfg m.shards.(k))

(* {1 The search} *)

(* [Hashtbl.hash] stops after ten meaningful words, which for a
   multi-shard key covers only part of shard 0: every state differing
   only in a later shard would collide. *)
module Visited = Hashtbl.Make (struct
  type t = shard_obs list

  let equal = ( = )

  let hash = Hashtbl.hash_param 256 1024
end)

type violation = { path : string list; what : string list }

type report = {
  cfg : config;
  depth : int;  (* requested bound *)
  depth_reached : int;
  states : int;
  transitions : int;
  truncated : bool;  (* hit the state budget before the depth bound *)
  violations : violation list;
}

let passed r = r.violations = [] && r.states > 0

let default_config =
  {
    shards = 2;
    ring_size = 2;
    frames = 3;
    frame_size = 64;
    threshold = 2;
    probes_needed = 2;
    cooldown = 100L;
    mutant = None;
  }

let replay cfg rev_path =
  let m = boot cfg in
  let sink _ = () in
  List.iter (fun tr -> apply sink m tr) (List.rev rev_path);
  m

(* Apply one transition with the full V1-V8 check battery; divergence
   notes go through [note]. *)
let checked_apply note m tr =
  let others_before = List.filteri (fun k _ -> k <> tr.shard) (observe m) in
  let prev_state = Rakis.Health.state m.shards.(tr.shard).breaker in
  apply note m tr;
  check_shard note m.shards.(tr.shard) ~prev_state;
  let obs = observe m in
  let others_after = List.filteri (fun k _ -> k <> tr.shard) obs in
  if others_before <> others_after then
    note "V7: transition leaked into another shard";
  obs

(* Single checked random walk — the state-machine-test entry point.
   Each choice indexes into the enabled-transition list; the walk (and
   so a QCheck-generated [choices] list) is deterministic and shrinks
   naturally.  Returns the violations hit and the trail walked. *)
let drive ?(config = default_config) ~choices () =
  let m = boot config in
  let violations = ref [] in
  let trail = ref [] in
  List.iter
    (fun c ->
      let en = enabled m in
      if en <> [] then begin
        let tr = List.nth en (abs c mod List.length en) in
        trail := transition_name tr :: !trail;
        let notes = ref [] in
        let note s = if not (List.mem s !notes) then notes := s :: !notes in
        ignore (checked_apply note m tr);
        if !notes <> [] then
          violations :=
            { path = List.rev !trail; what = List.rev !notes } :: !violations
      end)
    choices;
  (List.rev !violations, List.rev !trail)

(* Counterexample paths kept before the search stops: the shortest ones,
   since the search is breadth-first. *)
let max_violations = 16

let explore ?(config = default_config) ?(depth = 5)
    ?(max_states = 250_000) () =
  let cfg = config in
  let visited = Visited.create 4096 in
  let frontier = Queue.create () in
  let violations = ref [] in
  let transitions = ref 0 in
  let depth_reached = ref 0 in
  let truncated = ref false in
  let m0 = boot cfg in
  Visited.replace visited (observe m0) ();
  Queue.add ([], 0) frontier;
  (try
     while not (Queue.is_empty frontier) do
       let rev_path, len = Queue.pop frontier in
       if len < depth then
         let m = replay cfg rev_path in
         let steps = enabled m in
         List.iter
           (fun tr ->
             let m' = replay cfg rev_path in
             incr transitions;
             let notes = ref [] in
             let note s = if not (List.mem s !notes) then notes := s :: !notes in
             let obs = checked_apply note m' tr in
             if !notes <> [] then (
               violations :=
                 {
                   path = List.rev_map transition_name (tr :: rev_path);
                   what = List.rev !notes;
                 }
                 :: !violations;
               (* later counterexamples would be dropped anyway *)
               if List.length !violations >= max_violations then raise Exit)
             else if not (Visited.mem visited obs) then (
               Visited.replace visited obs ();
               depth_reached := max !depth_reached (len + 1);
               if Visited.length visited >= max_states then (
                 truncated := true;
                 raise Exit);
               Queue.add (tr :: rev_path, len + 1) frontier))
           steps
     done
   with Exit -> ());
  {
    cfg;
    depth;
    depth_reached = !depth_reached;
    states = Visited.length visited;
    transitions = !transitions;
    truncated = !truncated;
    violations = List.rev !violations;
  }

let pp_violation ppf v =
  Format.fprintf ppf "@[<v 2>after %s:@,%a@]"
    (String.concat " ; " v.path)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    v.what

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>product machine: %d shard%s, ring=%d, frames=%d, threshold=%d, \
     probes=%d%s@,\
     states visited:   %d%s@,\
     transitions:      %d@,\
     depth:            %d of %d requested@,\
     violations:       %d@]"
    r.cfg.shards
    (if r.cfg.shards = 1 then "" else "s")
    r.cfg.ring_size r.cfg.frames r.cfg.threshold r.cfg.probes_needed
    (match r.cfg.mutant with
    | None -> ""
    | Some m -> Printf.sprintf ", mutant=%s" (mutant_name m))
    r.states
    (if r.truncated then " (budget hit)" else "")
    r.transitions r.depth_reached r.depth
    (List.length r.violations);
  if r.violations <> [] then
    Format.fprintf ppf "@,%a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_violation)
      r.violations
