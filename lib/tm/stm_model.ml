(* Pure reference models of the FM state machines (DESIGN.md §11).

   Each submodule is a tiny immutable-state mirror of one production
   module's contract: the circuit breaker ({!Rakis.Health}), the
   certified ring index discipline ({!Rings.Certified}) and the UMem
   ownership partition ({!Rakis.Umem}).  They exist to be *compared
   against* the real mutable implementations — by the QCheck
   state-machine tests (test/test_stm.ml) after every generated
   command, and by {!Explore}'s exhaustive product-machine search after
   every transition.  A divergence between model and implementation is
   a verification failure regardless of which side is wrong: either the
   code drifted from the contract or the contract (this file) no longer
   says what we believe the paper requires. *)

(* {1 Circuit breaker (Rakis.Health)} *)

module Breaker = struct
  type t = {
    threshold : int;
    probes_needed : int;
    cooldown : int64;
    state : Rakis.Health.state;
    failures : int;
    successes : int;
    probe_inflight : bool;
    opened_at : int64;
    opens : int;
    closes : int;
  }

  let create ~threshold ~probes_needed ~cooldown =
    {
      threshold = max 1 threshold;
      probes_needed = max 1 probes_needed;
      cooldown;
      state = Rakis.Health.Closed;
      failures = 0;
      successes = 0;
      probe_inflight = false;
      opened_at = 0L;
      opens = 0;
      closes = 0;
    }

  let open_ t ~now =
    {
      t with
      state = Rakis.Health.Open;
      opened_at = now;
      probe_inflight = false;
      successes = 0;
      opens = t.opens + 1;
    }

  let cooled t ~now =
    t.state = Rakis.Health.Open && Int64.sub now t.opened_at >= t.cooldown

  let allow t ~now =
    match t.state with
    | Rakis.Health.Closed -> (t, Rakis.Health.Fast)
    | Rakis.Health.Open when cooled t ~now ->
        ( { t with state = Rakis.Health.Half_open; successes = 0;
            probe_inflight = true },
          Rakis.Health.Probe )
    | Rakis.Health.Open -> (t, Rakis.Health.Slow)
    | Rakis.Health.Half_open when not t.probe_inflight ->
        ({ t with probe_inflight = true }, Rakis.Health.Probe)
    | Rakis.Health.Half_open -> (t, Rakis.Health.Slow)

  let record_failure t ~now =
    match t.state with
    | Rakis.Health.Closed ->
        (* the streak is kept across the trip; only closing clears it *)
        let failures = t.failures + 1 in
        if failures >= t.threshold then open_ { t with failures } ~now
        else { t with failures }
    | Rakis.Health.Half_open -> open_ t ~now
    | Rakis.Health.Open -> t

  let record_success t =
    match t.state with
    | Rakis.Health.Closed -> { t with failures = 0 }
    | Rakis.Health.Half_open ->
        let successes = t.successes + 1 in
        if successes >= t.probes_needed then
          {
            t with
            state = Rakis.Health.Closed;
            failures = 0;
            successes = 0;
            probe_inflight = false;
            closes = t.closes + 1;
          }
        else { t with successes; probe_inflight = false }
    | Rakis.Health.Open -> t

  let cancel_probe t = { t with probe_inflight = false }

  (* Legal edges of the breaker diagram.  [Closed -> Half_open] and
     [Open -> Closed] never happen: catching one is how the explorer
     flags a mutated or refactored implementation. *)
  let legal_edge a b =
    let open Rakis.Health in
    a = b
    ||
    match (a, b) with
    | Closed, Open | Half_open, Open | Open, Half_open | Half_open, Closed ->
        true
    | _ -> false

  let agrees t ~now (o : Rakis.Health.observation) =
    o.Rakis.Health.obs_state = t.state
    && o.Rakis.Health.failure_streak = t.failures
    && o.Rakis.Health.probe_successes = t.successes
    && o.Rakis.Health.probe_inflight = t.probe_inflight
    && o.Rakis.Health.cooldown_elapsed = cooled t ~now

end

(* {1 Certified ring index discipline (Rings.Certified)} *)

module Ring = struct
  type t = {
    size : int;
    tprod : int;  (* trusted producer copy *)
    tcons : int;  (* trusted consumer copy *)
    shared_prod : int;  (* last value written to the shared word *)
    shared_cons : int;
    failures : int;  (* rejected peer-index reads *)
  }

  let create ~size =
    { size; tprod = 0; tcons = 0; shared_prod = 0; shared_cons = 0; failures = 0 }

  (* The host (honest or hostile) stores to the shared producer word. *)
  let host_write_prod t v = { t with shared_prod = Rings.U32.of_int v }

  let host_write_cons t v = { t with shared_cons = Rings.U32.of_int v }

  (* Mirror of Certified.refresh_prod: accept Pu iff
     [0 <= Pu - Ct <= St] and the produced count does not regress. *)
  let refresh_prod t =
    let observed = t.shared_prod in
    let filled = Rings.U32.distance ~ahead:observed ~behind:t.tcons in
    if filled > t.size then { t with failures = t.failures + 1 }
    else if filled < Rings.U32.distance ~ahead:t.tprod ~behind:t.tcons then
      { t with failures = t.failures + 1 }
    else { t with tprod = observed }

  (* Mirror of Certified.refresh_cons (producer role). *)
  let refresh_cons t =
    let observed = t.shared_cons in
    let in_flight = Rings.U32.distance ~ahead:t.tprod ~behind:observed in
    if in_flight > t.size then { t with failures = t.failures + 1 }
    else if
      Rings.U32.distance ~ahead:observed ~behind:t.tcons
      > Rings.U32.distance ~ahead:t.tprod ~behind:t.tcons
    then { t with failures = t.failures + 1 }
    else { t with tcons = observed }

  let filled t = Rings.U32.distance ~ahead:t.tprod ~behind:t.tcons

  let available t =
    let t = refresh_prod t in
    (t, filled t)

  (* Consumer-role consume: refresh, then release one slot if any. *)
  let consume t =
    let t, avail = available t in
    if avail <= 0 then (t, None)
    else
      let slot = t.tcons in
      let tcons = Rings.U32.succ t.tcons in
      ({ t with tcons; shared_cons = tcons }, Some slot)

  let skip t =
    let t, avail = available t in
    if avail <= 0 then t
    else
      let tcons = Rings.U32.succ t.tcons in
      { t with tcons; shared_cons = tcons }

  (* Producer-role free_slots. *)
  let free_slots t =
    let t = refresh_cons t in
    (t, t.size - filled t)

  (* Batch mirrors: one refresh per burst, then up to [max]/[count]
     slots moved against that snapshot and the owned word stored once.
     Return the slots moved. *)
  let consume_batch t ~max =
    let t, avail = available t in
    let n = min max avail in
    if n <= 0 then (t, 0)
    else
      let tcons = Rings.U32.add t.tcons n in
      ({ t with tcons; shared_cons = tcons }, n)

  let produce_batch t ~count =
    let t, free = free_slots t in
    let n = min count free in
    if n <= 0 then (t, 0)
    else
      let tprod = Rings.U32.add t.tprod n in
      ({ t with tprod; shared_prod = tprod }, n)

  let invariant_holds t =
    let d = filled t in
    d >= 0 && d <= t.size

  let agrees t (ring : Rings.Certified.t) =
    Rings.Certified.trusted_prod ring = t.tprod
    && Rings.Certified.trusted_cons ring = t.tcons
    && Rings.Certified.failures ring = t.failures

  let shared_agrees t layout =
    Rings.Layout.read_prod layout = t.shared_prod
    && Rings.Layout.read_cons layout = t.shared_cons

end

(* {1 UMem ownership partition (Rakis.Umem)} *)

module Umem = struct
  type frame = Free | Limbo | Out_rx | Out_tx | Registered

  type t = {
    frame_size : int;
    frames : frame array;  (* by frame index *)
    queue : int list;  (* the FIFO free list, head = next alloc *)
    rejects : int;
  }

  let create ~frames ~frame_size =
    {
      frame_size;
      frames = Array.make frames Free;
      queue = List.init frames (fun i -> i);
      rejects = 0;
    }

  let size t = Array.length t.frames * t.frame_size

  let count t s =
    Array.fold_left (fun acc f -> if f = s then acc + 1 else acc) 0 t.frames

  let free t = count t Free

  let limbo t = count t Limbo

  let out t routine =
    count t (match routine with Rakis.Umem.Rx -> Out_rx | Rakis.Umem.Tx -> Out_tx)

  let set t idx s =
    let frames = Array.copy t.frames in
    frames.(idx) <- s;
    { t with frames }

  let alloc t =
    match t.queue with
    | [] -> (t, None)
    | idx :: queue ->
        ({ (set t idx Limbo) with queue }, Some (idx * t.frame_size))

  let commit t offset routine =
    let idx = offset / t.frame_size in
    assert (t.frames.(idx) = Limbo);
    set t idx
      (match routine with Rakis.Umem.Rx -> Out_rx | Rakis.Umem.Tx -> Out_tx)

  let cancel t offset =
    let idx = offset / t.frame_size in
    assert (t.frames.(idx) = Limbo);
    { (set t idx Free) with queue = t.queue @ [ idx ] }

  let register t offset =
    let idx = offset / t.frame_size in
    assert (t.frames.(idx) = Limbo);
    set t idx Registered

  let registered t = count t Registered

  (* Mirror of Umem.release: the only exit from Registered, validated
     like reclaim because the prompting notif is host-controlled. *)
  let release t ~offset =
    if offset < 0 || offset >= size t then
      ({ t with rejects = t.rejects + 1 }, false)
    else if offset mod t.frame_size <> 0 then
      ({ t with rejects = t.rejects + 1 }, false)
    else
      let idx = offset / t.frame_size in
      if t.frames.(idx) = Registered then
        ({ (set t idx Free) with queue = t.queue @ [ idx ] }, true)
      else ({ t with rejects = t.rejects + 1 }, false)

  (* Mirror of Umem.reclaim's validation order and effect. *)
  let reclaim t routine ~offset ~len =
    if offset < 0 || offset + max len 1 > size t then
      ({ t with rejects = t.rejects + 1 }, false)
    else if offset mod t.frame_size <> 0 then
      ({ t with rejects = t.rejects + 1 }, false)
    else if len > t.frame_size then ({ t with rejects = t.rejects + 1 }, false)
    else
      let idx = offset / t.frame_size in
      let expected =
        match routine with Rakis.Umem.Rx -> Out_rx | Rakis.Umem.Tx -> Out_tx
      in
      if t.frames.(idx) = expected then
        ({ (set t idx Free) with queue = t.queue @ [ idx ] }, true)
      else ({ t with rejects = t.rejects + 1 }, false)

  let conservation_holds t =
    free t + out t Rakis.Umem.Rx + out t Rakis.Umem.Tx + limbo t
    + registered t
    = Array.length t.frames

  let agrees t (umem : Rakis.Umem.t) =
    Rakis.Umem.free_frames umem = free t
    && Rakis.Umem.outstanding umem Rakis.Umem.Rx = out t Rakis.Umem.Rx
    && Rakis.Umem.outstanding umem Rakis.Umem.Tx = out t Rakis.Umem.Tx
    && Rakis.Umem.limbo umem = limbo t
    && Rakis.Umem.registered umem = registered t
    && Rakis.Umem.rejects umem = t.rejects

end
