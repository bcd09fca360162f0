type role = Producer | Consumer

type failure =
  | Out_of_window of { observed : int; trusted_prod : int; trusted_cons : int }
  | Regressed of { observed : int; previous : int }

type t = {
  layout : Layout.t;
  role : role;
  size : int; (* trusted copy, fixed at creation *)
  mutable tprod : int; (* trusted producer *)
  mutable tcons : int; (* trusted consumer *)
  failures : Obs.Metrics.counter;
  bursts : Obs.Metrics.counter; (* non-empty batch operations *)
  burst_slots : Obs.Metrics.counter; (* slots moved by those batches *)
  trace : Obs.Trace.t option;
  produce_label : string; (* precomputed: batch trace events are hot-path *)
  consume_label : string;
  on_failure : failure -> unit;
}

let create layout ~role ?(on_failure = fun _ -> ()) ?(init = 0) ?obs
    ?(name = "ring") () =
  let init = U32.of_int init in
  (* Without a supplied sink the instruments live in a private registry:
     the accessors below still work and nothing is shared. *)
  let m =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  {
    layout;
    role;
    size = layout.Layout.size;
    tprod = init;
    tcons = init;
    failures = Obs.Metrics.counter m (name ^ ".failures");
    bursts = Obs.Metrics.counter m (name ^ ".bursts");
    burst_slots = Obs.Metrics.counter m (name ^ ".burst_slots");
    trace = Option.map Obs.trace obs;
    produce_label = name ^ ".produce";
    consume_label = name ^ ".consume";
    on_failure;
  }

let role t = t.role

let size t = t.size

let reject t failure =
  Obs.Metrics.incr t.failures;
  t.on_failure failure

(* Enclave is producer: refresh the trusted consumer from the untrusted
   consumer index.  Accept Cu iff 0 <= Pt - Cu <= St and the consumed
   count does not regress. *)
let refresh_cons t =
  let observed = U32.of_int (Layout.read_cons t.layout) in
  let in_flight = U32.distance ~ahead:t.tprod ~behind:observed in
  if in_flight > t.size then
    reject t
      (Out_of_window { observed; trusted_prod = t.tprod; trusted_cons = t.tcons })
  else if
    U32.distance ~ahead:observed ~behind:t.tcons
    > U32.distance ~ahead:t.tprod ~behind:t.tcons
  then reject t (Regressed { observed; previous = t.tcons })
  else t.tcons <- observed

(* Enclave is consumer: refresh the trusted producer from the untrusted
   producer index.  Accept Pu iff 0 <= Pu - Ct <= St and the produced
   count does not regress. *)
let refresh_prod t =
  let observed = U32.of_int (Layout.read_prod t.layout) in
  let filled = U32.distance ~ahead:observed ~behind:t.tcons in
  if filled > t.size then
    reject t
      (Out_of_window { observed; trusted_prod = t.tprod; trusted_cons = t.tcons })
  else if filled < U32.distance ~ahead:t.tprod ~behind:t.tcons then
    reject t (Regressed { observed; previous = t.tprod })
  else t.tprod <- observed

let require r t op =
  if t.role <> r then
    invalid_arg
      (Printf.sprintf "Certified.%s: ring role does not permit this" op)

let free_slots t =
  require Producer t "free_slots";
  refresh_cons t;
  t.size - U32.distance ~ahead:t.tprod ~behind:t.tcons

let produce t ~write =
  require Producer t "produce";
  if free_slots t <= 0 then Error `Ring_full
  else begin
    write ~slot_off:(Layout.slot_off t.layout t.tprod);
    t.tprod <- U32.succ t.tprod;
    Ok ()
  end

let publish t =
  require Producer t "publish";
  Layout.write_prod t.layout t.tprod

let available t =
  require Consumer t "available";
  refresh_prod t;
  U32.distance ~ahead:t.tprod ~behind:t.tcons

let release t =
  t.tcons <- U32.succ t.tcons;
  Layout.write_cons t.layout t.tcons

let consume t ~read =
  require Consumer t "consume";
  if available t <= 0 then Error `Ring_empty
  else begin
    let v = read ~slot_off:(Layout.slot_off t.layout t.tcons) in
    release t;
    Ok v
  end

let skip t =
  require Consumer t "skip";
  if available t > 0 then release t

let count_burst t ~label n =
  if n > 0 then begin
    Obs.Metrics.incr t.bursts;
    Obs.Metrics.add t.burst_slots n;
    match t.trace with
    | None -> ()
    | Some tr -> Obs.Trace.instant tr ~cat:"ring" ~arg:n label
  end

(* Batch accessors: one peer-index refresh (with the same Table 2
   checks) covers the whole burst, and the trusted index is stored to
   shared memory once at the end.  Between refresh and publish only the
   trusted snapshot is consulted, so a hostile index move mid-burst is
   invisible until the next refresh — where the same checks catch it. *)

let produce_batch t ~count ~write =
  require Producer t "produce_batch";
  refresh_cons t;
  let free = t.size - U32.distance ~ahead:t.tprod ~behind:t.tcons in
  let n = min count free in
  if n <= 0 then 0
  else begin
    for i = 0 to n - 1 do
      write ~slot_off:(Layout.slot_off t.layout (U32.add t.tprod i)) i
    done;
    t.tprod <- U32.add t.tprod n;
    Layout.write_prod t.layout t.tprod;
    count_burst t ~label:t.produce_label n;
    n
  end

let consume_batch t ~max ~read =
  require Consumer t "consume_batch";
  refresh_prod t;
  let n = min max (U32.distance ~ahead:t.tprod ~behind:t.tcons) in
  if n <= 0 then 0
  else begin
    for i = 0 to n - 1 do
      read ~slot_off:(Layout.slot_off t.layout (U32.add t.tcons i)) i
    done;
    t.tcons <- U32.add t.tcons n;
    Layout.write_cons t.layout t.tcons;
    count_burst t ~label:t.consume_label n;
    n
  end

let bursts t = Obs.Metrics.value t.bursts

let burst_slots t = Obs.Metrics.value t.burst_slots

let trusted_prod t = t.tprod

let trusted_cons t = t.tcons

let failures t = Obs.Metrics.value t.failures

let invariant_holds t =
  let d = U32.distance ~ahead:t.tprod ~behind:t.tcons in
  d >= 0 && d <= t.size

(* Quarantine-and-reinit: after the kernel has republished its own
   indices (see {!Hostos.Kring}), adopt the shared words as the new
   trusted baseline — provided they once again describe a legal
   window.  This deliberately also adopts the enclave-owned index, whose
   shared word the enclave itself last wrote, so both cursors restart
   from a mutually consistent snapshot. *)
let resync t =
  let prod = U32.of_int (Layout.read_prod t.layout) in
  let cons = U32.of_int (Layout.read_cons t.layout) in
  let d = U32.distance ~ahead:prod ~behind:cons in
  if d >= 0 && d <= t.size then begin
    t.tprod <- prod;
    t.tcons <- cons;
    Ok ()
  end
  else Error (`Bad_window (prod, cons))

(* Last-resort recovery for a ring [resync] cannot heal: adopt the
   peer-owned index for BOTH cursors, declaring the ring empty at the
   peer's position, and republish the owned word to match.  A smashed
   owned-index word that transiently described a legal window lets the
   peer's private cursor run past the honest one; once it has, every
   later window is negative and [resync] fails [`Bad_window] forever —
   the shard is dead.  The peer word was just honestly republished by
   the kernel (reinit's OCALL), so it names where the kernel really
   stands; restarting empty from there loses only availability.  Callers
   must first reclaim every frame the ring's slots referenced — after a
   rebase none of them will ever come back through the ring. *)
let rebase t =
  let peer =
    U32.of_int
      (match t.role with
      | Producer -> Layout.read_cons t.layout
      | Consumer -> Layout.read_prod t.layout)
  in
  t.tprod <- peer;
  t.tcons <- peer;
  match t.role with
  | Producer -> Layout.write_prod t.layout t.tprod
  | Consumer -> Layout.write_cons t.layout t.tcons

(* Rewrite the shared copy of the enclave-owned index from the trusted
   copy, without moving it.  Malice can smash any shared word — including
   the ones the enclave itself owns — and peer-index certification never
   inspects those: the kernel just clamps the garbage distance to zero
   and stops seeing the enclave's slots.  Normal operation repairs the
   word on the next produce/consume, but an idle ring may never get one
   (the kernel drops arrivals *because* the word is smashed), so the
   owner must be able to republish explicitly.  Idempotent. *)
let republish t =
  match t.role with
  | Producer -> Layout.write_prod t.layout t.tprod
  | Consumer -> Layout.write_cons t.layout t.tcons

let region t = t.layout.Layout.region
