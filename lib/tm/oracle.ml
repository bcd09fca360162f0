(* Differential ring oracle: certified vs naive vs a golden model.

   One honest host endpoint (a {!Hostos.Kring}, private cursor + honest
   publishes) moves sequence-numbered values through a shared ring while
   an adversary smashes the peer-owned shared index with strictly
   illegal values.  The same event schedule is replayed against

   - a {!Rings.Certified} endpoint, which must either agree with the
     golden in-enclave model (a FIFO of the honestly produced values)
     or reject the hostile index with a recorded violation — never
     silently diverge;
   - a {!Rings.Naive} endpoint (the libxdp/liburing §5 case-study
     port), whose divergences are counted and whose failing schedules
     feed the {!Shrink} demonstrations.

   Injected values are strictly illegal — producer overshoots with
   [(P - Ct) mod 2^32 > size] and regressions behind the validated
   trusted copy — because in-window forgeries are, by design,
   undetectable at the index layer (Table 2 catches them downstream at
   the descriptor/UMem checks, exercised by the e2e campaign). *)

type shape = Xsk_shape | Iouring_shape

type dir = Enclave_consumer | Enclave_producer

type event =
  | Produce  (* honest production: host (consumer dir) / enclave (producer dir) *)
  | Consume  (* honest consumption by the opposite side *)
  | Probe  (* availability / free-slot probe, with range checks *)
  | Smash_over of int  (* strictly-illegal overshoot of the peer-owned index *)
  | Smash_back of int  (* regression behind the validated trusted copy *)

let pp_event ppf = function
  | Produce -> Format.pp_print_string ppf "produce"
  | Consume -> Format.pp_print_string ppf "consume"
  | Probe -> Format.pp_print_string ppf "probe"
  | Smash_over d -> Format.fprintf ppf "smash-over+%d" d
  | Smash_back d -> Format.fprintf ppf "smash-back-%d" d

let ring_size = 8

let entry_size shape dir =
  match (shape, dir) with
  | Xsk_shape, _ -> 8 (* xFill/xRX descriptors *)
  | Iouring_shape, Enclave_consumer -> 16 (* iCompl CQEs *)
  | Iouring_shape, Enclave_producer -> 64 (* iSub SQEs *)

let make_layout ~shape ~dir =
  let entry_size = entry_size shape dir in
  let region =
    Mem.Region.create ~kind:Untrusted ~name:"oracle-shared"
      ~size:(Rings.Layout.footprint ~entry_size ~size:ring_size + 64)
  in
  let alloc = Mem.Alloc.create region () in
  Rings.Layout.alloc alloc ~entry_size ~size:ring_size

let get_value (l : Rings.Layout.t) ~slot_off =
  Int64.to_int (Mem.Region.get_u64 l.Rings.Layout.region slot_off)

let set_value (l : Rings.Layout.t) ~slot_off v =
  Mem.Region.set_u64 l.Rings.Layout.region slot_off (Int64.of_int v)

(* {1 Certified machines} *)

type cert_machine = {
  dir : dir;
  layout : Rings.Layout.t;
  cert : Rings.Certified.t;
  host : Hostos.Kring.t;  (* the honest opposite endpoint *)
  model : int Queue.t;  (* golden FIFO: produced, not yet consumed *)
  mutable seq : int;
  mutable moved : int;  (* values that completed the trip, verified *)
  mutable silent : int;  (* divergences without a recorded rejection *)
  mutable injected : int;
}

let make_cert ~shape dir =
  let layout = make_layout ~shape ~dir in
  let role, host =
    match dir with
    | Enclave_consumer ->
        (Rings.Certified.Consumer, Hostos.Kring.producer layout)
    | Enclave_producer ->
        (Rings.Certified.Producer, Hostos.Kring.consumer layout)
  in
  {
    dir;
    layout;
    cert = Rings.Certified.create layout ~role ();
    host;
    model = Queue.create ();
    seq = 0;
    moved = 0;
    silent = 0;
    injected = 0;
  }

(* One checked injection.  A smashed shared word is transient: the
   honest peer's next touch rewrites it from its private cursor (the
   {!Hostos.Kring} semantics the live datapath also relies on), so the
   hostile value is examined by exactly one refresh.  That refresh must
   record exactly one rejection and leave both trusted copies unmoved —
   anything else is a silent acceptance.  Without the at-injection
   check, a persistent hostile value can later drift {e into} the
   trusted window as honest traffic advances it, where accepting it is
   correct per Table 2 (in-window forgeries are caught downstream, not
   at the index layer). *)
let cert_inject m ~smash =
  m.injected <- m.injected + 1;
  let failures = Rings.Certified.failures m.cert in
  let tprod = Rings.Certified.trusted_prod m.cert in
  let tcons = Rings.Certified.trusted_cons m.cert in
  smash ();
  (match m.dir with
  | Enclave_consumer -> ignore (Rings.Certified.available m.cert)
  | Enclave_producer -> ignore (Rings.Certified.free_slots m.cert));
  if
    Rings.Certified.failures m.cert <> failures + 1
    || Rings.Certified.trusted_prod m.cert <> tprod
    || Rings.Certified.trusted_cons m.cert <> tcons
  then m.silent <- m.silent + 1;
  match m.dir with
  | Enclave_consumer -> Hostos.Kring.publish_producer m.host
  | Enclave_producer -> Hostos.Kring.publish_consumer m.host

let cert_step m ev =
  (match (m.dir, ev) with
  | Enclave_consumer, Produce ->
      let slot_off = Hostos.Kring.produce_slot m.host in
      if slot_off >= 0 then begin
        set_value m.layout ~slot_off m.seq;
        Hostos.Kring.advance m.host;
        Queue.push m.seq m.model;
        m.seq <- m.seq + 1
      end
  | Enclave_consumer, Consume -> (
      match
        Rings.Certified.consume m.cert ~read:(fun ~slot_off ->
            get_value m.layout ~slot_off)
      with
      | Error `Ring_empty -> ()
      | Ok v -> (
          match Queue.take_opt m.model with
          | Some expected when expected = v -> m.moved <- m.moved + 1
          | Some _ | None -> m.silent <- m.silent + 1))
  | Enclave_consumer, Probe ->
      let a = Rings.Certified.available m.cert in
      if a < 0 || a > ring_size || a > Queue.length m.model then
        m.silent <- m.silent + 1
  | Enclave_consumer, Smash_over d ->
      (* (P - Ct) mod 2^32 = size + 1 + d > size: out of window. *)
      cert_inject m ~smash:(fun () ->
          Hostos.Malice.smash_prod m.layout
            (Rings.U32.add (Rings.Certified.trusted_cons m.cert)
               (ring_size + 1 + d)))
  | Enclave_consumer, Smash_back d ->
      (* Behind the validated producer copy: regression (or, when the
         window is smaller than [d], out of window) — rejected either
         way. *)
      cert_inject m ~smash:(fun () ->
          Hostos.Malice.smash_prod m.layout
            (Rings.U32.sub (Rings.Certified.trusted_prod m.cert) (1 + d)))
  | Enclave_producer, Produce -> (
      match
        Rings.Certified.produce m.cert ~write:(fun ~slot_off ->
            set_value m.layout ~slot_off m.seq)
      with
      | Error `Ring_full -> ()
      | Ok () ->
          Rings.Certified.publish m.cert;
          Queue.push m.seq m.model;
          m.seq <- m.seq + 1)
  | Enclave_producer, Consume ->
      let slot_off = Hostos.Kring.consume_slot m.host in
      if slot_off >= 0 then begin
        let v = get_value m.layout ~slot_off in
        Hostos.Kring.advance m.host;
        (* The host is honest: what it receives must be exactly the
           published sequence.  A certified endpoint fooled into
           over-producing would overwrite an in-flight slot and break
           this. *)
        match Queue.take_opt m.model with
        | Some expected when expected = v -> m.moved <- m.moved + 1
        | Some _ | None -> m.silent <- m.silent + 1
      end
  | Enclave_producer, Probe ->
      let f = Rings.Certified.free_slots m.cert in
      if f < 0 || f > ring_size || f > ring_size - Queue.length m.model then
        m.silent <- m.silent + 1
  | Enclave_producer, Smash_over d ->
      (* Consumer index ahead of the trusted producer: Pt - Cu < 0. *)
      cert_inject m ~smash:(fun () ->
          Hostos.Malice.smash_cons m.layout
            (Rings.U32.add (Rings.Certified.trusted_prod m.cert) (1 + d)))
  | Enclave_producer, Smash_back d ->
      cert_inject m ~smash:(fun () ->
          Hostos.Malice.smash_cons m.layout
            (Rings.U32.sub (Rings.Certified.trusted_cons m.cert) (1 + d))));
  if not (Rings.Certified.invariant_holds m.cert) then
    m.silent <- m.silent + 1

(* {1 Naive machines} *)

type naive_machine = {
  n_dir : dir;
  n_layout : Rings.Layout.t;
  naive : Rings.Naive.t;
  n_host : Hostos.Kring.t;
  n_model : int Queue.t;
  mutable n_seq : int;
  mutable n_moved : int;
  mutable divergences : int;
}

let make_naive ~shape dir =
  let layout = make_layout ~shape ~dir in
  let host =
    match dir with
    | Enclave_consumer -> Hostos.Kring.producer layout
    | Enclave_producer -> Hostos.Kring.consumer layout
  in
  {
    n_dir = dir;
    n_layout = layout;
    naive = Rings.Naive.create layout;
    n_host = host;
    n_model = Queue.create ();
    n_seq = 0;
    n_moved = 0;
    divergences = 0;
  }

(* Same transient-injection discipline as {!cert_inject}, but the
   naive endpoint just ingests the hostile value into its cache — the
   §5 case-study anomaly — and the per-direction view check below
   counts the divergence. *)
let naive_inject m ~smash =
  smash ();
  (match m.n_dir with
  | Enclave_consumer -> ignore (Rings.Naive.available m.naive)
  | Enclave_producer ->
      ignore (Rings.Naive.prod_nb_free m.naive ~wanted:(ring_size + 1)));
  match m.n_dir with
  | Enclave_consumer -> Hostos.Kring.publish_producer m.n_host
  | Enclave_producer -> Hostos.Kring.publish_consumer m.n_host

let naive_step m ev =
  (match (m.n_dir, ev) with
  | Enclave_consumer, Produce ->
      let slot_off = Hostos.Kring.produce_slot m.n_host in
      if slot_off >= 0 then begin
        set_value m.n_layout ~slot_off m.n_seq;
        Hostos.Kring.advance m.n_host;
        Queue.push m.n_seq m.n_model;
        m.n_seq <- m.n_seq + 1
      end
  | Enclave_consumer, Consume -> (
      match
        Rings.Naive.consume m.naive ~read:(fun ~slot_off ->
            get_value m.n_layout ~slot_off)
      with
      | None -> ()
      | Some v -> (
          match Queue.peek_opt m.n_model with
          | Some expected when expected = v ->
              ignore (Queue.pop m.n_model);
              m.n_moved <- m.n_moved + 1
          | Some _ | None ->
              (* Consumed a never-produced or replayed descriptor: the
                 liburing data-exfiltration primitive. *)
              m.divergences <- m.divergences + 1))
  | Enclave_consumer, Probe ->
      let a = Rings.Naive.available m.naive in
      if a < 0 || a > ring_size || a > Queue.length m.n_model then
        m.divergences <- m.divergences + 1
  | Enclave_consumer, Smash_over d ->
      naive_inject m ~smash:(fun () ->
          Hostos.Malice.smash_prod m.n_layout
            (Rings.U32.add (Rings.Naive.cached_cons m.naive) (ring_size + 1 + d)))
  | Enclave_consumer, Smash_back d ->
      naive_inject m ~smash:(fun () ->
          Hostos.Malice.smash_prod m.n_layout
            (Rings.U32.sub (Rings.Naive.cached_prod m.naive) (1 + d)))
  | Enclave_producer, Produce ->
      let produced =
        Rings.Naive.produce_batch m.naive ~count:1 ~write:(fun ~slot_off _ ->
            set_value m.n_layout ~slot_off m.n_seq)
      in
      if produced > 0 then begin
        Queue.push m.n_seq m.n_model;
        m.n_seq <- m.n_seq + 1
      end
  | Enclave_producer, Consume ->
      let slot_off = Hostos.Kring.consume_slot m.n_host in
      if slot_off >= 0 then begin
        let v = get_value m.n_layout ~slot_off in
        Hostos.Kring.advance m.n_host;
        match Queue.take_opt m.n_model with
        | Some expected when expected = v -> m.n_moved <- m.n_moved + 1
        | Some _ | None ->
            (* An in-flight slot was overwritten: the libxdp
               buffer-overflow anomaly surfacing at the honest peer. *)
            m.divergences <- m.divergences + 1
      end
  | Enclave_producer, Probe ->
      let f = Rings.Naive.prod_nb_free m.naive ~wanted:ring_size in
      if f < 0 || f > ring_size then m.divergences <- m.divergences + 1
  | Enclave_producer, Smash_over d ->
      naive_inject m ~smash:(fun () ->
          Hostos.Malice.smash_cons m.n_layout
            (Rings.U32.add (Rings.Naive.cached_prod m.naive) (1 + d)))
  | Enclave_producer, Smash_back d ->
      naive_inject m ~smash:(fun () ->
          Hostos.Malice.smash_cons m.n_layout
            (Rings.U32.sub (Rings.Naive.cached_cons m.naive) (1 + d))));
  (* Only this machine's own cached view is meaningful: a consumer-only
     machine never maintains the producer-side cache and vice versa. *)
  match m.n_dir with
  | Enclave_consumer ->
      if
        Rings.U32.distance
          ~ahead:(Rings.Naive.cached_prod m.naive)
          ~behind:(Rings.Naive.cached_cons m.naive)
        > ring_size
      then m.divergences <- m.divergences + 1
  | Enclave_producer ->
      if Rings.Naive.prod_nb_free m.naive ~wanted:0 > ring_size then
        m.divergences <- m.divergences + 1

(* {1 Schedules} *)

let gen_events ~rng ~steps =
  List.init steps (fun _ ->
      match Sim.Rng.int rng 20 with
      | 0 -> Smash_over (Sim.Rng.int rng 7)
      | 1 -> Smash_back (Sim.Rng.int rng 4)
      | n when n < 9 -> Produce
      | n when n < 17 -> Consume
      | _ -> Probe)

let gen_soup ~seed ~steps =
  let rng = Sim.Rng.create ~seed in
  gen_events ~rng ~steps

let naive_consumer_fails ?(shape = Xsk_shape) events =
  let m = make_naive ~shape Enclave_consumer in
  List.iter (naive_step m) events;
  m.divergences > 0

(* {1 The differential run} *)

type report = {
  shape : shape;
  seed : int64;
  steps : int;  (* events replayed per direction *)
  injected : int;  (* hostile index writes *)
  cert_rejections : int;  (* recorded certified window/regression rejects *)
  naive_divergences : int;
  silent_divergences : int;  (* certified divergence without rejection: must be 0 *)
  moved : int;  (* values verified through the certified rings *)
}

let shape_name = function
  | Xsk_shape -> "xsk"
  | Iouring_shape -> "io_uring"

let run ?(shape = Xsk_shape) ?(seed = 7L) ?(steps = 10_000) () =
  let per_dir = (steps + 1) / 2 in
  let rng = Sim.Rng.create ~seed in
  let dirs = [ Enclave_consumer; Enclave_producer ] in
  let machines =
    List.map
      (fun dir ->
        let events = gen_events ~rng ~steps:per_dir in
        let cm = make_cert ~shape dir in
        let nm = make_naive ~shape dir in
        List.iter
          (fun ev ->
            cert_step cm ev;
            naive_step nm ev)
          events;
        (cm, nm))
      dirs
  in
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 machines in
  {
    shape;
    seed;
    steps = 2 * per_dir;
    injected = sum (fun (cm, _) -> cm.injected);
    cert_rejections = sum (fun (cm, _) -> Rings.Certified.failures cm.cert);
    naive_divergences = sum (fun (_, nm) -> nm.divergences);
    silent_divergences = sum (fun (cm, _) -> cm.silent);
    moved = sum (fun (cm, _) -> cm.moved);
  }

let passed r = r.silent_divergences = 0

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>oracle shape=%s seed=%Ld steps=%d@,\
     injected hostile indices : %d@,\
     certified rejections     : %d@,\
     certified silent diverg. : %d%s@,\
     naive divergences        : %d@,\
     values verified (golden) : %d@]"
    (shape_name r.shape) r.seed r.steps r.injected r.cert_rejections
    r.silent_divergences
    (if r.silent_divergences = 0 then "  (OK)" else "  (FAIL)")
    r.naive_divergences r.moved
