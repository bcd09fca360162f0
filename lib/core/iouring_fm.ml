type init_error =
  | Bad_fd of int
  | Pointer_in_trusted of string
  | Overlapping of string
  | Bad_layout of string

type op = Read | Write | Send | Recv

(* An operation in flight: CQEs are validated against this record
   (Table 2: "return code is expected for the requested operation").
   [outcome] is meaningful once [settled]. *)
type pending = {
  user_data : int;
  expected_max : int;
  mutable settled : bool;
  mutable outcome : (int, Abi.Errno.t) result;
}

(* What {!submit} returns when iSub took nothing. *)
let not_submitted =
  { user_data = 0; expected_max = 0; settled = true; outcome = Error EAGAIN }

(* One SQE staged for {!submit_burst}, written into its iSub slot under
   the identity assigned there.  The FM keeps a growable array of them,
   restaged per burst, so staging allocates nothing.  [issued] is the
   in-flight record made for it. *)
type req = {
  mutable opcode : Abi.Uring_abi.opcode;
  mutable fd : int;
  mutable file_off : int;
  mutable addr : int;
  mutable len : int;
  mutable poll_events : int;
  mutable buf_index : int;
  mutable fixed : bool;
  mutable expected_max : int;
  mutable issued : pending;
}

let new_req () =
  {
    opcode = Nop;
    fd = -1;
    file_off = 0;
    addr = 0;
    len = 0;
    poll_events = 0;
    buf_index = 0;
    fixed = false;
    expected_max = 0;
    issued = not_submitted;
  }

(* A zero-copy send awaiting its second CQE.  The frame is Registered in
   the pool and only the notif naming this [user_data] may free it —
   [completed] records that the first (completion) CQE was validated, so
   an earlier notif is provably forged (docs/zerocopy.md). *)
type notif_rec = { zoff : int; mutable completed : bool }

(* A multishot receive stream: one SQE, many CQEs.  Data CQEs are staged
   into [outcomes] at reap time (the frame goes straight back into the
   provided-buffer ring); the terminating CQE — no [F_MORE] — parks its
   raw result in [terminal] and retires the in-flight record. *)
type ms = {
  ms_p : pending;
  outcomes : Bytes.t Queue.t;
  mutable terminal : int option;
  mutable leftover : (Bytes.t * int) option; (* staged data, consumed prefix *)
}

(* Zero-copy machinery (config.zerocopy): a pool of frames in untrusted
   memory, registered with the kernel once at setup.  Sends lend frames
   ([Umem.Registered] until notif), multishot receives promise them
   through the provided-buffer ring ([With_kernel Rx], exactly like an
   XSK fill-ring promise), and fixed-buffer file IO stages through them
   with no kernel-side bounce copy. *)
type zc = {
  pool : Umem.t;
  arena : Mem.Ptr.t;
  zframe : int; (* bytes per pool frame *)
  notif_pending : notif_rec Sim.Int_table.t;
  ms_by_fd : ms Sim.Int_table.t;
  ms_by_ud : ms Sim.Int_table.t;
  provide : int -> unit; (* push a buffer id into the shared buf_ring *)
  zc_sends : Obs.Metrics.counter;
  zc_fallbacks : Obs.Metrics.counter;
  zc_notifs : Obs.Metrics.counter;
  zc_notif_early : Obs.Metrics.counter; (* notifs before their completion *)
  zc_notif_stray : Obs.Metrics.counter; (* duplicated / fabricated notifs *)
}

type t = {
  enclave : Sgx.Enclave.t;
  engine : Sim.Engine.t;
  sq : Rings.Certified.t;
  cq : Rings.Certified.t;
  bounce : Mem.Ptr.t;
  bounce_size : int;
  cq_notify : Sim.Condition.t;
  renudge : unit -> unit; (* the renudge timer's callback, built once *)
  kick : unit -> unit; (* SQPOLL or Monitor wakeup after each publish *)
  (* The ring callbacks, built once so that no burst allocates a
     closure.  [sqe_write] writes [reqs.(i)]; [cqe_read] settles one CQE
     and counts it into [reaped] or [strays], which {!reap_burst} resets
     and reports. *)
  sqe_write : slot_off:int -> int -> unit;
  cqe_read : slot_off:int -> int -> unit;
  mutable reqs : req array;
  mutable reaped : int;
  mutable strays : int;
  mutable next_user_data : int;
  (* By native [user_data]: a find neither boxes an [int64] nor calls the
     polymorphic hash or compare, and a miss raises instead of
     allocating an option. *)
  pending : pending Sim.Int_table.t;
  probes : pending Sim.Int_table.t; (* outstanding Poll_add per fd *)
  (* In-flight accounting: [live] is maintained op-by-op (incremented on
     submit, decremented on settle/abandon/forget) as an independent
     shadow of the length of [pending]; [accounting_holds] cross-checks
     the two so a path that drops a record without retiring it — the
     historical ETIMEDOUT leak — trips the runtime invariant. *)
  mutable live : int;
  mutable probe_mode : bool;
  mutable sq_full_streak : int;
  breaker : Health.t;
  max_pending : int;
  sheds : Obs.Metrics.counter;
  cqe_rejects : Obs.Metrics.counter;
  sqes_submitted : Obs.Metrics.counter;
  cqes_reaped : Obs.Metrics.counter;
  cqe_strays : Obs.Metrics.counter;
  sync_wait_cycles : Obs.Metrics.histogram; (* submit->complete, cycles *)
  backoff : Sim.Backoff.t;
  retries : Obs.Metrics.counter;
  retry_success : Obs.Metrics.counter;
  retry_exhausted : Obs.Metrics.counter;
  trace : Obs.Trace.t option;
  zc : zc option;
}

let pp_init_error ppf = function
  | Bad_fd fd -> Format.fprintf ppf "negative io_uring fd %d" fd
  | Pointer_in_trusted what ->
      Format.fprintf ppf "%s points into trusted memory" what
  | Overlapping what -> Format.fprintf ppf "overlapping objects: %s" what
  | Bad_layout what -> Format.fprintf ppf "invalid layout: %s" what

let certify_layout name ~entry_size ~size (host : Rings.Layout.t) =
  if Mem.Region.is_trusted host.region then Error (Pointer_in_trusted name)
  else
    match
      Rings.Layout.make host.region ~prod_off:host.prod_off
        ~cons_off:host.cons_off ~desc_off:host.desc_off ~entry_size ~size
    with
    | layout -> Ok layout
    | exception Invalid_argument msg -> Error (Bad_layout (name ^ ": " ^ msg))

let layout_objects name (l : Rings.Layout.t) =
  [
    (Mem.Ptr.v l.region l.prod_off, 4);
    (Mem.Ptr.v l.region l.cons_off, 4);
    (Mem.Ptr.v l.region l.desc_off, l.entry_size * l.size);
  ]
  |> List.map (fun (p, len) -> (name, p, len))

let set_probe_mode t on = t.probe_mode <- on

let cqe_rejects t = Obs.Metrics.value t.cqe_rejects

let retries_exhausted t = Obs.Metrics.value t.retry_exhausted

let invariant_holds t =
  Rings.Certified.invariant_holds t.sq && Rings.Certified.invariant_holds t.cq

let inflight t = Sim.Int_table.length t.pending

let sheds t = Obs.Metrics.value t.sheds

(* Completed-but-unnotified sends: at quiescence each is a frame the
   host is sitting on by withholding its notif — the dropped-notif
   availability leak the TM campaign fails on. *)
let zc_leaks t =
  match t.zc with
  | None -> 0
  | Some z ->
      Sim.Int_table.fold
        (fun _ (nr : notif_rec) n -> if nr.completed then n + 1 else n)
        z.notif_pending 0

let zc_registered t =
  match t.zc with None -> 0 | Some z -> Umem.registered z.pool

let accounting_holds t =
  t.live >= 0
  && t.live = Sim.Int_table.length t.pending
  && Sim.Int_table.fold
       (fun _ (p : pending) ok ->
         ok && (p.settled || Sim.Int_table.mem t.pending p.user_data))
       t.probes true
  && (match t.zc with
     | None -> true
     | Some z ->
         (* Every Registered frame has exactly one notif-pending entry
            and vice versa — the notif-anchored ownership contract of
            docs/zerocopy.md, checked as a runtime invariant. *)
         Umem.registered z.pool = Sim.Int_table.length z.notif_pending
         && Umem.conservation_holds z.pool)

(* The single point where an in-flight record is reclaimed; membership
   guard keeps settle-then-abandon races idempotent. *)
let retire t user_data =
  if Sim.Int_table.mem t.pending user_data then begin
    Sim.Int_table.remove t.pending user_data;
    t.live <- t.live - 1
  end

(* Validate one CQE's result against its pending record. *)
let settle t (p : pending) res =
  p.outcome <-
    (if res > p.expected_max then begin
       Obs.Metrics.incr t.cqe_rejects;
       Error Abi.Errno.EPERM
     end
     else if res < 0 then
       match Abi.Errno.of_int (-res) with
       | Some e -> Error e
       | None ->
           Obs.Metrics.incr t.cqe_rejects;
           Error Abi.Errno.EPERM
     else Ok res);
  p.settled <- true

(* A SEND_ZC completion CQE ([F_MORE]) flips its notif-pending entry to
   completed: from here on the frame's release is the notif's job and
   only the notif's (SNIPPETS Snippet 1's "buffer node hangs off the
   notif" rule).  Runs even when the in-flight record is already gone —
   a zc op we abandoned on timeout still executed in the kernel, and its
   frame must stay recoverable through the late notif.  Returns true
   when the CQE was such a late completion (host honest, not a stray). *)
let zc_mark_completed t ~user_data ~flags =
  match t.zc with
  | Some z when flags land Abi.Uring_abi.cqe_f_more <> 0 -> (
      match Sim.Int_table.find_opt z.notif_pending user_data with
      | Some nr when not nr.completed ->
          nr.completed <- true;
          true
      | Some _ | None -> false)
  | _ -> false

(* Zero-copy CQE triage, ahead of the pending-table lookup.  Notif CQEs
   drive the only legal exit from [Umem.Registered]; multishot CQEs
   stream data into their per-fd queue.  Returns true when the CQE was
   consumed here.  Rejected notifs bump [cqe_rejects] plus a dedicated
   counter but never [cqe_strays]: a forged notif must not abort an
   unrelated synchronous waiter (that escalation is reserved for forged
   completion identities). *)
let zc_cqe t ~user_data ~res ~flags =
  match t.zc with
  | None -> false
  | Some z ->
      if flags land Abi.Uring_abi.cqe_f_notif <> 0 then begin
        (match Sim.Int_table.find_opt z.notif_pending user_data with
        | Some nr when nr.completed -> (
            Sim.Int_table.remove z.notif_pending user_data;
            Obs.Metrics.incr z.zc_notifs;
            match Umem.release z.pool ~offset:nr.zoff with
            | Ok () -> ()
            | Error _ -> Obs.Metrics.incr t.cqe_rejects)
        | Some _ ->
            (* Forged-early notif: the host claims the NIC drained a
               frag whose send the kernel has not even finished
               accepting.  Refuse; the frame stays Registered and the
               honest notif (if any) still frees it.  Honouring this
               CQE is precisely the use-after-reuse-before-notif
               violation of docs/zerocopy.md. *)
            Obs.Metrics.incr z.zc_notif_early;
            Obs.Metrics.incr t.cqe_rejects
        | None ->
            (* Duplicated or fabricated notif: no frame is lent out
               under this identity.  Refusing it is what turns the
               host's double-free attempt into a no-op. *)
            Obs.Metrics.incr z.zc_notif_stray;
            Obs.Metrics.incr t.cqe_rejects);
        true
      end
      else
        match Sim.Int_table.find_opt z.ms_by_ud user_data with
        | None -> false
        | Some ms ->
            (if flags land Abi.Uring_abi.cqe_f_more <> 0 then begin
               if res <= 0 then
                 (* A data CQE must carry bytes; [F_MORE] with res <= 0
                    is malformed. *)
                 Obs.Metrics.incr t.cqe_rejects
               else begin
                 let bid = Abi.Uring_abi.cqe_buffer_id flags in
                 let off = bid * z.zframe in
                 match Umem.reclaim z.pool Rx ~offset:off ~len:res () with
                 | Error _ ->
                     (* Bogus buffer id / oversize count: the pool's
                        ownership map refused it (Table 2 fail action:
                        drop the CQE, keep the stream). *)
                     Obs.Metrics.incr t.cqe_rejects
                 | Ok () ->
                     (* Stage the bytes inside now — the frame goes
                        straight back into the provided-buffer ring, so
                        the arena slot may be overwritten at any later
                        point. *)
                     Sgx.Enclave.charge_copy t.enclave ~crossing:true res;
                     let data = Bytes.create res in
                     Mem.Region.blit_to_bytes z.arena.Mem.Ptr.region
                       (z.arena.Mem.Ptr.off + off)
                       data 0 res;
                     Queue.push data ms.outcomes;
                     (* Re-provision so the stream keeps flowing. *)
                     (match Umem.alloc z.pool with
                     | Some noff ->
                         Umem.commit z.pool noff Rx;
                         z.provide (noff / z.zframe)
                     | None -> ())
               end
             end
             else begin
               (* Terminating CQE (no F_MORE): the multishot is over —
                  EOF, error, or ENOBUFS when the ring ran dry. *)
               ms.terminal <- Some res;
               Sim.Int_table.remove z.ms_by_ud user_data;
               retire t user_data
             end);
            true

(* Settle one CQE of a {!reap_burst}. *)
let cqe_read t ~slot_off _ =
  let r = Rings.Certified.region t.cq in
  let user_data = Abi.Uring_abi.cqe_user_data r slot_off
  and res = Abi.Uring_abi.cqe_res r slot_off
  and flags = Abi.Uring_abi.cqe_flags r slot_off in
  if zc_cqe t ~user_data ~res ~flags then t.reaped <- t.reaped + 1
  else
    match Sim.Int_table.find t.pending user_data with
    | p ->
        retire t user_data;
        settle t p res;
        ignore (zc_mark_completed t ~user_data ~flags);
        t.reaped <- t.reaped + 1
    | exception Not_found ->
        if zc_mark_completed t ~user_data ~flags then t.reaped <- t.reaped + 1
        else begin
          (* No such request: a forged or replayed completion. *)
          Obs.Metrics.incr t.cqe_rejects;
          Obs.Metrics.incr t.cqe_strays;
          t.strays <- t.strays + 1
        end

(* Drain everything iCompl holds in one certified burst: a single
   producer-index validation covers all CQEs, and the consumer index is
   released once.  Leaves the burst's counts in [t.reaped] and
   [t.strays]; read them before the next suspension. *)
let reap_burst t =
  t.reaped <- 0;
  t.strays <- 0;
  ignore
    (Rings.Certified.consume_batch t.cq ~max:(Rings.Certified.size t.cq)
       ~read:t.cqe_read);
  Obs.Metrics.add t.cqes_reaped t.reaped

(* Write [reqs.(i)] into its iSub slot under the next identity and
   record it in flight. *)
let sqe_write t ~slot_off i =
  let q = t.reqs.(i) in
  let user_data = t.next_user_data in
  t.next_user_data <- user_data + 1;
  Abi.Uring_abi.set_sqe (Rings.Certified.region t.sq) slot_off ~opcode:q.opcode
    ~fd:q.fd ~file_off:q.file_off ~addr:q.addr ~len:q.len
    ~poll_events:q.poll_events ~user_data ~buf_index:q.buf_index ~fixed:q.fixed;
  let p =
    { user_data; expected_max = q.expected_max; settled = false;
      outcome = Error EAGAIN }
  in
  Sim.Int_table.add t.pending user_data p;
  t.live <- t.live + 1;
  q.issued <- p

(* Stage the [i]-th SQE of the next {!submit_burst}. *)
let stage t i ~opcode ~fd ~file_off ~addr ~len ~poll_events ~buf_index ~fixed
    ~expected_max =
  if i >= Array.length t.reqs then
    t.reqs <-
      Array.init (2 * i + 1) (fun j ->
          if j < Array.length t.reqs then t.reqs.(j) else new_req ());
  let q = t.reqs.(i) in
  q.opcode <- opcode;
  q.fd <- fd;
  q.file_off <- file_off;
  q.addr <- addr;
  q.len <- len;
  q.poll_events <- poll_events;
  q.buf_index <- buf_index;
  q.fixed <- fixed;
  q.expected_max <- expected_max;
  q.issued <- not_submitted

(* Produce the [count] staged SQEs as one burst, with one consumer-index
   validation, one producer-index publish and one kick.  Returns how
   many were produced: a prefix when the host freezes/corrupts the
   consumer index and the ring looks full; [reqs.(i).issued] is the
   in-flight record of each. *)
let submit_burst t count =
  let produced =
    Rings.Certified.produce_batch t.sq ~count ~write:t.sqe_write
  in
  if produced > 0 then begin
    Obs.Metrics.add t.sqes_submitted produced;
    t.kick ()
  end;
  (* Overload feed: iSub looking full across consecutive bursts (even
     after certification) is an SQ-full streak — a breaker-worthy
     overload signal, unlike one-off Malice index noise. *)
  if count > 0 then
    if produced < count then begin
      t.sq_full_streak <- t.sq_full_streak + 1;
      if t.sq_full_streak >= 3 then begin
        t.sq_full_streak <- 0;
        Health.record_failure t.breaker
      end
    end
    else t.sq_full_streak <- 0;
  produced

(* One SQE; {!not_submitted} when iSub took nothing — plausible only
   when the host freezes/corrupts the consumer index: the per-thread FM
   never has this many ops in flight. *)
let submit t ~opcode ~fd ~file_off ~addr ~len ~poll_events ~buf_index ~fixed
    ~expected_max =
  stage t 0 ~opcode ~fd ~file_off ~addr ~len ~poll_events ~buf_index ~fixed
    ~expected_max;
  if submit_burst t 1 = 1 then t.reqs.(0).issued else not_submitted

let ( let* ) = Result.bind

let create ?obs ?(name = "uring") ~enclave ~config ~monitor ~breaker ~fd ~uring
    ~bounce ?zc_arena () =
  if fd < 0 then Error (Bad_fd fd)
  else
    let entries = config.Config.uring_entries in
    let zc_size = Sgx.Params.zc_frames * Sgx.Params.zc_frame_size in
    let* sq =
      certify_layout "iSub" ~entry_size:Abi.Uring_abi.sqe_size ~size:entries
        (Hostos.Io_uring.sq_layout uring)
    in
    let* cq =
      certify_layout "iCompl" ~entry_size:Abi.Uring_abi.cqe_size
        ~size:(2 * entries)
        (Hostos.Io_uring.cq_layout uring)
    in
    let* () =
      if not (Mem.Ptr.is_untrusted bounce) then
        Error (Pointer_in_trusted "bounce buffer")
      else if not (Mem.Ptr.valid bounce ~len:config.Config.max_io_size) then
        Error (Bad_layout "bounce buffer does not fit its region")
      else Ok ()
    in
    let* () =
      match zc_arena with
      | None -> Ok ()
      | Some a ->
          if not (Mem.Ptr.is_untrusted a) then
            Error (Pointer_in_trusted "zero-copy arena")
          else if not (Mem.Ptr.valid a ~len:zc_size) then
            Error (Bad_layout "zero-copy arena does not fit its region")
          else Ok ()
    in
    let objects =
      (("bounce", bounce, config.Config.max_io_size) :: layout_objects "iSub" sq)
      @ layout_objects "iCompl" cq
      @
      match zc_arena with
      | Some a -> [ ("zc arena", a, zc_size) ]
      | None -> []
    in
    let* () =
      if Mem.Ptr.all_disjoint (List.map (fun (_, p, l) -> (p, l)) objects) then
        Ok ()
      else Error (Overlapping "iSub, iCompl, bounce")
    in
    let m =
      match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
    in
    let cq_notify = Hostos.Io_uring.cq_notify uring in
    let rec t =
      {
        enclave;
        engine = Sgx.Enclave.engine enclave;
        sq =
          Rings.Certified.create sq ~role:Rings.Certified.Producer ?obs
            ~name:(name ^ ".iSub") ();
        cq =
          Rings.Certified.create cq ~role:Rings.Certified.Consumer ?obs
            ~name:(name ^ ".iCompl") ();
        bounce;
        bounce_size = config.Config.max_io_size;
        cq_notify;
        renudge = (fun () -> Sim.Condition.broadcast cq_notify);
        kick =
          (if config.Config.use_sqpoll then
             (* SQPOLL: the kernel's own poller notices new SQEs within
                its poll period — no MM syscall involved.  Signalling the
                worker directly stands in for that busy-poll, as with the
                other shared-memory polling in this simulation. *)
             fun () -> Hostos.Io_uring.enter uring
           else fun () ->
             Monitor.nudge_uring monitor uring;
             Monitor.kick monitor);
        sqe_write = (fun ~slot_off i -> sqe_write t ~slot_off i);
        cqe_read = (fun ~slot_off i -> cqe_read t ~slot_off i);
        reqs = [| new_req () |];
        reaped = 0;
        strays = 0;
        next_user_data = 1;
        pending = Sim.Int_table.create 8;
        probes = Sim.Int_table.create 8;
        live = 0;
        probe_mode = false;
        sq_full_streak = 0;
        breaker;
        max_pending = config.Config.max_pending;
        sheds = Obs.Metrics.counter m (name ^ ".sheds");
        cqe_rejects = Obs.Metrics.counter m (name ^ ".cqe_rejects");
        sqes_submitted = Obs.Metrics.counter m (name ^ ".sqes_submitted");
        cqes_reaped = Obs.Metrics.counter m (name ^ ".cqes_reaped");
        cqe_strays = Obs.Metrics.counter m (name ^ ".cqe_strays");
        sync_wait_cycles = Obs.Metrics.histogram m (name ^ ".sync_wait_cycles");
        backoff =
          (* Seeded by the FM's name, not a global counter: replayed
             campaign runs create FMs in the same order with the same
             names, so retry timing is reproducible bit-for-bit. *)
          Sim.Backoff.create
            ~seed:(Int64.of_int (Hashtbl.hash name))
            ~base:Sgx.Params.backoff_base ~cap:Sgx.Params.backoff_cap ();
        retries = Obs.Metrics.counter m (name ^ ".retries");
        retry_success = Obs.Metrics.counter m (name ^ ".retry_success");
        retry_exhausted = Obs.Metrics.counter m (name ^ ".retry_exhausted");
        trace = Option.map Obs.trace obs;
        zc =
          Option.map
            (fun a ->
              {
                pool =
                  Umem.create ?obs ~name:(name ^ ".zc") ~size:zc_size
                    ~frame_size:Sgx.Params.zc_frame_size ();
                arena = a;
                zframe = Sgx.Params.zc_frame_size;
                notif_pending = Sim.Int_table.create 8;
                ms_by_fd = Sim.Int_table.create 4;
                ms_by_ud = Sim.Int_table.create 4;
                provide = (fun id -> Hostos.Io_uring.provide_buffer uring id);
                zc_sends = Obs.Metrics.counter m (name ^ ".zc_sends");
                zc_fallbacks = Obs.Metrics.counter m (name ^ ".zc_fallbacks");
                zc_notifs = Obs.Metrics.counter m (name ^ ".zc_notifs");
                zc_notif_early =
                  Obs.Metrics.counter m (name ^ ".zc_notif_early");
                zc_notif_stray =
                  Obs.Metrics.counter m (name ^ ".zc_notif_stray");
              })
            zc_arena;
      }
    in
    Ok t

let renudge_period = Int64.to_int Sgx.Params.mm_poll_period

(* Sleep until a completion is signalled — or a poll period elapses, in
   which case nudge the kernel again ([io_uring_enter] is cheap and
   non-blocking).  The nudge matters under attack: a smashed iCompl
   producer index freezes the certified view (the hostile value keeps
   being rejected) until the kernel next touches the ring and rewrites
   the shared word from its private cursor; without the retry a
   synchronous waiter would hang forever on a completion that is
   already sitting in the ring.  Each wait queues one timer event with
   the prebuilt callback; one that fires after its wait has ended wakes
   whichever wait is parked on the completion condition then. *)
let wait_or_renudge t =
  Sim.Engine.at_clock t.engine
    (Sim.Engine.clock t.engine + renudge_period)
    t.renudge;
  Sim.Condition.wait t.cq_notify;
  (* Whatever woke us — completion broadcast or poll-period timer — the
     view may still be frozen by a smashed index, so always re-enter. *)
  t.kick ()

(* [deadline] is a native clock value; [max_int] waits for ever. *)
let rec await t (p : pending) ~deadline =
  if p.settled then p.outcome
  else begin
    reap_burst t;
    if p.settled then p.outcome
    else if t.strays > 0 then begin
      (* The completion slot for this synchronous request carried a
         forged identity: fail the request with EPERM (Table 2) and
         forget it — a late genuine CQE will be counted as stray. *)
      retire t p.user_data;
      Error Abi.Errno.EPERM
    end
    else if t.reaped > 0 then await t p ~deadline
    else if Sim.Engine.clock t.engine >= deadline then begin
      (* Abandon a completion that never came (e.g. every wakeup
         swallowed, so the SQE never entered the kernel).  Without this
         deadline a synchronous op under a persistent wakeup drop
         livelocks forever and the retry/ETIMEDOUT machinery never
         engages.  Retiring the record here is what keeps
         [accounting_holds] balanced across retry exhaustion; EAGAIN is
         transient, so the caller's retry loop takes over. *)
      retire t p.user_data;
      Error Abi.Errno.EAGAIN
    end
    else begin
      wait_or_renudge t;
      await t p ~deadline
    end
  end

(* Static operation names for SyncProxy span events: literals only, so
   recording never allocates on the syscall path. *)
let op_name : Abi.Uring_abi.opcode -> string = function
  | Nop -> "uring.nop"
  | Read -> "uring.read"
  | Write -> "uring.write"
  | Send -> "uring.send"
  | Recv -> "uring.recv"
  | Poll_add -> "uring.poll"
  | Send_zc -> "uring.send_zc"
  | Sendmsg_zc -> "uring.sendmsg_zc"
  | Recv_multi -> "uring.recv_multi"

(* Cycles a synchronous prompt-class op waits for its CQE before the
   attempt is abandoned — the anti-livelock deadline under persistent
   wakeup loss, well above the worst legitimate sync op. *)
let sync_op_timeout = 1_000_000

(* Prompt-class opcodes complete as soon as the kernel runs them, so a
   missing CQE after [sync_op_timeout] means the datapath is stuck and
   the attempt is abandoned.  Recv and Poll_add legitimately block for
   unbounded time on peer data — and an abandoned Recv SQE that later
   executes would consume stream bytes nobody is waiting for — so they
   never get a deadline.  (Send is at-least-once under abandonment; the
   availability posture of DESIGN.md §9 accepts that.) *)
let prompt_class : Abi.Uring_abi.opcode -> bool = function
  | Nop | Read | Write | Send -> true
  (* SEND_ZC's {e completion} is prompt (the kernel posts it as soon as
     it accepts the bytes); only the notif is unbounded, and nothing
     waits on the notif synchronously. *)
  | Send_zc | Sendmsg_zc -> true
  | Recv | Poll_add | Recv_multi -> false

(* One synchronous attempt: one SQE submitted and waited for, on the
   copy path, the fixed-buffer path and SEND_ZC alike.  This is the
   single place where a synchronous attempt ends: validated, refused,
   or abandoned on its deadline.

   A SEND_ZC attempt names a frame already Registered (by its
   [buf_index]) and pairs it with a notif-pending entry under the
   assigned user_data.  Only when iSub took nothing, so that no notif
   will ever name the frame, does the FM unwind Registered itself.  On
   failure or abandonment nothing is unwound: the SQE may still execute
   in the kernel, so the frame stays Registered, recoverable only
   through a late notif ([zc_mark_completed] keeps that path alive).
   Freeing it here would be exactly the use-after-reuse-before-notif
   violation. *)
let attempt t ~(opcode : Abi.Uring_abi.opcode) ~fd ~file_off ~addr ~len
    ~buf_index ~fixed =
  let p =
    submit t ~opcode ~fd ~file_off ~addr ~len ~poll_events:0 ~buf_index ~fixed
      ~expected_max:len
  in
  if p == not_submitted then begin
    (match (opcode, t.zc) with
    | Send_zc, Some z ->
        ignore (Umem.release z.pool ~offset:(buf_index * z.zframe))
    | _ -> ());
    Error Abi.Errno.EAGAIN
  end
  else begin
    (match (opcode, t.zc) with
    | Send_zc, Some z ->
        Sim.Int_table.replace z.notif_pending p.user_data
          { zoff = buf_index * z.zframe; completed = false }
    | _ -> ());
    let start = Sim.Engine.clock t.engine in
    let deadline =
      if prompt_class opcode then start + sync_op_timeout else max_int
    in
    (* The synchronous caller hands off to the kernel worker and pays
       the handoff latency (paper §6.2). *)
    Sgx.Enclave.charge t.enclave Sgx.Params.iouring_sync_wait_cycles;
    let r = await t p ~deadline in
    Obs.Metrics.observe t.sync_wait_cycles (Sim.Engine.clock t.engine - start);
    (match t.trace with
    | None -> ()
    | Some tr ->
        Obs.Trace.span tr ~cat:"syncproxy" ~arg:fd (op_name opcode) ~start);
    r
  end

(* Transient host failures (bounced submissions, EAGAIN/EINTR-class
   CQEs) are retried with bounded exponential backoff; the kick before
   each retry matters when the failure was a full-looking iSub — only
   kernel re-entry rewrites a smashed consumer word.  Exhaustion
   surfaces as ETIMEDOUT, the terminal recovery verdict.  It does not
   prove the op never ran: an attempt abandoned on [sync_op_timeout]
   may still execute later, so a caller that completes the op another
   way (the SyncProxy's slow path) makes it at-least-once.  Attempt [n]
   of at most [limit + 1]. *)
let rec submit_wait_from t n ~limit ~opcode ~fd ~file_off ~addr ~len
    ~buf_index ~fixed =
  match attempt t ~opcode ~fd ~file_off ~addr ~len ~buf_index ~fixed with
  | Error e when Abi.Errno.is_transient e ->
      if n >= limit then begin
        Obs.Metrics.incr t.retry_exhausted;
        Sim.Backoff.reset t.backoff;
        Error Abi.Errno.ETIMEDOUT
      end
      else begin
        Obs.Metrics.incr t.retries;
        t.kick ();
        Sim.Engine.delay (Sim.Backoff.next t.backoff);
        submit_wait_from t (n + 1) ~limit ~opcode ~fd ~file_off ~addr ~len
          ~buf_index ~fixed
      end
  | r ->
      if n > 0 then begin
        (match r with
        | Ok _ -> Obs.Metrics.incr t.retry_success
        | Error _ -> ());
        Sim.Backoff.reset t.backoff
      end;
      r

(* SEND_ZC gets one attempt and no retry loop: a transient failure
   surfaces to the transfer, which falls back to the copy path
   (re-registering a frame across retries would race the kernel's view
   of the first attempt).  Probe mode (Health half-open) gives every
   other op one attempt too — a probe exists to answer "did the FIOKP
   heal?" cheaply, not to win. *)
let submit_wait t ~(opcode : Abi.Uring_abi.opcode) ~fd ~file_off ~addr ~len
    ~buf_index ~fixed =
  match opcode with
  | Send_zc -> attempt t ~opcode ~fd ~file_off ~addr ~len ~buf_index ~fixed
  | _ ->
      let limit = if t.probe_mode then 0 else Sgx.Params.retry_limit in
      submit_wait_from t 0 ~limit ~opcode ~fd ~file_off ~addr ~len ~buf_index
        ~fixed

(* Admission control: refuse new synchronous work once [max_pending]
   ops are in flight — a bounded queue with EAGAIN backpressure to the
   app, never a silent drop of accepted work. *)
let admit t =
  if Sim.Int_table.length t.pending >= t.max_pending then begin
    Obs.Metrics.incr t.sheds;
    Health.record_shed t.breaker;
    false
  end
  else true

(* {2 The chunked transfer}

   A synchronous data op moves its bytes in chunks staged in untrusted
   memory.  The stage is chosen once per op: [None] is the bounce
   buffer, [Some z] a frame of [z]'s pool per chunk.  A pool frame is
   named by its registration index, so the kernel skips its own bounce
   copy ([Sgx.Params.iouring_copy_cycles_per_byte]).  For file IO the
   frame sits in Allocated limbo for the chunk's op and returns to the
   pool on completion; for a send it is lent to SEND_ZC until its notif.
   A [Write] or [Send] copies each chunk out before its SQE, a [Read] or
   [Recv] copies each completion in.  [off] is the file offset of byte
   [pos] ([Send] and [Recv] carry none); [done_] bytes have moved so
   far.  Each call moves one more chunk, so [done_ < len] except for a
   zero-length [Recv], which still goes to the kernel. *)
let rec transfer t (op : op) stage ~fd ~off ~buf ~pos ~len done_ =
  match stage with
  | None ->
      move t op stage ~fd ~off ~buf ~pos ~len done_
        ~region:t.bounce.Mem.Ptr.region ~addr:t.bounce.Mem.Ptr.off
        ~size:t.bounce_size ~zoff:0
  | Some z -> (
      match Umem.alloc z.pool with
      | Some zoff ->
          move t op stage ~fd ~off ~buf ~pos ~len done_
            ~region:z.arena.Mem.Ptr.region
            ~addr:(z.arena.Mem.Ptr.off + zoff)
            ~size:z.zframe ~zoff
      | None when done_ > 0 ->
          (* Pool drained mid-transfer (withheld notifs): surface the
             prefix; the next call degrades to the copy path. *)
          Ok done_
      | None ->
          (* Registered frames all awaiting notifs (a withholding host):
             capacity is lost, correctness is not — degrade to the copy
             path. *)
          Obs.Metrics.incr z.zc_fallbacks;
          transfer t op None ~fd ~off ~buf ~pos ~len 0)

(* One chunk of {!transfer}, staged at [addr] in [region]: pool frame
   [zoff] when staged in the pool. *)
and move t op stage ~fd ~off ~buf ~pos ~len done_ ~region ~addr ~size ~zoff =
  let chunk = min size (len - done_) in
  let opcode : Abi.Uring_abi.opcode =
    match (op, stage) with
    | Read, _ -> Read
    | Write, _ -> Write
    | Recv, _ -> Recv
    | Send, None -> Send
    | Send, Some _ -> Send_zc
  in
  (match op with
  | Write | Send ->
      Sgx.Enclave.charge_copy t.enclave ~crossing:true chunk;
      Mem.Region.blit_from_bytes buf (pos + done_) region addr chunk
  | Read | Recv -> ());
  (match (opcode, stage) with
  | Send_zc, Some z ->
      Umem.register z.pool zoff;
      Obs.Metrics.incr z.zc_sends
  | _ -> ());
  let r =
    submit_wait t ~opcode ~fd
      ~file_off:(match op with Read | Write -> off + done_ | Send | Recv -> 0)
      ~addr ~len:chunk ~buf_index:(zoff / size)
      ~fixed:(match stage with None -> false | Some _ -> true)
  in
  (match (op, r) with
  | (Read | Recv), Ok n when n > 0 ->
      Sgx.Enclave.charge_copy t.enclave ~crossing:true n;
      Mem.Region.blit_to_bytes region addr buf (pos + done_) n
  | _ -> ());
  (* A file frame goes back to the pool once its chunk is done with;
     a SEND_ZC frame stays lent until its notif. *)
  (match (opcode, stage) with
  | Send_zc, _ | _, None -> ()
  | _, Some z -> Umem.cancel z.pool zoff);
  match r with
  | Ok n -> (
      (* A short completion (the kernel honoured a prefix — e.g. an
         injected Short_io) is resubmitted for the remainder; a zero
         count (EOF / peer gone) ends the transfer early, and a [Recv]
         returns as soon as any bytes are available. *)
      match op with
      | Recv -> Ok n
      | Read | Write | Send ->
          if n = 0 || done_ + n >= len then Ok (done_ + n)
          else transfer t op stage ~fd ~off ~buf ~pos ~len (done_ + n))
  | Error _ when done_ > 0 -> Ok done_
  | Error e -> (
      match (opcode, stage) with
      | Send_zc, Some z when Abi.Errno.is_transient e ->
          (* First SEND_ZC bounced: let the copy path (with its retry
             budget) carry the whole transfer. *)
          Obs.Metrics.incr z.zc_fallbacks;
          transfer t op None ~fd ~off ~buf ~pos ~len 0
      | _ -> r)

(* {2 Multishot receive} *)

(* Buffers provided per armed fd.  Each provided buffer is a pool frame
   committed to the Rx routine — the same ownership transfer as an XSK
   fill-ring promise, validated back in by [zc_cqe]'s reclaim. *)
let ms_buffers = 4

let ms_arm t z ~fd =
  let provided = ref 0 in
  (* Keep at least half the pool for sends and fixed IO. *)
  let budget = min ms_buffers (Umem.free_frames z.pool / 2) in
  while !provided < budget do
    match Umem.alloc z.pool with
    | None -> provided := budget
    | Some off ->
        Umem.commit z.pool off Rx;
        z.provide (off / z.zframe);
        incr provided
  done;
  if !provided = 0 then false
  else
    let p =
      submit t ~opcode:Recv_multi ~fd ~file_off:0 ~addr:0 ~len:z.zframe
        ~poll_events:0 ~buf_index:0 ~fixed:false ~expected_max:z.zframe
    in
    if p == not_submitted then
      (* Could not arm; the provided frames stay in the shared ring and
         serve a later arming on any fd. *)
      false
    else
        let ms =
          { ms_p = p; outcomes = Queue.create (); terminal = None;
            leftover = None }
        in
        Sim.Int_table.replace z.ms_by_fd fd ms;
        Sim.Int_table.replace z.ms_by_ud p.user_data ms;
        true

let rec ms_recv t z ~fd ~buf ~pos ~len =
  match Sim.Int_table.find_opt z.ms_by_fd fd with
  | None ->
      if ms_arm t z ~fd then ms_recv t z ~fd ~buf ~pos ~len
      else begin
        Obs.Metrics.incr z.zc_fallbacks;
        transfer t Recv None ~fd ~off:0 ~buf ~pos ~len 0
      end
  | Some ms -> (
      match ms.leftover with
      | Some (data, start) ->
          let avail = Bytes.length data - start in
          let n = min avail len in
          Bytes.blit data start buf pos n;
          ms.leftover <- (if n < avail then Some (data, start + n) else None);
          Ok n
      | None ->
          if not (Queue.is_empty ms.outcomes) then begin
            let data = Queue.pop ms.outcomes in
            let n = min (Bytes.length data) len in
            Bytes.blit data 0 buf pos n;
            if n < Bytes.length data then ms.leftover <- Some (data, n);
            Ok n
          end
          else (
            match ms.terminal with
            | Some res -> (
                Sim.Int_table.remove z.ms_by_fd fd;
                if res = 0 then Ok 0
                else
                  match Abi.Errno.of_int (-res) with
                  | Some Abi.Errno.ENOBUFS ->
                      (* Provided ring ran dry: re-arm (frames may have
                         come back) or degrade to the copy path. *)
                      ms_recv t z ~fd ~buf ~pos ~len
                  | Some e -> Error e
                  | None ->
                      Obs.Metrics.incr t.cqe_rejects;
                      Error Abi.Errno.EPERM)
            | None ->
                reap_burst t;
                if
                  Queue.is_empty ms.outcomes
                  && ms.terminal = None && t.reaped = 0
                then wait_or_renudge t;
                ms_recv t z ~fd ~buf ~pos ~len))

(* {2 The synchronous entry point} *)

let io t op ~fd ~off ~buf ~pos ~len =
  if not (admit t) then Error Abi.Errno.EAGAIN
  else
    match (op, t.zc) with
    | Recv, Some z when len > 0 -> ms_recv t z ~fd ~buf ~pos ~len
    | Recv, _ -> transfer t op None ~fd ~off:0 ~buf ~pos ~len 0
    | (Read | Write | Send), _ when len <= 0 -> Ok 0
    | (Read | Write | Send), stage ->
        transfer t op stage ~fd ~off ~buf ~pos ~len 0

let poll_mask = Abi.Uring_abi.pollin lor Abi.Uring_abi.pollout

let nop t =
  if not (admit t) then Error Abi.Errno.EAGAIN
  else
    submit_wait t ~opcode:Nop ~fd:(-1) ~file_off:0 ~addr:0 ~len:0 ~buf_index:0
      ~fixed:false

let forget_fd t ~fd =
  (match t.zc with
  | None -> ()
  | Some z -> (
      match Sim.Int_table.find_opt z.ms_by_fd fd with
      | None -> ()
      | Some ms ->
          (* Closing an fd with a live multishot: retire its in-flight
             record.  Frames already promised through the provided ring
             stay [With_kernel Rx] — the shared ring still names them
             and any later stream on any fd may legitimately fill
             them. *)
          Sim.Int_table.remove z.ms_by_fd fd;
          Sim.Int_table.remove z.ms_by_ud ms.ms_p.user_data;
          retire t ms.ms_p.user_data));
  match Sim.Int_table.find_opt t.probes fd with
  | None -> ()
  | Some p ->
      (* Closing an fd with an unsettled readiness probe used to leak
         both the probe and its pending record forever. *)
      Sim.Int_table.remove t.probes fd;
      retire t p.user_data

(* Multi-fd poll (the API submodule's io_uring side, paper §4.2): keep
   one outstanding Poll_add per fd, reusing probes across calls, and
   return the first fd whose probe completed. *)
let poll_multi t specs ~deadline =
  (* All missing probes go out as one SQ burst: one publish, one kick. *)
  let staged =
    List.fold_left
      (fun i (fd, events) ->
        if Sim.Int_table.mem t.probes fd then i
        else begin
          stage t i ~opcode:Poll_add ~fd ~file_off:0 ~addr:0 ~len:0
            ~poll_events:events ~buf_index:0 ~fixed:false
            ~expected_max:poll_mask;
          i + 1
        end)
      0 specs
  in
  if staged > 0 then
    for i = 0 to submit_burst t staged - 1 do
      let q = t.reqs.(i) in
      Sim.Int_table.add t.probes q.fd q.issued
    done;
  let timer_fired = ref false in
  if deadline <> max_int then
    Sim.Engine.at_clock t.engine deadline (fun () ->
        timer_fired := true;
        Sim.Condition.broadcast t.cq_notify);
  let completed () =
    List.find_map
      (fun (fd, _) ->
        match Sim.Int_table.find_opt t.probes fd with
        | Some p when p.settled -> Some (fd, p.outcome)
        | Some _ | None -> None)
      specs
  in
  let rec wait () =
    match completed () with
    | Some (fd, outcome) -> (
        Sim.Int_table.remove t.probes fd;
        match outcome with
        | Ok mask -> Ok (Some (fd, mask))
        | Error e -> Error e)
    | None ->
        if !timer_fired then Ok None
        else begin
          reap_burst t;
          if t.reaped + t.strays = 0 then Sim.Condition.wait t.cq_notify;
          wait ()
        end
  in
  wait ()
