type init_error =
  | Bad_fd of int
  | Pointer_in_trusted of string
  | Overlapping of string
  | Bad_layout of string

(* An operation in flight: CQEs are validated against this record
   (Table 2: "return code is expected for the requested operation"). *)
type pending = {
  user_data : int64;
  expected_max : int;
  mutable outcome : (int, Abi.Errno.t) result option;
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
  notif_pending : (int64, notif_rec) Hashtbl.t;
  ms_by_fd : (int, ms) Hashtbl.t;
  ms_by_ud : (int64, ms) Hashtbl.t;
  provide : int -> unit; (* push a buffer id into the shared buf_ring *)
  zc_sends : Obs.Metrics.counter;
  zc_fallbacks : Obs.Metrics.counter;
  zc_notifs : Obs.Metrics.counter;
  zc_notif_early : Obs.Metrics.counter; (* notifs before their completion *)
  zc_notif_stray : Obs.Metrics.counter; (* duplicated / fabricated notifs *)
}

type t = {
  enclave : Sgx.Enclave.t;
  sq : Rings.Certified.t;
  cq : Rings.Certified.t;
  bounce : Mem.Ptr.t;
  bounce_size : int;
  cq_notify : Sim.Condition.t;
  mutable kick : unit -> unit;
  mutable next_user_data : int64;
  pending : (int64, pending) Hashtbl.t;
  probes : (int, pending) Hashtbl.t; (* outstanding Poll_add per fd *)
  (* In-flight accounting: [live] is maintained op-by-op (incremented on
     submit, decremented on settle/abandon/forget) as an independent
     shadow of [Hashtbl.length pending]; [accounting_holds] cross-checks
     the two so a path that drops a record without retiring it — the
     historical ETIMEDOUT leak — trips the runtime invariant. *)
  mutable live : int;
  mutable probe_mode : bool;
  mutable sq_full_streak : int;
  mutable breaker : Health.t option;
  max_pending : int;
  sync_op_timeout : int64;
  sheds : Obs.Metrics.counter;
  cqe_rejects : Obs.Metrics.counter;
  sqes_submitted : Obs.Metrics.counter;
  cqes_reaped : Obs.Metrics.counter;
  cqe_strays : Obs.Metrics.counter;
  sync_wait_cycles : Obs.Metrics.histogram; (* submit->complete, cycles *)
  retry_limit : int;
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

let ( let* ) = Result.bind

let create ?obs ?(name = "uring") ~enclave ~config ~fd ~uring ~bounce
    ?zc_arena () =
  if fd < 0 then Error (Bad_fd fd)
  else
    let entries = config.Config.uring_entries in
    let zc_size = config.Config.zc_frames * config.Config.zc_frame_size in
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
    Ok
      {
        enclave;
        sq =
          Rings.Certified.create sq ~role:Rings.Certified.Producer ?obs
            ~name:(name ^ ".iSub") ();
        cq =
          Rings.Certified.create cq ~role:Rings.Certified.Consumer ?obs
            ~name:(name ^ ".iCompl") ();
        bounce;
        bounce_size = config.Config.max_io_size;
        cq_notify = Hostos.Io_uring.cq_notify uring;
        kick = (fun () -> ());
        next_user_data = 1L;
        pending = Hashtbl.create 8;
        probes = Hashtbl.create 8;
        live = 0;
        probe_mode = false;
        sq_full_streak = 0;
        breaker = None;
        max_pending = config.Config.max_pending;
        sync_op_timeout = config.Config.sync_op_timeout;
        sheds = Obs.Metrics.counter m (name ^ ".sheds");
        cqe_rejects = Obs.Metrics.counter m (name ^ ".cqe_rejects");
        sqes_submitted = Obs.Metrics.counter m (name ^ ".sqes_submitted");
        cqes_reaped = Obs.Metrics.counter m (name ^ ".cqes_reaped");
        cqe_strays = Obs.Metrics.counter m (name ^ ".cqe_strays");
        sync_wait_cycles = Obs.Metrics.histogram m (name ^ ".sync_wait_cycles");
        retry_limit = config.Config.retry_limit;
        backoff =
          (* Seeded by the FM's name, not a global counter: replayed
             campaign runs create FMs in the same order with the same
             names, so retry timing is reproducible bit-for-bit. *)
          Sim.Backoff.create
            ~seed:(Int64.of_int (Hashtbl.hash name))
            ~base:config.Config.backoff_base ~cap:config.Config.backoff_cap ();
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
                    ~frame_size:config.Config.zc_frame_size ();
                arena = a;
                zframe = config.Config.zc_frame_size;
                notif_pending = Hashtbl.create 8;
                ms_by_fd = Hashtbl.create 4;
                ms_by_ud = Hashtbl.create 4;
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

let set_kick t f = t.kick <- f

let set_breaker t b = t.breaker <- Some b

let set_probe_mode t on = t.probe_mode <- on

let sq_ring t = t.sq

let cq_ring t = t.cq

let cqe_rejects t = Obs.Metrics.value t.cqe_rejects

let retries t = Obs.Metrics.value t.retries

let retry_successes t = Obs.Metrics.value t.retry_success

let retries_exhausted t = Obs.Metrics.value t.retry_exhausted

let burst_counters t =
  List.map
    (fun (name, ring) ->
      (name, (Rings.Certified.bursts ring, Rings.Certified.burst_slots ring)))
    [ ("iSub", t.sq); ("iCompl", t.cq) ]

let invariant_holds t =
  Rings.Certified.invariant_holds t.sq && Rings.Certified.invariant_holds t.cq

let inflight t = Hashtbl.length t.pending

let sheds t = Obs.Metrics.value t.sheds

let zc_pool t = Option.map (fun z -> z.pool) t.zc

(* Completed-but-unnotified sends: at quiescence each is a frame the
   host is sitting on by withholding its notif — the dropped-notif
   availability leak the TM campaign fails on. *)
let zc_leaks t =
  match t.zc with
  | None -> 0
  | Some z ->
      Hashtbl.fold
        (fun _ (nr : notif_rec) n -> if nr.completed then n + 1 else n)
        z.notif_pending 0

let accounting_holds t =
  t.live >= 0
  && t.live = Hashtbl.length t.pending
  && Hashtbl.fold
       (fun _ (p : pending) ok ->
         ok && (p.outcome <> None || Hashtbl.mem t.pending p.user_data))
       t.probes true
  && (match t.zc with
     | None -> true
     | Some z ->
         (* Every Registered frame has exactly one notif-pending entry
            and vice versa — the notif-anchored ownership contract of
            docs/zerocopy.md, checked as a runtime invariant. *)
         Umem.registered z.pool = Hashtbl.length z.notif_pending
         && Umem.conservation_holds z.pool)

(* The single point where an in-flight record is reclaimed; membership
   guard keeps settle-then-abandon races idempotent. *)
let retire t user_data =
  if Hashtbl.mem t.pending user_data then begin
    Hashtbl.remove t.pending user_data;
    t.live <- t.live - 1
  end

(* Validate one CQE against its pending record. *)
let settle t (p : pending) (cqe : Abi.Uring_abi.cqe) =
  let outcome =
    if cqe.res > p.expected_max then begin
      Obs.Metrics.incr t.cqe_rejects;
      Error Abi.Errno.EPERM
    end
    else if cqe.res < 0 then
      match Abi.Errno.of_int (-cqe.res) with
      | Some e -> Error e
      | None ->
          Obs.Metrics.incr t.cqe_rejects;
          Error Abi.Errno.EPERM
    else Ok cqe.res
  in
  p.outcome <- Some outcome

(* A SEND_ZC completion CQE ([F_MORE]) flips its notif-pending entry to
   completed: from here on the frame's release is the notif's job and
   only the notif's (SNIPPETS Snippet 1's "buffer node hangs off the
   notif" rule).  Runs even when the in-flight record is already gone —
   a zc op we abandoned on timeout still executed in the kernel, and its
   frame must stay recoverable through the late notif.  Returns true
   when the CQE was such a late completion (host honest, not a stray). *)
let zc_mark_completed t (cqe : Abi.Uring_abi.cqe) =
  match t.zc with
  | Some z when cqe.flags land Abi.Uring_abi.cqe_f_more <> 0 -> (
      match Hashtbl.find_opt z.notif_pending cqe.user_data with
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
let zc_cqe t (cqe : Abi.Uring_abi.cqe) =
  match t.zc with
  | None -> false
  | Some z ->
      if cqe.flags land Abi.Uring_abi.cqe_f_notif <> 0 then begin
        (match Hashtbl.find_opt z.notif_pending cqe.user_data with
        | Some nr when nr.completed -> (
            Hashtbl.remove z.notif_pending cqe.user_data;
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
        match Hashtbl.find_opt z.ms_by_ud cqe.user_data with
        | None -> false
        | Some ms ->
            (if cqe.flags land Abi.Uring_abi.cqe_f_more <> 0 then begin
               if cqe.res <= 0 then
                 (* A data CQE must carry bytes; [F_MORE] with res <= 0
                    is malformed. *)
                 Obs.Metrics.incr t.cqe_rejects
               else begin
                 let bid = Abi.Uring_abi.cqe_buffer_id cqe.flags in
                 let off = bid * z.zframe in
                 match Umem.reclaim z.pool Rx ~offset:off ~len:cqe.res () with
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
                     Sgx.Enclave.charge_copy t.enclave ~crossing:true
                       cqe.res;
                     let data = Bytes.create cqe.res in
                     Mem.Region.blit_to_bytes z.arena.Mem.Ptr.region
                       (z.arena.Mem.Ptr.off + off)
                       data 0 cqe.res;
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
               ms.terminal <- Some cqe.res;
               Hashtbl.remove z.ms_by_ud cqe.user_data;
               retire t cqe.user_data
             end);
            true

(* Drain everything iCompl holds in one certified burst: a single
   producer-index validation covers all CQEs, and the consumer index is
   released once.  Returns [(reaped, strays)]. *)
let reap_burst t =
  let reaped = ref 0 and strays = ref 0 in
  ignore
    (Rings.Certified.consume_batch t.cq ~max:(Rings.Certified.size t.cq)
       ~read:(fun ~slot_off _ ->
         let cqe =
           Abi.Uring_abi.read_cqe (Rings.Certified.region t.cq) slot_off
         in
         if zc_cqe t cqe then incr reaped
         else
           match Hashtbl.find_opt t.pending cqe.user_data with
           | Some p ->
               retire t cqe.user_data;
               settle t p cqe;
               ignore (zc_mark_completed t cqe);
               incr reaped
           | None ->
               if zc_mark_completed t cqe then incr reaped
               else begin
                 (* No such request: a forged or replayed completion. *)
                 Obs.Metrics.incr t.cqe_rejects;
                 Obs.Metrics.incr t.cqe_strays;
                 incr strays
               end));
  Obs.Metrics.add t.cqes_reaped !reaped;
  (!reaped, !strays)

(* Produce a burst of SQEs with one consumer-index validation, one
   producer-index publish and one kick.  Fills [pendings] with the
   in-flight records of the SQEs actually produced (a prefix when the
   host freezes/corrupts the consumer index and the ring looks full). *)
let submit_burst t (sqes : (Abi.Uring_abi.sqe * int) array) =
  let pendings = Array.make (Array.length sqes) None in
  let produced =
    Rings.Certified.produce_batch t.sq ~count:(Array.length sqes)
      ~write:(fun ~slot_off i ->
        let sqe, expected_max = sqes.(i) in
        let user_data = t.next_user_data in
        t.next_user_data <- Int64.add t.next_user_data 1L;
        Abi.Uring_abi.write_sqe (Rings.Certified.region t.sq) slot_off
          { sqe with user_data };
        let p = { user_data; expected_max; outcome = None } in
        Hashtbl.add t.pending user_data p;
        t.live <- t.live + 1;
        pendings.(i) <- Some p)
  in
  if produced > 0 then begin
    Obs.Metrics.add t.sqes_submitted produced;
    t.kick ()
  end;
  (* Overload feed: iSub looking full across consecutive bursts (even
     after certification) is an SQ-full streak — a breaker-worthy
     overload signal, unlike one-off Malice index noise. *)
  if Array.length sqes > 0 then
    if produced < Array.length sqes then begin
      t.sq_full_streak <- t.sq_full_streak + 1;
      if t.sq_full_streak >= 3 then begin
        t.sq_full_streak <- 0;
        match t.breaker with None -> () | Some b -> Health.record_failure b
      end
    end
    else t.sq_full_streak <- 0;
  pendings

let submit t (sqe : Abi.Uring_abi.sqe) ~expected_max =
  match (submit_burst t [| (sqe, expected_max) |]).(0) with
  | Some p -> Ok p
  | None ->
      (* Plausible only when the host freezes/corrupts the consumer
         index: the per-thread FM never has this many ops in flight. *)
      Error Abi.Errno.EAGAIN

(* Sleep until a completion is signalled — or a poll period elapses, in
   which case nudge the kernel again ([io_uring_enter] is cheap and
   non-blocking).  The nudge matters under attack: a smashed iCompl
   producer index freezes the certified view (the hostile value keeps
   being rejected) until the kernel next touches the ring and rewrites
   the shared word from its private cursor; without the retry a
   synchronous waiter would hang forever on a completion that is
   already sitting in the ring. *)
let wait_or_renudge t =
  let engine = Sgx.Enclave.engine t.enclave in
  Sim.Engine.at engine
    (Int64.add (Sim.Engine.now engine) Sgx.Params.mm_poll_period)
    (fun () -> Sim.Condition.broadcast t.cq_notify);
  Sim.Condition.wait t.cq_notify;
  (* Whatever woke us — completion broadcast or poll-period timer — the
     view may still be frozen by a smashed index, so always re-enter. *)
  t.kick ()

let rec await ?deadline t (p : pending) =
  match p.outcome with
  | Some r -> r
  | None -> (
      let reaped, strays = reap_burst t in
      match p.outcome with
      | Some r -> r
      | None when strays > 0 ->
          (* The completion slot for this synchronous request carried a
             forged identity: fail the request with EPERM (Table 2) and
             forget it — a late genuine CQE will be counted as stray. *)
          retire t p.user_data;
          Error Abi.Errno.EPERM
      | None when reaped > 0 -> await ?deadline t p
      | None -> (
          match deadline with
          | Some d when Sim.Engine.now (Sgx.Enclave.engine t.enclave) >= d ->
              (* Abandon a completion that never came (e.g. every wakeup
                 swallowed, so the SQE never entered the kernel).
                 Without this deadline a synchronous op under a
                 persistent wakeup drop livelocks forever and the
                 retry/ETIMEDOUT machinery never engages.  Retiring the
                 record here is what keeps [accounting_holds] balanced
                 across retry exhaustion; EAGAIN is transient, so the
                 caller's retry loop takes over. *)
              retire t p.user_data;
              Error Abi.Errno.EAGAIN
          | _ ->
              wait_or_renudge t;
              await ?deadline t p))

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

let submit_wait_once t sqe ~expected_max =
  match submit t sqe ~expected_max with
  | Error e -> Error e
  | Ok p ->
      let engine = Sgx.Enclave.engine t.enclave in
      let start = Sim.Engine.now engine in
      let deadline =
        if prompt_class sqe.Abi.Uring_abi.opcode then
          Some (Int64.add start t.sync_op_timeout)
        else None
      in
      (* The synchronous caller hands off to the kernel worker and pays
         the handoff latency (paper §6.2). *)
      Sgx.Enclave.charge t.enclave Sgx.Params.iouring_sync_wait_cycles;
      let r = await ?deadline t p in
      Obs.Metrics.observe t.sync_wait_cycles
        (Int64.to_int (Int64.sub (Sim.Engine.now engine) start));
      (match t.trace with
      | None -> ()
      | Some tr ->
          Obs.Trace.span tr ~cat:"syncproxy" ~arg:sqe.Abi.Uring_abi.fd
            (op_name sqe.Abi.Uring_abi.opcode) ~start);
      r

(* Transient host failures (bounced submissions, EAGAIN/EINTR-class
   CQEs) are retried with bounded exponential backoff; the kick before
   each retry matters when the failure was a full-looking iSub — only
   kernel re-entry rewrites a smashed consumer word.  Exhaustion
   surfaces as ETIMEDOUT, the terminal recovery verdict: the op is
   known never to have executed (every attempt bounced), so callers may
   treat it like any refused request. *)
let submit_wait t sqe ~expected_max =
  (* Probe mode (Health half-open): one attempt, no retry budget — a
     probe exists to answer "did the FIOKP heal?" cheaply, not to win. *)
  let limit = if t.probe_mode then 0 else t.retry_limit in
  let rec attempt n =
    match submit_wait_once t sqe ~expected_max with
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
          attempt (n + 1)
        end
    | r ->
        if n > 0 then begin
          (match r with
          | Ok _ -> Obs.Metrics.incr t.retry_success
          | Error _ -> ());
          Sim.Backoff.reset t.backoff
        end;
        r
  in
  attempt 0

let base_sqe opcode ~fd =
  {
    Abi.Uring_abi.opcode;
    fd;
    file_off = 0L;
    addr = 0;
    len = 0;
    poll_events = 0;
    user_data = 0L;
    buf_index = 0;
    fixed = false;
  }

(* Chunked data transfer through the bounce buffer. *)
let chunked t ~make_sqe ~stage ~unstage ~pos ~len =
  let rec go done_ =
    if done_ >= len then Ok done_
    else begin
      let chunk = min t.bounce_size (len - done_) in
      stage ~pos:(pos + done_) ~chunk;
      match submit_wait t (make_sqe ~done_ ~chunk) ~expected_max:chunk with
      | Error e -> if done_ > 0 then Ok done_ else Error e
      | Ok n ->
          unstage ~pos:(pos + done_) ~n;
          (* A short completion (the kernel honoured a prefix — e.g. an
             injected Short_io) is resubmitted for the remainder; only
             a zero count (EOF / peer gone) ends the transfer early. *)
          if n = 0 then Ok done_ else go (done_ + n)
    end
  in
  go 0

let stage_out t buf ~pos ~chunk =
  Sgx.Enclave.charge_copy t.enclave ~crossing:true chunk;
  Mem.Region.blit_from_bytes buf pos t.bounce.Mem.Ptr.region
    t.bounce.Mem.Ptr.off chunk

let unstage_in t buf ~pos ~n =
  if n > 0 then begin
    Sgx.Enclave.charge_copy t.enclave ~crossing:true n;
    Mem.Region.blit_to_bytes t.bounce.Mem.Ptr.region t.bounce.Mem.Ptr.off buf
      pos n
  end

let no_stage ~pos:_ ~chunk:_ = ()

let no_unstage ~pos:_ ~n:_ = ()

(* Admission control: refuse new synchronous work once [max_pending]
   ops are in flight — a bounded queue with EAGAIN backpressure to the
   app, never a silent drop of accepted work. *)
let admit t =
  if Hashtbl.length t.pending >= t.max_pending then begin
    Obs.Metrics.incr t.sheds;
    (match t.breaker with None -> () | Some b -> Health.record_shed b);
    Error Abi.Errno.EAGAIN
  end
  else Ok ()

let read_copy t ~fd ~off ~buf ~pos ~len =
  chunked t
    ~make_sqe:(fun ~done_ ~chunk ->
      {
        (base_sqe Abi.Uring_abi.Read ~fd) with
        file_off = Int64.of_int (off + done_);
        addr = t.bounce.Mem.Ptr.off;
        len = chunk;
      })
    ~stage:no_stage
    ~unstage:(unstage_in t buf)
    ~pos ~len

let write_copy t ~fd ~off ~buf ~pos ~len =
  chunked t
    ~make_sqe:(fun ~done_ ~chunk ->
      {
        (base_sqe Abi.Uring_abi.Write ~fd) with
        file_off = Int64.of_int (off + done_);
        addr = t.bounce.Mem.Ptr.off;
        len = chunk;
      })
    ~stage:(stage_out t buf) ~unstage:no_unstage ~pos ~len

let send_copy t ~fd ~buf ~pos ~len =
  chunked t
    ~make_sqe:(fun ~done_:_ ~chunk ->
      {
        (base_sqe Abi.Uring_abi.Send ~fd) with
        addr = t.bounce.Mem.Ptr.off;
        len = chunk;
      })
    ~stage:(stage_out t buf) ~unstage:no_unstage ~pos ~len

let recv_copy t ~fd ~buf ~pos ~len =
  (* A recv returns as soon as any bytes are available: do not chunk. *)
  let chunk = min len t.bounce_size in
  match
    submit_wait t
      {
        (base_sqe Abi.Uring_abi.Recv ~fd) with
        addr = t.bounce.Mem.Ptr.off;
        len = chunk;
      }
      ~expected_max:chunk
  with
  | Error e -> Error e
  | Ok n ->
      unstage_in t buf ~pos ~n;
      Ok n

(* {2 Zero-copy send (SEND_ZC)} *)

(* Submit one SEND_ZC and wait for its {e completion} CQE only.  The
   frame at [zoff] is already Registered; this pairs it with a
   notif-pending entry keyed by the assigned user_data.  No retry loop:
   a transient failure surfaces to the caller, which falls back to the
   copy path (re-registering a frame across retries would race the
   kernel's view of the first attempt). *)
let zc_submit_wait t z sqe ~expected_max ~zoff =
  match submit t sqe ~expected_max with
  | Error e ->
      (* Never entered the ring, so no notif will ever name this frame:
         the one case where the FM itself may unwind Registered. *)
      ignore (Umem.release z.pool ~offset:zoff);
      Error e
  | Ok p ->
      Hashtbl.replace z.notif_pending p.user_data
        { zoff; completed = false };
      let engine = Sgx.Enclave.engine t.enclave in
      let start = Sim.Engine.now engine in
      Sgx.Enclave.charge t.enclave Sgx.Params.iouring_sync_wait_cycles;
      let r = await ~deadline:(Int64.add start t.sync_op_timeout) t p in
      Obs.Metrics.observe t.sync_wait_cycles
        (Int64.to_int (Int64.sub (Sim.Engine.now engine) start));
      (match t.trace with
      | None -> ()
      | Some tr ->
          Obs.Trace.span tr ~cat:"syncproxy" ~arg:sqe.Abi.Uring_abi.fd
            (op_name sqe.Abi.Uring_abi.opcode) ~start);
      (* On failure or abandonment nothing is unwound: the SQE may
         still execute in the kernel, so the frame must stay Registered,
         recoverable only through a late notif ([zc_mark_completed]
         keeps that path alive).  Freeing it here would be exactly the
         use-after-reuse-before-notif violation. *)
      r

let zc_send t z ~fd ~buf ~pos ~len =
  let rec go done_ =
    if done_ >= len then Ok done_
    else
      match Umem.alloc z.pool with
      | None ->
          (* Pool drained mid-transfer (withheld notifs): surface the
             prefix; the next call degrades to the copy path. *)
          if done_ > 0 then Ok done_
          else begin
            Obs.Metrics.incr z.zc_fallbacks;
            send_copy t ~fd ~buf ~pos ~len
          end
      | Some zoff -> (
          let chunk = min z.zframe (len - done_) in
          Sgx.Enclave.charge_copy t.enclave ~crossing:true chunk;
          Mem.Region.blit_from_bytes buf (pos + done_) z.arena.Mem.Ptr.region
            (z.arena.Mem.Ptr.off + zoff)
            chunk;
          Umem.register z.pool zoff;
          Obs.Metrics.incr z.zc_sends;
          let sqe =
            {
              (base_sqe Abi.Uring_abi.Send_zc ~fd) with
              addr = z.arena.Mem.Ptr.off + zoff;
              len = chunk;
              fixed = true;
              buf_index = zoff / z.zframe;
            }
          in
          match zc_submit_wait t z sqe ~expected_max:chunk ~zoff with
          | Ok 0 -> Ok done_
          | Ok n -> go (done_ + n)
          | Error _ when done_ > 0 -> Ok done_
          | Error e when Abi.Errno.is_transient e ->
              (* First chunk bounced: let the copy path (with its retry
                 budget) carry the whole transfer. *)
              Obs.Metrics.incr z.zc_fallbacks;
              send_copy t ~fd ~buf ~pos ~len
          | Error e -> Error e)
  in
  go 0

(* {2 Fixed-buffer file IO} *)

(* Stage through a pool frame named by its registration index: the
   kernel reads/writes the pinned frame directly, skipping its bounce
   copy ([Sgx.Params.iouring_copy_cycles_per_byte]).  Single-CQE ops —
   the frame stays in Allocated limbo for the op's duration and returns
   to the pool on completion, no Registered state involved. *)
let zc_file t z ~opcode ~fd ~off ~buf ~pos ~len ~read_back =
  let rec go done_ =
    if done_ >= len then Ok done_
    else
      match Umem.alloc z.pool with
      | None -> if done_ > 0 then Ok done_ else Error Abi.Errno.EAGAIN
      | Some zoff -> (
          let chunk = min z.zframe (len - done_) in
          if not read_back then begin
            Sgx.Enclave.charge_copy t.enclave ~crossing:true chunk;
            Mem.Region.blit_from_bytes buf (pos + done_)
              z.arena.Mem.Ptr.region
              (z.arena.Mem.Ptr.off + zoff)
              chunk
          end;
          let sqe =
            {
              (base_sqe opcode ~fd) with
              file_off = Int64.of_int (off + done_);
              addr = z.arena.Mem.Ptr.off + zoff;
              len = chunk;
              fixed = true;
              buf_index = zoff / z.zframe;
            }
          in
          match submit_wait t sqe ~expected_max:chunk with
          | Ok n ->
              if read_back && n > 0 then begin
                Sgx.Enclave.charge_copy t.enclave ~crossing:true n;
                Mem.Region.blit_to_bytes z.arena.Mem.Ptr.region
                  (z.arena.Mem.Ptr.off + zoff)
                  buf (pos + done_) n
              end;
              Umem.cancel z.pool zoff;
              if n = 0 then Ok done_ else go (done_ + n)
          | Error e ->
              Umem.cancel z.pool zoff;
              if done_ > 0 then Ok done_ else Error e)
  in
  go 0

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
    match
      submit t
        { (base_sqe Abi.Uring_abi.Recv_multi ~fd) with len = z.zframe }
        ~expected_max:z.zframe
    with
    | Error _ ->
        (* Could not arm; the provided frames stay in the shared ring
           and serve a later arming on any fd. *)
        false
    | Ok p ->
        let ms =
          { ms_p = p; outcomes = Queue.create (); terminal = None;
            leftover = None }
        in
        Hashtbl.replace z.ms_by_fd fd ms;
        Hashtbl.replace z.ms_by_ud p.user_data ms;
        true

let rec ms_recv t z ~fd ~buf ~pos ~len =
  match Hashtbl.find_opt z.ms_by_fd fd with
  | None ->
      if ms_arm t z ~fd then ms_recv t z ~fd ~buf ~pos ~len
      else begin
        Obs.Metrics.incr z.zc_fallbacks;
        recv_copy t ~fd ~buf ~pos ~len
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
                Hashtbl.remove z.ms_by_fd fd;
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
                let reaped, _ = reap_burst t in
                if
                  Queue.is_empty ms.outcomes
                  && ms.terminal = None && reaped = 0
                then wait_or_renudge t;
                ms_recv t z ~fd ~buf ~pos ~len))

(* {2 Dispatch: copy path vs zero-copy path} *)

let read t ~fd ~off ~buf ~pos ~len =
  let* () = admit t in
  match t.zc with
  | Some z when len > 0 && Umem.free_frames z.pool > 0 ->
      zc_file t z ~opcode:Abi.Uring_abi.Read ~fd ~off ~buf ~pos ~len
        ~read_back:true
  | Some z when len > 0 ->
      Obs.Metrics.incr z.zc_fallbacks;
      read_copy t ~fd ~off ~buf ~pos ~len
  | _ -> read_copy t ~fd ~off ~buf ~pos ~len

let write t ~fd ~off ~buf ~pos ~len =
  let* () = admit t in
  match t.zc with
  | Some z when len > 0 && Umem.free_frames z.pool > 0 ->
      zc_file t z ~opcode:Abi.Uring_abi.Write ~fd ~off ~buf ~pos ~len
        ~read_back:false
  | Some z when len > 0 ->
      Obs.Metrics.incr z.zc_fallbacks;
      write_copy t ~fd ~off ~buf ~pos ~len
  | _ -> write_copy t ~fd ~off ~buf ~pos ~len

let send t ~fd ~buf ~pos ~len =
  let* () = admit t in
  match t.zc with
  | Some z when len > 0 && Umem.free_frames z.pool > 0 ->
      zc_send t z ~fd ~buf ~pos ~len
  | Some z when len > 0 ->
      (* Registered frames all awaiting notifs (a withholding host):
         capacity is lost, correctness is not — degrade to the copy
         path. *)
      Obs.Metrics.incr z.zc_fallbacks;
      send_copy t ~fd ~buf ~pos ~len
  | _ -> send_copy t ~fd ~buf ~pos ~len

let recv t ~fd ~buf ~pos ~len =
  let* () = admit t in
  match t.zc with
  | Some z when len > 0 -> ms_recv t z ~fd ~buf ~pos ~len
  | _ -> recv_copy t ~fd ~buf ~pos ~len

let poll t ~fd ~events =
  let* () = admit t in
  submit_wait t
    { (base_sqe Abi.Uring_abi.Poll_add ~fd) with poll_events = events }
    ~expected_max:(Abi.Uring_abi.pollin lor Abi.Uring_abi.pollout)

let nop t =
  let* () = admit t in
  submit_wait t (base_sqe Abi.Uring_abi.Nop ~fd:(-1)) ~expected_max:0

let forget_fd t ~fd =
  (match t.zc with
  | None -> ()
  | Some z -> (
      match Hashtbl.find_opt z.ms_by_fd fd with
      | None -> ()
      | Some ms ->
          (* Closing an fd with a live multishot: retire its in-flight
             record.  Frames already promised through the provided ring
             stay [With_kernel Rx] — the shared ring still names them
             and any later stream on any fd may legitimately fill
             them. *)
          Hashtbl.remove z.ms_by_fd fd;
          Hashtbl.remove z.ms_by_ud ms.ms_p.user_data;
          retire t ms.ms_p.user_data));
  match Hashtbl.find_opt t.probes fd with
  | None -> ()
  | Some p ->
      (* Closing an fd with an unsettled readiness probe used to leak
         both the probe and its pending record forever. *)
      Hashtbl.remove t.probes fd;
      retire t p.user_data

(* Multi-fd poll (the API submodule's io_uring side, paper §4.2): keep
   one outstanding Poll_add per fd, reusing probes across calls, and
   return the first fd whose probe completed. *)
let poll_multi t specs ~timeout =
  (* All missing probes go out as one SQ burst: one publish, one kick. *)
  let missing =
    List.filter (fun (fd, _) -> not (Hashtbl.mem t.probes fd)) specs
  in
  if missing <> [] then begin
    let sqes =
      Array.of_list
        (List.map
           (fun (fd, events) ->
             ( { (base_sqe Abi.Uring_abi.Poll_add ~fd) with
                 poll_events = events
               },
               Abi.Uring_abi.pollin lor Abi.Uring_abi.pollout ))
           missing)
    in
    let pendings = submit_burst t sqes in
    List.iteri
      (fun i (fd, _) ->
        match pendings.(i) with
        | Some p -> Hashtbl.add t.probes fd p
        | None -> ())
      missing
  end;
  let timer_fired = ref false in
  (match timeout with
  | None -> ()
  | Some d ->
      let engine = Sgx.Enclave.engine t.enclave in
      Sim.Engine.at engine
        (Int64.add (Sim.Engine.now engine) d)
        (fun () ->
          timer_fired := true;
          Sim.Condition.broadcast t.cq_notify));
  let completed () =
    List.find_map
      (fun (fd, _) ->
        match Hashtbl.find_opt t.probes fd with
        | Some p -> (
            match p.outcome with
            | Some outcome -> Some (fd, outcome)
            | None -> None)
        | None -> None)
      specs
  in
  let rec wait () =
    match completed () with
    | Some (fd, outcome) -> (
        Hashtbl.remove t.probes fd;
        match outcome with
        | Ok mask -> Ok (Some (fd, mask))
        | Error e -> Error e)
    | None ->
        if !timer_fired then Ok None
        else begin
          let reaped, strays = reap_burst t in
          if reaped + strays = 0 then Sim.Condition.wait t.cq_notify;
          wait ()
        end
  in
  wait ()
