type exec_result =
  | Done of int
  | Blocking of (unit -> int)
  | Done_zc of { res : int; notif_delay : int64 }
  | Multishot of (unit -> int * int)

type t = {
  id : int;
  engine : Sim.Engine.t;
  sq : Rings.Layout.t;
  cq : Rings.Layout.t;
  ksq : Kring.t;
  kcq : Kring.t;
  region : Mem.Region.t;
  exec : Abi.Uring_abi.sqe -> exec_result;
  malice : Malice.t option ref;
  faults : Faults.t option ref;
  wake : Sim.Condition.t;
  cq_notify : Sim.Condition.t;
  mutable submitted : int;
  mutable completed : int;
  mutable dropped : int;
  mutable last_user_data : int64;
  (* Datapath shard of the thread this ring belongs to, for shard-pinned
     fault/malice armings.  None until the runtime tags it. *)
  mutable shard : int option;
  (* IORING_REGISTER_BUFFERS / IORING_REGISTER_FILES state: validated at
     registration time, consulted per fixed SQE. *)
  mutable reg_bufs : Mem.Regtable.t option;
  mutable reg_files : int array;
  (* Provided-buffer ring for multishot recv: ids the submitter has
     handed the kernel to fill.  Stands for the shared buf_ring pages —
     the FM re-provides without a syscall. *)
  buf_ring : int Queue.t;
  mutable notifs_posted : int;
  mutable notifs_withheld : int;
}

let next_id = ref 0

let uring_id t = t.id

let set_shard t shard = t.shard <- Some shard

let shard t = t.shard

let sq_layout t = t.sq

let cq_layout t = t.cq

let submitted t = t.submitted

let completed t = t.completed

let dropped t = t.dropped

let register_buffers t entries =
  match Mem.Regtable.create t.region entries with
  | Ok tbl ->
      t.reg_bufs <- Some tbl;
      Ok ()
  | Error e -> Error e

let reg_bufs t = t.reg_bufs

let register_files t fds = t.reg_files <- Array.of_list fds

let provide_buffer t id = Queue.push id t.buf_ring

let take_buffer t = Queue.take_opt t.buf_ring

let registered_file t idx =
  if idx >= 0 && idx < Array.length t.reg_files then Some t.reg_files.(idx)
  else None

let notifs_posted t = t.notifs_posted

let notifs_withheld t = t.notifs_withheld

(* A fixed SQE must name a registered buffer that covers its whole
   [addr..addr+len) range; anything else is the unregistered-pointer
   case the real kernel refuses with EFAULT at submission time. *)
let fixed_ok t (sqe : Abi.Uring_abi.sqe) =
  if not sqe.fixed then true
  else
    match t.reg_bufs with
    | None -> false
    | Some tbl ->
        Mem.Regtable.covers tbl sqe.buf_index ~addr:sqe.addr ~len:sqe.len

(* CQE tampering covers both the Table 2 "return code" checks and the
   identity checks the FM performs against its pending table: a forged
   user_data (wrong, replayed, never-issued or off-by-one) must surface
   as a stray, an inflated res as an out-of-range count. *)
let tamper_cqe t (cqe : Abi.Uring_abi.cqe) =
  match !(t.malice) with
  | None -> cqe
  | Some m ->
      if Malice.roll ?shard:t.shard !(t.malice) Cqe_wrong_user_data then begin
        Malice.record m Cqe_wrong_user_data;
        { cqe with user_data = Int64.add cqe.user_data 0xDEADL }
      end
      else if Malice.roll ?shard:t.shard !(t.malice) Cqe_bogus_res then begin
        Malice.record m Cqe_bogus_res;
        (* A wildly out-of-range "bytes transferred" count. *)
        { cqe with res = 0x7FFFFFF0 }
      end
      else if cqe.res >= 0 && Malice.roll ?shard:t.shard !(t.malice) Oversize_len then begin
        Malice.record m Oversize_len;
        (* Claim far more bytes than any request could have asked for. *)
        { cqe with res = cqe.res + 0x200000 }
      end
      else if Malice.roll ?shard:t.shard !(t.malice) Foreign_frame then begin
        Malice.record m Foreign_frame;
        (* Replay the identity of a completion the FM already settled —
           the io_uring analogue of recycling a frame it does not own. *)
        { cqe with user_data = t.last_user_data }
      end
      else if Malice.roll ?shard:t.shard !(t.malice) Bad_umem_offset then begin
        Malice.record m Bad_umem_offset;
        (* An identity that was never issued at all. *)
        { cqe with user_data = -1L }
      end
      else if Malice.roll ?shard:t.shard !(t.malice) Misaligned_offset then begin
        Malice.record m Misaligned_offset;
        (* Off-by-one identity: the FM's next, not-yet-issued tag. *)
        { cqe with user_data = Int64.add cqe.user_data 1L }
      end
      else cqe

let tamper_cq_prod t =
  match !(t.malice) with
  | None -> ()
  | Some m ->
      if Malice.roll ?shard:t.shard !(t.malice) Prod_overshoot then begin
        Malice.record m Prod_overshoot;
        Malice.smash_prod t.cq
          (Rings.U32.add (Rings.Layout.read_prod t.cq) (t.cq.Rings.Layout.size + 9))
      end;
      if Malice.roll ?shard:t.shard !(t.malice) Prod_regress then begin
        Malice.record m Prod_regress;
        Malice.smash_prod t.cq (Rings.U32.sub (Rings.Layout.read_prod t.cq) 2)
      end

let tamper_sq_cons t =
  match !(t.malice) with
  | None -> ()
  | Some m ->
      if Malice.roll ?shard:t.shard !(t.malice) Cons_overshoot then begin
        Malice.record m Cons_overshoot;
        Malice.smash_cons t.sq
          (Rings.U32.add (Rings.Layout.read_prod t.sq) (t.sq.Rings.Layout.size + 5))
      end;
      if Malice.roll ?shard:t.shard !(t.malice) Cons_regress then begin
        Malice.record m Cons_regress;
        Malice.smash_cons t.sq (Rings.U32.sub (Rings.Layout.read_cons t.sq) 3)
      end

(* Corrupt_packet on the io_uring path: flip bytes of the data a Read /
   Recv just landed in the (untrusted) bounce buffer.  Table 2 leaves
   data values unchecked (TLS territory) — RAKIS must survive, not
   detect. *)
let maybe_corrupt_buffer t (sqe : Abi.Uring_abi.sqe) res =
  match (sqe.opcode, !(t.malice)) with
  | (Abi.Uring_abi.Read | Abi.Uring_abi.Recv), Some m
    when res > 0 && Malice.roll ?shard:t.shard !(t.malice) Corrupt_packet ->
      Malice.record m Corrupt_packet;
      let n = 1 + Sim.Rng.int (Malice.rng m) 4 in
      for _ = 1 to n do
        let i = sqe.addr + Sim.Rng.int (Malice.rng m) res in
        Mem.Region.set_u8 t.region i (Char.code (Sim.Rng.byte (Malice.rng m)))
      done
  | _ -> ()

let post_cqe t cqe =
  let honest_user_data = cqe.Abi.Uring_abi.user_data in
  let cqe = tamper_cqe t cqe in
  let slot_off = Kring.produce_slot t.kcq in
  if slot_off >= 0 then begin
    Abi.Uring_abi.write_cqe t.cq.Rings.Layout.region slot_off cqe;
    Kring.advance t.kcq;
    t.completed <- t.completed + 1;
    t.last_user_data <- honest_user_data
  end
  else t.dropped <- t.dropped + 1;
  tamper_cq_prod t;
  Sim.Condition.broadcast t.cq_notify

(* Short_io: the kernel honours only a prefix of a transfer-style SQE
   and reports the truncated count honestly — legal POSIX behaviour the
   FM must absorb by resubmitting the tail. *)
let faulty_sqe t (sqe : Abi.Uring_abi.sqe) =
  match !(t.faults) with
  | Some f
    when (match sqe.opcode with
         | Abi.Uring_abi.Read | Abi.Uring_abi.Write | Abi.Uring_abi.Send ->
             sqe.len > 1
         | _ -> false)
         && Faults.roll ?shard:t.shard !(t.faults) Faults.Short_io ->
      Faults.record f Faults.Short_io;
      { sqe with len = 1 + Sim.Rng.int (Faults.rng f) (sqe.len - 1) }
  | _ -> sqe

(* Two-phase SEND_ZC completion (SNIPPETS.md Snippet 1): the completion
   CQE (F_MORE) reports the byte count as soon as the kernel has queued
   the pinned frags; the notif CQE (F_NOTIF) follows once the NIC has
   drained them — only the notif returns buffer ownership.  A malicious
   host owns the ordering: it may forge a notif before the completion,
   withhold it forever, or post it twice.  The honest delay models
   softirq + ubuf_info release after wire serialization. *)
let zero_copy t (sqe : Abi.Uring_abi.sqe) ~res ~notif_delay =
  let completion =
    {
      Abi.Uring_abi.user_data = sqe.user_data;
      res;
      flags = Abi.Uring_abi.cqe_f_more;
    }
  in
  let notif =
    {
      Abi.Uring_abi.user_data = sqe.user_data;
      res = 0;
      flags = Abi.Uring_abi.cqe_f_notif;
    }
  in
  (match !(t.malice) with
  | Some m when Malice.roll ?shard:t.shard !(t.malice) Malice.Forged_early_notif ->
      (* Notif forged *before* the completion: the frame is still on the
         NIC, so an FM that trusts it reuses live memory.  The honest
         pair still follows, so a correct FM loses nothing. *)
      Malice.record m Malice.Forged_early_notif;
      post_cqe t notif
  | _ -> ());
  post_cqe t completion;
  match !(t.malice) with
  | Some m when Malice.roll ?shard:t.shard !(t.malice) Malice.Dropped_notif ->
      (* Withheld notif: the frame never comes back.  Costs the FM pool
         capacity (it degrades to the copy path), never correctness. *)
      Malice.record m Malice.Dropped_notif;
      t.notifs_withheld <- t.notifs_withheld + 1
  | malice ->
      let dup =
        match malice with
        | Some m when Malice.roll ?shard:t.shard !(t.malice) Malice.Double_notif ->
            Malice.record m Malice.Double_notif;
            true
        | _ -> false
      in
      Sim.Engine.spawn t.engine
        ~name:(Printf.sprintf "uring%d-notif" t.id)
        (fun () ->
          Sim.Engine.delay notif_delay;
          t.notifs_posted <- t.notifs_posted + 1;
          post_cqe t notif;
          if dup then post_cqe t notif)

(* Multishot: one SQE, a stream of CQEs.  Every hit carries F_MORE (plus
   the provided-buffer id); the terminating CQE — EOF, error, or no free
   provided buffer — drops F_MORE, telling the FM the SQE is dead and
   must be re-armed. *)
let multishot t (sqe : Abi.Uring_abi.sqe) f =
  Sim.Engine.spawn t.engine
    ~name:(Printf.sprintf "uring%d-multishot" t.id)
    (fun () ->
      let rec loop () =
        let res, buf_id = f () in
        if res > 0 then begin
          post_cqe t
            {
              Abi.Uring_abi.user_data = sqe.user_data;
              res;
              flags =
                Abi.Uring_abi.cqe_f_more lor Abi.Uring_abi.cqe_f_buffer
                lor (buf_id lsl Abi.Uring_abi.cqe_buffer_shift);
            };
          loop ()
        end
        else
          post_cqe t { Abi.Uring_abi.user_data = sqe.user_data; res; flags = 0 }
      in
      loop ())

let worker t () =
  let rec drain () =
    let slot_off = Kring.consume_slot t.ksq in
    if slot_off < 0 then tamper_sq_cons t
    else begin
      let sqe = Abi.Uring_abi.read_sqe t.sq.Rings.Layout.region slot_off in
      Kring.advance t.ksq;
      exec_one sqe
    end
  and exec_one = function
    | Error _ ->
        (* Unparseable SQE: the real kernel posts -EINVAL with whatever
           user_data it could read; we read none, so 0. *)
        t.submitted <- t.submitted + 1;
        Sim.Engine.delay Sgx.Params.iouring_kernel_per_op;
        post_cqe t
          {
            Abi.Uring_abi.user_data = 0L;
            res = Abi.Uring_abi.res_of_errno Abi.Errno.EINVAL;
            flags = 0;
          };
        next ()
    | Ok sqe ->
        t.submitted <- t.submitted + 1;
        Sim.Engine.delay Sgx.Params.iouring_kernel_per_op;
        (match !(t.faults) with
        | Some f when Faults.roll ?shard:t.shard !(t.faults) Faults.Transient_errno ->
            (* The op never ran; bounce it with a retryable errno. *)
            Faults.record f Faults.Transient_errno;
            post_cqe t
              {
                Abi.Uring_abi.user_data = sqe.user_data;
                res = Abi.Uring_abi.res_of_errno (Faults.pick_errno f);
                flags = 0;
              }
        | _ when not (fixed_ok t sqe) ->
            (* Fixed SQE outside its registered buffer (or no table):
               refused at submission like an unregistered pointer. *)
            post_cqe t
              {
                Abi.Uring_abi.user_data = sqe.user_data;
                res = Abi.Uring_abi.res_of_errno Abi.Errno.EFAULT;
                flags = 0;
              }
        | _ -> (
            let sqe = faulty_sqe t sqe in
            match t.exec sqe with
            | Done res ->
                maybe_corrupt_buffer t sqe res;
                post_cqe t { Abi.Uring_abi.user_data = sqe.user_data; res; flags = 0 }
            | Done_zc { res; notif_delay } -> zero_copy t sqe ~res ~notif_delay
            | Multishot f -> multishot t sqe f
            | Blocking f ->
                (* Ops that may wait (recv, poll) run in their own kernel
                   context so the ring worker keeps draining — matching
                   io_uring's async poll/recv machinery. *)
                Sim.Engine.spawn t.engine
                  ~name:(Printf.sprintf "uring%d-op" t.id)
                  (fun () ->
                    let res = f () in
                    maybe_corrupt_buffer t sqe res;
                    post_cqe t
                      { Abi.Uring_abi.user_data = sqe.user_data; res; flags = 0 })));
        next ()
  (* Partial_cqe: the worker deschedules mid-batch, leaving the iSub tail
     queued until the next io_uring_enter.  Liveness is the enclave's
     problem — its wait path must renudge, not assume one enter drains
     everything. *)
  and next () =
    match !(t.faults) with
    | Some f when Faults.roll ?shard:t.shard !(t.faults) Faults.Partial_cqe ->
        Faults.record f Faults.Partial_cqe
    | _ -> drain ()
  in
  let rec loop () =
    Sim.Condition.wait t.wake;
    (* Kernel re-entry rewrites the shared index words from its private
       cursors (see {!Kring}): smashes of kernel-owned indices are
       transient. *)
    Kring.publish_consumer t.ksq;
    Kring.publish_producer t.kcq;
    drain ();
    loop ()
  in
  loop ()

let create engine ~alloc ~entries ~exec ~malice ~faults =
  incr next_id;
  let sq =
    Rings.Layout.alloc alloc ~entry_size:Abi.Uring_abi.sqe_size ~size:entries
  in
  let cq =
    Rings.Layout.alloc alloc ~entry_size:Abi.Uring_abi.cqe_size
      ~size:(2 * entries)
  in
  let t =
    {
      id = !next_id;
      engine;
      sq;
      cq;
      ksq = Kring.consumer sq;
      kcq = Kring.producer cq;
      region = Mem.Alloc.region alloc;
      exec;
      malice;
      faults;
      wake = Sim.Condition.create ();
      cq_notify = Sim.Condition.create ();
      submitted = 0;
      completed = 0;
      dropped = 0;
      last_user_data = 0L;
      shard = None;
      reg_bufs = None;
      reg_files = [||];
      buf_ring = Queue.create ();
      notifs_posted = 0;
      notifs_withheld = 0;
    }
  in
  Sim.Engine.spawn engine ~name:(Printf.sprintf "uring%d-worker" t.id) (worker t);
  t

let enter t = Sim.Condition.signal t.wake

let cq_notify t = t.cq_notify
