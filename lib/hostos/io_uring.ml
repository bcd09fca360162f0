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
  exec :
    opcode:Abi.Uring_abi.opcode ->
    fd:int ->
    file_off:int ->
    addr:int ->
    len:int ->
    poll_events:int ->
    fixed:bool ->
    exec_result;
  malice : Malice.t option ref;
  faults : Faults.t option ref;
  wake : Sim.Condition.t;
  cq_notify : Sim.Condition.t;
  mutable last_user_data : int;
  (* The CQE [tamper_cqe] settled on, read back by [post_cqe]. *)
  mutable post_user_data : int;
  mutable post_res : int;
  (* Datapath shard of the thread this ring belongs to, for shard-pinned
     fault/malice armings.  None until the runtime tags it. *)
  mutable shard : int option;
  (* IORING_REGISTER_BUFFERS state: validated at registration time,
     consulted per fixed SQE. *)
  mutable reg_bufs : Mem.Regtable.t option;
  (* Provided-buffer ring for multishot recv: ids the submitter has
     handed the kernel to fill.  Stands for the shared buf_ring pages —
     the FM re-provides without a syscall. *)
  buf_ring : int Queue.t;
}

let next_id = ref 0

let uring_id t = t.id

let set_shard t shard = t.shard <- Some shard

let shard t = t.shard

let sq_layout t = t.sq

let cq_layout t = t.cq

let register_buffers t entries =
  match Mem.Regtable.create t.region entries with
  | Ok tbl ->
      t.reg_bufs <- Some tbl;
      Ok ()
  | Error e -> Error e

let reg_bufs t = t.reg_bufs

let provide_buffer t id = Queue.push id t.buf_ring

let take_buffer t = Queue.take_opt t.buf_ring

(* A fixed SQE must name a registered buffer that covers its whole
   [addr..addr+len) range; anything else is the unregistered-pointer
   case the real kernel refuses with EFAULT at submission time. *)
let fixed_ok t ~fixed ~buf_index ~addr ~len =
  if not fixed then true
  else
    match t.reg_bufs with
    | None -> false
    | Some tbl -> Mem.Regtable.covers tbl buf_index ~addr ~len

(* CQE tampering covers both the Table 2 "return code" checks and the
   identity checks the FM performs against its pending table: a forged
   user_data (wrong, replayed, never-issued or off-by-one) must surface
   as a stray, an inflated res as an out-of-range count. *)
let tamper_cqe t ~user_data ~res =
  t.post_user_data <- user_data;
  t.post_res <- res;
  match !(t.malice) with
  | None -> ()
  | Some m ->
      if Malice.roll ?shard:t.shard !(t.malice) Cqe_wrong_user_data then begin
        Malice.record m Cqe_wrong_user_data;
        t.post_user_data <- user_data + 0xDEAD
      end
      else if Malice.roll ?shard:t.shard !(t.malice) Cqe_bogus_res then begin
        Malice.record m Cqe_bogus_res;
        (* A wildly out-of-range "bytes transferred" count. *)
        t.post_res <- 0x7FFFFFF0
      end
      else if res >= 0 && Malice.roll ?shard:t.shard !(t.malice) Oversize_len then begin
        Malice.record m Oversize_len;
        (* Claim far more bytes than any request could have asked for. *)
        t.post_res <- res + 0x200000
      end
      else if Malice.roll ?shard:t.shard !(t.malice) Foreign_frame then begin
        Malice.record m Foreign_frame;
        (* Replay the identity of a completion the FM already settled —
           the io_uring analogue of recycling a frame it does not own. *)
        t.post_user_data <- t.last_user_data
      end
      else if Malice.roll ?shard:t.shard !(t.malice) Bad_umem_offset then begin
        Malice.record m Bad_umem_offset;
        (* An identity that was never issued at all. *)
        t.post_user_data <- -1
      end
      else if Malice.roll ?shard:t.shard !(t.malice) Misaligned_offset then begin
        Malice.record m Misaligned_offset;
        (* Off-by-one identity: the FM's next, not-yet-issued tag. *)
        t.post_user_data <- user_data + 1
      end

let tamper_cq_prod t =
  match !(t.malice) with
  | None -> ()
  | Some m ->
      if Malice.roll ?shard:t.shard !(t.malice) Prod_overshoot then begin
        Malice.record m Prod_overshoot;
        Rings.Layout.write_prod t.cq
          (Rings.U32.add (Rings.Layout.read_prod t.cq) (t.cq.Rings.Layout.size + 9))
      end;
      if Malice.roll ?shard:t.shard !(t.malice) Prod_regress then begin
        Malice.record m Prod_regress;
        Rings.Layout.write_prod t.cq
          (Rings.U32.sub (Rings.Layout.read_prod t.cq) 2)
      end

let tamper_sq_cons t =
  match !(t.malice) with
  | None -> ()
  | Some m ->
      if Malice.roll ?shard:t.shard !(t.malice) Cons_overshoot then begin
        Malice.record m Cons_overshoot;
        Rings.Layout.write_cons t.sq
          (Rings.U32.add (Rings.Layout.read_prod t.sq) (t.sq.Rings.Layout.size + 5))
      end;
      if Malice.roll ?shard:t.shard !(t.malice) Cons_regress then begin
        Malice.record m Cons_regress;
        Rings.Layout.write_cons t.sq
          (Rings.U32.sub (Rings.Layout.read_cons t.sq) 3)
      end

(* Corrupt_packet on the io_uring path: flip bytes of the data a Read /
   Recv just landed in the (untrusted) bounce buffer.  Table 2 leaves
   data values unchecked (TLS territory) — RAKIS must survive, not
   detect. *)
let maybe_corrupt_buffer t ~(opcode : Abi.Uring_abi.opcode) ~addr res =
  match (opcode, !(t.malice)) with
  | (Abi.Uring_abi.Read | Abi.Uring_abi.Recv), Some m
    when res > 0 && Malice.roll ?shard:t.shard !(t.malice) Corrupt_packet ->
      Malice.record m Corrupt_packet;
      let n = 1 + Sim.Rng.int (Malice.rng m) 4 in
      for _ = 1 to n do
        let i = addr + Sim.Rng.int (Malice.rng m) res in
        Mem.Region.set_u8 t.region i (Char.code (Sim.Rng.byte (Malice.rng m)))
      done
  | _ -> ()

let post_cqe t ~user_data ~res ~flags =
  tamper_cqe t ~user_data ~res;
  let slot_off = Kring.produce_slot t.kcq in
  if slot_off >= 0 then begin
    Abi.Uring_abi.set_cqe t.cq.Rings.Layout.region slot_off
      ~user_data:t.post_user_data ~res:t.post_res ~flags;
    Kring.advance t.kcq;
    t.last_user_data <- user_data
  end;
  tamper_cq_prod t;
  Sim.Condition.broadcast t.cq_notify

(* Short_io: the kernel honours only a prefix of a transfer-style SQE
   and reports the truncated count honestly — legal POSIX behaviour the
   FM must absorb by resubmitting the tail. *)
let faulty_len t ~(opcode : Abi.Uring_abi.opcode) ~len =
  match !(t.faults) with
  | Some f
    when (match opcode with
         | Read | Write | Send -> len > 1
         | _ -> false)
         && Faults.roll ?shard:t.shard !(t.faults) Faults.Short_io ->
      Faults.record f Faults.Short_io;
      1 + Sim.Rng.int (Faults.rng f) (len - 1)
  | _ -> len

(* Two-phase SEND_ZC completion (SNIPPETS.md Snippet 1): the completion
   CQE (F_MORE) reports the byte count as soon as the kernel has queued
   the pinned frags; the notif CQE (F_NOTIF) follows once the NIC has
   drained them — only the notif returns buffer ownership.  A malicious
   host owns the ordering: it may forge a notif before the completion,
   withhold it forever, or post it twice.  The honest delay models
   softirq + ubuf_info release after wire serialization. *)
let zero_copy t ~user_data ~res ~notif_delay =
  let notif () = post_cqe t ~user_data ~res:0 ~flags:Abi.Uring_abi.cqe_f_notif in
  (match !(t.malice) with
  | Some m when Malice.roll ?shard:t.shard !(t.malice) Malice.Forged_early_notif ->
      (* Notif forged *before* the completion: the frame is still on the
         NIC, so an FM that trusts it reuses live memory.  The honest
         pair still follows, so a correct FM loses nothing. *)
      Malice.record m Malice.Forged_early_notif;
      notif ()
  | _ -> ());
  post_cqe t ~user_data ~res ~flags:Abi.Uring_abi.cqe_f_more;
  match !(t.malice) with
  | Some m when Malice.roll ?shard:t.shard !(t.malice) Malice.Dropped_notif ->
      (* Withheld notif: the frame never comes back.  Costs the FM pool
         capacity (it degrades to the copy path), never correctness. *)
      Malice.record m Malice.Dropped_notif
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
          notif ();
          if dup then notif ())

(* Multishot: one SQE, a stream of CQEs.  Every hit carries F_MORE (plus
   the provided-buffer id); the terminating CQE — EOF, error, or no free
   provided buffer — drops F_MORE, telling the FM the SQE is dead and
   must be re-armed. *)
let multishot t ~user_data f =
  Sim.Engine.spawn t.engine
    ~name:(Printf.sprintf "uring%d-multishot" t.id)
    (fun () ->
      let rec loop () =
        let res, buf_id = f () in
        if res > 0 then begin
          post_cqe t ~user_data ~res
            ~flags:
              (Abi.Uring_abi.cqe_f_more lor Abi.Uring_abi.cqe_f_buffer
              lor (buf_id lsl Abi.Uring_abi.cqe_buffer_shift));
          loop ()
        end
        else post_cqe t ~user_data ~res ~flags:0
      in
      loop ())

let worker t () =
  let sq = t.sq.Rings.Layout.region in
  let rec drain () =
    let slot_off = Kring.consume_slot t.ksq in
    if slot_off < 0 then tamper_sq_cons t
    else
      match Abi.Uring_abi.sqe_opcode sq slot_off with
      | None ->
          Kring.advance t.ksq;
          (* Unparseable SQE: the real kernel posts -EINVAL with whatever
             user_data it could read; we read none, so 0. *)
          Sim.Engine.delay Sgx.Params.iouring_kernel_per_op;
          post_cqe t ~user_data:0
            ~res:(Abi.Uring_abi.res_of_errno Abi.Errno.EINVAL)
            ~flags:0;
          next ()
      | Some opcode ->
          (* Every field is read before the slot is released: the
             submitter may reuse it once the worker suspends. *)
          let fd = Abi.Uring_abi.sqe_fd sq slot_off
          and file_off = Abi.Uring_abi.sqe_file_off sq slot_off
          and addr = Abi.Uring_abi.sqe_addr sq slot_off
          and len = Abi.Uring_abi.sqe_len sq slot_off
          and poll_events = Abi.Uring_abi.sqe_poll_events sq slot_off
          and user_data = Abi.Uring_abi.sqe_user_data sq slot_off
          and buf_index = Abi.Uring_abi.sqe_buf_index sq slot_off
          and fixed = Abi.Uring_abi.sqe_fixed sq slot_off in
          Kring.advance t.ksq;
          exec_one ~opcode ~fd ~file_off ~addr ~len ~poll_events ~user_data
            ~buf_index ~fixed;
          next ()
  and exec_one ~opcode ~fd ~file_off ~addr ~len ~poll_events ~user_data
      ~buf_index ~fixed =
    Sim.Engine.delay Sgx.Params.iouring_kernel_per_op;
    match !(t.faults) with
    | Some f when Faults.roll ?shard:t.shard !(t.faults) Faults.Transient_errno ->
        (* The op never ran; bounce it with a retryable errno. *)
        Faults.record f Faults.Transient_errno;
        post_cqe t ~user_data
          ~res:(Abi.Uring_abi.res_of_errno (Faults.pick_errno f))
          ~flags:0
    | _ when not (fixed_ok t ~fixed ~buf_index ~addr ~len) ->
        (* Fixed SQE outside its registered buffer (or no table):
           refused at submission like an unregistered pointer. *)
        post_cqe t ~user_data
          ~res:(Abi.Uring_abi.res_of_errno Abi.Errno.EFAULT)
          ~flags:0
    | _ -> (
        let len = faulty_len t ~opcode ~len in
        match t.exec ~opcode ~fd ~file_off ~addr ~len ~poll_events ~fixed with
        | Done res ->
            maybe_corrupt_buffer t ~opcode ~addr res;
            post_cqe t ~user_data ~res ~flags:0
        | Done_zc { res; notif_delay } ->
            zero_copy t ~user_data ~res ~notif_delay
        | Multishot f -> multishot t ~user_data f
        | Blocking f ->
            (* Ops that may wait (recv, poll) run in their own kernel
               context so the ring worker keeps draining — matching
               io_uring's async poll/recv machinery. *)
            Sim.Engine.spawn t.engine
              ~name:(Printf.sprintf "uring%d-op" t.id)
              (fun () ->
                let res = f () in
                maybe_corrupt_buffer t ~opcode ~addr res;
                post_cqe t ~user_data ~res ~flags:0))
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
      last_user_data = 0;
      post_user_data = 0;
      post_res = 0;
      shard = None;
      reg_bufs = None;
      buf_ring = Queue.create ();
    }
  in
  Sim.Engine.spawn engine ~name:(Printf.sprintf "uring%d-worker" t.id) (worker t);
  t

let enter t = Sim.Condition.signal t.wake

let cq_notify t = t.cq_notify
