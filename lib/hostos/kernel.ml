type fd = int

type file_state = { inode : Vfs.inode; mutable pos : int }

type fd_obj =
  | File of file_state
  | Udp_sock of Udp_core.sock
  | Tcp_new of { mutable addr : (Packet.Addr.Ip.t * int) option }
  | Tcp_listener of Tcp_core.listener
  | Tcp_sock of Tcp_core.endpoint
  | Xsk_fd of Xdp.xsk
  | Uring_fd of Io_uring.t

type t = {
  engine : Sim.Engine.t;
  vfs : Vfs.t;
  udp : Udp_core.t;
  tcp : Tcp_core.t;
  xdp : Xdp.t;
  nics : Nic.t array;
  fds : fd_obj Sim.Int_table.t;
  mutable next_fd : fd;
  malice_ref : Malice.t option ref;
  faults_ref : Faults.t option ref;
}

type poll_event = [ `In | `Out ]

let server_ip_v = Packet.Addr.Ip.of_repr "10.0.0.1"

let client_ip_v = Packet.Addr.Ip.of_repr "10.0.0.2"

let create engine ?(nic_queues = 4) () =
  let faults_ref = ref None in
  let nic0 =
    Nic.create engine ~id:0 ~faults:faults_ref
      ~mac:(Packet.Addr.Mac.of_repr "02:00:00:00:00:01")
      ~ip:server_ip_v ~queues:nic_queues
  in
  let nic1 =
    Nic.create engine ~id:1 ~faults:faults_ref
      ~mac:(Packet.Addr.Mac.of_repr "02:00:00:00:00:02")
      ~ip:client_ip_v ~queues:nic_queues
  in
  Nic.wire nic0 nic1;
  let nics = [| nic0; nic1 |] in
  let via_nic0 = Some nic0 and via_nic1 = Some nic1 in
  let route dst =
    (* Egress selection between the two loopback-wired interfaces: reach
       an interface's address through its peer. *)
    if Packet.Addr.Ip.equal dst server_ip_v then via_nic1
    else if Packet.Addr.Ip.equal dst client_ip_v then via_nic0
    else None
  in
  let udp = Udp_core.create engine ~route in
  let malice_ref = ref None in
  let t =
    {
      engine;
      vfs = Vfs.create ();
      udp;
      tcp = Tcp_core.create engine;
      xdp = Xdp.create engine ~malice:malice_ref;
      nics;
      fds = Sim.Int_table.create 32;
      next_fd = 3;
      malice_ref;
      faults_ref;
    }
  in
  Array.iter
    (fun nic ->
      for q = 0 to Nic.queue_count nic - 1 do
        Nic.set_rx_handler nic ~queue:q (Udp_core.stack_input t.udp nic)
      done)
    nics;
  t

let engine t = t.engine

let nic t i = t.nics.(i)

let wire_losses t =
  Array.fold_left (fun acc nic -> acc + Nic.wire_losses nic) 0 t.nics

let server_ip _t = server_ip_v

let client_ip _t = client_ip_v

let set_malice t m = t.malice_ref := m

let set_faults t f = t.faults_ref := f

let faults t = !(t.faults_ref)

let syscall _t = Sim.Engine.delay Sgx.Params.syscall_cycles

let alloc_fd t obj =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Sim.Int_table.add t.fds fd obj;
  fd

let find t fd = Sim.Int_table.find_opt t.fds fd

let close t fd =
  syscall t;
  match find t fd with
  | None -> Error Abi.Errno.EBADF
  | Some obj ->
      Sim.Int_table.remove t.fds fd;
      (match obj with
      | Udp_sock s -> Udp_core.close t.udp s
      | Tcp_sock ep -> Tcp_core.close t.tcp ep
      | Tcp_listener l -> Tcp_core.close_listener t.tcp l
      | File _ | Tcp_new _ | Xsk_fd _ | Uring_fd _ -> ());
      Ok ()

(* {1 UDP} *)

let udp_socket t =
  syscall t;
  alloc_fd t (Udp_sock (Udp_core.socket t.udp))

let bind t fd ip port =
  syscall t;
  match find t fd with
  | Some (Udp_sock s) -> Udp_core.bind t.udp s ip port
  | Some (Tcp_new st) ->
      st.addr <- Some (ip, port);
      Ok ()
  | Some _ -> Error Abi.Errno.EINVAL
  | None -> Error Abi.Errno.EBADF

(* The datagram syscalls look their fd up without an option. *)
let sendto t fd payload ~dst =
  syscall t;
  match Sim.Int_table.find t.fds fd with
  | Udp_sock s -> Udp_core.sendto t.udp s payload ~dst
  | _ -> Error Abi.Errno.EINVAL
  | exception Not_found -> Error Abi.Errno.EBADF

let recvfrom t fd ~max =
  syscall t;
  match Sim.Int_table.find t.fds fd with
  | Udp_sock s -> Udp_core.recvfrom t.udp s ~max
  | _ -> Error Abi.Errno.EINVAL
  | exception Not_found -> Error Abi.Errno.EBADF

(* {1 TCP} *)

let tcp_socket t =
  syscall t;
  alloc_fd t (Tcp_new { addr = None })

let listen t fd =
  syscall t;
  match find t fd with
  | Some (Tcp_new { addr = Some (ip, port) }) -> (
      match Tcp_core.listen t.tcp ~ip ~port with
      | Ok l ->
          Sim.Int_table.replace t.fds fd (Tcp_listener l);
          Ok ()
      | Error e -> Error e)
  | Some (Tcp_new { addr = None }) -> Error Abi.Errno.EINVAL
  | Some _ -> Error Abi.Errno.EINVAL
  | None -> Error Abi.Errno.EBADF

let accept t fd =
  syscall t;
  match find t fd with
  | Some (Tcp_listener l) -> (
      match Tcp_core.accept t.tcp l with
      | Ok ep -> Ok (alloc_fd t (Tcp_sock ep))
      | Error e -> Error e)
  | Some _ -> Error Abi.Errno.EINVAL
  | None -> Error Abi.Errno.EBADF

let connect t fd ip port =
  syscall t;
  match find t fd with
  | Some (Tcp_new _) -> (
      match Tcp_core.connect t.tcp ~ip ~port with
      | Ok ep ->
          Sim.Int_table.replace t.fds fd (Tcp_sock ep);
          Ok ()
      | Error e -> Error e)
  | Some _ -> Error Abi.Errno.EINVAL
  | None -> Error Abi.Errno.EBADF

let send t fd buf off len =
  syscall t;
  match find t fd with
  | Some (Tcp_sock ep) -> Tcp_core.send t.tcp ep buf off len
  | Some _ -> Error Abi.Errno.EINVAL
  | None -> Error Abi.Errno.EBADF

let recv t fd buf off len =
  syscall t;
  match find t fd with
  | Some (Tcp_sock ep) -> Tcp_core.recv t.tcp ep buf off len
  | Some _ -> Error Abi.Errno.EINVAL
  | None -> Error Abi.Errno.EBADF

(* {1 Files} *)

let openf t ?create ?trunc path =
  syscall t;
  match Vfs.open_file t.vfs ?create ?trunc path with
  | Ok inode -> Ok (alloc_fd t (File { inode; pos = 0 }))
  | Error e -> Error e

let with_file t fd f =
  match find t fd with
  | Some (File st) -> f st
  | Some _ -> Error Abi.Errno.EINVAL
  | None -> Error Abi.Errno.EBADF

let read t fd buf off len =
  syscall t;
  with_file t fd (fun st ->
      let n = Vfs.read t.vfs st.inode ~off:st.pos buf off len in
      st.pos <- st.pos + n;
      Ok n)

let write t fd buf off len =
  syscall t;
  with_file t fd (fun st ->
      let n = Vfs.write t.vfs st.inode ~off:st.pos buf off len in
      st.pos <- st.pos + n;
      Ok n)

let pread t fd ~off buf boff len =
  syscall t;
  with_file t fd (fun st -> Ok (Vfs.read t.vfs st.inode ~off buf boff len))

let pwrite t fd ~off buf boff len =
  syscall t;
  with_file t fd (fun st -> Ok (Vfs.write t.vfs st.inode ~off buf boff len))

let lseek t fd pos =
  syscall t;
  with_file t fd (fun st ->
      if pos < 0 then Error Abi.Errno.EINVAL
      else begin
        st.pos <- pos;
        Ok pos
      end)

let fsize t fd =
  syscall t;
  with_file t fd (fun st -> Ok (Vfs.size st.inode))

(* {1 Poll} *)

let obj_ready obj (ev : poll_event) =
  match (obj, ev) with
  | Udp_sock s, `In -> Udp_core.readable s
  | Udp_sock _, `Out -> true
  | Tcp_sock ep, `In -> Tcp_core.readable ep
  | Tcp_sock ep, `Out -> Tcp_core.writable ep
  | Tcp_listener l, `In -> Tcp_core.listener_readable l
  | Tcp_listener _, `Out -> false
  | File _, (`In | `Out) -> true
  | Tcp_new _, _ -> false
  | (Xsk_fd _ | Uring_fd _), _ -> false

let fd_ready t fd ev =
  match Sim.Int_table.find t.fds fd with
  | obj -> obj_ready obj ev
  | exception Not_found -> false

let poll_quantum = 500L

(* Queue the caller on [obj]'s activity condition (edge events); [false]
   when it has none. *)
let listen_obj = function
  | Udp_sock s ->
      Sim.Condition.listen (Udp_core.activity s);
      true
  | Tcp_sock ep ->
      Sim.Condition.listen (Tcp_core.activity ep);
      true
  | Tcp_listener l ->
      Sim.Condition.listen (Tcp_core.listener_activity l);
      true
  | File _ | Tcp_new _ | Xsk_fd _ | Uring_fd _ -> false

let fd_waiters t fd =
  match Sim.Int_table.find t.fds fd with
  | Udp_sock s -> Sim.Condition.waiters (Udp_core.activity s)
  | Tcp_sock ep -> Sim.Condition.waiters (Tcp_core.activity ep)
  | Tcp_listener l -> Sim.Condition.waiters (Tcp_core.listener_activity l)
  | File _ | Tcp_new _ | Xsk_fd _ | Uring_fd _ -> 0
  | exception Not_found -> 0

(* The readiness scan walks [specs] in place: a poll whose every
   requested event is ready returns its own [specs], one with none
   ready returns [], and only a partly ready poll builds a list.  An fd
   closed meanwhile is simply not ready. *)
let rec all_ready obj = function
  | [] -> true
  | ev :: evs -> obj_ready obj ev && all_ready obj evs

let rec any_ready obj = function
  | [] -> false
  | ev :: evs -> obj_ready obj ev || any_ready obj evs

let spec_ready t ~all (fd, evs) =
  match Sim.Int_table.find t.fds fd with
  | obj -> if all then evs <> [] && all_ready obj evs else any_ready obj evs
  | exception Not_found -> false

let rec specs_ready t ~all = function
  | [] -> all
  | spec :: rest ->
      if all then spec_ready t ~all spec && specs_ready t ~all rest
      else spec_ready t ~all spec || specs_ready t ~all rest

let ready_events t specs =
  if specs_ready t ~all:true specs then specs
  else if not (specs_ready t ~all:false specs) then []
  else
    List.filter_map
      (fun (fd, evs) ->
        match find t fd with
        | None -> None
        | Some obj -> (
            match List.filter (obj_ready obj) evs with
            | [] -> None
            | revents -> Some (fd, revents)))
      specs

(* [listen_obj] on every open fd in [specs], in order; [false] when none
   has an activity condition. *)
let rec listen_specs t = function
  | [] -> false
  | (fd, _) :: rest ->
      let here =
        match Sim.Int_table.find t.fds fd with
        | obj -> listen_obj obj
        | exception Not_found -> false
      in
      listen_specs t rest || here

let rec all_open t = function
  | [] -> true
  | (fd, _) :: rest -> Sim.Int_table.mem t.fds fd && all_open t rest

(* Block until some requested event is ready, waking on the fds'
   activity conditions (edge events) and falling back to a short delay
   when none has one (e.g. waiting for TCP writability).  A timed poll
   has armed the process's timeout, which ends a park early. *)
let rec poll_wait t specs ~timed =
  match ready_events t specs with
  | _ :: _ as r -> r
  | [] ->
      if timed && Sim.Engine.timed_out () then []
      else begin
        if not (listen_specs t specs) then Sim.Engine.delay poll_quantum
        else if timed then Sim.Engine.timed_park ()
        else Sim.Engine.park ();
        poll_wait t specs ~timed
      end

(* There is no POLLNVAL here: a poll naming an fd that is not open fails
   at once, as [select] does, rather than waiting on it. *)
let poll t specs ~timeout =
  syscall t;
  if not (all_open t specs) then Error Abi.Errno.EBADF
  else
    match timeout with
    | None -> Ok (poll_wait t specs ~timed:false)
    | Some d ->
        Sim.Engine.arm_timeout d;
        let r = poll_wait t specs ~timed:true in
        Sim.Engine.disarm_timeout ();
        Ok r

(* {1 FIOKP setup and wakeups} *)

let xsk_create ?obs ?name t ~alloc ~umem_size ~frame_size ~ring_size =
  (* The paper counts at least 14 setup syscalls for one XSK. *)
  for _ = 1 to 14 do
    syscall t
  done;
  let xsk =
    Xdp.create_xsk ?obs ?name t.xdp ~alloc ~umem_size ~frame_size ~ring_size
  in
  (alloc_fd t (Xsk_fd xsk), xsk)

let xsk_attach t ~xsk ~nic_id ~queue ~prog =
  syscall t;
  let nic = t.nics.(nic_id) in
  Xdp.attach t.xdp ~nic ~queue ~prog ~xsk
    ~stack_fallback:(Udp_core.stack_input t.udp nic)

(* Wakeups pay the syscall cost regardless; whether the kernel then acts
   on them is where faults bite — a dropped wakeup is swallowed after
   the trap, a delayed one takes effect fault_wakeup_delay later.
   [wakeup_fate] rolls which. *)
type wakeup_fate = Lands | Dropped | Delayed

let wakeup_fate ?shard t =
  match !(t.faults_ref) with
  | Some f when Faults.roll ?shard !(t.faults_ref) Faults.Drop_wakeup ->
      Faults.record f Faults.Drop_wakeup;
      Dropped
  | Some f when Faults.roll ?shard !(t.faults_ref) Faults.Delay_wakeup ->
      Faults.record f Faults.Delay_wakeup;
      Delayed
  | _ -> Lands

let wakeup_delay = Int64.to_int Sgx.Params.fault_wakeup_delay

let wakeup_lands ?shard t =
  match wakeup_fate ?shard t with
  | Lands -> true
  | Dropped -> false
  | Delayed ->
      Sim.Engine.delay_cycles wakeup_delay;
      true

let xsk_tx_wakeup t xsk =
  syscall t;
  if wakeup_lands ?shard:(Xdp.shard xsk) t then Xdp.tx_wakeup xsk

let xsk_rx_wakeup t xsk =
  syscall t;
  if wakeup_lands ?shard:(Xdp.shard xsk) t then Xdp.rx_wakeup xsk

(* Kernel-side bounce between the shared IO buffer and kernel memory on
   the classic io_uring data ops.  Fixed-buffer SQEs skip it — the whole
   point of registration is that the kernel DMAs straight from/into the
   pinned frame (docs/zerocopy.md). *)
let charge_uring_copy ~fixed n =
  if (not fixed) && n > 0 then
    Sim.Engine.delay_cycles
      (int_of_float (float_of_int n *. Sgx.Params.iouring_copy_cycles_per_byte))

(* The kernel memory an io_uring worker bounces inline ops through: one
   per ring, grown on demand, so a data op allocates no buffer.  A 4 KiB
   buffer is over [Max_young_wosize] and would go straight to the major
   heap on every op.  Only ops the worker runs to completion itself may
   use it: it holds a read's bytes across the VFS and copy charges, and
   a worker runs one inline op at a time.  [Blocking] and [Multishot]
   contexts run concurrently with the worker and with each other, so
   they keep private buffers. *)
type bounce = { mutable buf : Bytes.t }

let bounce_buf b len =
  if Bytes.length b.buf < len then b.buf <- Bytes.create len;
  b.buf

let err e = Io_uring.Done (Abi.Uring_abi.res_of_errno e)

(* Execute one SQE on the open fd [obj] on behalf of the io_uring
   worker.  [region] is the shared region SQE buffer offsets refer to;
   [uring] (filled in right after {!Io_uring.create} returns) carries
   the registered-buffer table for the provided-buffer opcodes;
   [bounce] is the worker's. *)
let exec_on t region ~uring ~bounce obj ~(opcode : Abi.Uring_abi.opcode)
    ~file_off ~addr ~len ~poll_events ~fixed =
  let open Io_uring in
  let buffer_ok = Mem.Region.in_bounds region ~off:addr ~len in
  match opcode with
  | Nop -> Done 0
  | Read -> (
      match obj with
      | File st ->
          if not buffer_ok then err EFAULT
          else begin
            let tmp = bounce_buf bounce len in
            let n = Vfs.read t.vfs st.inode ~off:file_off tmp 0 len in
            charge_uring_copy ~fixed n;
            Mem.Region.blit_from_bytes tmp 0 region addr n;
            Done n
          end
      | _ -> err EBADF)
  | Write -> (
      match obj with
      | File st ->
          if not buffer_ok then err EFAULT
          else begin
            let tmp = bounce_buf bounce len in
            Mem.Region.blit_to_bytes region addr tmp 0 len;
            charge_uring_copy ~fixed len;
            Done (Vfs.write t.vfs st.inode ~off:file_off tmp 0 len)
          end
      | _ -> err EBADF)
  | Send -> (
      match obj with
      | Tcp_sock ep ->
          if not buffer_ok then err EFAULT
          else begin
            let tmp = bounce_buf bounce len in
            Mem.Region.blit_to_bytes region addr tmp 0 len;
            charge_uring_copy ~fixed len;
            match Tcp_core.send t.tcp ep tmp 0 len with
            | Ok n -> Done n
            | Error e -> err e
          end
      | _ -> err EBADF)
  | Send_zc | Sendmsg_zc -> (
      (* Zero-copy send: the payload leaves straight from the pinned
         shared frame — no kernel-side bounce, and the frame stays
         kernel-owned until the notif CQE.  An error completes in one
         CQE (nothing was pinned, real SEND_ZC behaves the same). *)
      match obj with
      | Tcp_sock ep ->
          if not buffer_ok then err EFAULT
          else begin
            let tmp = bounce_buf bounce len in
            Mem.Region.blit_to_bytes region addr tmp 0 len;
            match Tcp_core.send t.tcp ep tmp 0 len with
            | Ok n ->
                Done_zc
                  {
                    res = n;
                    notif_delay =
                      Int64.add Sgx.Params.zc_notif_base_cycles
                        (Int64.of_float
                           (float_of_int n
                           *. !Sgx.Params.live_wire_cycles_per_byte));
                  }
            | Error e -> err e
          end
      | _ -> err EBADF)
  | Recv -> (
      match obj with
      | Tcp_sock ep ->
          if not buffer_ok then err EFAULT
          else
            Blocking
              (fun () ->
                let tmp = Bytes.create len in
                match Tcp_core.recv t.tcp ep tmp 0 len with
                | Ok n ->
                    charge_uring_copy ~fixed n;
                    Mem.Region.blit_from_bytes tmp 0 region addr n;
                    n
                | Error e -> Abi.Uring_abi.res_of_errno e)
      | _ -> err EBADF)
  | Recv_multi -> (
      (* Multishot receive into provided (registered) buffers: one SQE,
         a stream of CQEs, each naming the buffer the kernel filled.
         The FM re-provides consumed buffers through the shared buffer
         ring (no syscall); an empty ring terminates the stream with
         ENOBUFS, exactly like the real kernel. *)
      match (obj, !uring) with
      | Tcp_sock ep, Some u -> (
          match Io_uring.reg_bufs u with
          | None -> err ENOBUFS
          | Some tbl ->
              Multishot
                (fun () ->
                  match Io_uring.take_buffer u with
                  | None -> (Abi.Uring_abi.res_of_errno Abi.Errno.ENOBUFS, 0)
                  | Some id -> (
                      match Mem.Regtable.find tbl id with
                      | None ->
                          (Abi.Uring_abi.res_of_errno Abi.Errno.EFAULT, 0)
                      | Some (off, blen) -> (
                          let tmp = Bytes.create blen in
                          match Tcp_core.recv t.tcp ep tmp 0 blen with
                          | Ok n when n > 0 ->
                              Mem.Region.blit_from_bytes tmp 0 region off n;
                              (n, id)
                          | Ok n ->
                              Io_uring.provide_buffer u id;
                              (n, id)
                          | Error e ->
                              Io_uring.provide_buffer u id;
                              (Abi.Uring_abi.res_of_errno e, 0)))))
      | _ -> err EBADF)
  | Poll_add ->
      let wanted =
        (if poll_events land Abi.Uring_abi.pollin <> 0 then
           [ (`In, Abi.Uring_abi.pollin) ]
         else [])
        @
        if poll_events land Abi.Uring_abi.pollout <> 0 then
          [ (`Out, Abi.Uring_abi.pollout) ]
        else []
      in
      if wanted = [] then err EINVAL
      else
        Blocking
          (fun () ->
            let revents () =
              List.fold_left
                (fun acc (ev, mask) ->
                  if obj_ready obj ev then acc lor mask else acc)
                0 wanted
            in
            let rec wait () =
              match revents () with
              | 0 ->
                  if listen_obj obj then Sim.Engine.park ()
                  else Sim.Engine.delay poll_quantum;
                  wait ()
              | r -> r
            in
            wait ())

(* Any SQE: a closed fd fails with [EBADF] ([Sim.Int_table.find], not
   [find], so the lookup allocates no option). *)
let exec_sqe t region ~uring ~bounce ~(opcode : Abi.Uring_abi.opcode) ~fd
    ~file_off ~addr ~len ~poll_events ~fixed =
  match opcode with
  | Nop -> Io_uring.Done 0
  | _ -> (
      match Sim.Int_table.find t.fds fd with
      | exception Not_found -> err EBADF
      | obj ->
          exec_on t region ~uring ~bounce obj ~opcode ~file_off ~addr ~len
            ~poll_events ~fixed)

let uring_create t ~alloc ~entries =
  (* Setup: io_uring_setup + mmaps, a handful of syscalls. *)
  for _ = 1 to 4 do
    syscall t
  done;
  let region = Mem.Alloc.region alloc in
  (* The exec closure needs the ring it serves (registered-buffer table
     for the provided-buffer opcodes); it is never called before the
     worker first runs, so filling the ref right after create is safe. *)
  let uring_ref = ref None in
  let bounce = { buf = Bytes.empty } in
  let uring =
    Io_uring.create t.engine ~alloc ~entries
      ~exec:(fun ~opcode ~fd ~file_off ~addr ~len ~poll_events ~fixed ->
        exec_sqe t region ~uring:uring_ref ~bounce ~opcode ~fd ~file_off ~addr
          ~len ~poll_events ~fixed)
      ~malice:t.malice_ref ~faults:t.faults_ref
  in
  uring_ref := Some uring;
  (alloc_fd t (Uring_fd uring), uring)

(* io_uring_register: one syscall to pin a buffer or file set; per-op
   use is then syscall-free (fixed SQEs name table indices). *)
let uring_register_buffers t uring entries =
  syscall t;
  Io_uring.register_buffers uring entries

let uring_enter t uring =
  syscall t;
  if wakeup_lands ?shard:(Io_uring.shard uring) t then Io_uring.enter uring
