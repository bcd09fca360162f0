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
  fds : (fd, fd_obj) Hashtbl.t;
  mutable next_fd : fd;
  malice_ref : Malice.t option ref;
  faults_ref : Faults.t option ref;
}

type poll_event = Pollin | Pollout

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
  let route dst =
    (* Egress selection between the two loopback-wired interfaces: reach
       an interface's address through its peer. *)
    if Packet.Addr.Ip.equal dst server_ip_v then Some nic1
    else if Packet.Addr.Ip.equal dst client_ip_v then Some nic0
    else None
  in
  let udp = Udp_core.create engine ~route in
  let malice_ref = ref None in
  let t =
    {
      engine;
      vfs = Vfs.create engine;
      udp;
      tcp = Tcp_core.create engine;
      xdp = Xdp.create engine ~malice:malice_ref;
      nics;
      fds = Hashtbl.create 32;
      next_fd = 3;
      malice_ref;
      faults_ref;
    }
  in
  Array.iter
    (fun nic ->
      for q = 0 to Nic.queue_count nic - 1 do
        Nic.set_rx_handler nic ~queue:q (fun frame ->
            Udp_core.stack_input t.udp nic frame)
      done)
    nics;
  t

let engine t = t.engine

let vfs t = t.vfs

let nic t i = t.nics.(i)

let wire_losses t =
  Array.fold_left (fun acc nic -> acc + Nic.wire_losses nic) 0 t.nics

let server_ip _t = server_ip_v

let client_ip _t = client_ip_v

let set_malice t m = t.malice_ref := m

let malice t = !(t.malice_ref)

let set_faults t f = t.faults_ref := f

let faults t = !(t.faults_ref)

let syscall _t = Sim.Engine.delay Sgx.Params.syscall_cycles

let alloc_fd t obj =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Hashtbl.add t.fds fd obj;
  fd

let find t fd = Hashtbl.find_opt t.fds fd

let close t fd =
  syscall t;
  match find t fd with
  | None -> Error Abi.Errno.EBADF
  | Some obj ->
      Hashtbl.remove t.fds fd;
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

let sendto t fd payload ~dst =
  syscall t;
  match find t fd with
  | Some (Udp_sock s) -> Udp_core.sendto t.udp s payload ~dst
  | Some _ -> Error Abi.Errno.EINVAL
  | None -> Error Abi.Errno.EBADF

let recvfrom t fd ~max =
  syscall t;
  match find t fd with
  | Some (Udp_sock s) -> Udp_core.recvfrom t.udp s ~max
  | Some _ -> Error Abi.Errno.EINVAL
  | None -> Error Abi.Errno.EBADF

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
          Hashtbl.replace t.fds fd (Tcp_listener l);
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
          Hashtbl.replace t.fds fd (Tcp_sock ep);
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

let obj_ready obj ev =
  match (obj, ev) with
  | Udp_sock s, Pollin -> Udp_core.readable s
  | Udp_sock _, Pollout -> true
  | Tcp_sock ep, Pollin -> Tcp_core.readable ep
  | Tcp_sock ep, Pollout -> Tcp_core.writable ep
  | Tcp_listener l, Pollin -> Tcp_core.listener_readable l
  | Tcp_listener _, Pollout -> false
  | File _, (Pollin | Pollout) -> true
  | Tcp_new _, _ -> false
  | (Xsk_fd _ | Uring_fd _), _ -> false

let fd_ready t fd ev =
  match find t fd with None -> false | Some obj -> obj_ready obj ev

let poll_quantum = 500L

let obj_activity = function
  | Udp_sock s -> Some (Udp_core.activity s)
  | Tcp_sock ep -> Some (Tcp_core.activity ep)
  | Tcp_listener l -> Some (Tcp_core.listener_activity l)
  | File _ | Tcp_new _ | Xsk_fd _ | Uring_fd _ -> None

(* Block until a predicate over some fd objects holds, waking on their
   activity conditions (edge events) and falling back to a short delay
   for objects with none (e.g. waiting for TCP writability). *)
let wait_for_objs t ~objs ~deadline ~check =
  let timer = Sim.Condition.create () in
  let timed_out = ref false in
  (match deadline with
  | None -> ()
  | Some d ->
      Sim.Engine.at t.engine d (fun () ->
          timed_out := true;
          Sim.Condition.broadcast timer));
  let conds = List.filter_map obj_activity objs in
  let rec loop () =
    match check () with
    | Some r -> Some r
    | None ->
        if !timed_out then None
        else begin
          (match (conds, deadline) with
          | [], _ -> Sim.Engine.delay poll_quantum
          | _ :: _, None -> Sim.Condition.wait_any conds
          | _ :: _, Some _ -> Sim.Condition.wait_any (timer :: conds));
          loop ()
        end
  in
  loop ()

let poll t specs ~timeout =
  syscall t;
  let deadline =
    Option.map (fun d -> Int64.add (Sim.Engine.now t.engine) d) timeout
  in
  let ready () =
    match
      List.filter_map
        (fun (fd, evs) ->
          match find t fd with
          | None -> None
          | Some obj -> (
              match List.filter (obj_ready obj) evs with
              | [] -> None
              | revents -> Some (fd, revents)))
        specs
    with
    | [] -> None
    | r -> Some r
  in
  let objs = List.filter_map (fun (fd, _) -> find t fd) specs in
  match wait_for_objs t ~objs ~deadline ~check:ready with
  | Some r -> Ok r
  | None -> Ok []

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
  Xdp.attach t.xdp ~nic ~queue ~prog ~xsk ~stack_fallback:(fun frame ->
      Udp_core.stack_input t.udp nic frame)

(* Wakeups pay the syscall cost regardless; whether the kernel then acts
   on them is where faults bite — a dropped wakeup is swallowed after
   the trap, a delayed one takes effect fault_wakeup_delay later. *)
let faulty_wakeup ?shard t k =
  match !(t.faults_ref) with
  | Some f when Faults.roll ?shard !(t.faults_ref) Faults.Drop_wakeup ->
      Faults.record f Faults.Drop_wakeup
  | Some f when Faults.roll ?shard !(t.faults_ref) Faults.Delay_wakeup ->
      Faults.record f Faults.Delay_wakeup;
      Sim.Engine.delay Sgx.Params.fault_wakeup_delay;
      k ()
  | _ -> k ()

let xsk_tx_wakeup t xsk =
  syscall t;
  faulty_wakeup ?shard:(Xdp.shard xsk) t (fun () -> Xdp.tx_wakeup t.xdp xsk)

let xsk_rx_wakeup t xsk =
  syscall t;
  faulty_wakeup ?shard:(Xdp.shard xsk) t (fun () -> Xdp.rx_wakeup t.xdp xsk)

(* Kernel-side bounce between the shared IO buffer and kernel memory on
   the classic io_uring data ops.  Fixed-buffer SQEs skip it — the whole
   point of registration is that the kernel DMAs straight from/into the
   pinned frame (docs/zerocopy.md). *)
let charge_uring_copy (sqe : Abi.Uring_abi.sqe) n =
  if (not sqe.fixed) && n > 0 then
    Sim.Engine.delay
      (Int64.of_float
         (float_of_int n *. Sgx.Params.iouring_copy_cycles_per_byte))

(* Execute one SQE on behalf of the io_uring worker.  [region] is the
   shared region SQE buffer offsets refer to; [uring] (filled in right
   after {!Io_uring.create} returns) carries the registered-buffer
   table for the provided-buffer opcodes. *)
let exec_sqe t region ~uring (sqe : Abi.Uring_abi.sqe) =
  let open Io_uring in
  let err e = Done (Abi.Uring_abi.res_of_errno e) in
  let buffer_ok () = Mem.Region.in_bounds region ~off:sqe.addr ~len:sqe.len in
  match sqe.opcode with
  | Nop -> Done 0
  | Read -> (
      match find t sqe.fd with
      | Some (File st) ->
          if not (buffer_ok ()) then err EFAULT
          else begin
            let tmp = Bytes.create sqe.len in
            let n =
              Vfs.read t.vfs st.inode ~off:(Int64.to_int sqe.file_off) tmp 0
                sqe.len
            in
            charge_uring_copy sqe n;
            Mem.Region.blit_from_bytes tmp 0 region sqe.addr n;
            Done n
          end
      | Some _ -> err EBADF
      | None -> err EBADF)
  | Write -> (
      match find t sqe.fd with
      | Some (File st) ->
          if not (buffer_ok ()) then err EFAULT
          else begin
            let tmp = Bytes.create sqe.len in
            Mem.Region.blit_to_bytes region sqe.addr tmp 0 sqe.len;
            charge_uring_copy sqe sqe.len;
            Done
              (Vfs.write t.vfs st.inode ~off:(Int64.to_int sqe.file_off) tmp 0
                 sqe.len)
          end
      | Some _ -> err EBADF
      | None -> err EBADF)
  | Send -> (
      match find t sqe.fd with
      | Some (Tcp_sock ep) ->
          if not (buffer_ok ()) then err EFAULT
          else begin
            let tmp = Bytes.create sqe.len in
            Mem.Region.blit_to_bytes region sqe.addr tmp 0 sqe.len;
            charge_uring_copy sqe sqe.len;
            match Tcp_core.send t.tcp ep tmp 0 sqe.len with
            | Ok n -> Done n
            | Error e -> err e
          end
      | Some _ -> err EBADF
      | None -> err EBADF)
  | Send_zc | Sendmsg_zc -> (
      (* Zero-copy send: the payload leaves straight from the pinned
         shared frame — no kernel-side bounce, and the frame stays
         kernel-owned until the notif CQE.  An error completes in one
         CQE (nothing was pinned, real SEND_ZC behaves the same). *)
      match find t sqe.fd with
      | Some (Tcp_sock ep) ->
          if not (buffer_ok ()) then err EFAULT
          else begin
            let tmp = Bytes.create sqe.len in
            Mem.Region.blit_to_bytes region sqe.addr tmp 0 sqe.len;
            match Tcp_core.send t.tcp ep tmp 0 sqe.len with
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
      | Some _ -> err EBADF
      | None -> err EBADF)
  | Recv -> (
      match find t sqe.fd with
      | Some (Tcp_sock ep) ->
          if not (buffer_ok ()) then err EFAULT
          else
            Blocking
              (fun () ->
                let tmp = Bytes.create sqe.len in
                match Tcp_core.recv t.tcp ep tmp 0 sqe.len with
                | Ok n ->
                    charge_uring_copy sqe n;
                    Mem.Region.blit_from_bytes tmp 0 region sqe.addr n;
                    n
                | Error e -> Abi.Uring_abi.res_of_errno e)
      | Some _ -> err EBADF
      | None -> err EBADF)
  | Recv_multi -> (
      (* Multishot receive into provided (registered) buffers: one SQE,
         a stream of CQEs, each naming the buffer the kernel filled.
         The FM re-provides consumed buffers through the shared buffer
         ring (no syscall); an empty ring terminates the stream with
         ENOBUFS, exactly like the real kernel. *)
      match (find t sqe.fd, !uring) with
      | Some (Tcp_sock ep), Some u -> (
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
      | Some _, _ -> err EBADF
      | None, _ -> err EBADF)
  | Poll_add -> (
      match find t sqe.fd with
      | None -> err EBADF
      | Some obj ->
          let wanted =
            (if sqe.poll_events land Abi.Uring_abi.pollin <> 0 then
               [ (Pollin, Abi.Uring_abi.pollin) ]
             else [])
            @
            if sqe.poll_events land Abi.Uring_abi.pollout <> 0 then
              [ (Pollout, Abi.Uring_abi.pollout) ]
            else []
          in
          if wanted = [] then err EINVAL
          else
            Blocking
              (fun () ->
                let revents () =
                  match
                    List.fold_left
                      (fun acc (ev, mask) ->
                        if obj_ready obj ev then acc lor mask else acc)
                      0 wanted
                  with
                  | 0 -> None
                  | r -> Some r
                in
                match
                  wait_for_objs t ~objs:[ obj ] ~deadline:None ~check:revents
                with
                | Some r -> r
                | None -> 0))

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
  let uring =
    Io_uring.create t.engine ~alloc ~entries
      ~exec:(fun sqe -> exec_sqe t region ~uring:uring_ref sqe)
      ~malice:t.malice_ref ~faults:t.faults_ref
  in
  uring_ref := Some uring;
  (alloc_fd t (Uring_fd uring), uring)

(* io_uring_register: one syscall to pin a buffer or file set; per-op
   use is then syscall-free (fixed SQEs name table indices). *)
let uring_register_buffers t uring entries =
  syscall t;
  Io_uring.register_buffers uring entries

let uring_register_files t uring fds =
  syscall t;
  Io_uring.register_files uring fds

let uring_enter t uring =
  syscall t;
  faulty_wakeup ?shard:(Io_uring.shard uring) t (fun () ->
      Io_uring.enter uring)
