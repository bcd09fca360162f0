module R = Rakis.Runtime
module K = Hostos.Kernel

type entry = Rudp of R.udp_sock | Rhost of { kfd : int; mutable pos : int }

type env = {
  runtime : R.t;
  kernel : K.t;
  fds : entry Sim.Int_table.t;
  mutable next_fd : int;
}

let alloc_fd env entry =
  let fd = env.next_fd in
  env.next_fd <- env.next_fd + 1;
  Sim.Int_table.add env.fds fd entry;
  fd

let find env fd = Sim.Int_table.find_opt env.fds fd

(* The regular LibOS path for syscalls RAKIS does not accelerate:
   in-enclave dispatch plus one enclave exit. *)
let host_call env f =
  Rakis.Slowpath.libos_exit (R.enclave env.runtime);
  f env.kernel

(* Busy-wait quantum for mixed-provider polls (paper §4.2). *)
let mixed_poll_quantum = Sim.Cycles.of_us 2.

(* What a poll's fds are.  The per-call checks below walk the specs and
   allocate nothing. *)
type poll_set = Not_open | Rakis_only | Mixed

let rec classify env set = function
  | [] -> set
  | (fd, _) :: rest -> (
      match Sim.Int_table.find env.fds fd with
      | exception Not_found -> Not_open
      | Rudp _ -> classify env set rest
      | Rhost _ -> classify env Mixed rest)

let rec count_in = function
  | [] -> 0
  | `In :: evs -> 1 + count_in evs
  | `Out :: evs -> count_in evs

let rec count_out = function
  | [] -> 0
  | `Out :: evs -> 1 + count_out evs
  | `In :: evs -> count_out evs

(* The events a RAKIS socket polled for [evs] reports: every [`Out] (the
   in-enclave stack never blocks sends), and every [`In] once it is
   readable. *)
let rakis_revents runtime sock evs =
  List.filter (function `In -> R.udp_readable runtime sock | `Out -> true) evs

(* Whether the socket is ready, without building its {!rakis_revents}:
   it reports something, and not just a lone [`Out] while [evs] asks
   for [`In] too — POLLOUT on an idle socket must not make every poll
   return instantly when the caller is really waiting for input. *)
let rakis_ready runtime sock evs =
  let ins = count_in evs and outs = count_out evs in
  let readable = ins > 0 && R.udp_readable runtime sock in
  let reported = outs + if readable then ins else 0 in
  reported > 0 && not (outs = 1 && ins > 0 && not readable)

(* The ready sockets' events, in [specs] order. *)
let ready_revents env specs =
  List.filter_map
    (fun (fd, evs) ->
      match Sim.Int_table.find env.fds fd with
      | Rudp sock when rakis_ready env.runtime sock evs ->
          Some (fd, rakis_revents env.runtime sock evs)
      | Rudp _ | Rhost _ -> None)
    specs

let rec any_ready env = function
  | [] -> false
  | (fd, evs) :: rest -> (
      match Sim.Int_table.find env.fds fd with
      | Rudp sock -> rakis_ready env.runtime sock evs || any_ready env rest
      | Rhost _ -> any_ready env rest)

(* Queue the caller on every RAKIS socket's activity conditions, in
   order; [false] when there were none. *)
let rec listen_socks env = function
  | [] -> false
  | (fd, _) :: rest ->
      let conds =
        match Sim.Int_table.find env.fds fd with
        | Rudp sock -> R.udp_activity env.runtime sock
        | Rhost _ -> []
      in
      List.iter Sim.Condition.listen conds;
      listen_socks env rest || conds <> []

(* A poll on RAKIS sockets only: readiness scans and waits on the
   process's own timeout, armed once per wait, at the native clock
   time [deadline] ([max_int]: none).  Only a poll that returns ready
   sockets builds a list. *)
let rec poll_rakis env specs ~deadline =
  let engine = K.engine env.kernel in
  if any_ready env specs then Ok (ready_revents env specs)
  else if Sim.Engine.clock engine >= deadline then Ok []
  else begin
    (* Wait for stack activity, or until the deadline. *)
    (if not (listen_socks env specs) then Sim.Engine.delay mixed_poll_quantum
     else if deadline = max_int then Sim.Engine.park ()
     else begin
       Sim.Engine.arm_timeout_at deadline;
       Sim.Engine.timed_park ();
       Sim.Engine.disarm_timeout ()
     end);
    poll_rakis env specs ~deadline
  end

(* A poll naming at least one host fd: the host fds go to the io_uring
   [poll_multi], in steps no longer than the busy-wait quantum while
   RAKIS sockets are polled too.  [deadline] is a native clock time
   ([max_int]: none). *)
let poll_mixed env proxy specs ~deadline =
  let engine = K.engine env.kernel in
  let host_specs =
    List.filter_map
      (fun (fd, evs) ->
        match Sim.Int_table.find env.fds fd with
        | Rhost { kfd; _ } -> Some (fd, kfd, evs)
        | Rudp _ -> None)
      specs
  in
  let rakis_too = List.compare_lengths host_specs specs <> 0 in
  let quantum = Int64.to_int mixed_poll_quantum in
  let host_poll ~deadline =
    Rakis.Syncproxy.poll_multi proxy
      (List.map
         (fun (_, kfd, evs) -> (kfd, Abi.Uring_abi.mask_of_events evs))
         host_specs)
      ~deadline
  in
  let vfd_of_kfd kfd =
    List.find_map
      (fun (vfd, k, _) -> if k = kfd then Some vfd else None)
      host_specs
  in
  let rec loop () =
    match ready_revents env specs with
    | _ :: _ as r -> Ok r
    | [] -> (
        let step =
          if rakis_too then min deadline (Sim.Engine.clock engine + quantum)
          else deadline
        in
        match host_poll ~deadline:step with
        | Error e -> Error e
        | Ok (Some (kfd, mask)) -> (
            match vfd_of_kfd kfd with
            | Some vfd -> Ok [ (vfd, Abi.Uring_abi.events_of_mask mask) ]
            | None -> loop ())
        | Ok None ->
            if Sim.Engine.clock engine >= deadline then Ok [] else loop ())
  in
  loop ()

(* Like the host kernel's, a poll naming an fd that is not open fails
   at once with [EBADF] (there is no POLLNVAL here). *)
let poll env proxy specs ~timeout =
  let deadline =
    match timeout with
    | None -> max_int
    | Some d ->
        (* [d] from now, saturating at the end of time. *)
        let now = Sim.Engine.clock (K.engine env.kernel) in
        if d >= Int64.of_int (max_int - now) then max_int
        else now + Int64.to_int d
  in
  match classify env Rakis_only specs with
  | Not_open -> Error Abi.Errno.EBADF
  | Mixed -> poll_mixed env proxy specs ~deadline
  | Rakis_only -> poll_rakis env specs ~deadline

let rec api env proxy : Api.t =
  let engine = K.engine env.kernel in
  let errno_of_send = function
    | Ok n -> Ok n
    | Error e -> Error e
  in
  {
    Api.name =
      (if Sgx.Enclave.sgx_enabled (R.enclave env.runtime) then "rakis-sgx"
       else "rakis-direct");
    engine;
    udp_socket = (fun () -> alloc_fd env (Rudp (R.udp_socket env.runtime)));
    tcp_socket =
      (fun () ->
        let kfd = host_call env K.tcp_socket in
        alloc_fd env (Rhost { kfd; pos = 0 }));
    bind =
      (fun fd (ip, port) ->
        match find env fd with
        | Some (Rudp sock) -> R.udp_bind env.runtime sock port
        | Some (Rhost { kfd; _ }) ->
            host_call env (fun k -> K.bind k kfd ip port)
        | None -> Error Abi.Errno.EBADF);
    listen =
      (fun fd ->
        match find env fd with
        | Some (Rhost { kfd; _ }) -> host_call env (fun k -> K.listen k kfd)
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    accept =
      (fun fd ->
        match find env fd with
        | Some (Rhost { kfd; _ }) -> (
            match host_call env (fun k -> K.accept k kfd) with
            | Ok kfd' -> Ok (alloc_fd env (Rhost { kfd = kfd'; pos = 0 }))
            | Error e -> Error e)
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    connect =
      (fun fd (ip, port) ->
        match find env fd with
        | Some (Rhost { kfd; _ }) ->
            host_call env (fun k -> K.connect k kfd ip port)
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    sendto =
      (fun fd buf dst ->
        match find env fd with
        | Some (Rudp sock) ->
            errno_of_send (R.udp_sendto env.runtime sock buf ~dst)
        | Some (Rhost _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    recvfrom =
      (fun fd max ->
        match find env fd with
        | Some (Rudp sock) -> R.udp_recvfrom env.runtime sock ~max
        | Some (Rhost _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    send =
      (fun fd buf off len ->
        match find env fd with
        | Some (Rhost { kfd; _ }) ->
            Rakis.Syncproxy.io proxy Send ~fd:kfd ~off:0 ~buf ~pos:off ~len
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    recv =
      (fun fd buf off len ->
        match find env fd with
        | Some (Rhost { kfd; _ }) ->
            Rakis.Syncproxy.io proxy Recv ~fd:kfd ~off:0 ~buf ~pos:off ~len
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    openf =
      (fun ~create ~trunc path ->
        match host_call env (fun k -> K.openf k ~create ~trunc path) with
        | Ok kfd -> Ok (alloc_fd env (Rhost { kfd; pos = 0 }))
        | Error e -> Error e);
    (* The file ops look the fd up with [Sim.Int_table.find], not [find]: the
       per-op path allocates no option. *)
    read =
      (fun fd buf off len ->
        match Sim.Int_table.find env.fds fd with
        | Rhost st -> (
            match
              Rakis.Syncproxy.io proxy Read ~fd:st.kfd ~off:st.pos ~buf
                ~pos:off ~len
            with
            | Ok n as r ->
                st.pos <- st.pos + n;
                r
            | Error _ as r -> r)
        | Rudp _ -> Error Abi.Errno.EINVAL
        | exception Not_found -> Error Abi.Errno.EBADF);
    write =
      (fun fd buf off len ->
        match Sim.Int_table.find env.fds fd with
        | Rhost st -> (
            match
              Rakis.Syncproxy.io proxy Write ~fd:st.kfd ~off:st.pos ~buf
                ~pos:off ~len
            with
            | Ok n as r ->
                st.pos <- st.pos + n;
                r
            | Error _ as r -> r)
        | Rudp _ -> Error Abi.Errno.EINVAL
        | exception Not_found -> Error Abi.Errno.EBADF);
    lseek =
      (fun fd pos ->
        match Sim.Int_table.find env.fds fd with
        | Rhost st ->
            if pos < 0 then Error Abi.Errno.EINVAL
            else begin
              st.pos <- pos;
              Ok pos
            end
        | Rudp _ -> Error Abi.Errno.EINVAL
        | exception Not_found -> Error Abi.Errno.EBADF);
    fsize =
      (fun fd ->
        match find env fd with
        | Some (Rhost { kfd; _ }) -> host_call env (fun k -> K.fsize k kfd)
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    close =
      (fun fd ->
        match find env fd with
        | Some (Rudp sock) ->
            R.udp_close env.runtime sock;
            Sim.Int_table.remove env.fds fd;
            Ok ()
        | Some (Rhost { kfd; _ }) ->
            (* Drop any abandoned probe SQE still charged to this fd so
               the FM's in-flight accounting doesn't leak (§9). *)
            Rakis.Syncproxy.forget_fd proxy ~fd:kfd;
            Sim.Int_table.remove env.fds fd;
            host_call env (fun k -> K.close k kfd)
        | None -> Error Abi.Errno.EBADF);
    poll = (fun specs ~timeout -> poll env proxy specs ~timeout);
    spawn =
      (fun ~name body ->
        match R.new_thread env.runtime with
        | Error e -> failwith ("rakis spawn: " ^ e)
        | Ok thread ->
            Sim.Engine.spawn engine ~name (fun () ->
                body (api env thread)));
  }

let create kernel ~sgx ?config () =
  match R.boot kernel ~sgx ?config () with
  | Error e -> Error e
  | Ok runtime -> (
      let env = { runtime; kernel; fds = Sim.Int_table.create 32; next_fd = 1000 } in
      match R.new_thread runtime with
      | Error e -> Error e
      | Ok thread -> Ok (api env thread, runtime))
