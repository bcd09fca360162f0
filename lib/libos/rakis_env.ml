module R = Rakis.Runtime
module K = Hostos.Kernel

type entry = Rudp of R.udp_sock | Rhost of { kfd : int; mutable pos : int }

type env = {
  runtime : R.t;
  kernel : K.t;
  fds : (int, entry) Hashtbl.t;
  mutable next_fd : int;
}

let alloc_fd env entry =
  let fd = env.next_fd in
  env.next_fd <- env.next_fd + 1;
  Hashtbl.add env.fds fd entry;
  fd

let find env fd = Hashtbl.find_opt env.fds fd

(* The regular LibOS path for syscalls RAKIS does not accelerate:
   in-enclave dispatch plus one enclave exit. *)
let host_call env f =
  Rakis.Slowpath.libos_exit (R.enclave env.runtime);
  f env.kernel

(* Busy-wait quantum for mixed-provider polls (paper §4.2). *)
let mixed_poll_quantum = Sim.Cycles.of_us 2.

(* Queue the caller on every RAKIS socket's activity conditions, in
   order; [false] when there were none. *)
let rec listen_socks runtime = function
  | [] -> false
  | (_, _, sock) :: rest ->
      let conds = R.udp_activity runtime sock in
      List.iter Sim.Condition.listen conds;
      listen_socks runtime rest || conds <> []

let poll_open env proxy specs ~timeout =
  let engine = K.engine env.kernel in
  let deadline = Option.map (fun d -> Int64.add (Sim.Engine.now engine) d) timeout in
  let rakis_socks, host_specs =
    List.partition_map
      (fun (fd, evs) ->
        match Hashtbl.find env.fds fd with
        | Rudp sock -> Left (fd, evs, sock)
        | Rhost { kfd; _ } -> Right (fd, kfd, evs))
      specs
  in
  let rakis_ready () =
    List.filter_map
      (fun (fd, evs, sock) ->
        let revents =
          List.filter
            (fun ev ->
              match ev with
              | `In -> R.udp_readable env.runtime sock
              | `Out -> true (* the in-enclave stack never blocks sends *))
            evs
        in
        (* POLLOUT on an idle socket must not make every poll return
           instantly when the caller is really waiting for input. *)
        match revents with
        | [] -> None
        | [ `Out ] when List.mem `In evs -> None
        | revents -> Some (fd, revents))
      rakis_socks
  in
  let host_poll ~timeout =
    match host_specs with
    | [] -> Ok None
    | _ ->
        Rakis.Syncproxy.poll_multi proxy
          (List.map
             (fun (_, kfd, evs) -> (kfd, Abi.Uring_abi.mask_of_events evs))
             host_specs)
          ~timeout
  in
  let vfd_of_kfd kfd =
    List.find_map
      (fun (vfd, k, _) -> if k = kfd then Some vfd else None)
      host_specs
  in
  let remaining () =
    match deadline with
    | None -> None
    | Some d -> Some (Int64.max 0L (Int64.sub d (Sim.Engine.now engine)))
  in
  let expired () =
    match deadline with
    | None -> false
    | Some d -> Int64.compare (Sim.Engine.now engine) d >= 0
  in
  let rec loop () =
    match rakis_ready () with
    | _ :: _ as r -> Ok r
    | [] -> (
        if host_specs = [] then
          if expired () then Ok []
          else begin
            (* Wait for stack activity, or until the deadline on the
               process's own timeout, armed once per wait. *)
            (if not (listen_socks env.runtime rakis_socks) then
               Sim.Engine.delay mixed_poll_quantum
             else
               match remaining () with
               | None -> Sim.Engine.park ()
               | Some rem ->
                   Sim.Engine.arm_timeout rem;
                   Sim.Engine.timed_park ();
                   Sim.Engine.disarm_timeout ());
            loop ()
          end
        else
          let step_timeout =
            if rakis_socks = [] then remaining ()
            else
              Some
                (match remaining () with
                | None -> mixed_poll_quantum
                | Some rem -> Int64.min rem mixed_poll_quantum)
          in
          match host_poll ~timeout:step_timeout with
          | Error e -> Error e
          | Ok (Some (kfd, mask)) -> (
              match vfd_of_kfd kfd with
              | Some vfd -> Ok [ (vfd, Abi.Uring_abi.events_of_mask mask) ]
              | None -> loop ())
          | Ok None -> if expired () then Ok [] else loop ())
  in
  loop ()

(* Like the host kernel's, a poll naming an fd that is not open fails
   at once with [EBADF] (there is no POLLNVAL here). *)
let poll env proxy specs ~timeout =
  if List.for_all (fun (fd, _) -> Hashtbl.mem env.fds fd) specs then
    poll_open env proxy specs ~timeout
  else Error Abi.Errno.EBADF

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
            Rakis.Syncproxy.send proxy ~fd:kfd ~buf ~pos:off ~len
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    recv =
      (fun fd buf off len ->
        match find env fd with
        | Some (Rhost { kfd; _ }) ->
            Rakis.Syncproxy.recv proxy ~fd:kfd ~buf ~pos:off ~len
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    openf =
      (fun ~create ~trunc path ->
        match host_call env (fun k -> K.openf k ~create ~trunc path) with
        | Ok kfd -> Ok (alloc_fd env (Rhost { kfd; pos = 0 }))
        | Error e -> Error e);
    read =
      (fun fd buf off len ->
        match find env fd with
        | Some (Rhost st) -> (
            match
              Rakis.Syncproxy.read proxy ~fd:st.kfd ~off:st.pos ~buf ~pos:off ~len
            with
            | Ok n ->
                st.pos <- st.pos + n;
                Ok n
            | Error e -> Error e)
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    write =
      (fun fd buf off len ->
        match find env fd with
        | Some (Rhost st) -> (
            match
              Rakis.Syncproxy.write proxy ~fd:st.kfd ~off:st.pos ~buf ~pos:off ~len
            with
            | Ok n ->
                st.pos <- st.pos + n;
                Ok n
            | Error e -> Error e)
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
    lseek =
      (fun fd pos ->
        match find env fd with
        | Some (Rhost st) ->
            if pos < 0 then Error Abi.Errno.EINVAL
            else begin
              st.pos <- pos;
              Ok pos
            end
        | Some (Rudp _) -> Error Abi.Errno.EINVAL
        | None -> Error Abi.Errno.EBADF);
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
            Hashtbl.remove env.fds fd;
            Ok ()
        | Some (Rhost { kfd; _ }) ->
            (* Drop any abandoned probe SQE still charged to this fd so
               the FM's in-flight accounting doesn't leak (§9). *)
            Rakis.Syncproxy.forget_fd proxy ~fd:kfd;
            Hashtbl.remove env.fds fd;
            host_call env (fun k -> K.close k kfd)
        | None -> Error Abi.Errno.EBADF);
    poll = (fun specs ~timeout -> poll env proxy specs ~timeout);
    spawn =
      (fun ~name body ->
        match R.new_thread env.runtime with
        | Error e -> failwith ("rakis spawn: " ^ e)
        | Ok thread ->
            Sim.Engine.spawn engine ~name (fun () ->
                body (api env (R.syncproxy thread))));
  }

let create kernel ~sgx ?config () =
  match R.boot kernel ~sgx ?config () with
  | Error e -> Error e
  | Ok runtime -> (
      let env = { runtime; kernel; fds = Hashtbl.create 32; next_fd = 1000 } in
      match R.new_thread runtime with
      | Error e -> Error e
      | Ok thread -> Ok (api env (R.syncproxy thread), runtime))
