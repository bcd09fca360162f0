module K = Hostos.Kernel

let rec native kernel : Api.t =
  let engine = K.engine kernel in
  {
    Api.name = "native";
    engine;
    udp_socket = (fun () -> K.udp_socket kernel);
    tcp_socket = (fun () -> K.tcp_socket kernel);
    bind = (fun fd (ip, port) -> K.bind kernel fd ip port);
    listen = (fun fd -> K.listen kernel fd);
    accept = (fun fd -> K.accept kernel fd);
    connect = (fun fd (ip, port) -> K.connect kernel fd ip port);
    sendto = (fun fd buf dst -> K.sendto kernel fd buf ~dst);
    recvfrom = (fun fd max -> K.recvfrom kernel fd ~max);
    send = (fun fd buf off len -> K.send kernel fd buf off len);
    recv = (fun fd buf off len -> K.recv kernel fd buf off len);
    openf = (fun ~create ~trunc path -> K.openf kernel ~create ~trunc path);
    read = (fun fd buf off len -> K.read kernel fd buf off len);
    write = (fun fd buf off len -> K.write kernel fd buf off len);
    lseek = (fun fd pos -> K.lseek kernel fd pos);
    fsize = (fun fd -> K.fsize kernel fd);
    close = (fun fd -> K.close kernel fd);
    poll = (fun specs ~timeout -> K.poll kernel specs ~timeout);
    spawn =
      (fun ~name body ->
        Sim.Engine.spawn engine ~name (fun () -> body (native kernel)));
  }

(* DESIGN.md §9: the exit-based slow paths the circuit breakers fail
   over to.  Each op is the regular LibOS host-syscall route — dispatch
   from inside the RAKIS enclave, one enclave exit, the payload copied
   across the boundary — i.e. exactly what RAKIS's FIOKPs exist to
   avoid.  [meter] makes degraded traffic visible: every op counts on
   ["health.slow_calls"] and files its cycle cost (exit + copy + kernel
   work) under the ["health.slow_path_cycles"] histogram. *)
type metered = { run : 'a. (unit -> 'a) -> 'a }

let slow_meter obs engine =
  match obs with
  | None -> { run = (fun f -> f ()) }
  | Some obs ->
      let m = Obs.metrics obs in
      let calls = Obs.Metrics.counter m "health.slow_calls" in
      let cycles = Obs.Metrics.histogram m "health.slow_path_cycles" in
      {
        run =
          (fun f ->
            let start = Sim.Engine.now engine in
            let r = f () in
            Obs.Metrics.incr calls;
            Obs.Metrics.observe cycles
              (Int64.to_int (Int64.sub (Sim.Engine.now engine) start));
            r);
      }

let slow_ops ?obs kernel enclave : Rakis.Syncproxy.slow_ops =
  let engine = K.engine kernel in
  let meter = slow_meter obs engine in
  let dispatch () =
    Sgx.Enclave.charge enclave Sgx.Params.libos_dispatch_cycles;
    Sgx.Enclave.ocall enclave
  in
  let copy len = Sgx.Enclave.charge_copy enclave ~crossing:true len in
  {
    Rakis.Syncproxy.read =
      (fun ~fd ~off ~buf ~pos ~len ->
        meter.run (fun () ->
            dispatch ();
            match K.pread kernel fd ~off buf pos len with
            | Ok n ->
                copy n;
                Ok n
            | Error e -> Error e));
    write =
      (fun ~fd ~off ~buf ~pos ~len ->
        meter.run (fun () ->
            dispatch ();
            copy len;
            K.pwrite kernel fd ~off buf pos len));
    send =
      (fun ~fd ~buf ~pos ~len ->
        meter.run (fun () ->
            dispatch ();
            copy len;
            K.send kernel fd buf pos len));
    recv =
      (fun ~fd ~buf ~pos ~len ->
        meter.run (fun () ->
            dispatch ();
            match K.recv kernel fd buf pos len with
            | Ok n ->
                copy n;
                Ok n
            | Error e -> Error e));
    poll =
      (fun ~fd ~events ->
        meter.run (fun () ->
            dispatch ();
            match
              K.poll kernel [ (fd, Api.events_of_mask events) ] ~timeout:None
            with
            | Ok [ (_, revs) ] -> Ok (Api.mask_of_events revs)
            | Ok _ -> Ok 0
            | Error e -> Error e));
  }

let slow_udp ?obs kernel enclave : Rakis.Runtime.slow_udp =
  let engine = K.engine kernel in
  let meter = slow_meter obs engine in
  let dispatch () =
    Sgx.Enclave.charge enclave Sgx.Params.libos_dispatch_cycles;
    Sgx.Enclave.ocall enclave
  in
  let copy len = Sgx.Enclave.charge_copy enclave ~crossing:true len in
  {
    Rakis.Runtime.su_socket =
      (fun () ->
        meter.run (fun () ->
            dispatch ();
            K.udp_socket kernel));
    su_bind =
      (fun fd ~port ->
        meter.run (fun () ->
            dispatch ();
            K.bind kernel fd (K.server_ip kernel) port));
    su_sendto =
      (fun fd payload ~dst ->
        meter.run (fun () ->
            dispatch ();
            copy (Bytes.length payload);
            K.sendto kernel fd payload ~dst));
    su_recvfrom =
      (fun fd ~max ->
        meter.run (fun () ->
            dispatch ();
            match K.recvfrom kernel fd ~max with
            | Ok (payload, src) ->
                copy (Bytes.length payload);
                Ok (payload, src)
            | Error e -> Error e));
    (* Readiness probe only — no exit charged; the datagram's crossing
       cost lands when [su_recvfrom] actually moves it. *)
    su_readable = (fun fd -> K.fd_ready kernel fd `In);
    su_close =
      (fun fd ->
        meter.run (fun () ->
            dispatch ();
            ignore (K.close kernel fd)));
  }

let gramine ?(exitless = false) kernel ~sgx =
  let engine = K.engine kernel in
  let name =
    match (sgx, exitless) with
    | true, false -> "gramine-sgx"
    | true, true -> "gramine-sgx-exitless"
    | false, _ -> "gramine-direct"
  in
  let enclave = Sgx.Enclave.create engine ~sgx ~name in
  (* Every forwarded syscall pays LibOS dispatch plus either one enclave
     round-trip or — in exitless mode (Gramine's RPC threads, the
     HotCalls/Eleos design of §8) — a spin-handoff to an untrusted
     worker that performs the syscall while the enclave thread waits.
     [copy_out]/[copy_in] account the payload crossing the boundary
     either way (paper §2.1's "copy the syscall data to untrusted
     memory ... copy the result back"). *)
  let dispatch () =
    Sgx.Enclave.charge enclave Sgx.Params.libos_dispatch_cycles;
    if exitless && sgx then
      Sgx.Enclave.charge enclave Sgx.Params.switchless_rpc_cycles
    else Sgx.Enclave.ocall enclave
  in
  let copy_out len = Sgx.Enclave.charge_copy enclave ~crossing:true len in
  let copy_in len = Sgx.Enclave.charge_copy enclave ~crossing:true len in
  let rec api () : Api.t =
    {
      Api.name = name;
      engine;
      udp_socket =
        (fun () ->
          dispatch ();
          K.udp_socket kernel);
      tcp_socket =
        (fun () ->
          dispatch ();
          K.tcp_socket kernel);
      bind =
        (fun fd (ip, port) ->
          dispatch ();
          K.bind kernel fd ip port);
      listen =
        (fun fd ->
          dispatch ();
          K.listen kernel fd);
      accept =
        (fun fd ->
          dispatch ();
          K.accept kernel fd);
      connect =
        (fun fd (ip, port) ->
          dispatch ();
          K.connect kernel fd ip port);
      sendto =
        (fun fd buf dst ->
          dispatch ();
          copy_out (Bytes.length buf);
          K.sendto kernel fd buf ~dst);
      recvfrom =
        (fun fd max ->
          dispatch ();
          match K.recvfrom kernel fd ~max with
          | Ok (payload, src) ->
              copy_in (Bytes.length payload);
              Ok (payload, src)
          | Error e -> Error e);
      send =
        (fun fd buf off len ->
          dispatch ();
          copy_out len;
          K.send kernel fd buf off len);
      recv =
        (fun fd buf off len ->
          dispatch ();
          match K.recv kernel fd buf off len with
          | Ok n ->
              copy_in n;
              Ok n
          | Error e -> Error e);
      openf =
        (fun ~create ~trunc path ->
          dispatch ();
          K.openf kernel ~create ~trunc path);
      read =
        (fun fd buf off len ->
          dispatch ();
          match K.read kernel fd buf off len with
          | Ok n ->
              copy_in n;
              Ok n
          | Error e -> Error e);
      write =
        (fun fd buf off len ->
          dispatch ();
          copy_out len;
          K.write kernel fd buf off len);
      lseek =
        (fun fd pos ->
          dispatch ();
          K.lseek kernel fd pos);
      fsize =
        (fun fd ->
          dispatch ();
          K.fsize kernel fd);
      close =
        (fun fd ->
          dispatch ();
          K.close kernel fd);
      poll =
        (fun specs ~timeout ->
          dispatch ();
          K.poll kernel specs ~timeout);
      spawn =
        (fun ~name body ->
          Sim.Engine.spawn engine ~name (fun () -> body (api ())));
    }
  in
  (api (), enclave)
