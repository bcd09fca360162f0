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
