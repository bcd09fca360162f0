module K = Hostos.Kernel

type t = {
  kernel : K.t;
  enclave : Sgx.Enclave.t;
  calls : Obs.Metrics.counter;
  cycles : Obs.Metrics.histogram;
}

let create ~obs kernel enclave =
  let m = Obs.metrics obs in
  {
    kernel;
    enclave;
    calls = Obs.Metrics.counter m "health.slow_calls";
    cycles = Obs.Metrics.histogram m "health.slow_path_cycles";
  }

let libos_exit enclave =
  Sgx.Enclave.charge enclave Sgx.Params.libos_dispatch_cycles;
  Sgx.Enclave.ocall enclave

(* A metered host syscall runs between [enter] (dispatch and exit) and
   [leave], which files its whole cycle cost under [t.cycles]. *)
let enter t =
  let start = Sim.Engine.clock (K.engine t.kernel) in
  libos_exit t.enclave;
  start

let leave t start r =
  Obs.Metrics.incr t.calls;
  Obs.Metrics.observe t.cycles (Sim.Engine.clock (K.engine t.kernel) - start);
  r

let call t f =
  let start = enter t in
  leave t start (f t.kernel)

let copy t len = Sgx.Enclave.charge_copy t.enclave ~crossing:true len

let io t (op : Iouring_fm.op) ~fd ~off ~buf ~pos ~len =
  let start = enter t in
  (match op with Write | Send -> copy t len | Read | Recv -> ());
  let r =
    match op with
    | Read -> K.pread t.kernel fd ~off buf pos len
    | Write -> K.pwrite t.kernel fd ~off buf pos len
    | Send -> K.send t.kernel fd buf pos len
    | Recv -> K.recv t.kernel fd buf pos len
  in
  (match (op, r) with (Read | Recv), Ok n -> copy t n | _ -> ());
  leave t start r

let udp_socket t = call t K.udp_socket

let udp_bind t fd ~port = call t (fun k -> K.bind k fd (K.server_ip k) port)

let udp_sendto t fd payload ~dst =
  call t (fun k ->
      copy t (Bytes.length payload);
      K.sendto k fd payload ~dst)

let udp_recvfrom t fd ~max =
  call t (fun k ->
      match K.recvfrom k fd ~max with
      | Ok (payload, _) as r ->
          copy t (Bytes.length payload);
          r
      | Error _ as r -> r)

let udp_readable t fd = K.fd_ready t.kernel fd `In

let udp_close t fd = call t (fun k -> ignore (K.close k fd))
