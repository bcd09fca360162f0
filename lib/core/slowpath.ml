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

(* One metered host syscall: dispatch and exit, then [f] on the host
   kernel; its whole cycle cost lands in ["health.slow_path_cycles"]. *)
let call t f =
  let engine = K.engine t.kernel in
  let start = Sim.Engine.now engine in
  libos_exit t.enclave;
  let r = f t.kernel in
  Obs.Metrics.incr t.calls;
  Obs.Metrics.observe t.cycles
    (Int64.to_int (Int64.sub (Sim.Engine.now engine) start));
  r

let copy t len = Sgx.Enclave.charge_copy t.enclave ~crossing:true len

let copied t = function
  | Ok n ->
      copy t n;
      Ok n
  | Error _ as r -> r

let read t ~fd ~off ~buf ~pos ~len =
  call t (fun k -> copied t (K.pread k fd ~off buf pos len))

let write t ~fd ~off ~buf ~pos ~len =
  call t (fun k ->
      copy t len;
      K.pwrite k fd ~off buf pos len)

let send t ~fd ~buf ~pos ~len =
  call t (fun k ->
      copy t len;
      K.send k fd buf pos len)

let recv t ~fd ~buf ~pos ~len =
  call t (fun k -> copied t (K.recv k fd buf pos len))

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
