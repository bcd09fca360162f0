(* UDP echo under load — the iperf3-style scenario from the paper's
   introduction, with full diagnostics.

   An enclave echo server handles a burst of datagrams from a native
   client; afterwards we print the counters that tell RAKIS's story:
   zero data-path enclave exits, all traffic through the certified
   rings, the Monitor Module issuing the few wakeup syscalls.

   Run with: dune exec examples/udp_echo.exe *)

let datagrams = 2_000

let () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
  let runtime = Result.get_ok (Rakis.Runtime.boot kernel ~sgx:true ()) in
  let boot_exits = Sgx.Enclave.exits (Rakis.Runtime.enclave runtime) in

  (* Enclave echo server. *)
  Sim.Engine.spawn engine ~name:"echo-server" (fun () ->
      let sock = Rakis.Runtime.udp_socket runtime in
      Result.get_ok (Rakis.Runtime.udp_bind runtime sock 7);
      let rec loop () =
        match Rakis.Runtime.udp_recvfrom runtime sock ~max:2048 with
        | Ok (payload, src) ->
            ignore (Rakis.Runtime.udp_sendto runtime sock payload ~dst:src);
            loop ()
        | Error _ -> ()
      in
      loop ());

  (* Native client: closed-loop echo, measures round trips. *)
  let client = Libos.Hostapi.native kernel in
  let completed = ref 0 in
  let start = ref 0L and finish = ref 0L in
  Sim.Engine.spawn engine ~name:"client" (fun () ->
      Sim.Engine.delay (Sim.Cycles.of_us 50.);
      let fd = client.Libos.Api.udp_socket () in
      let payload = Bytes.make 512 'e' in
      start := Sim.Engine.now engine;
      for _ = 1 to datagrams do
        ignore
          (client.Libos.Api.sendto fd payload (Hostos.Kernel.server_ip kernel, 7));
        match client.Libos.Api.recvfrom fd 2048 with
        | Ok _ -> incr completed
        | Error _ -> ()
      done;
      finish := Sim.Engine.now engine;
      Sim.Engine.stop engine);

  Sim.Engine.run ~until:(Sim.Cycles.of_sec 10.) engine;

  let fm = (Rakis.Runtime.xsk_fms runtime).(0) in
  let elapsed = Int64.sub !finish !start in
  Format.printf "echoed %d/%d datagrams in %a (%.0f round trips/s simulated)@."
    !completed datagrams Sim.Cycles.pp_duration elapsed
    (float_of_int !completed /. Sim.Cycles.to_sec elapsed);
  Format.printf "enclave exits: %d at boot, %d during the run@." boot_exits
    (Sgx.Enclave.exits (Rakis.Runtime.enclave runtime) - boot_exits);
  Format.printf "XSK FM: %d frames in, %d frames out, %d descriptor rejects@."
    (Rakis.Xsk_fm.rx_packets fm) (Rakis.Xsk_fm.tx_packets fm)
    (Rakis.Umem.rejects (Rakis.Xsk_fm.umem fm));
  Format.printf "MM wakeup syscalls (outside the enclave): %d@."
    (Rakis.Monitor.wakeup_syscalls (Rakis.Runtime.monitor runtime));
  Format.printf "ring invariants: %s@."
    (if Rakis.Runtime.invariant_holds runtime then "held" else "BROKEN")
