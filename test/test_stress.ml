(* Stress and failure-injection tests: engine scale, recovery of the
   curl transfer protocol under a corrupting host, memcached's retry
   path under drop-heavy overload, and MM kick coalescing. *)

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* {1 Engine scale} *)

let test_engine_many_processes () =
  let e = Sim.Engine.create () in
  let n = 10_000 in
  let done_ = ref 0 in
  for i = 1 to n do
    Sim.Engine.spawn e (fun () ->
        Sim.Engine.delay (Int64.of_int (i mod 97));
        incr done_)
  done;
  Sim.Engine.run e;
  check "all processes completed" n !done_

let test_engine_deep_chain () =
  (* A long chain of condition hand-offs: no stack growth, no loss. *)
  let e = Sim.Engine.create () in
  let hops = 5_000 in
  let conds = Array.init (hops + 1) (fun _ -> Sim.Condition.create ()) in
  let reached = ref 0 in
  for i = 0 to hops - 1 do
    Sim.Engine.spawn e (fun () ->
        Sim.Condition.wait conds.(i);
        incr reached;
        Sim.Condition.signal conds.(i + 1))
  done;
  Sim.Engine.spawn e (fun () -> Sim.Condition.signal conds.(0));
  Sim.Engine.run e;
  check "chain completed" hops !reached

let test_mailbox_producer_consumer_storm () =
  let e = Sim.Engine.create () in
  let mb = Sim.Mailbox.create ~capacity:16 () in
  let produced = 4 * 2_000 in
  let consumed = ref 0 in
  for p = 1 to 4 do
    Sim.Engine.spawn e (fun () ->
        for i = 1 to 2_000 do
          Sim.Mailbox.put mb (p, i)
        done)
  done;
  for _ = 1 to 4 do
    Sim.Engine.spawn e (fun () ->
        for _ = 1 to 2_000 do
          ignore (Sim.Mailbox.get mb);
          incr consumed
        done)
  done;
  Sim.Engine.run e;
  check "all messages delivered exactly once" produced !consumed

(* {1 Curl under a corrupting host} *)

let test_curl_recovers_from_corruption () =
  (* A host that corrupts 2% of frames: checksums reject them in
     whichever stack receives them, and go-back-N must still complete
     the transfer with the full byte count.  The corruption pattern is
     seed-dependent, so the seed goes through the flake guard: a red
     run prints it, RAKIS_SEED replays it. *)
  let seed = Flake.seed 21L in
  Flake.guard ~name:"curl corruption" ~seed @@ fun () ->
  match Apps.Harness.make Libos.Env.Rakis_sgx () with
  | Error e -> Alcotest.fail e
  | Ok h ->
      let m = Hostos.Malice.create ~seed () in
      Hostos.Malice.arm m (Hostos.Injector.Probability 0.02) Hostos.Malice.Corrupt_packet;
      Hostos.Kernel.set_malice h.kernel (Some m);
      let size = 2 * 1024 * 1024 in
      let r = Apps.Curl.run h ~file_size:size in
      let chunks = (size + Apps.Curl.chunk_payload - 1) / Apps.Curl.chunk_payload in
      check_bool "corruption actually fired" true (Hostos.Malice.fired m > 0);
      check_bool "retransmissions happened" true (r.retransmits > 0);
      check_bool "transfer still completed in full" true
        (r.received_bytes >= chunks * Apps.Curl.chunk_payload)

(* {1 Memcached retry path under overload} *)

let test_memcached_retries_complete_under_drops () =
  (* Tiny socket queues force drops; the memaslap timeout/retry logic
     must still complete every operation. *)
  match
    Apps.Harness.make Libos.Env.Rakis_sgx
      ~rakis_config:
        {
          Rakis.Config.default with
          ring_size = 32;
          umem_size = 128 * 2048;
        }
      ()
  with
  | Error e -> Alcotest.fail e
  | Ok h ->
      let r = Apps.Memcached.run ~connections:48 h ~server_threads:1 ~ops:2000 in
      check_bool "completed" true (r.completed_ops >= 2000)

(* {1 Monitor kick coalescing} *)

let test_monitor_coalesces_kicks () =
  (* Many FM publishes between MM scans must not translate into one
     syscall each: the pending flag coalesces them. *)
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine ~nic_queues:1 () in
  let config =
    { Rakis.Config.default with ring_size = 64; umem_size = 256 * 2048 }
  in
  let runtime = Result.get_ok (Rakis.Runtime.boot kernel ~sgx:true ~config ()) in
  let sent = 64 in
  Sim.Engine.spawn engine (fun () ->
      let sock = Rakis.Runtime.udp_socket runtime in
      ignore (Rakis.Runtime.udp_bind runtime sock 5400);
      (* Burst of sends back-to-back: every one kicks the MM. *)
      for _ = 1 to sent do
        ignore
          (Rakis.Runtime.udp_sendto runtime sock (Bytes.make 64 'k')
             ~dst:(Hostos.Kernel.client_ip kernel, 9999))
      done;
      Sim.Engine.delay (Sim.Cycles.of_ms 1.);
      Sim.Engine.stop engine);
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 5.) engine;
  let wakeups = Rakis.Monitor.wakeup_syscalls (Rakis.Runtime.monitor runtime) in
  check_bool "some wakeups issued" true (wakeups > 0);
  (* Strictly fewer syscalls than sends+refills would naively cost. *)
  check_bool "kicks coalesced" true (wakeups < 2 * sent)

(* {1 Full pipeline soak} *)

let test_rakis_bidirectional_soak () =
  (* Sustained two-way traffic through one XSK: nothing leaks, nothing
     deadlocks, UMem conservation holds at the end. *)
  match
    Apps.Harness.make Libos.Env.Rakis_sgx
      ~rakis_config:
        { Rakis.Config.default with ring_size = 64; umem_size = 256 * 2048 }
      ()
  with
  | Error e -> Alcotest.fail e
  | Ok h ->
      let rounds = 3_000 in
      let ok = ref 0 in
      Sim.Engine.spawn h.engine (fun () ->
          let api = Apps.Harness.api h in
          let fd = api.Libos.Api.udp_socket () in
          ignore (api.Libos.Api.bind fd (Rakis.Config.default.ip, 7));
          let rec loop () =
            match api.Libos.Api.recvfrom fd 4096 with
            | Ok (payload, src) ->
                ignore (api.Libos.Api.sendto fd payload src);
                loop ()
            | Error _ -> ()
          in
          loop ());
      Sim.Engine.spawn h.engine (fun () ->
          Sim.Engine.delay (Sim.Cycles.of_us 50.);
          let fd = h.peer.Libos.Api.udp_socket () in
          for i = 1 to rounds do
            let payload = Bytes.make (64 + (i mod 1024)) 'z' in
            ignore
              (h.peer.Libos.Api.sendto fd payload (Rakis.Config.default.ip, 7));
            match h.peer.Libos.Api.recvfrom fd 4096 with
            | Ok (reply, _) when Bytes.length reply = Bytes.length payload ->
                incr ok
            | Ok _ | Error _ -> ()
          done;
          Apps.Harness.stop h);
      Apps.Harness.run h ~until:(Sim.Cycles.of_sec 30.);
      (match Libos.Env.runtime h.env with
      | Some rt ->
          check_bool "invariants after soak" true
            (Rakis.Runtime.invariant_holds rt);
          let fm = (Rakis.Runtime.xsk_fms rt).(0) in
          (* Frame conservation: free + in-flight = total. *)
          let umem = Rakis.Xsk_fm.umem fm in
          check "umem conservation"
            (Rakis.Umem.frame_count umem)
            (Rakis.Umem.free_frames umem
            + Rakis.Umem.outstanding umem Rakis.Umem.Rx
            + Rakis.Umem.outstanding umem Rakis.Umem.Tx)
      | None -> Alcotest.fail "no runtime");
      check "all round trips completed" rounds !ok

let suite =
  [
    ("engine: 10k concurrent processes", `Quick, test_engine_many_processes);
    ("engine: deep condition chain", `Quick, test_engine_deep_chain);
    ("mailbox: producer/consumer storm", `Quick,
     test_mailbox_producer_consumer_storm);
    ("curl: recovers from frame corruption", `Slow,
     test_curl_recovers_from_corruption);
    ("memcached: retries complete under drops", `Slow,
     test_memcached_retries_complete_under_drops);
    ("monitor: kicks are coalesced", `Quick, test_monitor_coalesces_kicks);
    ("rakis: bidirectional soak with conservation", `Slow,
     test_rakis_bidirectional_soak);
  ]
