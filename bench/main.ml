(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation.  With no argument it runs them all plus the claims check;
   individual targets: fig2 table1 table2 fig4a fig4b fig4c fig5a fig5b
   fig5c claims micro. *)

let usage () =
  prerr_endline
    "usage: main.exe [--metrics] [--json] \
     [fig2|table1|table2|fig4a|fig4b|fig4c|fig5a|fig5b|fig5c|claims|ablation|sensitivity|micro|sweep|zerocopy|kv|lossy|all]";
  exit 2

(* {1 Machine-readable results}

   [--json] runs the three headline workloads on rakis-sgx and writes
   one [BENCH_<workload>.json] each — throughput, p50/p99 cycles
   (log2-bucket upper bounds, so conservative) and the enclave exit
   count — for CI to archive and diff across commits. *)

type jfield = S of string | I of int | F of float

let write_json path fields =
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc "  %S: " k;
      match v with
      | S s -> Printf.fprintf oc "%S" s
      | I n -> Printf.fprintf oc "%d" n
      | F f -> Printf.fprintf oc "%.6g" f)
    fields;
  output_string oc "\n}\n";
  close_out oc;
  Format.printf "wrote %s@." path

let run_json () =
  let h = Figures.harness Libos.Env.Rakis_sgx in
  let r = Apps.Udp_echo.run h ~datagrams:2000 ~payload_size:512 in
  write_json "BENCH_udp_echo.json"
    [
      ("workload", S "udp_echo");
      ("env", S r.Apps.Udp_echo.env);
      ("datagrams", I r.Apps.Udp_echo.datagrams);
      ("echoed", I r.Apps.Udp_echo.echoed);
      ("round_trips_per_sec", F r.Apps.Udp_echo.round_trips_per_sec);
      ("p50_cycles", I r.Apps.Udp_echo.rtt_p50);
      ("p99_cycles", I r.Apps.Udp_echo.rtt_p99);
      ("exits", I (Libos.Env.exits h.Apps.Harness.env));
    ];
  let h = Figures.harness Libos.Env.Rakis_sgx in
  let r = Apps.Iperf.run h ~packet_size:1460 ~packets:12_000 in
  write_json "BENCH_iperf.json"
    [
      ("workload", S "iperf");
      ("env", S r.Apps.Iperf.env);
      ("sent_packets", I r.Apps.Iperf.sent_packets);
      ("received_packets", I r.Apps.Iperf.received_packets);
      ("goodput_gbps", F r.Apps.Iperf.goodput_gbps);
      ("loss", F r.Apps.Iperf.loss);
      ("p50_cycles", I r.Apps.Iperf.gap_p50);
      ("p99_cycles", I r.Apps.Iperf.gap_p99);
      ("exits", I (Libos.Env.exits h.Apps.Harness.env));
    ];
  let h = Figures.harness Libos.Env.Rakis_sgx in
  let r = Apps.Fstime.run h ~block_size:4096 ~blocks:3000 in
  write_json "BENCH_fstime.json"
    [
      ("workload", S "fstime");
      ("env", S r.Apps.Fstime.env);
      ("bytes", I r.Apps.Fstime.bytes);
      ("mb_per_sec", F r.Apps.Fstime.mb_per_sec);
      ("p50_cycles", I r.Apps.Fstime.op_p50);
      ("p99_cycles", I r.Apps.Fstime.op_p99);
      ("exits", I (Libos.Env.exits h.Apps.Harness.env));
    ]

(* {1 Zero-copy payoff}

   Part of [--json]: the transmit-heavy pair — iperf-TCP (the enclave
   as sender, the SEND_ZC showcase) and fstime (fixed-buffer file IO)
   — runs with the zero-copy datapath off and on, recording sender
   cycles/byte for each path into [BENCH_zerocopy.json] together with
   the per-uring zero-copy counters of the zc runs (one uring FM per
   enclave thread — the per-shard breakdown for these single-ring
   workloads).  Gate: SEND_ZC cycles/byte must be strictly below the
   copy path (it skips the kernel's bounce copy,
   [Sgx.Params.iouring_copy_cycles_per_byte]). *)

let zc_harness ~zerocopy =
  Figures.harness
    ~rakis_config:{ Rakis.Config.default with zerocopy }
    Libos.Env.Rakis_sgx

(* Every "<uring>.zc_*" counter of a finished run, JSON-keyed under
   [prefix]. *)
let zc_counters h prefix =
  match Libos.Env.runtime h.Apps.Harness.env with
  | None -> []
  | Some rt ->
      List.filter_map
        (fun (name, v) ->
          if
            List.exists
              (fun suffix -> Filename.check_suffix name suffix)
              [ ".zc_sends"; ".zc_fallbacks"; ".zc_notifs" ]
          then Some (prefix ^ "_" ^ name, I v)
          else None)
        (Obs.Metrics.counters (Obs.metrics (Rakis.Runtime.obs rt)))

let run_zc_json () =
  let iperf zerocopy =
    let h = zc_harness ~zerocopy in
    (Apps.Iperf_tcp.run h ~bytes:(4 * 1024 * 1024), h)
  in
  let fstime zerocopy =
    let h = zc_harness ~zerocopy in
    let r = Apps.Fstime.run h ~block_size:4096 ~blocks:2000 in
    let cpb =
      if r.Apps.Fstime.bytes = 0 then 0.
      else
        Int64.to_float r.Apps.Fstime.duration
        /. float_of_int r.Apps.Fstime.bytes
    in
    (cpb, h)
  in
  let it_copy, _ = iperf false in
  let it_zc, it_h = iperf true in
  let fs_copy_cpb, _ = fstime false in
  let fs_zc_cpb, fs_h = fstime true in
  write_json "BENCH_zerocopy.json"
    ([
       ("workload", S "zerocopy");
       ("env", S "rakis-sgx");
       ("iperf_tcp_bytes", I it_zc.Apps.Iperf_tcp.bytes_sent);
       ("iperf_tcp_copy_cycles_per_byte", F it_copy.Apps.Iperf_tcp.cycles_per_byte);
       ("iperf_tcp_zc_cycles_per_byte", F it_zc.Apps.Iperf_tcp.cycles_per_byte);
       ( "iperf_tcp_zc_saving_per_byte",
         F
           (it_copy.Apps.Iperf_tcp.cycles_per_byte
           -. it_zc.Apps.Iperf_tcp.cycles_per_byte) );
       ("iperf_tcp_zc_sends", I it_zc.Apps.Iperf_tcp.zc_sends);
       ("iperf_tcp_zc_fallbacks", I it_zc.Apps.Iperf_tcp.zc_fallbacks);
       ("iperf_tcp_zc_notifs", I it_zc.Apps.Iperf_tcp.zc_notifs);
       ("iperf_tcp_zc_leaks", I it_zc.Apps.Iperf_tcp.zc_leaks);
       ("fstime_copy_cycles_per_byte", F fs_copy_cpb);
       ("fstime_zc_cycles_per_byte", F fs_zc_cpb);
       ("fstime_zc_saving_per_byte", F (fs_copy_cpb -. fs_zc_cpb));
     ]
    @ zc_counters it_h "iperf_tcp"
    @ zc_counters fs_h "fstime");
  Format.printf
    "iperf-tcp cycles/byte: copy %.4f, zc %.4f; fstime: copy %.4f, zc %.4f \
     (gate: zc < copy on iperf-tcp)@."
    it_copy.Apps.Iperf_tcp.cycles_per_byte it_zc.Apps.Iperf_tcp.cycles_per_byte
    fs_copy_cpb fs_zc_cpb;
  if
    it_zc.Apps.Iperf_tcp.cycles_per_byte
    >= it_copy.Apps.Iperf_tcp.cycles_per_byte
  then begin
    Format.printf "FAIL: SEND_ZC did not beat the copy path@.";
    exit 1
  end

(* {1 KV overload payoff}

   Part of [--json]: the loadgen-driven memcached-style KV workload
   (DESIGN.md §15) three ways on the 2-shard datapath — a client-paced
   closed-loop baseline, a concurrency overload (40x the baseline's
   connection count, each keeping one op in flight, so the in-flight
   population alone dwarfs the saturation watermark) with admission
   control off, and the same crowd with [Config.overload] on —
   recording p50/p99/p999 round-trip cycles and the accounting ledger
   of each run into [BENCH_kv.json].  The overloaded runs raise the
   client timeout to 5 ms so the deep no-control queue is measured
   rather than truncated by client gives-up.  Gate: under overload,
   shedding must improve the p99 of admitted requests — without
   admission control every admitted op rides the full-crowd queue;
   with it the controller sheds at the edge (visible as [server_shed])
   and the admitted tail stays short.  Admission control that does not
   buy tail latency would be dead weight. *)

let kv_server_threads = 4

let kv_harness ~overload =
  Figures.harness
    ~rakis_config:
      {
        Rakis.Config.default with
        num_queues = 2;
        num_xsks = kv_server_threads;
        overload;
      }
    Libos.Env.Rakis_sgx

let kv_crowd_connections = 640

let run_kv_json () =
  let run ~overload ~crowd =
    let h = kv_harness ~overload in
    let config =
      if crowd then
        {
          Apps.Loadgen.default with
          connections = kv_crowd_connections;
          ops = 12_000;
          timeout = 12_000_000L;
        }
      else { Apps.Loadgen.default with connections = 16; ops = 6000 }
    in
    let s = Apps.Loadgen.run ~config h ~server_threads:kv_server_threads in
    let server_shed =
      match Libos.Env.runtime h.Apps.Harness.env with
      | None -> 0
      | Some rt -> Rakis.Runtime.total_overload_shed rt
    in
    (s, server_shed)
  in
  let base, _ = run ~overload:false ~crowd:false in
  let hot, _ = run ~overload:false ~crowd:true in
  let ctl, ctl_shed = run ~overload:true ~crowd:true in
  let fields tag ((s : Apps.Loadgen.stats), server_shed) =
    [
      (tag ^ "_offered", I s.Apps.Loadgen.offered);
      (tag ^ "_completed", I s.Apps.Loadgen.completed);
      (tag ^ "_lost", I s.Apps.Loadgen.lost);
      (tag ^ "_server_shed", I server_shed);
      (tag ^ "_p50_cycles", I s.Apps.Loadgen.latency.Obs.Metrics.s_p50);
      (tag ^ "_p99_cycles", I s.Apps.Loadgen.latency.Obs.Metrics.s_p99);
      (tag ^ "_p999_cycles", I s.Apps.Loadgen.latency.Obs.Metrics.s_p999);
      (tag ^ "_goodput_kops", F s.Apps.Loadgen.goodput_kops);
    ]
  in
  write_json "BENCH_kv.json"
    ([
       ("workload", S "kv_loadgen");
       ("env", S "rakis-sgx");
       ("queues", I 2);
       ("server_threads", I kv_server_threads);
     ]
    @ fields "baseline" (base, 0)
    @ fields "overload_nocontrol" (hot, 0)
    @ fields "overload_shedding" (ctl, ctl_shed));
  let p99 (s : Apps.Loadgen.stats) = s.Apps.Loadgen.latency.Obs.Metrics.s_p99 in
  Format.printf
    "kv p99 cycles: baseline %d, overloaded %d, overloaded+shedding %d \
     (server sheds %d; gate: shedding < no control)@."
    (p99 base) (p99 hot) (p99 ctl) ctl_shed;
  if p99 ctl >= p99 hot then begin
    Format.printf "FAIL: shedding did not improve the overloaded p99@.";
    exit 1
  end

(* {1 Lossy-wire payoff}

   Part of [--json]: the KV loadgen under the canonical hostile-wire
   weather ({!Tm.Campaign.wire_plan} — 5% drop, 5% reorder, 5%
   duplicate, 1% truncation), plain UDP vs the reliable-datagram layer
   ({!Netstack.Rdp}, DESIGN.md §16).  Plain UDP pays for every lost
   request with a client timeout; RDP's retransmit clock recovers them
   inside the (raised) op deadline, its dedup window absorbs the
   duplicates, and whatever it abandons is a counted give-up.
   Recorded into [BENCH_lossy.json]: the accounting ledger and latency
   tail of both legs, the RDP retransmit/give-up counts and the
   injector's fault totals.  Gates: zero silent loss on both legs, and
   the RDP leg completes >= 99% of offered ops — loss the wire
   inflicts, the datagram layer must win back. *)

let lossy_ops = 4000

let lossy_wire_seed = 0x3417EL

let run_lossy_json () =
  let leg ~rdp =
    let h = kv_harness ~overload:false in
    let rt =
      match Libos.Env.runtime h.Apps.Harness.env with
      | Some rt -> rt
      | None -> failwith "lossy: no RAKIS runtime"
    in
    let injector =
      Hostos.Faults.create ~obs:(Rakis.Runtime.obs rt) ~seed:lossy_wire_seed ()
    in
    Hostos.Faults.install injector Tm.Campaign.wire_plan;
    Hostos.Kernel.set_faults h.Apps.Harness.kernel (Some injector);
    let config =
      {
        Apps.Loadgen.default with
        connections = 16;
        ops = lossy_ops;
        rdp;
        (* several RTOs must fit inside the op deadline for
           retransmission to win the race against the client timeout *)
        timeout =
          (if rdp then Sim.Cycles.of_ms 2.
           else Apps.Loadgen.default.Apps.Loadgen.timeout);
      }
    in
    let s = Apps.Loadgen.run ~config h ~server_threads:kv_server_threads in
    let silent = Apps.Loadgen.silent_loss s h rt in
    (s, Hostos.Kernel.wire_losses (Rakis.Runtime.kernel rt), max 0 silent)
  in
  let plain, plain_wire, plain_silent = leg ~rdp:false in
  let over, over_wire, over_silent = leg ~rdp:true in
  let completion (s : Apps.Loadgen.stats) =
    if s.Apps.Loadgen.offered = 0 then 0.
    else
      float_of_int s.Apps.Loadgen.completed
      /. float_of_int s.Apps.Loadgen.offered
  in
  let fields tag ((s : Apps.Loadgen.stats), wire_losses, silent) =
    [
      (tag ^ "_offered", I s.Apps.Loadgen.offered);
      (tag ^ "_completed", I s.Apps.Loadgen.completed);
      (tag ^ "_completion", F (completion s));
      (tag ^ "_lost", I s.Apps.Loadgen.lost);
      (tag ^ "_late", I s.Apps.Loadgen.late);
      (tag ^ "_rdp_retransmits", I s.Apps.Loadgen.rdp_retransmits);
      (tag ^ "_rdp_gave_up", I s.Apps.Loadgen.rdp_gave_up);
      (tag ^ "_wire_losses", I wire_losses);
      (tag ^ "_silent", I silent);
      (tag ^ "_p50_cycles", I s.Apps.Loadgen.latency.Obs.Metrics.s_p50);
      (tag ^ "_p99_cycles", I s.Apps.Loadgen.latency.Obs.Metrics.s_p99);
      (tag ^ "_goodput_kops", F s.Apps.Loadgen.goodput_kops);
    ]
  in
  write_json "BENCH_lossy.json"
    ([
       ("workload", S "kv_lossy_wire");
       ("env", S "rakis-sgx");
       ("queues", I 2);
       ("server_threads", I kv_server_threads);
       ("ops", I lossy_ops);
       ("wire_plan", S (Hostos.Faults.plan_to_string Tm.Campaign.wire_plan));
     ]
    @ fields "udp" (plain, plain_wire, plain_silent)
    @ fields "rdp" (over, over_wire, over_silent));
  Format.printf
    "lossy wire: udp completes %.1f%% (%d wire losses), rdp completes %.1f%% \
     (%d retransmits, %d give-ups; gate: >= 99%% and zero silent loss)@."
    (100. *. completion plain)
    plain_wire
    (100. *. completion over)
    over.Apps.Loadgen.rdp_retransmits over.Apps.Loadgen.rdp_gave_up;
  if plain_silent > 0 || over_silent > 0 then begin
    Format.printf "FAIL: silent loss under the wire plan (udp %d, rdp %d)@."
      plain_silent over_silent;
    exit 1
  end;
  if completion over < 0.99 then begin
    Format.printf "FAIL: rdp completion below the 99%% gate@.";
    exit 1
  end

(* {1 Queue-scaling sweep}

   The DESIGN.md §10 headline: boot the datapath with 1, 2, 4 and 8
   shards against the same 8-queue NIC and measure iperf goodput and
   udp_echo round-trip rate.  The link is raised to 100 Gbps so the wire
   is never the bottleneck — a single enclave stack saturates around
   ~1700 cycles/packet, which is exactly the ceiling sharding removes.
   Streams/flows bind RSS-uniform source ports (Shards.spread_ports) so
   scaling measures the datapath, not Toeplitz luck. *)

let sweep_nic_queues = 8

let sweep_streams = 16

let sweep_harness ~queues =
  Figures.harness
    ~rakis_config:{ Rakis.Config.default with num_queues = queues }
    ~nic_queues:sweep_nic_queues Libos.Env.Rakis_sgx

let run_sweep () =
  Sgx.Params.set_link_gbps 100.;
  let points = [ 1; 2; 4; 8 ] in
  let results =
    List.map
      (fun queues ->
        let h = sweep_harness ~queues in
        let src_ports =
          Apps.Shards.spread_ports h ~n:sweep_streams
            ~dst:(Packet.Addr.Ip.of_repr "10.0.0.1", Apps.Iperf.port)
            ~base:42000
        in
        let ip =
          Apps.Iperf.run ~streams:sweep_streams ~src_ports h ~packet_size:1460
            ~packets:48_000
        in
        (* The closed-loop echo is capped by the single native client
           (~1.3M rt/s regardless of shards); what sharding buys it is
           latency — queueing delay at the lone shard dominates p50 at
           high flow counts — so the sweep records both. *)
        let h = sweep_harness ~queues in
        let echo =
          Apps.Udp_echo.run ~flows:64 h ~datagrams:16_000 ~payload_size:512
        in
        Format.printf
          "queues=%d  iperf %.2f Gbps (loss %.1f%%)  udp_echo %.0f rt/s p50<=%d@."
          queues ip.Apps.Iperf.goodput_gbps
          (100. *. ip.Apps.Iperf.loss)
          echo.Apps.Udp_echo.round_trips_per_sec echo.Apps.Udp_echo.rtt_p50;
        (queues, ip, echo))
      points
  in
  let gbps q =
    let _, ip, _ = List.find (fun (q', _, _) -> q' = q) results in
    ip.Apps.Iperf.goodput_gbps
  in
  let p50 q =
    let _, _, e = List.find (fun (q', _, _) -> q' = q) results in
    e.Apps.Udp_echo.rtt_p50
  in
  let fields =
    [
      ("workload", S "sweep_queues");
      ("env", S "rakis-sgx");
      ("link_gbps", F 100.);
      ("nic_queues", I sweep_nic_queues);
      ("streams", I sweep_streams);
    ]
    @ List.concat_map
        (fun (q, ip, echo) ->
          [
            (Printf.sprintf "iperf_gbps_q%d" q, F ip.Apps.Iperf.goodput_gbps);
            ( Printf.sprintf "echo_rtps_q%d" q,
              F echo.Apps.Udp_echo.round_trips_per_sec );
            (Printf.sprintf "echo_p50_q%d" q, I echo.Apps.Udp_echo.rtt_p50);
          ])
        results
    @ [
        ("iperf_speedup_4q", F (gbps 4 /. gbps 1));
        ("iperf_speedup_8q", F (gbps 8 /. gbps 1));
        ( "echo_p50_ratio_4q",
          F (float_of_int (p50 1) /. float_of_int (p50 4)) );
      ]
  in
  write_json "BENCH_sweep_queues.json" fields;
  let s4 = gbps 4 /. gbps 1 in
  Format.printf "iperf 1->4 queue speedup: %.2fx (gate: >= 3x)@." s4;
  if s4 < 3. then begin
    Format.printf "FAIL: queue sweep below the near-linear scaling gate@.";
    exit 1
  end

let run_all () =
  ignore (Figures.fig2 ());
  Figures.table1 ();
  Figures.table2 ();
  let f4a = Figures.fig4a () in
  let f4b = Figures.fig4b () in
  let f4c = Figures.fig4c () in
  let f5a = Figures.fig5a () in
  let f5b = Figures.fig5b () in
  let f5c = Figures.fig5c () in
  let ok =
    Figures.claims ~fig4a:f4a ~fig4b:f4b ~fig4c:f4c ~fig5a:f5a ~fig5b:f5b
      ~fig5c:f5c ()
  in
  Figures.ablation ();
  Figures.sensitivity ();
  Micro.run ();
  Format.printf "@.Overall claims verdict: %s@."
    (if ok then "ALL PASS" else "SOME FAILED");
  if not ok then exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let metrics = List.mem "--metrics" args in
  let json = List.mem "--json" args in
  let args =
    List.filter (fun a -> a <> "--metrics" && a <> "--json") args
  in
  if json then begin
    run_json ();
    run_zc_json ();
    run_kv_json ();
    run_lossy_json ()
  end
  else
  (match args with
  | [] | [ "all" ] -> run_all ()
  | [ "fig2" ] -> ignore (Figures.fig2 ())
  | [ "table1" ] -> Figures.table1 ()
  | [ "table2" ] -> Figures.table2 ()
  | [ "fig4a" ] -> ignore (Figures.fig4a ())
  | [ "fig4b" ] -> ignore (Figures.fig4b ())
  | [ "fig4c" ] -> ignore (Figures.fig4c ())
  | [ "fig5a" ] -> ignore (Figures.fig5a ())
  | [ "fig5b" ] -> ignore (Figures.fig5b ())
  | [ "fig5c" ] -> ignore (Figures.fig5c ())
  | [ "ablation" ] -> Figures.ablation ()
  | [ "sensitivity" ] -> Figures.sensitivity ()
  | [ "claims" ] -> if not (Figures.claims ()) then exit 1
  | [ "micro" ] -> Micro.run ()
  | [ "sweep" ] -> run_sweep ()
  | [ "zerocopy" ] -> run_zc_json ()
  | [ "kv" ] -> run_kv_json ()
  | [ "lossy" ] -> run_lossy_json ()
  | _ -> usage ());
  if metrics then Figures.dump_metrics ()
