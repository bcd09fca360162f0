type series = (string * (string * float) list) list

let envs = Libos.Env.all

(* The most recent RAKIS harness booted by [harness]: [main.exe
   --metrics <target>] dumps its registry after the target runs. *)
let last_rakis : Apps.Harness.t option ref = ref None

let harness ?rakis_config ?nic_queues kind =
  match Apps.Harness.make kind ?rakis_config ?nic_queues () with
  | Ok h ->
      if Option.is_some (Libos.Env.runtime h.Apps.Harness.env) then
        last_rakis := Some h;
      h
  | Error e -> failwith (Libos.Env.kind_name kind ^ ": " ^ e)

let dump_metrics () =
  match !last_rakis with
  | None -> Format.printf "@.(no RAKIS environment ran; no metrics to dump)@."
  | Some h -> (
      match Libos.Env.runtime h.Apps.Harness.env with
      | None -> ()
      | Some rt ->
          Format.printf "@.== metrics (last RAKIS harness of the run) ==@.%a@."
            Obs.Metrics.pp
            (Obs.metrics (Rakis.Runtime.obs rt)))

let print_header title =
  Format.printf "@.=== %s ===@." title

let print_series ~title ~xaxis ~unit (series : series) =
  print_header title;
  (match series with
  | [] -> ()
  | (_, first) :: _ ->
      Format.printf "%-16s" xaxis;
      List.iter (fun (x, _) -> Format.printf "%12s" x) first;
      Format.printf "   (%s)@." unit);
  List.iter
    (fun (env, points) ->
      Format.printf "%-16s" env;
      List.iter (fun (_, v) -> Format.printf "%12.2f" v) points;
      Format.printf "@.")
    series

let series_value series env x =
  match List.assoc_opt env series with
  | None -> nan
  | Some points -> Option.value ~default:nan (List.assoc_opt x points)

(* Mean of pointwise ratios between two environments' series — how the
   paper reports "Nx average" factors across a sweep. *)
let series_ratio_avg series num den =
  match (List.assoc_opt num series, List.assoc_opt den series) with
  | Some ns, Some ds when ns <> [] ->
      let ratios =
        List.map2 (fun (_, n) (_, d) -> n /. d) ns ds
      in
      List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios)
  | _ -> nan

let series_avg series env =
  match List.assoc_opt env series with
  | None | Some [] -> nan
  | Some points ->
      List.fold_left (fun acc (_, v) -> acc +. v) 0. points
      /. float_of_int (List.length points)

(* {1 Figure 2} *)

let fig2 () =
  print_header
    "Figure 2: enclave exits, iperf3 UDP test (10k datagrams) vs HelloWorld";
  let results =
    [
      ( "helloworld (baseline)",
        (Apps.Helloworld.run (harness Libos.Env.Gramine_sgx)).exits );
      ( "iperf3 rakis-sgx",
        let h = harness Libos.Env.Rakis_sgx in
        ignore (Apps.Iperf.run h ~packet_size:1460 ~packets:10_000);
        Libos.Env.exits h.env );
      ( "iperf3 gramine-sgx",
        let h = harness Libos.Env.Gramine_sgx in
        ignore (Apps.Iperf.run h ~packet_size:1460 ~packets:10_000);
        Libos.Env.exits h.env );
    ]
  in
  List.iter
    (fun (label, exits) ->
      Format.printf "%-24s %8d exits   (log10 = %.2f)@." label exits
        (if exits > 0 then log10 (float_of_int exits) else 0.))
    results;
  results

(* {1 Table 1} *)

let table1 () =
  print_header "Table 1: FIOKP ring inventory (validated on a live runtime)";
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
  let runtime = Result.get_ok (Rakis.Runtime.boot kernel ~sgx:true ()) in
  let fm = (Rakis.Runtime.xsk_fms runtime).(0) in
  let role r =
    match Rings.Certified.role r with
    | Rings.Certified.Producer -> "user-producer"
    | Rings.Certified.Consumer -> "user-consumer"
  in
  let rows =
    [
      ("xFill", role (Rakis.Xsk_fm.fill_ring fm),
       "Supply kernel with UMem frames for incoming packets");
      ("xRX", role (Rakis.Xsk_fm.rx_ring fm),
       "Receive populated UMem frames from kernel");
      ("xTX", role (Rakis.Xsk_fm.tx_ring fm),
       "Request kernel to transmit UMem frames");
      ("xCompl", role (Rakis.Xsk_fm.compl_ring fm),
       "Pass UMem frames to user after transmit is complete");
      ("iSub", "user-producer", "Submit asynchronous IO requests to the kernel");
      ("iCompl", "user-consumer", "Provide status information for I/O operations");
    ]
  in
  Format.printf "%-8s %-15s %s@." "Ring" "Role" "Purpose";
  List.iter
    (fun (name, role, purpose) ->
      Format.printf "%-8s %-15s %s@." name role purpose)
    rows

(* {1 Table 2} *)

let table2 () =
  print_header
    "Table 2: untrusted-data checks under each attack class (200 datagrams + \
     20 io_uring ops per row; notif rows: 40 zero-copy campaign steps)";
  Format.printf "%-22s %8s %8s %8s %8s %10s@." "attack" "fired" "ring-rej"
    "umem-rej" "cqe-rej" "invariant";
  let run_attack attack =
    let engine = Sim.Engine.create () in
    let kernel = Hostos.Kernel.create engine ~nic_queues:1 () in
    let config =
      { Rakis.Config.default with ring_size = 64; umem_size = 256 * 2048 }
    in
    let runtime = Result.get_ok (Rakis.Runtime.boot kernel ~sgx:true ~config ()) in
    let m = Hostos.Malice.create ~seed:5L () in
    Hostos.Malice.arm m ~probability:0.3 attack;
    Hostos.Kernel.set_malice kernel (Some m);
    let client = Libos.Hostapi.native kernel in
    (* Enclave UDP sink. *)
    Sim.Engine.spawn engine (fun () ->
        let sock = Rakis.Runtime.udp_socket runtime in
        ignore (Rakis.Runtime.udp_bind runtime sock 5201);
        let rec loop () =
          match Rakis.Runtime.udp_recvfrom runtime sock ~max:2048 with
          | Ok _ -> loop ()
          | Error _ -> ()
        in
        loop ());
    Sim.Engine.spawn engine (fun () ->
        (* UDP traffic exercises the XSK checks... *)
        let fd = client.Libos.Api.udp_socket () in
        for _ = 1 to 200 do
          ignore
            (client.Libos.Api.sendto fd (Bytes.make 256 'a')
               (Rakis.Config.default.ip, 5201))
        done;
        (* ...and a few io_uring file ops exercise the CQE checks. *)
        (match Rakis.Runtime.new_thread runtime with
        | Error _ -> ()
        | Ok thread ->
            let proxy = Rakis.Runtime.syncproxy thread in
            let fd =
              Result.get_ok (Hostos.Kernel.openf kernel ~create:true "/t2")
            in
            let buf = Bytes.make 128 'b' in
            for i = 0 to 19 do
              ignore
                (Rakis.Syncproxy.write proxy ~fd ~off:(i * 128) ~buf ~pos:0
                   ~len:128)
            done);
        Sim.Engine.delay (Sim.Cycles.of_ms 2.);
        Sim.Engine.stop engine);
    Sim.Engine.run ~until:(Sim.Cycles.of_sec 20.) engine;
    let umem_rejects =
      Array.fold_left
        (fun acc fm -> acc + Rakis.Umem.rejects (Rakis.Xsk_fm.umem fm))
        0
        (Rakis.Runtime.xsk_fms runtime)
    in
    Format.printf "%-22s %8d %8d %8d %8d %10s@."
      (Format.asprintf "%a" Hostos.Malice.pp_attack attack)
      (Hostos.Malice.fired m)
      (Rakis.Runtime.total_ring_check_failures runtime)
      umem_rejects
      (Rakis.Runtime.total_desc_rejects runtime - umem_rejects)
      (if Rakis.Runtime.invariant_holds runtime then "HELD" else "BROKEN")
  in
  (* The notif attacks only have a surface on the zero-copy io_uring
     datapath (docs/zerocopy.md), so their rows drive the campaign's
     SEND_ZC workload instead of the UDP/file mix above. *)
  let run_notif_attack attack =
    let o =
      Tm.Campaign.run ~datapath:Tm.Campaign.Iouring ~seed:5L ~budget:40
        ~zerocopy:true
        [ Tm.Campaign.During { first = 2; last = 38; probability = 0.3; attack } ]
    in
    let fired =
      try List.assoc attack o.Tm.Campaign.fired with Not_found -> 0
    in
    Format.printf "%-22s %8d %8d %8d %8d %10s@."
      (Format.asprintf "%a" Hostos.Malice.pp_attack attack)
      fired o.Tm.Campaign.ring_rejects
      (o.Tm.Campaign.desc_rejects - o.Tm.Campaign.zc_notif_rejects)
      o.Tm.Campaign.zc_notif_rejects
      (if o.Tm.Campaign.invariant_ok && o.Tm.Campaign.violations = [] then
         (* a withheld notif strands frames, never breaks integrity;
            the campaign separately fails on the zc_leaks footprint *)
         if o.Tm.Campaign.zc_leaks > 0 then "HELD*" else "HELD"
       else "BROKEN")
  in
  List.iter
    (fun attack ->
      match attack with
      | Hostos.Malice.Forged_early_notif | Hostos.Malice.Dropped_notif
      | Hostos.Malice.Double_notif ->
          run_notif_attack attack
      | _ -> run_attack attack)
    Hostos.Malice.all_attacks;
  Format.printf
    "(notif rows: zero-copy io_uring campaign workload; HELD* = no \
     integrity breach, but withheld notifs stranded frames — the \
     zc_leaks footprint tm_verify --campaign fails on)@."

(* {1 Figure 4(a): iperf} *)

let packet_sizes = [ 64; 128; 256; 512; 1024; 1460 ]

let fig4a () =
  let series =
    List.map
      (fun kind ->
        ( Libos.Env.kind_name kind,
          List.map
            (fun size ->
              let h = harness kind in
              let r = Apps.Iperf.run h ~packet_size:size ~packets:12_000 in
              (string_of_int size ^ "B", r.goodput_gbps))
            packet_sizes ))
      envs
  in
  print_series ~title:"Figure 4(a): iperf3 UDP goodput vs packet size"
    ~xaxis:"packet size" ~unit:"Gbps" series;
  series

(* {1 Figure 4(b): curl} *)

let file_sizes_mb = [ 4; 16; 64 ]

let fig4b () =
  let series =
    List.map
      (fun kind ->
        ( Libos.Env.kind_name kind,
          List.map
            (fun mb ->
              let h = harness kind in
              let r = Apps.Curl.run h ~file_size:(mb * 1024 * 1024) in
              (string_of_int mb ^ "MB", r.seconds))
            file_sizes_mb ))
      envs
  in
  print_series
    ~title:
      "Figure 4(b): curl download time vs file size (paper: 10MB-1GB; scaled, \
       time is linear in size)"
    ~xaxis:"file size" ~unit:"seconds" series;
  series

(* {1 Figure 4(c): memcached} *)

let thread_counts = [ 1; 2; 4 ]

let fig4c () =
  let series =
    List.map
      (fun kind ->
        ( Libos.Env.kind_name kind,
          List.map
            (fun threads ->
              let rakis_config =
                { Rakis.Config.default with num_xsks = threads }
              in
              let h = harness ~rakis_config ~nic_queues:4 kind in
              let r =
                Apps.Memcached.run h ~server_threads:threads ~ops:15_000
              in
              (string_of_int threads ^ "thr", r.kops_per_sec))
            thread_counts ))
      envs
  in
  print_series
    ~title:
      "Figure 4(c): memcached throughput vs server threads (memaslap-style \
       closed loop, 32 connections)"
    ~xaxis:"server threads" ~unit:"kops/s" series;
  series

(* {1 Figure 5(a): fstime} *)

let write_block_sizes = [ 256; 1024; 4096; 16384; 65536; 262144 ]

let fig5a () =
  let series =
    List.map
      (fun kind ->
        ( Libos.Env.kind_name kind,
          List.map
            (fun block ->
              let h = harness kind in
              (* Fixed ~16 MB of traffic per point: enough writes for a
                 stable rate without ballooning the in-memory file. *)
              let blocks = max 500 (16 * 1024 * 1024 / block) in
              let r = Apps.Fstime.run h ~block_size:block ~blocks in
              (string_of_int block ^ "B", r.mb_per_sec))
            write_block_sizes ))
      envs
  in
  print_series ~title:"Figure 5(a): fstime file-write throughput vs block size"
    ~xaxis:"block size" ~unit:"MB/s" series;
  series

(* {1 Figure 5(b): redis} *)

let redis_commands = [ Apps.Redis.Ping; Apps.Redis.Set; Apps.Redis.Get ]

let fig5b () =
  let series =
    List.map
      (fun kind ->
        ( Libos.Env.kind_name kind,
          List.map
            (fun command ->
              let h = harness kind in
              let r = Apps.Redis.run h ~command ~ops:8000 in
              (Apps.Redis.command_name command, r.kops_per_sec))
            redis_commands ))
      envs
  in
  print_series
    ~title:
      "Figure 5(b): redis throughput per command (redis-benchmark-style, 50 \
       connections, select-based server)"
    ~xaxis:"command" ~unit:"kops/s" series;
  series

(* {1 Figure 5(c): mcrypt} *)

let read_block_sizes = [ 4096; 16384; 65536; 262144 ]

let mcrypt_file_size = 32 * 1024 * 1024

let fig5c () =
  let series =
    List.map
      (fun kind ->
        ( Libos.Env.kind_name kind,
          List.map
            (fun block ->
              let h = harness kind in
              let r =
                Apps.Mcrypt.run h ~file_size:mcrypt_file_size ~block_size:block
              in
              (string_of_int block ^ "B", r.seconds))
            read_block_sizes ))
      envs
  in
  print_series
    ~title:
      "Figure 5(c): mcrypt encryption time vs read block size (paper: 1GB \
       file; scaled to 32MB, time is linear in size)"
    ~xaxis:"block size" ~unit:"seconds" series;
  series

(* {1 Claims} *)

let claims ?fig4a:f4a ?fig4b:f4b ?fig4c:f4c ?fig5a:f5a ?fig5b:f5b ?fig5c:f5c ()
    =
  let get name opt f = match opt with Some s -> s | None -> (ignore name; f ()) in
  let f4a = get "fig4a" f4a fig4a in
  let f4b = get "fig4b" f4b fig4b in
  let f4c = get "fig4c" f4c fig4c in
  let f5a = get "fig5a" f5a fig5a in
  let f5b = get "fig5b" f5b fig5b in
  let f5c = get "fig5c" f5c fig5c in
  print_header "Artifact claims C1-C6: paper vs measured";
  Format.printf "%-4s %-52s %10s %10s %8s@." "id" "claim" "paper" "measured"
    "verdict";
  let results = ref [] in
  let row id claim paper measured ok =
    results := ok :: !results;
    Format.printf "%-4s %-52s %10s %10s %8s@." id claim paper measured
      (if ok then "PASS" else "FAIL")
  in
  (* C1: RAKIS-SGX vs native UDP throughput (paper: +11% average). *)
  let c1 = series_ratio_avg f4a "rakis-sgx" "native" in
  row "C1" "iperf: RAKIS-SGX >= native UDP goodput (avg)" "1.11x"
    (Format.asprintf "%.2fx" c1)
    (c1 >= 1.0);
  (* C2: curl download times comparable to native. *)
  let c2 = series_ratio_avg f4b "rakis-sgx" "native" in
  row "C2" "curl: RAKIS-SGX download time ~ native" "1.0x"
    (Format.asprintf "%.2fx" c2)
    (c2 <= 1.25);
  let c2g = series_ratio_avg f4b "gramine-sgx" "native" in
  row "C2'" "curl: Gramine-SGX download time >> native" "2.5x"
    (Format.asprintf "%.2fx" c2g)
    (c2g >= 2.0);
  (* C3: memcached matches native across thread counts; 4.6x over
     Gramine-SGX. *)
  let c3 = series_ratio_avg f4c "rakis-sgx" "native" in
  row "C3" "memcached: RAKIS-SGX ~ native (avg over threads)" "1.0x"
    (Format.asprintf "%.2fx" c3)
    (c3 >= 0.85);
  let c3g = series_ratio_avg f4c "rakis-sgx" "gramine-sgx" in
  row "C3'" "memcached: RAKIS-SGX >> Gramine-SGX" "4.6x"
    (Format.asprintf "%.2fx" c3g)
    (c3g >= 2.5);
  (* C4: fstime 2.8x over Gramine-SGX. *)
  let c4 = series_ratio_avg f5a "rakis-sgx" "gramine-sgx" in
  row "C4" "fstime: RAKIS-SGX >> Gramine-SGX write throughput" "2.8x"
    (Format.asprintf "%.2fx" c4)
    (c4 >= 2.0);
  (* C5: redis 2.6x over Gramine-SGX. *)
  let c5 = series_ratio_avg f5b "rakis-sgx" "gramine-sgx" in
  row "C5" "redis: RAKIS-SGX >> Gramine-SGX throughput" "2.6x"
    (Format.asprintf "%.2fx" c5)
    (c5 >= 2.0);
  let c5n = series_ratio_avg f5b "rakis-sgx" "native" in
  row "C5'" "redis: RAKIS-SGX overhead vs native" "0.60x"
    (Format.asprintf "%.2fx" c5n)
    (c5n >= 0.5 && c5n <= 1.0);
  (* C6: mcrypt ~3% over native, ~10% faster than Gramine-SGX. *)
  let c6 = series_ratio_avg f5c "rakis-sgx" "native" in
  row "C6" "mcrypt: RAKIS-SGX time ~ native" "1.03x"
    (Format.asprintf "%.2fx" c6)
    (c6 <= 1.10);
  let c6g = series_ratio_avg f5c "gramine-sgx" "rakis-sgx" in
  row "C6'" "mcrypt: Gramine-SGX slower than RAKIS-SGX" "1.10x"
    (Format.asprintf "%.2fx" c6g)
    (c6g >= 1.0);
  ignore series_value;
  ignore series_avg;
  List.for_all Fun.id !results

(* {1 Ablations} *)

let ablation_sqpoll () =
  print_header
    "Ablation 4: io_uring wakeup path — MM syscalls vs IORING_SETUP_SQPOLL \
     (fstime 4KB x 3000)";
  let run use_sqpoll =
    let rakis_config = { Rakis.Config.default with use_sqpoll } in
    let h = harness ~rakis_config Libos.Env.Rakis_sgx in
    let r = Apps.Fstime.run h ~block_size:4096 ~blocks:3000 in
    let wakeups =
      match Libos.Env.runtime h.Apps.Harness.env with
      | Some rt -> Rakis.Monitor.wakeup_syscalls (Rakis.Runtime.monitor rt)
      | None -> 0
    in
    (r.mb_per_sec, wakeups)
  in
  let mm_tp, mm_wakeups = run false in
  let sq_tp, sq_wakeups = run true in
  Format.printf "%-24s %12s %16s@." "mode" "MB/s" "wakeup syscalls";
  Format.printf "%-24s %12.1f %16d@." "MM thread (paper)" mm_tp mm_wakeups;
  Format.printf "%-24s %12.1f %16d@." "SQPOLL" sq_tp sq_wakeups

let ablation_exitless () =
  print_header
    "Ablation 5: what exit-elimination alone buys — Gramine Exitless \
     (HotCalls/Eleos-style RPC threads, paper §8) vs RAKIS (iperf3 1460B)";
  Format.printf "%-24s %12s %12s@." "environment" "Gbps" "exits";
  List.iter
    (fun kind ->
      let h = harness kind in
      let r = Apps.Iperf.run h ~packet_size:1460 ~packets:12_000 in
      Format.printf "%-24s %12.2f %12d@."
        (Libos.Env.kind_name kind)
        r.goodput_gbps
        (Libos.Env.exits h.Apps.Harness.env))
    [
      Libos.Env.Gramine_sgx;
      Libos.Env.Gramine_sgx_exitless;
      Libos.Env.Rakis_sgx;
    ];
  Format.printf
    "Exitless removes the exits but keeps the kernel UDP path; RAKIS removes \
     both.@."


let ablation () =
  print_header "Ablation 1: UDP/IP stack lock discipline (memcached, 4 threads)";
  let run locking =
    let rakis_config =
      { Rakis.Config.default with num_xsks = 4; locking }
    in
    let h = harness ~rakis_config ~nic_queues:4 Libos.Env.Rakis_sgx in
    let r = Apps.Memcached.run h ~server_threads:4 ~ops:15_000 in
    let contention =
      match Libos.Env.runtime h.Apps.Harness.env with
      | Some rt -> Netstack.Stack.lock_contention (Rakis.Runtime.stack rt)
      | None -> 0
    in
    (r.kops_per_sec, contention)
  in
  let fine_tp, fine_c = run `Fine in
  let global_tp, global_c = run `Global in
  Format.printf "%-22s %12s %12s@." "locking" "kops/s" "contention";
  Format.printf "%-22s %12.1f %12d@." "fine-grained (RAKIS)" fine_tp fine_c;
  Format.printf "%-22s %12.1f %12d@." "global (stock LWIP)" global_tp global_c;
  Format.printf "fine-grained speedup: %.2fx@." (fine_tp /. global_tp);

  print_header "Ablation 2: XSK count (iperf3 1460B, 4 NIC queues)";
  Format.printf "%-12s %12s@." "xsks" "Gbps";
  List.iter
    (fun xsks ->
      let rakis_config = { Rakis.Config.default with num_xsks = xsks } in
      let h = harness ~rakis_config ~nic_queues:4 Libos.Env.Rakis_sgx in
      let r = Apps.Iperf.run h ~packet_size:1460 ~packets:12_000 in
      Format.printf "%-12d %12.2f@." xsks r.goodput_gbps)
    [ 1; 2; 4 ];

  print_header
    "Ablation 3: cost of the certified-ring checks (wall-clock per op; see \
     also `micro`)";
  let iters = 2_000_000 in
  let make_ring () =
    let region =
      Mem.Region.create ~kind:Untrusted ~name:"abl"
        ~size:(Rings.Layout.footprint ~entry_size:8 ~size:8 + 16)
    in
    let alloc = Mem.Alloc.create region () in
    (region, Rings.Layout.alloc alloc ~entry_size:8 ~size:8)
  in
  (* Each variant gets its own pristine ring so the two loops never
     perturb each other\'s indices. *)
  let raw_loop n =
    let region, l = make_ring () in
    for _ = 1 to n do
      ignore
        (Rings.Raw.produce l ~write:(fun ~slot_off ->
             Mem.Region.set_u64 region slot_off 1L));
      ignore
        (Rings.Raw.consume l ~read:(fun ~slot_off ->
             Mem.Region.get_u64 region slot_off))
    done
  in
  let cert_loop n =
    let region, l = make_ring () in
    let cert = Rings.Certified.create l ~role:Rings.Certified.Producer () in
    for _ = 1 to n do
      (match
         Rings.Certified.produce cert ~write:(fun ~slot_off ->
             Mem.Region.set_u64 region slot_off 1L)
       with
      | Ok () -> Rings.Certified.publish cert
      | Error `Ring_full -> assert false);
      ignore
        (Rings.Raw.consume l ~read:(fun ~slot_off ->
             Mem.Region.get_u64 region slot_off))
    done
  in
  raw_loop 100_000;
  cert_loop 100_000;
  let t_raw =
    let t0 = Sys.time () in
    raw_loop iters;
    Sys.time () -. t0
  in
  let t_cert =
    let t0 = Sys.time () in
    cert_loop iters;
    Sys.time () -. t0
  in
  Format.printf
    "certified: %.0f ns/op   raw: %.0f ns/op   check overhead: %.1f%%@."
    (t_cert /. float_of_int iters *. 1e9)
    (t_raw /. float_of_int iters *. 1e9)
    (100. *. ((t_cert /. t_raw) -. 1.));
  ablation_sqpoll ();
  ablation_exitless ()

(* {1 Sensitivity} *)

let sensitivity () =
  print_header
    "Sensitivity: claim directions under calibration sweeps (iperf3 1460B, \
     6k datagrams)";
  let iperf kind =
    let h = harness kind in
    (Apps.Iperf.run h ~packet_size:1460 ~packets:6_000).goodput_gbps
  in
  let restore_exit = !Sgx.Params.enclave_exit_cycles in
  let restore_stack = !Sgx.Params.enclave_udp_stack_per_packet in
  Format.printf "%-34s %10s %10s %12s %12s %12s@." "configuration" "rakis-sgx"
    "native" "gramine-sgx" "vs gramine" "vs native";
  let case label =
    let rakis = iperf Libos.Env.Rakis_sgx in
    let native = iperf Libos.Env.Native in
    let gramine = iperf Libos.Env.Gramine_sgx in
    let beats_gramine = rakis > 2. *. gramine in
    let at_native = rakis >= 0.9 *. native in
    Format.printf "%-34s %10.2f %10.2f %12.2f %12s %12s@." label rakis native
      gramine
      (if beats_gramine then "HOLDS" else "FLIPS")
      (if at_native then "HOLDS" else "FLIPS");
    (beats_gramine, at_native)
  in
  let gramine_stable = ref true and native_stable = ref true in
  let record (g, n) =
    if not g then gramine_stable := false;
    if not n then native_stable := false
  in
  List.iter
    (fun (label, exit_cycles) ->
      Sgx.Params.enclave_exit_cycles := exit_cycles;
      record (case (Printf.sprintf "%s (exit=%Ld)" label exit_cycles)))
    [ ("exit cost halved", 4_100L); ("exit cost nominal", 8_200L);
      ("exit cost doubled", 16_400L) ];
  Sgx.Params.enclave_exit_cycles := restore_exit;
  List.iter
    (fun (label, stack_cycles) ->
      Sgx.Params.enclave_udp_stack_per_packet := stack_cycles;
      record (case (Printf.sprintf "%s (stack=%Ld)" label stack_cycles)))
    [ ("enclave stack -50%", 850L); ("enclave stack nominal", 1_700L);
      ("enclave stack +50%", 2_550L) ];
  Sgx.Params.enclave_udp_stack_per_packet := restore_stack;
  Format.printf
    "RAKIS >> Gramine-SGX: %s.  RAKIS >= native: %s — this margin is the      paper's thin +11%%, and it genuinely depends on the in-enclave stack      staying competitive with the kernel fast path.@."
    (if !gramine_stable then "stable across every sweep" else "NOT stable")
    (if !native_stable then "stable across every sweep"
     else "flips when the enclave stack costs +50%")
