(* Per-layer metrics of the traced run.

   Three sources, named after the lib/ directories (with core split by
   module):
   - counters: movement of registry and engine counters over a round's
     measured window, per completed operation where a ratio is
     meaningful;
   - spans: the enclave-side call samples and server service times
     {!Spans} collected;
   - layer drive: wall ns and minor words per call of a layer's public
     functions, called here outside any simulated process (so
     [Sim.Engine.delay] is free and only the layer's own OCaml runs), at
     the workload's payload size and measured burst size. *)

(* {1 Counters} *)

let sum delta pred =
  List.fold_left (fun acc (k, v) -> if pred k then acc + v else acc) 0 delta

let sum_ps delta ~prefix ~suffix =
  sum delta (fun k -> String.starts_with ~prefix k && String.ends_with ~suffix k)

let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d

let rings = [ "xRX"; "xTX"; "xFill"; "xCompl"; "iSub"; "iCompl" ]

let counter_metrics (o : Round.outcome) =
  let d = o.delta in
  let ops = o.completed in
  let xsk suffix = sum_ps d ~prefix:"xsk" ~suffix in
  let mm suffix = sum_ps d ~prefix:"mm." ~suffix in
  let uring suffix = sum_ps d ~prefix:"uring" ~suffix in
  let exact name = sum d (fun k -> k = name) in
  let tx_packets = xsk ".tx_packets" in
  let slots_per_burst ring =
    let bursts = sum d (String.ends_with ~suffix:("." ^ ring ^ ".bursts")) in
    let slots = sum d (String.ends_with ~suffix:("." ^ ring ^ ".burst_slots")) in
    (* The FM publishes xTX one descriptor at a time, outside the batch
       counters: each transmitted frame is a burst of one. *)
    if bursts > 0 then per slots bursts
    else if ring = "xTX" && tx_packets > 0 then 1.
    else 0.
  in
  let per_op n = per n ops and per_kop n = 1000. *. per n ops in
  let count n = float_of_int n in
  List.map
    (fun ring ->
      ("rings." ^ ring ^ ".slots_per_burst", "slots", slots_per_burst ring))
    rings
  @ [
      ("rings.check_failures", "count", count (exact "runtime.ring_check_failures"));
      ("core.umem.rejects", "count", count (exact "runtime.umem_rejects"));
      ("core.xsk.rx_packets_per_op", "1/op", per_op (xsk ".rx_packets"));
      ("core.xsk.tx_packets_per_op", "1/op", per_op tx_packets);
      ("core.xsk.tx_rekicks_per_kop", "1/kop", per_kop (xsk ".tx_rekicks"));
      ("core.xsk.reinits", "count", count (xsk ".reinits"));
      ("core.xsk.fill_throttled", "count", count (xsk ".fill_throttled"));
      ("core.xsk.tx_frame_drops", "count", count (xsk ".tx_frame_drops"));
      ("core.iouring.sqes_per_op", "1/op", per_op (uring ".sqes_submitted"));
      ( "core.iouring.sync_wait_cycles_mean",
        "sim_cycles",
        per (uring ".sync_wait_cycles#sum") (uring ".sync_wait_cycles#count") );
      ("core.iouring.retries", "count", count (uring ".retries"));
      ("core.iouring.sheds", "count", count (uring ".sheds"));
      ("core.iouring.cqe_rejects", "count", count (uring ".cqe_rejects"));
      ("core.monitor.wakeups_per_op", "1/op", per_op (mm ".wakeups"));
      ("core.monitor.forced_enters_per_op", "1/op", per_op (mm ".forced_enters"));
      ("core.monitor.scans_per_op", "1/op", per_op (mm ".scans"));
      ("core.health.slow_calls_per_op", "1/op", per_op (exact "health.slow_calls"));
      ( "core.health.breaker_opens",
        "count",
        count (sum_ps d ~prefix:"health." ~suffix:".opens") );
      ( "netstack.rx_delivered_per_op",
        "1/op",
        per_op (sum_ps d ~prefix:"stack" ~suffix:".rx_delivered") );
      ( "netstack.drops_per_kop",
        "1/kop",
        per_kop
          (sum d (fun k ->
               String.starts_with ~prefix:"stack" k
               && List.mem "drop" (String.split_on_char '.' k))) );
      ( "hostos.nic.frames_per_op",
        "1/op",
        per_op (sum_ps d ~prefix:"nic." ~suffix:".rx") );
      ("hostos.edge_drops_per_kop", "1/kop", per_kop (exact "runtime.edge_drops"));
      ("hostos.udp.buffer_drops", "count", count (exact "udp.buffer_drops"));
      ("sgx.boundary_bytes_per_op", "B/op", per_op (exact "sgx.boundary_bytes"));
      ("sgx.exits", "count", count (exact "sgx.exits"));
      ("sim.queue_depth_max", "count", count o.queue_depth_max);
      ("gen.lag_cycles_max", "sim_cycles", count o.gen_lag_max);
    ]

let span_metrics (o : Round.outcome) (sp : Spans.t) =
  let pct s p = float_of_int (Sample.percentile s ~per_100k:p) in
  List.concat_map
    (fun call ->
      let s = sp.Spans.cycles.(call) and name = "libos." ^ Spans.call_names.(call) in
      [
        (name ^ ".cycles_p50", "sim_cycles", pct s 50_000);
        (name ^ ".cycles_p99", "sim_cycles", pct s 99_000);
      ])
    Spans.[ sendto; recvfrom; poll; read; write ]
  @ [
      ("libos.calls_per_op", "1/op", per (Spans.enclave_calls sp) o.completed);
      ("apps.service_cycles_p50", "sim_cycles", pct sp.Spans.service 50_000);
      ("apps.service_cycles_p99", "sim_cycles", pct sp.Spans.service 99_000);
    ]

(* {1 Layer drive} *)

(* Median over [reps] timed batches of ns per call, and minor words per
   call. *)
let measure ?(reps = 5) ?(budget_ns = 4_000_000) f =
  for _ = 1 to 64 do
    f ()
  done;
  let words = ref 0. and calls = ref 0 in
  let ns =
    List.init reps (fun _ ->
        let n = ref 0 in
        let w0 = Gc.minor_words () and t0 = Clock.now_ns () in
        while Clock.now_ns () - t0 < budget_ns do
          for _ = 1 to 64 do
            f ()
          done;
          n := !n + 64
        done;
        let dt = Clock.now_ns () - t0 in
        words := !words +. (Gc.minor_words () -. w0);
        calls := !calls + !n;
        float_of_int dt /. float_of_int !n)
  in
  (Sample.median ns, !words /. float_of_int !calls)

let client_mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:02"

let server_mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:01"

let client_ip = Packet.Addr.Ip.of_repr "10.0.0.2"

let drive_port = 9000

let udp_info =
  {
    Packet.Frame.src_mac = client_mac;
    dst_mac = server_mac;
    src_ip = client_ip;
    dst_ip = Round.server_ip;
    src_port = 40000;
    dst_port = drive_port;
  }

let make_ring size =
  let region =
    Mem.Region.create ~kind:Untrusted ~name:"drive"
      ~size:(Rings.Layout.footprint ~entry_size:8 ~size + 16)
  in
  Rings.Layout.alloc (Mem.Alloc.create region ()) ~entry_size:8 ~size

let drive_metrics ~payload_size ~burst =
  let size = min payload_size Packet.Udp.max_payload in
  let payload = Bytes.make size 'x' in
  let frame = Packet.Frame.build_udp udp_info payload in
  let build_ns, build_words =
    measure (fun () ->
        ignore (Sys.opaque_identity (Packet.Frame.build_udp udp_info payload)))
  in
  let dissect_ns, dissect_words =
    measure (fun () -> ignore (Sys.opaque_identity (Packet.Frame.dissect_udp frame)))
  in
  let checksum_ns, _ =
    measure (fun () ->
        ignore (Sys.opaque_identity (Packet.Checksum.compute payload 0 size)))
  in
  (* netstack: frames into a bound socket, drained between batches so
     the queue never fills and every input takes the delivery path. *)
  let stack =
    Netstack.Stack.create (Sim.Engine.create ()) ~mac:server_mac
      ~ip:Round.server_ip ()
  in
  let sock =
    match Netstack.Stack.bind stack ~port:drive_port with
    | Ok s -> s
    | Error `Port_in_use -> failwith "layer drive: port in use"
  in
  let pending = ref 0 in
  let input_ns, input_words =
    measure (fun () ->
        Netstack.Stack.input stack frame;
        incr pending;
        if !pending = 1024 then begin
          while Netstack.Udp_socket.pending sock > 0 do
            ignore (Netstack.Udp_socket.recvfrom sock ~max:2048)
          done;
          pending := 0
        end)
  in
  (* A certified producer/consumer pair moving [burst] slots per batch. *)
  let layout = make_ring 2048 in
  let prod = Rings.Certified.create layout ~role:Rings.Certified.Producer () in
  let cons = Rings.Certified.create layout ~role:Rings.Certified.Consumer () in
  let region = layout.Rings.Layout.region in
  let ring_ns, _ =
    measure (fun () ->
        ignore
          (Rings.Certified.produce_batch prod ~count:burst ~write:(fun ~slot_off _ ->
               Mem.Region.set_u64 region slot_off 42L));
        ignore
          (Rings.Certified.consume_batch cons ~max:burst ~read:(fun ~slot_off _ ->
               ignore (Mem.Region.get_u64 region slot_off))))
  in
  let umem = Rakis.Umem.create ~size:(64 * 2048) ~frame_size:2048 () in
  let umem_ns, _ =
    measure (fun () ->
        match Rakis.Umem.alloc umem with
        | Some off ->
            Rakis.Umem.commit umem off Rakis.Umem.Rx;
            ignore (Rakis.Umem.reclaim umem Rakis.Umem.Rx ~offset:off ~len:size ())
        | None -> ())
  in
  let counter = Obs.Metrics.counter (Obs.Metrics.create ()) "drive" in
  let incr_ns, _ = measure (fun () -> Obs.Metrics.incr counter) in
  (* The engine's own cost: one process suspending and resuming. *)
  let delay_ns, delay_words =
    let engine = Sim.Engine.create () in
    let n = 100_000 in
    let w0 = ref 0. and t0 = ref 0 and t1 = ref 0 and w1 = ref 0. in
    Sim.Engine.spawn engine (fun () ->
        for _ = 1 to 1000 do
          Sim.Engine.delay 1L
        done;
        w0 := Gc.minor_words ();
        t0 := Clock.now_ns ();
        for _ = 1 to n do
          Sim.Engine.delay 1L
        done;
        t1 := Clock.now_ns ();
        w1 := Gc.minor_words ());
    Sim.Engine.run engine;
    (float_of_int (!t1 - !t0) /. float_of_int n, (!w1 -. !w0) /. float_of_int n)
  in
  [
    ("sim.delay.ns", "ns", delay_ns);
    ("sim.delay.words", "words", delay_words);
    ("packet.build_udp.ns", "ns", build_ns);
    ("packet.build_udp.words", "words", build_words);
    ("packet.dissect_udp.ns", "ns", dissect_ns);
    ("packet.dissect_udp.words", "words", dissect_words);
    ("packet.checksum.ns", "ns", checksum_ns);
    ("rings.certified_batch.ns_per_slot", "ns", ring_ns /. float_of_int burst);
    ("core.umem.cycle.ns", "ns", umem_ns);
    ("netstack.input.ns", "ns", input_ns);
    ("netstack.input.words", "words", input_words);
    ("obs.counter_incr.ns", "ns", incr_ns);
  ]
