(* Tests for the sharded multi-queue datapath (DESIGN.md §10): RSS
   steering properties (QCheck), multi-shard traffic spread with
   per-shard exit accounting, fault and Malice containment to the
   targeted shard, per-shard Obs metric naming, and the campaign's
   shard-aware repro tokens. *)

module F = Hostos.Faults
module I = Hostos.Injector

(* A schedule entry firing [what] once, at the first opportunity on or
   after workload step [step]. *)
let at step what = { I.what; when_ = I.At_step step; shard = None }
module H = Rakis.Health

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* {1 RSS steering properties} *)

(* (src_ip, dst_ip), ((src_port, dst_port), queues) *)
let flow_gen =
  QCheck.Gen.(
    pair
      (pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
      (pair (pair (int_bound 65535) (int_bound 65535)) (int_range 1 16)))

let qcheck_rss_bounded =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"rss: queue is in [0, queues)" ~count:1000
       (QCheck.make flow_gen)
       (fun ((src_ip, dst_ip), ((src_port, dst_port), queues)) ->
         let q =
           Packet.Rss.queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port
         in
         0 <= q && q < queues))

let qcheck_rss_symmetric =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make
       ~name:"rss: both directions of a flow share a queue" ~count:1000
       (QCheck.make flow_gen)
       (fun ((src_ip, dst_ip), ((src_port, dst_port), queues)) ->
         Packet.Rss.queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port
         = Packet.Rss.queue ~queues ~src_ip:dst_ip ~dst_ip:src_ip
             ~src_port:dst_port ~dst_port:src_port))

(* No per-boot seeding and no hidden state: re-evaluating a flow's
   queue — including interleaved with other flows' hashes — always
   lands on the same queue, so a flow can never migrate mid-run. *)
let qcheck_rss_no_migration =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"rss: deterministic, flows never migrate"
       ~count:1000 (QCheck.make flow_gen)
       (fun ((src_ip, dst_ip), ((src_port, dst_port), queues)) ->
         let q1 =
           Packet.Rss.queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port
         in
         (* Interleave a different flow's hash: must not perturb. *)
         ignore
           (Packet.Rss.hash ~src_ip:dst_ip ~dst_ip:src_ip
              ~src_port:(src_port lxor 1) ~dst_port);
         let q2 =
           Packet.Rss.queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port
         in
         q1 = q2
         && q1
            = Packet.Rss.hash ~src_ip ~dst_ip ~src_port ~dst_port mod queues))

(* Bit-serial Toeplitz over the canonicalized tuple, the reference the
   table-driven [Rss.hash] must match: for every set input bit [b],
   XOR in the 32-bit window of the key starting at bit [b]. *)
let rss_key =
  [|
    0x6d; 0x5a; 0x56; 0xda; 0x25; 0x5b; 0x0e; 0xc2;
    0x41; 0x67; 0x25; 0x3d; 0x43; 0xa3; 0x8f; 0xb0;
    0xd0; 0xca; 0x2b; 0xcb; 0xae; 0x7b; 0x30; 0xb4;
    0x77; 0xcb; 0x2d; 0xa3; 0x80; 0x30; 0xf2; 0x0c;
    0x6a; 0x42; 0xb7; 0x3b; 0xbe; 0xac; 0x01; 0xfa;
  |]

let reference_rss ~src_ip ~dst_ip ~src_port ~dst_port =
  let key_bit b = (rss_key.(b / 8) lsr (7 - (b mod 8))) land 1 in
  let window b =
    let w = ref 0 in
    for i = 0 to 31 do
      w := (!w lsl 1) lor key_bit (b + i)
    done;
    !w
  in
  let (lo_ip, lo_port), (hi_ip, hi_port) =
    if compare (src_ip, src_port) (dst_ip, dst_port) <= 0 then
      ((src_ip, src_port), (dst_ip, dst_port))
    else ((dst_ip, dst_port), (src_ip, src_port))
  in
  let input = [ (lo_ip, 32); (hi_ip, 32); (lo_port, 16); (hi_port, 16) ] in
  let acc = ref 0 and bit = ref 0 in
  List.iter
    (fun (v, width) ->
      for i = width - 1 downto 0 do
        if (v lsr i) land 1 = 1 then acc := !acc lxor window !bit;
        incr bit
      done)
    input;
  !acc

(* Microsoft's RSS verification vector (IPv4 with ports): source
   66.9.149.187:2794, destination 161.142.100.80:1766.  The source is the
   lower endpoint, so canonicalization keeps the spec's input order. *)
let test_rss_known_answer () =
  let ip s = Packet.Addr.Ip.to_int (Packet.Addr.Ip.of_repr s) in
  let src_ip = ip "66.9.149.187" and dst_ip = ip "161.142.100.80" in
  check "spec hash" 0x51ccc178
    (Packet.Rss.hash ~src_ip ~dst_ip ~src_port:2794 ~dst_port:1766);
  check "reference agrees" 0x51ccc178
    (reference_rss ~src_ip ~dst_ip ~src_port:2794 ~dst_port:1766)

(* Random tuples, a quarter of them with equal IPs so the port tiebreak of
   the canonical order is exercised. *)
let tuple_gen =
  QCheck.Gen.(
    let ip = int_bound 0xFFFFFFFF and port = int_bound 65535 in
    let ips =
      frequency [ (3, pair ip ip); (1, map (fun a -> (a, a)) ip) ]
    in
    pair ips (pair port port))

let qcheck_rss_matches_reference =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"rss: table hash equals bit-serial reference"
       ~count:5000 (QCheck.make tuple_gen)
       (fun ((src_ip, dst_ip), (src_port, dst_port)) ->
         Packet.Rss.hash ~src_ip ~dst_ip ~src_port ~dst_port
         = reference_rss ~src_ip ~dst_ip ~src_port ~dst_port))

let qcheck_rss_hash_symmetric =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"rss: hash is symmetric" ~count:5000
       (QCheck.make tuple_gen)
       (fun ((src_ip, dst_ip), (src_port, dst_port)) ->
         Packet.Rss.hash ~src_ip ~dst_ip ~src_port ~dst_port
         = Packet.Rss.hash ~src_ip:dst_ip ~dst_ip:src_ip ~src_port:dst_port
             ~dst_port:src_port))

let test_rss_no_alloc () =
  let w0 = Gc.minor_words () in
  let acc = ref 0 in
  for i = 1 to 10_000 do
    acc :=
      !acc
      lxor Packet.Rss.hash ~src_ip:i ~dst_ip:(i * 7) ~src_port:i ~dst_port:53
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  if words > 100. then Alcotest.failf "Rss.hash allocated %.0f words" words

(* {1 Harness helpers} *)

let boot_sharded ~queues () =
  match
    Apps.Harness.make Libos.Env.Rakis_sgx
      ~rakis_config:{ Rakis.Config.default with num_queues = queues }
      ~nic_queues:4 ()
  with
  | Ok h -> h
  | Error e -> Alcotest.failf "harness boot: %s" e

let runtime h = Option.get (Libos.Env.runtime h.Apps.Harness.env)

let install_faults h plan =
  let rt = runtime h in
  let f = Hostos.Faults.create ~obs:(Rakis.Runtime.obs rt) ~seed:11L () in
  F.install f plan;
  Hostos.Kernel.set_faults h.Apps.Harness.kernel (Some f);
  Rakis.Runtime.start_watchdog rt;
  f

(* {1 Multi-shard traffic} *)

(* An AF_XDP socket is bound to one NIC queue, so a boot asking for
   more XSKs than the NIC has queues is refused rather than left with
   XSKs no queue feeds; one queue per XSK boots. *)
let test_boot_needs_a_queue_per_xsk () =
  let boot nic_queues =
    let kernel = Hostos.Kernel.create (Sim.Engine.create ()) ~nic_queues () in
    Rakis.Runtime.boot kernel ~sgx:true
      ~config:{ Rakis.Config.default with num_queues = 2; num_xsks = 4 }
      ()
  in
  (match boot 4 with
  | Ok _ -> Alcotest.fail "booted 2 x 4 XSKs on a 4-queue NIC"
  | Error e ->
      check_bool e true
        (e = "rakis config: num_queues (2) x num_xsks (4) exceeds NIC queues (4)"));
  check_bool "8 queues boot" true (Result.is_ok (boot 8))

(* Eight RSS-spread flows over four shards: every shard must carry
   traffic, deliver everything it was offered, and the per-shard
   counters must add up to the aggregate — the accounting the apps'
   silently-idle-shard check is built on. *)
let test_multi_shard_traffic_spread () =
  let h = boot_sharded ~queues:4 () in
  let r = Apps.Udp_echo.run ~flows:8 h ~datagrams:800 ~payload_size:256 in
  check "all datagrams echoed" 800 r.Apps.Udp_echo.echoed;
  let report =
    match r.Apps.Udp_echo.shards with
    | Some s -> s
    | None -> Alcotest.fail "no shard report on a RAKIS env"
  in
  check "one stat per shard" 4 (List.length report.Apps.Shards.stats);
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "shard %d carried traffic" s.Apps.Shards.shard)
        true
        (s.Apps.Shards.rx_delivered > 0);
      check
        (Printf.sprintf "shard %d delivered all it was offered"
           s.Apps.Shards.shard)
        s.Apps.Shards.offered s.Apps.Shards.rx_delivered)
    report.Apps.Shards.stats;
  check "per-shard rx sums to the echo count" 800
    (Apps.Shards.total_rx report);
  Alcotest.(check (list int)) "no silently idle shard" []
    (Apps.Shards.silently_idle report);
  let rt = runtime h in
  let sum = ref 0 in
  for k = 0 to Rakis.Runtime.shard_count rt - 1 do
    sum := !sum + Rakis.Runtime.shard_rx_delivered rt k
  done;
  check "runtime per-shard counters agree with the report" 800 !sum;
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds rt)

(* Per-shard Obs naming: sharded boots register <name>.<k> counters so
   dashboards can tell the shards apart, while the Runtime accessors
   still give the aggregate view. *)
let test_per_shard_metric_naming () =
  let h = boot_sharded ~queues:2 () in
  ignore (Apps.Udp_echo.run ~flows:4 h ~datagrams:200 ~payload_size:256);
  let rt = runtime h in
  let obs = Rakis.Runtime.obs rt in
  let v name = Obs.Metrics.value (Obs.counter obs name) in
  check_bool "stack.0 delivered" true (v "stack.0.rx_delivered" > 0);
  check_bool "stack.1 delivered" true (v "stack.1.rx_delivered" > 0);
  check "per-shard stack counters roll up to the aggregate" 200
    (v "stack.0.rx_delivered" + v "stack.1.rx_delivered");
  check_bool "shard-0 xsk counters present" true (v "xsk.0.0.rx_packets" > 0);
  check_bool "shard-1 xsk counters present" true (v "xsk.1.0.rx_packets" > 0);
  check_bool "per-shard monitor counters present" true
    (v "mm.0.wakeups" > 0 && v "mm.1.wakeups" > 0)

(* {1 Containment} *)

(* The tentpole availability claim: a persistent fault pinned to shard
   1 costs latency, never datagrams, and leaves every other shard's
   breaker untouched — the blast radius is one shard. *)
let test_persistent_fault_contained_zero_loss () =
  let h = boot_sharded ~queues:2 () in
  let f =
    install_faults h
      [ { I.what = F.Drop_wakeup; when_ = I.Persistent; shard = Some 1 } ]
  in
  let r = Apps.Udp_echo.run ~flows:4 h ~datagrams:400 ~payload_size:256 in
  check "zero loss under a dead shard" 400 r.Apps.Udp_echo.echoed;
  check_bool "fault fired" true (F.fired_of f F.Drop_wakeup > 0);
  let rt = runtime h in
  let b1 = Rakis.Runtime.shard_breaker rt 1 in
  check_bool "shard 1 breaker opened" true (H.opens b1 >= 1);
  check_bool "shard 1 traffic rode the slow path" true (H.failovers b1 > 0);
  let b0 = Rakis.Runtime.shard_breaker rt 0 in
  check "shard 0 breaker never opened" 0 (H.opens b0);
  check "shard 0 saw no failovers" 0 (H.failovers b0);
  check_bool "shard 0 stayed closed" true (H.state b0 = H.Closed);
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds rt)

(* Overload wiring is per shard (DESIGN.md §15): each FM is created with
   its own shard's controller.  A flood on one XSK of shard 1 — a bound
   port nobody reads, so its socket queue backs up — must saturate shard
   1's controller only, and only shard 1's FMs may starve their fill
   rings. *)
let test_overload_flood_contained () =
  let h =
    match
      Apps.Harness.make Libos.Env.Rakis_sgx
        ~rakis_config:
          {
            Rakis.Config.default with
            num_queues = 2;
            num_xsks = 2;
            overload = true;
          }
        ~nic_queues:4 ()
    with
    | Ok h -> h
    | Error e -> Alcotest.failf "harness boot: %s" e
  in
  let rt = runtime h in
  let kernel = h.Apps.Harness.kernel and port = 5400 in
  (match Rakis.Runtime.udp_bind rt (Rakis.Runtime.udp_socket rt) port with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bind: %a" Abi.Errno.pp e);
  let server = Hostos.Kernel.server_ip kernel in
  (* NIC queue q feeds shard (q mod 2), XSK ((q / 2) mod 2): a flow on
     queue 1 lands on shard 1's first XSK. *)
  let src_port =
    List.nth (Apps.Shards.spread_ports h ~n:2 ~dst:(server, port) ~base:40000) 1
  in
  let peer = h.Apps.Harness.peer in
  Sim.Engine.spawn h.Apps.Harness.engine ~name:"flood" (fun () ->
      let fd = peer.Libos.Api.udp_socket () in
      ignore
        (peer.Libos.Api.bind fd (Hostos.Kernel.client_ip kernel, src_port));
      let payload = Bytes.make 64 'f' in
      for _ = 1 to 2000 do
        ignore (peer.Libos.Api.sendto fd payload (server, port))
      done);
  Apps.Harness.run h ~until:(Sim.Cycles.of_ms 20.);
  let saturated k =
    Rakis.Overload.saturated (Option.get (Rakis.Runtime.shard_overload rt k))
  in
  check_bool "shard 1's controller saturated" true (saturated 1);
  check_bool "shard 0's controller untouched" false (saturated 0);
  let throttled k i =
    let name = Printf.sprintf "xsk.%d.%d.fill_throttled" k i in
    match Obs.Metrics.find (Obs.metrics (Rakis.Runtime.obs rt)) name with
    | Some n -> n
    | None -> Alcotest.failf "no counter %s" name
  in
  check_bool "shard 1's FMs throttled refill" true
    (throttled 1 0 + throttled 1 1 > 0);
  check "shard 0 xsk 0 never throttled" 0 (throttled 0 0);
  check "shard 0 xsk 1 never throttled" 0 (throttled 0 1);
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds rt)

(* Malice containment: an index attack armed against shard 1 only is
   detected by shard 1's FMs and provably cannot touch shard 0 — the
   shard-0 flow loses nothing, and shard 0's rings record zero
   certification failures. *)
let test_malice_contained_to_target_shard () =
  let h = boot_sharded ~queues:2 () in
  let m = Hostos.Malice.create ~seed:99L () in
  Hostos.Malice.arm m (Hostos.Injector.Probability 0.3) ~shard:1 Hostos.Malice.Prod_overshoot;
  Hostos.Kernel.set_malice h.Apps.Harness.kernel (Some m);
  (* One flow per shard, source ports picked against the NIC's RSS. *)
  let port_for ~shard =
    let src_ip =
      Packet.Addr.Ip.to_int (Hostos.Kernel.client_ip h.Apps.Harness.kernel)
    in
    let dst_ip = Packet.Addr.Ip.to_int Rakis.Config.default.Rakis.Config.ip in
    let rec find p =
      if
        Packet.Rss.queue ~queues:4 ~src_ip ~dst_ip ~src_port:p ~dst_port:5201
        mod 2
        = shard
      then p
      else find (p + 1)
    in
    find 43000
  in
  let p0 = port_for ~shard:0 and p1 = port_for ~shard:1 in
  let api = Apps.Harness.api h in
  let received = Hashtbl.create 4 in
  Sim.Engine.spawn h.Apps.Harness.engine ~name:"server" (fun () ->
      let fd = api.Libos.Api.udp_socket () in
      (match api.Libos.Api.bind fd (Rakis.Config.default.Rakis.Config.ip, 5201) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bind: %a" Abi.Errno.pp e);
      let rec loop () =
        match api.Libos.Api.recvfrom fd 2048 with
        | Ok (_, (_, src_port)) ->
            Hashtbl.replace received src_port
              (1 + Option.value ~default:0 (Hashtbl.find_opt received src_port));
            loop ()
        | Error _ -> ()
      in
      loop ());
  let packets = 200 in
  let live = ref 2 in
  List.iter
    (fun p ->
      Sim.Engine.spawn h.Apps.Harness.engine
        ~name:(Printf.sprintf "client%d" p)
        (fun () ->
          Sim.Engine.delay (Sim.Cycles.of_us 50.);
          let fd = (h.Apps.Harness.peer).Libos.Api.udp_socket () in
          (match
             (h.Apps.Harness.peer).Libos.Api.bind fd
               (Hostos.Kernel.client_ip h.Apps.Harness.kernel, p)
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "client bind: %a" Abi.Errno.pp e);
          for _ = 1 to packets do
            ignore
              ((h.Apps.Harness.peer).Libos.Api.sendto fd (Bytes.make 256 'a')
                 (Rakis.Config.default.Rakis.Config.ip, 5201));
            Sim.Engine.delay (Sim.Cycles.of_us 2.)
          done;
          decr live;
          if !live = 0 then
            Sim.Engine.spawn h.Apps.Harness.engine ~name:"drain" (fun () ->
                Sim.Engine.delay (Sim.Cycles.of_ms 2.);
                Apps.Harness.stop h)))
    [ p0; p1 ];
  Apps.Harness.run h ~until:(Sim.Cycles.of_sec 5.);
  check_bool "attack fired" true (Hostos.Malice.fired m > 0);
  let got p = Option.value ~default:0 (Hashtbl.find_opt received p) in
  check "shard-0 flow lost nothing" packets (got p0);
  check_bool "shard-1 flow was attacked" true (got p1 <= packets);
  let rt = runtime h in
  let ring_failures k =
    Array.fold_left
      (fun acc fm -> acc + Rakis.Xsk_fm.ring_check_failures fm)
      0
      (Rakis.Runtime.shard_fms rt k)
  in
  check_bool "shard 1 rejected hostile indices" true (ring_failures 1 > 0);
  check "shard 0 saw zero hostile indices" 0 (ring_failures 0);
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds rt)

(* {1 Campaign: shard-aware runs and repro tokens} *)

let test_campaign_shard_containment () =
  let o =
    Tm.Campaign.run
      {
        Tm.Campaign.defaults with
        seed = 91L;
        queues = 2;
        faults =
          [ { I.what = F.Drop_wakeup; when_ = I.Persistent; shard = Some 1 } ];
      }
  in
  check_bool "no violations" false (Tm.Campaign.failed o);
  check "queues recorded" 2 o.Tm.Campaign.spec.queues;
  check "one opens entry per shard" 2 (List.length o.Tm.Campaign.shard_opens);
  check "untargeted shard never opened" 0 (List.nth o.Tm.Campaign.shard_opens 0)

let test_campaign_repro_roundtrip_with_queues () =
  let schedule =
    [ at 10 Hostos.Malice.Prod_overshoot ]
  in
  let spec =
    {
      Tm.Campaign.defaults with
      seed = 33L;
      budget = 48;
      queues = 2;
      schedule;
      faults =
        [ { I.what = F.Drop_wakeup; when_ = I.At_step 20; shard = Some 1 } ];
    }
  in
  let o = Tm.Campaign.run spec in
  let token = Tm.Campaign.repro o in
  (* kind, seed, budget, attacks, faults, q *)
  check "six-segment token" 6 (List.length (String.split_on_char ':' token));
  (match Tm.Campaign.parse_repro token with
  | Ok spec' -> check_bool "spec survives" true (spec' = spec)
  | Error e -> Alcotest.failf "parse_repro: %s" e);
  match Tm.Campaign.run_repro token with
  | Error e -> Alcotest.failf "run_repro: %s" e
  | Ok o' -> check_bool "bit-for-bit replay" true (o = o')

(* A single-queue token leaves out the default [q] key, so it keeps
   the shape kind:seed:budget:attacks. *)
let test_single_queue_tokens_unchanged () =
  let o =
    Tm.Campaign.run
      {
        Tm.Campaign.defaults with
        seed = 33L;
        budget = 48;
        schedule =
          [
            at 10 Hostos.Malice.Prod_overshoot;
          ];
      }
  in
  check "four-segment token at queues=1" 4
    (List.length (String.split_on_char ':' (Tm.Campaign.repro o)))

let suite =
  [
    qcheck_rss_bounded;
    qcheck_rss_symmetric;
    qcheck_rss_no_migration;
    Alcotest.test_case "e2e: 8 flows spread over 4 shards, all delivered"
      `Quick test_multi_shard_traffic_spread;
    Alcotest.test_case "obs: per-shard metric naming with aggregate rollup"
      `Quick test_per_shard_metric_naming;
    Alcotest.test_case "e2e: persistent fault on shard 1 contained, zero loss"
      `Quick test_persistent_fault_contained_zero_loss;
    Alcotest.test_case "e2e: malice on shard 1 cannot touch shard 0" `Quick
      test_malice_contained_to_target_shard;
    Alcotest.test_case "e2e: overload flood on shard 1 throttles only shard 1"
      `Quick test_overload_flood_contained;
    Alcotest.test_case "campaign: shard-targeted fault opens only its breaker"
      `Quick test_campaign_shard_containment;
    Alcotest.test_case "campaign: 6-segment repro token round-trips" `Quick
      test_campaign_repro_roundtrip_with_queues;
    Alcotest.test_case "campaign: single-queue tokens keep their shape" `Quick
      test_single_queue_tokens_unchanged;
    ("rss: Microsoft verification vector", `Quick, test_rss_known_answer);
    qcheck_rss_matches_reference;
    qcheck_rss_hash_symmetric;
    ("rss: hash allocates nothing", `Quick, test_rss_no_alloc);
    Alcotest.test_case "boot: one NIC queue per XSK or an error" `Quick
      test_boot_needs_a_queue_per_xsk;
  ]
