(* stream1472: open-loop one-way stream of 1472-byte datagrams.

   4 native sender flows into a receiver inside RAKIS-SGX on 1 shard of
   1 XSK.  The flows are paced together: at rate R the datagrams are due
   evenly, 1/R apart, in turn from each flow, and each is timed from
   when it was due until the server application receives it.  The
   enclave receive path is the bottleneck, not the 25 Gbps link; every
   byte crosses the boundary copy and the checksum, which echo64
   exercises one small packet at a time.

   Throughput is the zero-loss rate (RFC 2544): a first trial at the
   link rate, then a binary search below it for the highest rate at
   which every datagram arrives and the p99 stays within the limit
   ({!Ladder}).  Latency is measured at [nominal_kops].

   Generated inputs: each flow's payload pattern; the schedule is fixed
   by the rate, so the simulated results are the same for every seed.
   Bytes 0-7 of a datagram carry its operation id, which names its flow.
   Check: every datagram arrives intact and at most once; one still
   missing [loss_timeout] after its flow's last was due is lost. *)

let name = "stream1472"

let payload_size = 1472

let flows = 4

let default_ops = 100_000

let default_rounds = 10

let topology = { Round.shards = 1; xsks = 1; nic_queues = 1 }

(* Datagrams per simulated second a 25 Gbps link carries, in thousands:
   the simulated NIC serializes whole Ethernet frames. *)
let link_kops =
  Sgx.Params.nic_link_gbps *. 1e6
  /. float_of_int (8 * (payload_size + Packet.Frame.frame_overhead))

let search =
  {
    Ladder.rates = [ link_kops ];
    max_rate = link_kops;
    bisections = 7;
    max_fail_ratio = 0.;
  }

(* 70 % of the baseline's zero-loss rate, the load point kv_zipf's
   latency uses too. *)
let nominal_kops = 775.

let port = 5201

let loss_timeout = Sim.Cycles.of_ms 2.

type inputs = { ops : int; patterns : Bytes.t array }

let generate ~seed ~ops =
  let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
  let patterns =
    Array.init flows (fun _ ->
        let b = Bytes.create payload_size in
        Sim.Rng.fill_bytes rng b;
        b)
  in
  { ops; patterns }

let digest i =
  Digest.to_hex (Digest.bytes (Bytes.concat Bytes.empty (Array.to_list i.patterns)))

let op_id = Echo64.op_id

type shared = {
  r : Round.t;
  inputs : inputs;
  spans : Spans.t option;
  start : int64;  (** when datagram 0 is due *)
  cycles_per_op : float;
  sent_wall : int array;  (** traced runs only *)
  state : Bytes.t;  (** per operation: 0 in flight, 1 received, 2 lost *)
  expected : Bytes.t array;  (** per flow, scratch copy of the pattern *)
}

let due sh id =
  Int64.add sh.start (Int64.of_float (float_of_int id *. sh.cycles_per_op))

let server sh (api : Libos.Api.t) () =
  let fd = Round.bound_socket api (Round.server_ip, port) ~what:"stream1472 server" in
  let r = sh.r in
  let rec loop () =
    match api.recvfrom fd 2048 with
    | Error _ -> ()
    | Ok (payload, _) ->
        let id = op_id payload in
        (if id < 0 || id >= sh.inputs.ops then
           Round.violation r "stream1472: datagram with an unknown id"
         else
           match Bytes.get sh.state id with
           | '\001' -> Round.violation r "stream1472: datagram delivered twice"
           | '\002' -> Bytes.set sh.state id '\001' (* after it was declared lost *)
           | _ ->
               Bytes.set sh.state id '\001';
               let now = Libos.Api.now api in
               let due = due sh id in
               (match sh.spans with
               | None -> ()
               | Some t ->
                   Spans.request_done t ~req:id ~root:(Spans.fresh_id t)
                     ~sim0:(Int64.to_int due) ~sim1:(Int64.to_int now)
                     ~wall0:sh.sent_wall.(id));
               let expected = sh.expected.(id mod flows) in
               Bytes.set_int64_le expected 0 (Int64.of_int id);
               if Bytes.equal payload expected then
                 Round.complete r ~latency:(Int64.sub now due)
               else begin
                 Round.violation r "stream1472: datagram corrupted";
                 Round.fail r
               end);
        loop ()
  in
  loop ()

let sender sh ~(api : Libos.Api.t) ~f ~src () =
  let api, c = Spans.wrap_opt sh.spans ~side:Spans.peer api in
  let fd = Round.bound_socket api src ~what:"stream1472 sender" in
  let dst = (Round.server_ip, port) in
  let buf = Bytes.copy sh.inputs.patterns.(f) in
  let r = sh.r in
  let id = ref f in
  while !id < sh.inputs.ops do
    let due = due sh !id in
    let now = Libos.Api.now api in
    if Int64.compare due now > 0 then Sim.Engine.delay (Int64.sub due now);
    let now = Libos.Api.now api in
    if r.Round.timed then
      r.Round.lag_max <- max r.Round.lag_max (Int64.to_int (Int64.sub now due));
    Bytes.set_int64_le buf 0 (Int64.of_int !id);
    c.Spans.req <- !id;
    if sh.spans <> None then sh.sent_wall.(!id) <- Clock.now_ns ();
    (match api.sendto fd buf dst with
    | Ok _ -> ()
    | Error _ ->
        Bytes.set sh.state !id '\002';
        Round.fail r);
    id := !id + flows
  done;
  (* Whatever this flow sent and the server never received is lost. *)
  Sim.Engine.delay loss_timeout;
  let id = ref f in
  while !id < sh.inputs.ops do
    if Bytes.get sh.state !id = '\000' then begin
      Bytes.set sh.state !id '\002';
      Round.fail r
    end;
    id := !id + flows
  done

(* One round paced at [kops] thousand datagrams per simulated second. *)
let round ?spans ?(mutant = false) ~kops (inputs : inputs) =
  let r = Round.boot topology ~ops:inputs.ops in
  let h = r.Round.h in
  let sh =
    {
      r;
      inputs;
      spans;
      (* Senders wait for the server's socket before offering load. *)
      start = Sim.Cycles.of_us 50.;
      cycles_per_op = Sim.Cycles.frequency_hz /. (kops *. 1e3);
      sent_wall = Array.make (if spans = None then 0 else inputs.ops) 0;
      state = Bytes.make inputs.ops '\000';
      expected = Array.map Bytes.copy inputs.patterns;
    }
  in
  let server_api, _ =
    Spans.wrap_opt spans ~side:Spans.enclave ~classify:op_id (Apps.Harness.api h)
  in
  Sim.Engine.spawn h.engine ~name:"stream1472-server"
    (server sh (Mutant.apply ~mutant server_api));
  let srcs = Round.client_addrs r ~n:flows ~dst:(Round.server_ip, port) in
  for f = 0 to flows - 1 do
    Sim.Engine.spawn h.engine
      ~name:(Printf.sprintf "stream1472-sender%d" f)
      (sender sh ~api:h.peer ~f ~src:srcs.(f))
  done;
  Round.conclude ~traced:(spans <> None) r
