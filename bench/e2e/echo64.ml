(* echo64: closed-loop UDP echo of 64-byte datagrams.

   8 native client flows, each with one request outstanding, against an
   echo server inside RAKIS-SGX on 2 shards of 1 XSK each.  Source ports
   come from [Apps.Shards.spread_ports], so RSS puts 4 flows on each
   shard.  Per-packet cost dominates: packet codecs, the in-enclave
   stack, the XSK FastPath Module, UMem and Monitor kicks, with no
   io_uring and no application work.

   Generated inputs: each flow's 64-byte payload pattern.  Nothing in
   the loop depends on time but the datapath, so the simulated results
   are the same for every seed.  Bytes 0-7 of every request carry its
   operation id.  Check: each echo equals its request byte for byte. *)

let name = "echo64"

let payload_size = 64

let flows = 8

let default_ops = 50_000

let default_rounds = 8

let topology = { Round.shards = 2; xsks = 1; nic_queues = 2 }

let port = 7

let reply_timeout = Sim.Cycles.of_ms 2.

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

let op_id payload =
  if Bytes.length payload >= 8 then Int64.to_int (Bytes.get_int64_le payload 0)
  else -1

let server (api : Libos.Api.t) () =
  let fd = Round.bound_socket api (Round.server_ip, port) ~what:"echo64 server" in
  let rec loop () =
    match api.recvfrom fd 2048 with
    | Ok (payload, src) ->
        ignore (api.sendto fd payload src);
        loop ()
    | Error _ -> ()
  in
  loop ()

let client r ~spans ~(api : Libos.Api.t) ~flow ~n ~pattern ~src () =
  let api, c = Spans.wrap_opt spans ~side:Spans.peer api in
  Sim.Engine.delay (Sim.Cycles.of_us 50.);
  let fd = Round.bound_socket api src ~what:"echo64 client" in
  let dst = (Round.server_ip, port) in
  let buf = Bytes.copy pattern in
  let spec = [ (fd, [ `In ]) ] in
  for i = 0 to n - 1 do
    let id = (i * flows) + flow in
    Bytes.set_int64_le buf 0 (Int64.of_int id);
    let sent = Libos.Api.now api in
    Spans.begin_op spans c ~req:id ~now:sent;
    ignore (api.sendto fd buf dst);
    let deadline = Int64.add sent reply_timeout in
    let rec await () =
      let left = Int64.sub deadline (Libos.Api.now api) in
      if Int64.compare left 0L <= 0 then Round.fail r
      else
        match api.poll spec ~timeout:(Some left) with
        | Ok (_ :: _) -> (
            match api.recvfrom fd 2048 with
            | Ok (reply, _) when op_id reply = id ->
                let now = Libos.Api.now api in
                if Bytes.equal reply buf then begin
                  Spans.end_op spans c ~now;
                  Round.complete r ~latency:(Int64.sub now sent)
                end
                else begin
                  Round.violation r "echo64: echo differs from its request";
                  Round.fail r
                end
            | Ok _ | Error _ -> await () (* echo of a timed-out request *))
        | Ok [] | Error _ -> Round.fail r
    in
    await ()
  done

let round ?spans ?(mutant = false) inputs =
  let r = Round.boot topology ~ops:inputs.ops in
  let h = r.Round.h in
  let server_api, _ =
    Spans.wrap_opt spans ~side:Spans.enclave ~classify:op_id (Apps.Harness.api h)
  in
  Sim.Engine.spawn h.engine ~name:"echo64-server" (server server_api);
  let srcs = Round.client_addrs r ~n:flows ~dst:(Round.server_ip, port) in
  for f = 0 to flows - 1 do
    let n = (inputs.ops / flows) + if f < inputs.ops mod flows then 1 else 0 in
    Sim.Engine.spawn h.engine
      ~name:(Printf.sprintf "echo64-client%d" f)
      (client r ~spans
         ~api:(Mutant.apply ~mutant h.peer)
         ~flow:f ~n ~pattern:inputs.patterns.(f) ~src:srcs.(f))
  done;
  Round.conclude ~traced:(spans <> None) r
