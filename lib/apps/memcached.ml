type result = {
  env : string;
  server_threads : int;
  completed_ops : int;
  duration : Sim.Engine.time;
  kops_per_sec : float;
  timeouts : int;
}

let port = 11211

(* Userspace work per request: hashing, slab accounting, LRU updates —
   the bulk of memcached's per-op cycles on a hot cache. *)
let request_work_cycles = 12_000L

let key_space = 1024

let shards = 16

type store = { tables : (string, string) Hashtbl.t array; locks : Sim.Lock.t array }

let make_store () =
  {
    tables = Array.init shards (fun _ -> Hashtbl.create 256);
    locks = Array.init shards (fun _ -> Sim.Lock.create ());
  }

let shard_of key = Hashtbl.hash key mod shards

(* Wire format: 'G' ^ key  |  'S' ^ key ^ '\x00' ^ value.
   Replies: 'V' ^ value | 'N' (miss) | 'O' (stored). *)
let get_request key = Bytes.of_string ("G" ^ key)

let set_request key value = Bytes.of_string ("S" ^ key ^ "\x00" ^ value)

let parse_request payload =
  if Bytes.length payload < 2 then None
  else
    let body = Bytes.sub_string payload 1 (Bytes.length payload - 1) in
    match Bytes.get payload 0 with
    | 'G' -> Some (`Get body)
    | 'S' -> (
        match String.index_opt body '\x00' with
        | Some i ->
            Some
              (`Set
                 ( String.sub body 0 i,
                   String.sub body (i + 1) (String.length body - i - 1) ))
        | None -> None)
    | _ -> None

(* The per-request work shared by both datapaths: hashing delay, then
   the sharded-store lookup/update under its lock. *)
let handle api ~store req =
  Libos.Api.delay api request_work_cycles;
  match req with
  | `Get key ->
      let s = shard_of key in
      let v =
        Sim.Lock.with_lock store.locks.(s) (fun () ->
            Hashtbl.find_opt store.tables.(s) key)
      in
      (match v with
      | Some v -> "V" ^ v
      | None -> "N")
  | `Set (key, value) ->
      let s = shard_of key in
      Sim.Lock.with_lock store.locks.(s) (fun () ->
          Hashtbl.replace store.tables.(s) key value);
      "O"

let worker api ~store fd () =
  let rec loop () =
    (* memcached is libevent-driven: each request costs an event-loop
       poll before the recvfrom — one more enclave exit per op under a
       LibOS, nearly free on RAKIS's in-enclave UDP path. *)
    (match api.Libos.Api.poll [ (fd, [ `In ]) ] ~timeout:None with
    | Ok _ | Error _ -> ());
    match api.Libos.Api.recvfrom fd 65536 with
    | Error _ -> ()
    | Ok (payload, src) ->
        (match parse_request payload with
        | None -> ()
        | Some req ->
            let reply = handle api ~store req in
            ignore (api.Libos.Api.sendto fd (Bytes.of_string reply) src));
        loop ()
  in
  loop ()

(* RDP worker: all threads share one reliable-datagram endpoint, whose
   engine deduplicates retransmitted requests (an op retried by the
   link must not run its SET twice) and retransmits replies the wire
   eats. *)
let rdp_worker api ~store link () =
  let rec loop () =
    match Rdp_link.recv link with
    | None -> ()
    | Some (payload, src) ->
        (match parse_request payload with
        | None -> ()
        | Some req ->
            let reply = handle api ~store req in
            Rdp_link.send link (Bytes.of_string reply) src);
        loop ()
  in
  loop ()

let server ?(rdp = false) api ~server_threads () =
  let store = make_store () in
  if rdp then begin
    let link = Rdp_link.create ~name:"rdp.server" api in
    (match Rdp_link.bind link (Packet.Addr.Ip.of_repr "10.0.0.1", port) with
    | Ok () -> ()
    | Error e ->
        failwith (Format.asprintf "memcached bind: %a" Abi.Errno.pp e));
    for i = 1 to server_threads - 1 do
      api.Libos.Api.spawn
        ~name:(Printf.sprintf "memcached-worker%d" i)
        (fun api -> rdp_worker api ~store link ())
    done;
    rdp_worker api ~store link ()
  end
  else begin
    let fd = api.Libos.Api.udp_socket () in
    (match api.Libos.Api.bind fd (Packet.Addr.Ip.of_repr "10.0.0.1", port) with
    | Ok () -> ()
    | Error e ->
        failwith (Format.asprintf "memcached bind: %a" Abi.Errno.pp e));
    for i = 1 to server_threads - 1 do
      api.Libos.Api.spawn
        ~name:(Printf.sprintf "memcached-worker%d" i)
        (fun api -> worker api ~store fd ())
    done;
    worker api ~store fd ()
  end

(* memaslap's default SET value size. *)
let value_size = 100

(* One memaslap connection: closed loop with timeout-based retry (UDP
   may drop under overload). *)
let connection api ~rng ~completed ~timeouts ~ops ~on_done () =
  let fd = api.Libos.Api.udp_socket () in
  let dst = (Packet.Addr.Ip.of_repr "10.0.0.1", port) in
  let value = String.make value_size 'v' in
  let request () =
    let key = Printf.sprintf "key-%06d" (Sim.Rng.int rng key_space) in
    if Sim.Rng.int rng 10 = 0 then set_request key value else get_request key
  in
  let timeout = Sim.Cycles.of_us 300. in
  let rec one_op retries =
    let req = request () in
    match api.Libos.Api.sendto fd req dst with
    | Error _ -> ()
    | Ok _ -> (
        match api.Libos.Api.poll [ (fd, [ `In ]) ] ~timeout:(Some timeout) with
        | Ok (_ :: _) ->
            (match api.Libos.Api.recvfrom fd 65536 with
            | Ok _ -> incr completed
            | Error _ -> ())
        | Ok [] ->
            incr timeouts;
            if retries < 8 then one_op (retries + 1)
        | Error _ -> ())
  in
  let rec loop () =
    if !completed < ops then begin
      one_op 0;
      loop ()
    end
    else on_done ()
  in
  loop ()

let run ?(connections = 32) (h : Harness.t) ~server_threads ~ops =
  let completed = ref 0 and timeouts = ref 0 in
  let start = ref 0L in
  let stopped = ref false in
  let on_done () =
    if not !stopped then begin
      stopped := true;
      Harness.stop h
    end
  in
  Sim.Engine.spawn h.engine ~name:"memcached-server"
    (server (Harness.api h) ~server_threads);
  Sim.Engine.spawn h.engine ~name:"memaslap" (fun () ->
      (* Let the server bind before offering load. *)
      Sim.Engine.delay (Sim.Cycles.of_us 50.);
      start := Sim.Engine.now h.engine;
      for c = 1 to connections - 1 do
        let rng = Sim.Rng.create ~seed:(Int64.of_int (0x5eed + c)) in
        h.peer.Libos.Api.spawn
          ~name:(Printf.sprintf "memaslap-conn%d" c)
          (fun api ->
            connection api ~rng ~completed ~timeouts ~ops ~on_done ())
      done;
      let rng = Sim.Rng.create ~seed:0x5eedL in
      connection h.peer ~rng ~completed ~timeouts ~ops ~on_done ());
  Harness.run h ~until:(Sim.Cycles.of_sec 60.);
  let duration = Int64.sub (Sim.Engine.now h.engine) !start in
  {
    env = (Harness.api h).Libos.Api.name;
    server_threads;
    completed_ops = !completed;
    duration;
    kops_per_sec =
      (if Int64.compare duration 0L <= 0 then 0.
       else float_of_int !completed /. Sim.Cycles.to_sec duration /. 1e3);
    timeouts = !timeouts;
  }

let pp_result ppf r =
  Format.fprintf ppf "%-14s threads=%d ops=%d throughput=%.1f kops/s timeouts=%d"
    r.env r.server_threads r.completed_ops r.kops_per_sec r.timeouts
