(* kv_zipf: open-loop key-value load on [Apps.Memcached.server].

   The server runs inside RAKIS-SGX with 4 threads on 2 shards of 4 XSKs
   and 8 NIC queues, so every XSK has a queue.  16 native connections
   (RSS-spread source ports) offer a Poisson stream of requests: Zipf
   0.99 over 1024 keys, 9 GETs to 1 SET, 100-byte values, 1 ms timeout.
   App work (12k cycles a request) dilutes datapath gains; sharding,
   scheduling and many concurrent fibers and timers show.  Throughput
   is the highest rate meeting the latency limit ({!Ladder}), searched
   with rounds on the inputs of round 0; latency is reported at
   [nominal_kops], about 75% of that.  The Poisson arrivals make the
   simulated results differ from seed to seed.

   Generated inputs: each operation's connection, key, GET/SET choice and
   unit-mean exponential gap; a round at rate R scales the gaps by 1/R.
   Warm-up SETs every key once, so GETs never miss.  Values encode their
   key and version, and a reply is matched to the oldest in-flight
   request of its connection with the same key (GET) or kind (SET).
   Check: every GET returns a value that was set for that key. *)

let name = "kv_zipf"

let connections = 16

let server_threads = 4

let topology = { Round.shards = 2; xsks = 4; nic_queues = 8 }

let keys = Apps.Memcached.key_space

let value_size = 100

let zipf_s = 0.99

let op_timeout = Sim.Cycles.of_ms 1.

let default_ops = 60_000

let default_rounds = 6

let nominal_kops = 500.

(* The capacity search: rungs from the nominal rate up, doubling past
   the last one while it passes (a miss at the first rung bisects down
   from it instead), then three bisections. *)
let search =
  {
    Ladder.rates = [ 500.; 600.; 650.; 700. ];
    max_rate = 5600.;
    bisections = 3;
    max_fail_ratio = 0.001;
  }

let server = (Round.server_ip, Apps.Memcached.port)

type inputs = {
  ops : int;
  conn : int array;
  key : int array;
  set : Bytes.t;  (** ['s'] for a SET, ['g'] for a GET *)
  gap : float array;  (** unit-mean exponential inter-arrival *)
}

(* Inverse-CDF Zipf sampling: P(rank i) proportional to 1/(i+1)^s. *)
let zipf_cdf n s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  Array.map (fun x -> x /. !acc) cdf

let sample_zipf rng cdf =
  let u = Sim.Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let generate ~seed ~ops =
  let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
  let cdf = zipf_cdf keys zipf_s in
  let conn = Array.make ops 0 and key = Array.make ops 0 in
  let set = Bytes.make ops 'g' and gap = Array.make ops 0. in
  for i = 0 to ops - 1 do
    conn.(i) <- Sim.Rng.int rng connections;
    key.(i) <- sample_zipf rng cdf;
    if Sim.Rng.int rng 10 = 0 then Bytes.set set i 's';
    gap.(i) <- -.log (1. -. Sim.Rng.float rng 1.0)
  done;
  { ops; conn; key; set; gap }

let digest i =
  let b = Buffer.create (i.ops * 16) in
  for k = 0 to i.ops - 1 do
    Buffer.add_int32_le b (Int32.of_int ((i.conn.(k) lsl 16) lor i.key.(k)));
    Buffer.add_int64_le b (Int64.bits_of_float i.gap.(k))
  done;
  Buffer.add_bytes b i.set;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* {1 Wire format (Apps.Memcached)}

   Requests: ['G' ^ key] and ['S' ^ key ^ '\000' ^ value]; replies:
   ['V' ^ value], ['N'] (miss), ['O'] (stored).  A value is
   ["k" ^ 6-digit key ^ "v" ^ 9-digit version] padded with a filler byte
   that depends on both. *)

let key_string k = Printf.sprintf "key-%06d" k

let put_digits b off n width =
  let n = ref n in
  for i = width - 1 downto 0 do
    Bytes.set b (off + i) (Char.chr (48 + (!n mod 10)));
    n := !n / 10
  done

let get_digits b off width =
  let rec go i acc =
    if i = width then Some acc
    else
      match Bytes.get b (off + i) with
      | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - 48)
      | _ -> None
  in
  go 0 0

let filler ~key ~version = Char.chr (97 + (((key * 7) + version) mod 26))

let header_len = 1 + 10 + 1 (* 'S', key, NUL *)

(* GET requests are read-only once built; [sendto] copies them. *)
let gets = Array.init keys (fun k -> Bytes.of_string ("G" ^ key_string k))

let set_request buf ~key ~version =
  Bytes.set buf 0 'S';
  Bytes.blit_string (key_string key) 0 buf 1 10;
  Bytes.set buf 11 '\000';
  let v = header_len in
  Bytes.set buf v 'k';
  put_digits buf (v + 1) key 6;
  Bytes.set buf (v + 7) 'v';
  put_digits buf (v + 8) version 9;
  Bytes.fill buf (v + 17) (value_size - 17) (filler ~key ~version)

(* [Some (key, version)] for a well-formed value reply. *)
let parse_value reply =
  if Bytes.length reply <> 1 + value_size || Bytes.get reply 0 <> 'V' then None
  else if Bytes.get reply 1 <> 'k' || Bytes.get reply 8 <> 'v' then None
  else
    match (get_digits reply 2 6, get_digits reply 9 9) with
    | Some key, Some version when key < keys ->
        let f = filler ~key ~version in
        let rec ok i = i > value_size || (Bytes.get reply i = f && ok (i + 1)) in
        if ok 18 then Some (key, version) else None
    | _ -> None

(* {1 Client} *)

type conn = {
  ops : int array;  (** operation ids, in schedule order *)
  inflight : int array;  (** in send order *)
  mutable n_inflight : int;
  mutable sender_done : bool;
  arrival : Sim.Condition.t;  (** [inflight] grew or [sender_done] was set *)
}

type shared = {
  r : Round.t;
  inputs : inputs;
  sched : int array;  (** due time of each operation, cycles *)
  sent_wall : int array;  (** traced runs only *)
  issued : int array;  (** highest version sent per key *)
  spans : Spans.t option;
  mutable filled : int;  (** connections done filling *)
  go : Sim.Condition.t;  (** open loop may start *)
}

let remove c i =
  Array.blit c.inflight (i + 1) c.inflight i (c.n_inflight - i - 1);
  c.n_inflight <- c.n_inflight - 1

let find c pred =
  let rec go i =
    if i = c.n_inflight then -1
    else if pred c.inflight.(i) then i
    else go (i + 1)
  in
  go 0

let handle_reply sh c reply ~now =
  let r = sh.r and inputs = sh.inputs in
  let complete i =
    let op = c.inflight.(i) in
    remove c i;
    (match sh.spans with
    | None -> ()
    | Some t ->
        Spans.request_done t ~req:op ~root:(Spans.fresh_id t) ~sim0:sh.sched.(op)
          ~sim1:(Int64.to_int now) ~wall0:sh.sent_wall.(op));
    Round.complete r ~latency:(Int64.sub now (Int64.of_int sh.sched.(op)))
  in
  if Bytes.length reply = 1 && Bytes.get reply 0 = 'O' then begin
    let i = find c (fun op -> Bytes.get inputs.set op = 's') in
    if i >= 0 then complete i
  end
  else
    match parse_value reply with
    | Some (key, version) ->
        if version > sh.issued.(key) then
          Round.violation r "kv_zipf: GET returned a version never set";
        let i =
          find c (fun op -> Bytes.get inputs.set op = 'g' && inputs.key.(op) = key)
        in
        if i >= 0 then
          if version <= sh.issued.(key) then complete i
          else begin
            remove c i;
            Round.fail r
          end
    | None ->
        Round.violation r
          (if Bytes.length reply = 1 && Bytes.get reply 0 = 'N' then
             "kv_zipf: GET missed a key the warm-up set"
           else "kv_zipf: malformed reply")

(* Closed-loop SET of this connection's share of the keys, version 0. *)
let fill sh (api : Libos.Api.t) fd ~conn_id =
  let buf = Bytes.create (header_len + value_size) in
  let spec = [ (fd, [ `In ]) ] in
  let k = ref conn_id in
  while !k < keys do
    set_request buf ~key:!k ~version:0;
    let rec attempt tries =
      if tries = 0 then Round.violation sh.r "kv_zipf: warm-up SET not acknowledged"
      else begin
        ignore (api.sendto fd buf server);
        match api.poll spec ~timeout:(Some op_timeout) with
        | Ok (_ :: _) -> (
            match api.recvfrom fd 2048 with
            | Ok (reply, _) when Bytes.length reply = 1 && Bytes.get reply 0 = 'O' -> ()
            | _ -> attempt (tries - 1))
        | _ -> attempt (tries - 1)
      end
    in
    attempt 3;
    k := !k + connections
  done

let receiver sh c (api : Libos.Api.t) fd () =
  let spec = [ (fd, [ `In ]) ] in
  let rec loop () =
    if c.n_inflight = 0 then begin
      if not c.sender_done then begin
        Sim.Condition.wait c.arrival;
        loop ()
      end
    end
    else
      let op = c.inflight.(0) in
      let deadline = Int64.add (Int64.of_int sh.sched.(op)) op_timeout in
      let left = Int64.sub deadline (Libos.Api.now api) in
      if Int64.compare left 0L <= 0 then begin
        remove c 0;
        Round.fail sh.r;
        loop ()
      end
      else begin
        (match api.poll spec ~timeout:(Some left) with
        | Ok (_ :: _) -> (
            match api.recvfrom fd 2048 with
            | Ok (reply, _) -> handle_reply sh c reply ~now:(Libos.Api.now api)
            | Error _ -> ())
        | Ok [] | Error _ -> ());
        loop ()
      end
  in
  loop ()

let connection sh c ~conn_id ~(api : Libos.Api.t) ~src ~kops () =
  let api, ctx = Spans.wrap_opt sh.spans ~side:Spans.peer api in
  Sim.Engine.delay (Sim.Cycles.of_us 50.);
  let fd = Round.bound_socket api src ~what:"kv_zipf client" in
  fill sh api fd ~conn_id;
  sh.filled <- sh.filled + 1;
  if sh.filled = connections then begin
    (* Every key is set: schedule the open loop from now. *)
    let cycles_per_unit = Sim.Cycles.frequency_hz /. (kops *. 1e3) in
    let t = ref (Libos.Api.now api) in
    for op = 0 to sh.inputs.ops - 1 do
      t := Int64.add !t (Int64.of_float (sh.inputs.gap.(op) *. cycles_per_unit));
      sh.sched.(op) <- Int64.to_int !t
    done;
    Sim.Condition.broadcast sh.go
  end
  else Sim.Condition.wait sh.go;
  api.Libos.Api.spawn ~name:(Printf.sprintf "kv-rx%d" conn_id) (fun child ->
      receiver sh c child fd ());
  let set_buf = Bytes.create (header_len + value_size) in
  Array.iter
    (fun op ->
      let due = Int64.of_int sh.sched.(op) in
      let now = Libos.Api.now api in
      if Int64.compare due now > 0 then Sim.Engine.delay (Int64.sub due now);
      let now = Libos.Api.now api in
      if sh.r.Round.timed then
        sh.r.Round.lag_max <- max sh.r.Round.lag_max (Int64.to_int (Int64.sub now due));
      let key = sh.inputs.key.(op) in
      let req =
        if Bytes.get sh.inputs.set op = 's' then begin
          let version = sh.issued.(key) + 1 in
          sh.issued.(key) <- version;
          set_request set_buf ~key ~version;
          set_buf
        end
        else gets.(key)
      in
      c.inflight.(c.n_inflight) <- op;
      c.n_inflight <- c.n_inflight + 1;
      Sim.Condition.broadcast c.arrival;
      ctx.Spans.req <- op;
      if sh.spans <> None then sh.sent_wall.(op) <- Clock.now_ns ();
      match api.sendto fd req server with
      | Ok _ -> ()
      | Error _ ->
          remove c (c.n_inflight - 1);
          Round.fail sh.r)
    c.ops;
  c.sender_done <- true;
  Sim.Condition.broadcast c.arrival

(* One round at [kops] thousand requests per simulated second. *)
let round ?spans ?(mutant = false) ~kops (inputs : inputs) =
  let r = Round.boot topology ~ops:inputs.ops in
  let h = r.Round.h in
  let sh =
    {
      r;
      inputs;
      sched = Array.make inputs.ops 0;
      sent_wall = Array.make (if spans = None then 0 else inputs.ops) 0;
      issued = Array.make keys 0;
      spans;
      filled = 0;
      go = Sim.Condition.create ();
    }
  in
  let server_api, _ = Spans.wrap_opt spans ~side:Spans.enclave (Apps.Harness.api h) in
  Sim.Engine.spawn h.engine ~name:"kv-server"
    (Apps.Memcached.server server_api ~server_threads);
  let srcs = Round.client_addrs r ~n:connections ~dst:server in
  let per_conn = Array.make connections [] in
  for op = inputs.ops - 1 downto 0 do
    per_conn.(inputs.conn.(op)) <- op :: per_conn.(inputs.conn.(op))
  done;
  let peer = Mutant.apply ~mutant h.peer in
  for conn_id = 0 to connections - 1 do
    let ops = Array.of_list per_conn.(conn_id) in
    let c =
      {
        ops;
        inflight = Array.make (Array.length ops + 1) 0;
        n_inflight = 0;
        sender_done = false;
        arrival = Sim.Condition.create ();
      }
    in
    Sim.Engine.spawn h.engine
      ~name:(Printf.sprintf "kv-conn%d" conn_id)
      (connection sh c ~conn_id ~api:peer ~src:srcs.(conn_id) ~kops)
  done;
  Round.conclude ~traced:(spans <> None) r
