type locking = [ `Global | `Fine ]

type send_error = Unresolvable | Payload_too_big | No_transmit

(* Why a frame was dropped: one counter slot each, registered on the
   first drop as [<name>.drop.<reason>]. *)
type drop =
  | Bad_eth
  | Not_ours
  | Bad_arp
  | Bad_ip
  | Not_udp
  | Bad_udp
  | No_socket
  | Overload_shed
  | Queue_full
  | Frag_expired
  | Frag_bounds
  | Frag_table_full
  | Frag_src_quota
  | Frag_too_many
  | Frag_overlap

let drop_slot = function
  | Bad_eth -> 0
  | Not_ours -> 1
  | Bad_arp -> 2
  | Bad_ip -> 3
  | Not_udp -> 4
  | Bad_udp -> 5
  | No_socket -> 6
  | Overload_shed -> 7
  | Queue_full -> 8
  | Frag_expired -> 9
  | Frag_bounds -> 10
  | Frag_table_full -> 11
  | Frag_src_quota -> 12
  | Frag_too_many -> 13
  | Frag_overlap -> 14

(* By [drop_slot]: the [<reason>] of each counter's name. *)
let drop_names =
  [|
    "bad-eth"; "not-ours"; "bad-arp"; "bad-ip"; "not-udp"; "bad-udp";
    "no-socket"; "overload-shed"; "queue-full"; "frag-expired"; "frag-bounds";
    "frag-table-full"; "frag-src-quota"; "frag-too-many"; "frag-overlap";
  |]

let drop_slots = Array.length drop_names

let of_reject : Reassembly.reject -> drop = function
  | Frag_bounds -> Frag_bounds
  | Frag_table_full -> Frag_table_full
  | Frag_src_quota -> Frag_src_quota
  | Frag_too_many -> Frag_too_many
  | Frag_overlap -> Frag_overlap

type t = {
  engine : Sim.Engine.t;
  mac : Packet.Addr.Mac.t;
  ip : Packet.Addr.Ip.t;
  locking : locking;
  global_lock : Sim.Lock.t;
  table_lock : Sim.Lock.t;
  sockets : Udp_socket.t Sim.Int_table.t;
  arp : Arp_cache.t;
  reasm : Reassembly.t;
  (* Reassembly.expired value already folded into our drop counters —
     the reassembler evicts lazily, so we account the delta per input. *)
  mutable reasm_expired_seen : int;
  mutable transmit : (Bytes.t -> unit) option;
  arp_request : Packet.Addr.Ip.t -> unit;
  (* Overload hooks (DESIGN.md §15), installed by the runtime when
     [Config.overload]: [rx_gate] is consulted with the destination
     socket's queue depth before every enqueue — [false] sheds the
     datagram (accounted as [<name>.drop.overload-shed]); [on_dequeue]
     observes each datagram's queue sojourn on the recvfrom path. *)
  mutable rx_gate : (depth:int -> bool) option;
  mutable on_dequeue : (sojourn:int64 -> depth:int -> unit) option;
  metrics : Obs.Metrics.t;
  rx_delivered : Obs.Metrics.counter;
  drops : Obs.Metrics.counter option array; (* by [drop_slot] *)
  name : string;
  mutable next_ephemeral : int;
}

let send_arp_request t target_ip =
  match t.transmit with
  | None -> ()
  | Some transmit ->
      let arp =
        {
          Packet.Arp.op = Request;
          sender_mac = t.mac;
          sender_ip = t.ip;
          target_mac = Packet.Addr.Mac.zero;
          target_ip;
        }
      in
      transmit
        (Packet.Frame.build_arp ~src_mac:t.mac
           ~dst_mac:Packet.Addr.Mac.broadcast arp)

let create ?obs ?name ?arp engine ~mac ~ip ?(locking = `Fine) () =
  let metrics =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  let name = Option.value name ~default:"stack" in
  let rec t =
    {
      engine;
      mac;
      ip;
      locking;
      global_lock = Sim.Lock.create ();
      table_lock = Sim.Lock.create ();
      sockets = Sim.Int_table.create 16;
      arp =
        (match arp with Some a -> a | None -> Arp_cache.create ?obs engine ());
      reasm = Reassembly.create ~clock:(fun () -> Sim.Engine.now engine) ();
      reasm_expired_seen = 0;
      transmit = None;
      arp_request = (fun ip -> send_arp_request t ip);
      rx_gate = None;
      on_dequeue = None;
      metrics;
      rx_delivered = Obs.Metrics.counter metrics (name ^ ".rx_delivered");
      drops = Array.make drop_slots None;
      name;
      next_ephemeral = 50000;
    }
  in
  t

let arp t = t.arp

let set_transmit t f = t.transmit <- Some f

let set_overload_hooks t ~rx_gate ~on_dequeue =
  t.rx_gate <- Some rx_gate;
  t.on_dequeue <- Some on_dequeue;
  (* Sockets bound before the hooks were installed get the observer
     retrofitted (the gate reads [t.rx_gate] live, so it needs none).
     Each socket gets the same hook, so the order does not matter. *)
  Sim.Int_table.iter (fun _ sock -> Udp_socket.set_on_dequeue sock on_dequeue)
    t.sockets

(* Registry counters named [stack.drop.<reason>], created on the first
   drop of each reason: the steady state is an array read and a field
   bump, allocating nothing. *)
let drop t reason =
  let i = drop_slot reason in
  match t.drops.(i) with
  | Some c -> Obs.Metrics.incr c
  | None ->
      let c =
        Obs.Metrics.counter t.metrics (t.name ^ ".drop." ^ drop_names.(i))
      in
      Obs.Metrics.incr c;
      t.drops.(i) <- Some c

let rx_delivered t = Obs.Metrics.value t.rx_delivered

let rx_dropped t =
  Array.fold_left
    (fun acc -> function Some c -> acc + Obs.Metrics.value c | None -> acc)
    0 t.drops

let drop_reasons t =
  List.init drop_slots (fun i ->
      Option.map (fun c -> (drop_names.(i), Obs.Metrics.value c)) t.drops.(i))
  |> List.filter_map Fun.id
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let lock_contention t =
  Sim.Lock.contended t.global_lock + Sim.Lock.contended t.table_lock

(* In [`Global] mode all packet processing serializes behind one lock —
   the original LWIP discipline; in [`Fine] mode only the socket table
   is protected and the (charged) per-packet work runs concurrently.
   The [`Fine] datapath takes no closure: a socket lookup locks the
   table around one [Sim.Int_table.find]. *)
let with_table t f =
  match t.locking with
  | `Global -> f () (* already inside the global lock *)
  | `Fine -> Sim.Lock.with_lock t.table_lock f

(* The socket bound to [port]; raises [Not_found]. *)
let find_socket t port =
  match t.locking with
  | `Global -> Sim.Int_table.find t.sockets port
  | `Fine -> (
      Sim.Lock.acquire t.table_lock;
      match Sim.Int_table.find t.sockets port with
      | sock ->
          Sim.Lock.release t.table_lock;
          sock
      | exception Not_found ->
          Sim.Lock.release t.table_lock;
          raise Not_found)

let charge_packet () = Sim.Engine.delay !Sgx.Params.enclave_udp_stack_per_packet

let ephemeral_first = 50_000

let ephemeral_last = 65_535

let bind t ~port =
  with_table t (fun () ->
      let port =
        if port = 0 then begin
          (* Ephemeral range [ephemeral_first..ephemeral_last], wrapping
             at the top; one full lap with no free port is exhaustion,
             not a march past 65535 into invalid port space.  The cursor
             stays on the allocated port (it only moves past ports that
             are still bound), so a bind/unbind cycle re-uses its port —
             and keeps its RSS steering — like the original allocator. *)
          let rec scan p tries =
            if tries = 0 then None
            else if Sim.Int_table.mem t.sockets p then
              scan
                (if p >= ephemeral_last then ephemeral_first else p + 1)
                (tries - 1)
            else begin
              t.next_ephemeral <- p;
              Some p
            end
          in
          scan t.next_ephemeral (ephemeral_last - ephemeral_first + 1)
        end
        else Some port
      in
      match port with
      | None -> Error `Port_in_use
      | Some port ->
          if Sim.Int_table.mem t.sockets port then Error `Port_in_use
          else begin
            let sock =
              Udp_socket.create
                ~clock:(fun () -> Sim.Engine.now t.engine)
                ~port ()
            in
            (match t.on_dequeue with
            | Some f -> Udp_socket.set_on_dequeue sock f
            | None -> ());
            Sim.Int_table.add t.sockets port sock;
            Ok sock
          end)

let unbind t sock =
  with_table t (fun () -> Sim.Int_table.remove t.sockets (Udp_socket.port sock))

let send_frame t transmit ~src_port ~dst_mac ~dst_ip ~dst_port payload =
  charge_packet ();
  let info =
    {
      Packet.Frame.src_mac = t.mac;
      dst_mac;
      src_ip = t.ip;
      dst_ip;
      src_port;
      dst_port;
    }
  in
  transmit (Packet.Frame.build_udp info payload);
  Ok (Bytes.length payload)

let sendto t ~src_port ~dst:(dst_ip, dst_port) payload =
  match t.transmit with
  | None -> Error No_transmit
  | Some transmit -> (
      if Bytes.length payload > Packet.Udp.max_payload then
        Error Payload_too_big
      else
        match Arp_cache.resolve t.arp dst_ip ~request:t.arp_request with
        | None -> Error Unresolvable
        | Some dst_mac -> (
            match t.locking with
            | `Fine ->
                send_frame t transmit ~src_port ~dst_mac ~dst_ip ~dst_port
                  payload
            | `Global ->
                Sim.Lock.with_lock t.global_lock (fun () ->
                    send_frame t transmit ~src_port ~dst_mac ~dst_ip ~dst_port
                      payload)))

let handle_arp t arp =
  let open Packet.Arp in
  Arp_cache.learn t.arp arp.sender_ip arp.sender_mac;
  match (arp.op, t.transmit) with
  | Request, Some transmit when Packet.Addr.Ip.equal arp.target_ip t.ip ->
      let reply =
        {
          op = Reply;
          sender_mac = t.mac;
          sender_ip = t.ip;
          target_mac = arp.sender_mac;
          target_ip = arp.sender_ip;
        }
      in
      transmit
        (Packet.Frame.build_arp ~src_mac:t.mac ~dst_mac:arp.sender_mac reply)
  | (Request | Reply), _ -> ()

(* UDP datagram in [b.(off .. off+len)], in place: the reassembled
   datagram of a fragment train, or the trusted staging copy of a whole
   frame.  Only the payload that reaches a socket queue is copied. *)
let handle_udp t ~src ~dst b ~off ~len =
  match Packet.Udp.validate ~src ~dst b ~off ~len with
  | Error _ -> drop t Bad_udp
  | Ok payload_len -> (
      match find_socket t (Packet.Udp.dst_port_at b off) with
      | exception Not_found -> drop t No_socket
      | sock ->
          let admitted =
            match t.rx_gate with
            | None -> true
            | Some gate -> gate ~depth:(Udp_socket.pending sock)
          in
          if not admitted then drop t Overload_shed
          else if
            Udp_socket.enqueue sock
              (Bytes.sub b (off + Packet.Udp.header_size) payload_len)
              ~src:(src, Packet.Udp.src_port_at b off)
          then Obs.Metrics.incr t.rx_delivered
          else drop t Queue_full)

let deliver t (ip_pkt : Packet.Ipv4.t) =
  match ip_pkt.proto with
  | Udp ->
      handle_udp t ~src:ip_pkt.src ~dst:ip_pkt.dst ip_pkt.payload ~off:0
        ~len:(Bytes.length ip_pkt.payload)
  | Tcp | Icmp | Other _ -> drop t Not_udp

(* A fragment copies its own payload once, into the reassembler. *)
let input_fragment t frame ~off ~payload_len =
  (match
     Reassembly.insert t.reasm (Packet.Ipv4.fragment_at frame off ~payload_len)
   with
  | Reassembly.Complete ip_pkt -> deliver t ip_pkt
  | Reassembly.Pending -> ()
  | Reassembly.Rejected r -> drop t (of_reject r));
  (* Reassemblies the lazy sweep abandoned since we last looked become
     accounted drops now. *)
  let ex = Reassembly.expired t.reasm in
  for _ = t.reasm_expired_seen + 1 to ex do
    drop t Frag_expired
  done;
  t.reasm_expired_seen <- ex

let input_ipv4 t frame ~off ~len =
  match Packet.Ipv4.validate ~fragments:true frame ~off ~len with
  | Error _ -> drop t Bad_ip
  | Ok payload_len ->
      let dst = Packet.Ipv4.dst_at frame off in
      if not (Packet.Addr.Ip.equal dst t.ip) then drop t Not_ours
      else if Packet.Ipv4.is_fragment_at frame off then
        input_fragment t frame ~off ~payload_len
      else (
        match Packet.Ipv4.proto_at frame off with
        | Udp ->
            handle_udp t ~src:(Packet.Ipv4.src_at frame off) ~dst frame
              ~off:(off + Packet.Ipv4.header_size) ~len:payload_len
        | Tcp | Icmp | Other _ -> drop t Not_udp)

(* [frame] is the trusted staging copy (never untrusted memory), so it
   is validated in place: one validation routine per layer, no copy
   until a payload is queued. *)
let process_frame t frame ~len =
  charge_packet ();
  match Packet.Eth.validate frame ~off:0 ~len with
  | -1 -> drop t Bad_eth
  | eth_len -> (
      let for_us =
        Packet.Eth.dst_is frame 0 t.mac
        || Packet.Eth.dst_is frame 0 Packet.Addr.Mac.broadcast
      in
      if not for_us then drop t Not_ours
      else
        match Packet.Eth.ethertype_at frame 0 with
        | Unknown _ -> drop t Bad_eth
        | Arp -> (
            match
              Packet.Arp.parse (Bytes.sub frame Packet.Eth.header_size eth_len)
            with
            | Error _ -> drop t Bad_arp
            | Ok arp -> handle_arp t arp)
        | Ipv4 -> input_ipv4 t frame ~off:Packet.Eth.header_size ~len:eth_len)

let input_borrowed t frame ~len =
  match t.locking with
  | `Fine -> process_frame t frame ~len
  | `Global ->
      Sim.Lock.with_lock t.global_lock (fun () -> process_frame t frame ~len)

let input t frame = input_borrowed t frame ~len:(Bytes.length frame)
