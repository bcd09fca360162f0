type locking = [ `Global | `Fine ]

type send_error = Unresolvable | Payload_too_big | No_transmit

type t = {
  engine : Sim.Engine.t;
  mac : Packet.Addr.Mac.t;
  ip : Packet.Addr.Ip.t;
  locking : locking;
  global_lock : Sim.Lock.t;
  table_lock : Sim.Lock.t;
  sockets : (int, Udp_socket.t) Hashtbl.t;
  arp : Arp_cache.t;
  reasm : Reassembly.t;
  (* Reassembly.expired value already folded into our drop counters —
     the reassembler evicts lazily, so we account the delta per input. *)
  mutable reasm_expired_seen : int;
  mutable transmit : (Bytes.t -> unit) option;
  (* Overload hooks (DESIGN.md §15), installed by the runtime when
     [Config.overload]: [rx_gate] is consulted with the destination
     socket's queue depth before every enqueue — [false] sheds the
     datagram (accounted as [<name>.drop.overload-shed]); [on_dequeue]
     observes each datagram's queue sojourn on the recvfrom path. *)
  mutable rx_gate : (depth:int -> bool) option;
  mutable on_dequeue : (sojourn:int64 -> depth:int -> unit) option;
  metrics : Obs.Metrics.t;
  rx_delivered : Obs.Metrics.counter;
  drops : (string, Obs.Metrics.counter) Hashtbl.t;
  name : string;
  mutable next_ephemeral : int;
}

let create ?obs ?name ?arp engine ~mac ~ip ?(locking = `Fine) () =
  let metrics =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  let name = Option.value name ~default:"stack" in
  {
    engine;
    mac;
    ip;
    locking;
    global_lock = Sim.Lock.create ();
    table_lock = Sim.Lock.create ();
    sockets = Hashtbl.create 16;
    arp =
      (match arp with Some a -> a | None -> Arp_cache.create ?obs engine ());
    reasm = Reassembly.create ~clock:(fun () -> Sim.Engine.now engine) ();
    reasm_expired_seen = 0;
    transmit = None;
    rx_gate = None;
    on_dequeue = None;
    metrics;
    rx_delivered = Obs.Metrics.counter metrics (name ^ ".rx_delivered");
    drops = Hashtbl.create 8;
    name;
    next_ephemeral = 50000;
  }

let mac t = t.mac

let ip t = t.ip

let arp t = t.arp

let set_transmit t f = t.transmit <- Some f

let set_overload_hooks t ~rx_gate ~on_dequeue =
  t.rx_gate <- Some rx_gate;
  t.on_dequeue <- Some on_dequeue;
  (* Sockets bound before the hooks were installed get the observer
     retrofitted (the gate reads [t.rx_gate] live, so it needs none). *)
  Hashtbl.iter (fun _ sock -> Udp_socket.set_on_dequeue sock on_dequeue)
    t.sockets

(* Registry counters named [stack.drop.<reason>], created on the first
   drop of each reason: the steady state is one Hashtbl probe and a
   field bump, with no string building. *)
let drop t reason =
  match Hashtbl.find_opt t.drops reason with
  | Some c -> Obs.Metrics.incr c
  | None ->
      let c = Obs.Metrics.counter t.metrics (t.name ^ ".drop." ^ reason) in
      Obs.Metrics.incr c;
      Hashtbl.add t.drops reason c

let rx_delivered t = Obs.Metrics.value t.rx_delivered

let rx_dropped t =
  Hashtbl.fold (fun _ c acc -> acc + Obs.Metrics.value c) t.drops 0

let drop_reasons t =
  Hashtbl.fold (fun k c acc -> (k, Obs.Metrics.value c) :: acc) t.drops []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let socket_count t = Hashtbl.length t.sockets

let lock_contention t =
  Sim.Lock.contended t.global_lock + Sim.Lock.contended t.table_lock

(* In [`Global] mode all packet processing serializes behind one lock —
   the original LWIP discipline; in [`Fine] mode only the socket table
   is protected and the (charged) per-packet work runs concurrently. *)
let with_processing t f =
  match t.locking with
  | `Global -> Sim.Lock.with_lock t.global_lock f
  | `Fine -> f ()

let with_table t f =
  match t.locking with
  | `Global -> f () (* already inside the global lock *)
  | `Fine -> Sim.Lock.with_lock t.table_lock f

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
            else if Hashtbl.mem t.sockets p then
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
          if Hashtbl.mem t.sockets port then Error `Port_in_use
          else begin
            let sock =
              Udp_socket.create
                ~clock:(fun () -> Sim.Engine.now t.engine)
                ~port ()
            in
            (match t.on_dequeue with
            | Some f -> Udp_socket.set_on_dequeue sock f
            | None -> ());
            Hashtbl.add t.sockets port sock;
            Ok sock
          end)

let unbind t sock =
  with_table t (fun () -> Hashtbl.remove t.sockets (Udp_socket.port sock))

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

let sendto t ~src_port ~dst:(dst_ip, dst_port) payload =
  match t.transmit with
  | None -> Error No_transmit
  | Some transmit ->
      if Bytes.length payload > Packet.Udp.max_payload then
        Error Payload_too_big
      else begin
        match
          Arp_cache.resolve t.arp dst_ip ~request:(fun () ->
              send_arp_request t dst_ip)
        with
        | None -> Error Unresolvable
        | Some dst_mac ->
            with_processing t (fun () ->
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
                Ok (Bytes.length payload))
      end

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
  | Error _ -> drop t "bad-udp"
  | Ok payload_len -> (
      let dst_port = Packet.Udp.dst_port_at b off in
      let sock = with_table t (fun () -> Hashtbl.find_opt t.sockets dst_port) in
      match sock with
      | None -> drop t "no-socket"
      | Some sock ->
          let admitted =
            match t.rx_gate with
            | None -> true
            | Some gate -> gate ~depth:(Udp_socket.pending sock)
          in
          if not admitted then drop t "overload-shed"
          else if
            Udp_socket.enqueue sock
              (Bytes.sub b (off + Packet.Udp.header_size) payload_len)
              ~src:(src, Packet.Udp.src_port_at b off)
          then Obs.Metrics.incr t.rx_delivered
          else drop t "queue-full")

let deliver t (ip_pkt : Packet.Ipv4.t) =
  match ip_pkt.proto with
  | Udp ->
      handle_udp t ~src:ip_pkt.src ~dst:ip_pkt.dst ip_pkt.payload ~off:0
        ~len:(Bytes.length ip_pkt.payload)
  | Tcp | Icmp | Other _ -> drop t "not-udp"

(* A fragment copies its own payload once, into the reassembler. *)
let input_fragment t frame ~off ~payload_len =
  (match
     Reassembly.insert t.reasm (Packet.Ipv4.fragment_at frame off ~payload_len)
   with
  | Reassembly.Complete ip_pkt -> deliver t ip_pkt
  | Reassembly.Pending -> ()
  | Reassembly.Rejected reason -> drop t reason);
  (* Reassemblies the lazy sweep abandoned since we last looked become
     accounted drops now. *)
  let ex = Reassembly.expired t.reasm in
  for _ = t.reasm_expired_seen + 1 to ex do
    drop t "frag-expired"
  done;
  t.reasm_expired_seen <- ex

let input_ipv4 t frame ~off ~len =
  match Packet.Ipv4.validate ~fragments:true frame ~off ~len with
  | Error _ -> drop t "bad-ip"
  | Ok payload_len ->
      let dst = Packet.Ipv4.dst_at frame off in
      if not (Packet.Addr.Ip.equal dst t.ip) then drop t "not-ours"
      else if Packet.Ipv4.is_fragment_at frame off then
        input_fragment t frame ~off ~payload_len
      else (
        match Packet.Ipv4.proto_at frame off with
        | Udp ->
            handle_udp t ~src:(Packet.Ipv4.src_at frame off) ~dst frame
              ~off:(off + Packet.Ipv4.header_size) ~len:payload_len
        | Tcp | Icmp | Other _ -> drop t "not-udp")

(* [frame] is the trusted staging copy (never untrusted memory), so it
   is validated in place: one validation routine per layer, no copy
   until a payload is queued. *)
let input_borrowed t frame ~len =
  with_processing t (fun () ->
      charge_packet ();
      match Packet.Eth.validate frame ~off:0 ~len with
      | Error _ -> drop t "bad-eth"
      | Ok eth_len -> (
          let dst = Packet.Eth.dst_at frame 0 in
          let for_us =
            Packet.Addr.Mac.equal dst t.mac || Packet.Addr.Mac.is_broadcast dst
          in
          if not for_us then drop t "not-ours"
          else
            match Packet.Eth.ethertype_at frame 0 with
            | Unknown _ -> drop t "bad-eth"
            | Arp -> (
                match
                  Packet.Arp.parse
                    (Bytes.sub frame Packet.Eth.header_size eth_len)
                with
                | Error _ -> drop t "bad-arp"
                | Ok arp -> handle_arp t arp)
            | Ipv4 ->
                input_ipv4 t frame ~off:Packet.Eth.header_size ~len:eth_len))

let input t frame = input_borrowed t frame ~len:(Bytes.length frame)
