type sock = {
  mutable bound : (Packet.Addr.Ip.t * int) option;
  rxq : (Bytes.t * (Packet.Addr.Ip.t * int)) Sim.Mailbox.t;
  mutable closed : bool;
  activity : Sim.Condition.t; (* broadcast on datagram arrival (pollers) *)
}

type t = {
  engine : Sim.Engine.t;
  route : Packet.Addr.Ip.t -> Nic.t option;
  by_port : sock Sim.Int_table.t;
  arp : Packet.Addr.Mac.t Sim.Int_table.t; (* keyed by Ip as int *)
  arp_resolved : Sim.Condition.t;
  mutable next_ephemeral : int;
  (* On the engine's registry, shared by every kernel on the engine. *)
  no_socket_drops : Obs.Metrics.counter;
  buffer_drops : Obs.Metrics.counter;
}

let rx_capacity = Sgx.Params.udp_socket_buffer / Sgx.Params.umem_frame_size

let create engine ~route =
  let counter = Obs.Metrics.counter (Sim.Engine.stats engine) in
  {
    engine;
    route;
    by_port = Sim.Int_table.create 16;
    arp = Sim.Int_table.create 8;
    arp_resolved = Sim.Condition.create ();
    next_ephemeral = 40000;
    no_socket_drops = counter "udp.no_socket_drops";
    buffer_drops = counter "udp.buffer_drops";
  }

let socket _t =
  {
    bound = None;
    rxq = Sim.Mailbox.create ~capacity:rx_capacity ();
    closed = false;
    activity = Sim.Condition.create ();
  }

let bind t sock ip port =
  let port =
    if port = 0 then begin
      while Sim.Int_table.mem t.by_port t.next_ephemeral do
        t.next_ephemeral <- t.next_ephemeral + 1
      done;
      t.next_ephemeral
    end
    else port
  in
  if Sim.Int_table.mem t.by_port port then Error Abi.Errno.EADDRINUSE
  else begin
    sock.bound <- Some (ip, port);
    Sim.Int_table.add t.by_port port sock;
    Ok ()
  end

let softirq_cycles = Int64.to_int Sgx.Params.kernel_udp_softirq_per_packet

let charge_copy len =
  Sim.Engine.delay_cycles
    (int_of_float (float_of_int len *. Sgx.Params.memcpy_cycles_per_byte))

let arp_resolve t ip = Sim.Int_table.find_opt t.arp (Packet.Addr.Ip.to_int ip)

let add_arp t ip mac = Sim.Int_table.replace t.arp (Packet.Addr.Ip.to_int ip) mac

let send_arp_request nic target_ip =
  let arp =
    {
      Packet.Arp.op = Request;
      sender_mac = Nic.mac nic;
      sender_ip = Nic.ip nic;
      target_mac = Packet.Addr.Mac.zero;
      target_ip;
    }
  in
  Nic.transmit nic
    (Packet.Frame.build_arp ~src_mac:(Nic.mac nic)
       ~dst_mac:Packet.Addr.Mac.broadcast arp)

let arp_retry_cycles = Int64.to_int (Sim.Cycles.of_us 100.)

(* Resolve [ip] to a MAC, emitting ARP requests and blocking until the
   reply is learned.  Gives up after a few retries. *)
let resolve_blocking t nic ip =
  let rec attempt tries =
    match arp_resolve t ip with
    | Some mac -> Some mac
    | None when tries = 0 -> None
    | None ->
        send_arp_request nic ip;
        (* Wait for any ARP learning event, or a retransmit timeout. *)
        let timer_fired = ref false in
        Sim.Engine.at_clock t.engine
          (Sim.Engine.clock t.engine + arp_retry_cycles)
          (fun () ->
            if not !timer_fired then begin
              timer_fired := true;
              Sim.Condition.broadcast t.arp_resolved
            end);
        Sim.Condition.wait t.arp_resolved;
        attempt (tries - 1)
  in
  attempt 5

let transmit nic ~src_port ~dst_mac ~dst_ip ~dst_port payload =
  Sim.Engine.delay Sgx.Params.kernel_udp_tx_syscall_cycles;
  charge_copy (Bytes.length payload);
  let info =
    {
      Packet.Frame.src_mac = Nic.mac nic;
      dst_mac;
      src_ip = Nic.ip nic;
      dst_ip;
      src_port;
      dst_port;
    }
  in
  Nic.transmit nic (Packet.Frame.build_udp info payload);
  Ok (Bytes.length payload)

let sendto t sock payload ~dst:(dst_ip, dst_port) =
  match t.route dst_ip with
  | None -> Error Abi.Errno.ENOTCONN
  | Some nic -> (
      (if sock.bound = None then
         match bind t sock (Nic.ip nic) 0 with
         | Ok () -> ()
         | Error _ -> ());
      match sock.bound with
      | None -> Error Abi.Errno.EINVAL
      | Some (_, src_port) -> (
          if Bytes.length payload > Packet.Udp.max_payload then
            Error Abi.Errno.EMSGSIZE
          else
            (* A neighbour hit is read in place, with no option. *)
            match Sim.Int_table.find t.arp (Packet.Addr.Ip.to_int dst_ip) with
            | dst_mac ->
                transmit nic ~src_port ~dst_mac ~dst_ip ~dst_port payload
            | exception Not_found -> (
                match resolve_blocking t nic dst_ip with
                | None -> Error Abi.Errno.ENOTCONN
                | Some dst_mac ->
                    transmit nic ~src_port ~dst_mac ~dst_ip ~dst_port payload)))

let recvfrom _t sock ~max =
  if sock.closed then Error Abi.Errno.EBADF
  else if max < 0 then Error Abi.Errno.EINVAL (* before dequeuing *)
  else begin
    let ((payload, src) as datagram) = Sim.Mailbox.get sock.rxq in
    Sim.Engine.delay Sgx.Params.kernel_udp_rx_syscall_cycles;
    charge_copy (min max (Bytes.length payload));
    if Bytes.length payload > max then Ok (Bytes.sub payload 0 max, src)
    else Ok datagram
  end

let readable sock = not (Sim.Mailbox.is_empty sock.rxq)

let close t sock =
  sock.closed <- true;
  match sock.bound with
  | Some (_, port) -> Sim.Int_table.remove t.by_port port
  | None -> ()

let handle_arp t nic arp =
  let open Packet.Arp in
  (* Learn the sender mapping either way. *)
  add_arp t arp.sender_ip arp.sender_mac;
  Sim.Condition.broadcast t.arp_resolved;
  match arp.op with
  | Request when Packet.Addr.Ip.equal arp.target_ip (Nic.ip nic) ->
      let reply =
        {
          op = Reply;
          sender_mac = Nic.mac nic;
          sender_ip = Nic.ip nic;
          target_mac = arp.sender_mac;
          target_ip = arp.sender_ip;
        }
      in
      Nic.transmit nic
        (Packet.Frame.build_arp ~src_mac:(Nic.mac nic) ~dst_mac:arp.sender_mac
           reply)
  | Request | Reply -> ()

(* Each frame is validated once, in place; only a delivered payload is
   copied. *)
let input t nic frame =
  match Packet.Frame.validate_udp frame with
  | Ok payload_len -> (
      let udp_off = Packet.Eth.header_size + Packet.Ipv4.header_size in
      match Sim.Int_table.find t.by_port (Packet.Udp.dst_port_at frame udp_off) with
      | exception Not_found -> Obs.Metrics.incr t.no_socket_drops
      | sock ->
          let payload =
            Bytes.sub frame Packet.Frame.frame_overhead payload_len
          in
          let src =
            ( Packet.Ipv4.src_at frame Packet.Eth.header_size,
              Packet.Udp.src_port_at frame udp_off )
          in
          if Sim.Mailbox.try_put sock.rxq (payload, src) then
            Sim.Condition.broadcast sock.activity
          else Obs.Metrics.incr t.buffer_drops)
  | Error Not_ipv4 when Packet.Eth.ethertype_at frame 0 = Arp -> (
      match
        Packet.Arp.parse
          (Bytes.sub frame Packet.Eth.header_size
             (Bytes.length frame - Packet.Eth.header_size))
      with
      | Ok arp -> handle_arp t nic arp
      | Error _ -> ())
  | Error _ -> ()

let stack_input t nic p ~next =
  let frame = ref Bytes.empty in
  let input_frame () =
    input t nic !frame;
    next ()
  in
  fun f ->
    frame := f;
    Sim.Engine.charge p softirq_cycles input_frame

let activity sock = sock.activity
