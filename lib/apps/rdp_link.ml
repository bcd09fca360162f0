(* One RDP endpoint pumped over a {!Libos.Api} UDP socket.

   The {!Netstack.Rdp} engine is pure state, so this adapter owns all
   the I/O: it transmits what the engine hands back (DATA, ACKs,
   retransmissions), feeds every arriving datagram through the engine,
   queues fresh deliveries for the app, and shapes its poll timeouts
   around the engine's retransmit deadlines.  Both ends of a workload
   run one (the enclave app over the XSK datapath, the native client
   over the host kernel) — RDP is symmetric. *)

type t = {
  api : Libos.Api.t;
  rdp : Netstack.Rdp.t;
  fd : Libos.Api.fd;
  rx : (Bytes.t * Libos.Api.sockaddr) Queue.t;
}

let create api =
  {
    api;
    rdp = Netstack.Rdp.create ();
    fd = api.Libos.Api.udp_socket ();
    rx = Queue.create ();
  }

let rdp t = t.rdp

let bind t addr = t.api.Libos.Api.bind t.fd addr

let close t =
  (* Teardown converts lingering unacked sends into counted give-ups. *)
  Netstack.Rdp.abandon t.rdp;
  ignore (t.api.Libos.Api.close t.fd)

let transmit t dst datagram = ignore (t.api.Libos.Api.sendto t.fd datagram dst)

let send t payload dst =
  transmit t dst
    (Netstack.Rdp.send t.rdp ~now:(Libos.Api.now t.api) ~dst payload)

let fire_due t =
  List.iter
    (fun (dst, datagram) -> transmit t dst datagram)
    (Netstack.Rdp.due t.rdp ~now:(Libos.Api.now t.api))

(* Drain one arrived datagram through the engine. *)
let absorb t =
  match t.api.Libos.Api.recvfrom t.fd 65536 with
  | Error _ -> ()
  | Ok (datagram, src) -> (
      match
        Netstack.Rdp.input t.rdp ~now:(Libos.Api.now t.api) ~src datagram
      with
      | Netstack.Rdp.Deliver (payload, ack) ->
          transmit t src ack;
          Queue.add (payload, src) t.rx
      | Netstack.Rdp.Duplicate ack -> transmit t src ack
      | Netstack.Rdp.Acked | Netstack.Rdp.Ack_unknown | Netstack.Rdp.Junk ->
          ())

(* Block until a fresh payload is available or [timeout] (None = wait
   forever) expires, retransmitting on the engine's clock throughout. *)
let recv ?timeout t =
  let api = t.api in
  let deadline =
    Option.map (fun c -> Int64.add (Libos.Api.now api) c) timeout
  in
  let rec loop () =
    if not (Queue.is_empty t.rx) then Some (Queue.take t.rx)
    else begin
      fire_due t;
      let now = Libos.Api.now api in
      match deadline with
      | Some d when Int64.compare now d >= 0 -> None
      | _ -> (
          let until =
            match (deadline, Netstack.Rdp.next_deadline t.rdp) with
            | None, None -> None
            | Some a, None -> Some a
            | None, Some b -> Some b
            | Some a, Some b -> Some (Int64.min a b)
          in
          let poll_timeout =
            Option.map (fun u -> Int64.max 1L (Int64.sub u now)) until
          in
          match api.Libos.Api.poll [ (t.fd, [ `In ]) ] ~timeout:poll_timeout with
          | Ok (_ :: _) ->
              absorb t;
              loop ()
          | Ok [] -> loop () (* a retransmit or caller deadline passed *)
          | Error _ -> None)
    end
  in
  loop ()

(* Keep pumping until every pending DATA is acked or given up (or
   [timeout] expires): the end-of-run barrier that turns lingering
   unacked sends into counted give-ups instead of dangling state. *)
let flush ?timeout t =
  let api = t.api in
  let deadline =
    Option.map (fun c -> Int64.add (Libos.Api.now api) c) timeout
  in
  let rec loop () =
    fire_due t;
    if Netstack.Rdp.pending t.rdp = 0 then ()
    else
      let now = Libos.Api.now api in
      match deadline with
      | Some d when Int64.compare now d >= 0 -> ()
      | _ -> (
          let until =
            match (deadline, Netstack.Rdp.next_deadline t.rdp) with
            | None, None -> None
            | Some a, None -> Some a
            | None, Some b -> Some b
            | Some a, Some b -> Some (Int64.min a b)
          in
          let poll_timeout =
            Option.map (fun u -> Int64.max 1L (Int64.sub u now)) until
          in
          match api.Libos.Api.poll [ (t.fd, [ `In ]) ] ~timeout:poll_timeout with
          | Ok (_ :: _) ->
              absorb t;
              loop ()
          | Ok [] -> loop ()
          | Error _ -> ())
  in
  loop ()
