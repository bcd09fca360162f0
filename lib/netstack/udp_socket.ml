type t = {
  port : int;
  queue : (Bytes.t * (Packet.Addr.Ip.t * int) * int64) Sim.Mailbox.t;
  activity : Sim.Condition.t;
  clock : unit -> int64;
  mutable on_dequeue : (sojourn:int64 -> depth:int -> unit) option;
}

let queue_capacity = 4096

let create ?(clock = fun () -> 0L) ~port () =
  {
    port;
    queue = Sim.Mailbox.create ~capacity:queue_capacity ();
    activity = Sim.Condition.create ();
    clock;
    on_dequeue = None;
  }

let port t = t.port

let set_on_dequeue t f = t.on_dequeue <- Some f

let enqueue t payload ~src =
  if Sim.Mailbox.try_put t.queue (payload, src, t.clock ()) then begin
    Sim.Condition.broadcast t.activity;
    true
  end
  else false

let recvfrom t ~max =
  if max < 0 then invalid_arg "Udp_socket.recvfrom: negative max";
  let payload, src, enqueued_at = Sim.Mailbox.get t.queue in
  (match t.on_dequeue with
  | None -> ()
  | Some f ->
      f
        ~sojourn:(Int64.sub (t.clock ()) enqueued_at)
        ~depth:(Sim.Mailbox.length t.queue));
  let payload =
    if Bytes.length payload > max then Bytes.sub payload 0 max else payload
  in
  (payload, src)

let readable t = not (Sim.Mailbox.is_empty t.queue)

let pending t = Sim.Mailbox.length t.queue

let activity t = t.activity
