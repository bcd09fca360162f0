(* Loss-tolerant reliable datagrams over UDP (DESIGN.md §16).

   A deliberately small ARQ layer for the hostile wire: DATA carries a
   per-peer sequence number, the receiver always answers ACK, the
   sender retransmits on a {!Sim.Backoff}-driven clock seeded from a
   Jacobson/Karels RTO estimate, and gives up — visibly, counted —
   after a bounded number of attempts.  Receivers deduplicate with a
   64-entry sliding window, so the link faults RDP exists to absorb
   (duplication, replay, bounded reorder) never surface twice.

   The engine is pure protocol state: no sockets, no timers, no fibers.
   Callers thread [now] through every entry point and put the returned
   datagrams on whatever wire they have ({!Apps.Rdp_link} pumps it over
   a {!Libos.Api} UDP socket; tests drive it with arrays).  That keeps
   it deterministic under campaign seeds and safe inside the fuzzer. *)

type addr = Packet.Addr.Ip.t * int

type key = int * int (* Ip repr * port: hashable peer identity *)

let key_of ((ip, port) : addr) : key = (Packet.Addr.Ip.to_int ip, port)

(* {1 Wire format}

   6-byte header: magic 'R', kind 'D' (data) / 'A' (ack), 32-bit
   big-endian sequence number; DATA carries the app payload after the
   header, ACK carries nothing. *)

let header_size = 6

let magic = 'R'

let encode ~kind ~seq payload =
  let b = Bytes.create (header_size + Bytes.length payload) in
  Bytes.set b 0 magic;
  Bytes.set b 1 kind;
  Bytes.set_int32_be b 2 (Int32.of_int seq);
  Bytes.blit payload 0 b header_size (Bytes.length payload);
  b

let empty = Bytes.create 0

let encode_data ~seq payload = encode ~kind:'D' ~seq payload

let encode_ack ~seq = encode ~kind:'A' ~seq empty

type parsed = Data of int * Bytes.t | Ack of int | Junk

let decode b =
  if Bytes.length b < header_size then Junk
  else if Bytes.get b 0 <> magic then Junk
  else
    let seq = Int32.to_int (Bytes.get_int32_be b 2) land 0xFFFFFFFF in
    match Bytes.get b 1 with
    | 'D' ->
        Data (seq, Bytes.sub b header_size (Bytes.length b - header_size))
    | 'A' -> if Bytes.length b = header_size then Ack seq else Junk
    | _ -> Junk

(* {1 Per-peer state} *)

type pending = {
  seq : int;
  datagram : Bytes.t; (* the full DATA wire bytes, ready to resend *)
  first_sent : int64;
  mutable last_sent : int64;
  mutable due : int64; (* next retransmit deadline *)
  mutable attempts : int; (* transmissions so far (>= 1) *)
  backoff : Sim.Backoff.t;
}

type peer = {
  mutable next_seq : int;
  (* Sender side: unacked DATA, oldest-first (Queue preserves it). *)
  pending : (int, pending) Hashtbl.t;
  mutable order : int list; (* pending seqs, oldest first *)
  (* Receiver side: sliding dedup window — highest seq delivered and a
     bitmask of the 64 seqs below it. *)
  mutable rx_highest : int;
  mutable rx_mask : int64;
  mutable rx_any : bool;
  (* Jacobson/Karels RTO state, cycles. *)
  mutable srtt : int64;
  mutable rttvar : int64;
}

type t = {
  peers : (key, peer) Hashtbl.t;
  max_attempts : int;
  mutable sent : int;
  mutable retransmits : int;
  mutable acked : int;
  mutable gave_up : int;
  mutable dups : int;
  mutable junk : int;
}

(* Retransmission jitter: datagram [seq]'s backoff is seeded
   [seed + seq], so a run replays exactly. *)
let seed = 0x52d9L

(* Retransmit timeout: [rto_init] seeds the estimator before the first
   RTT sample; estimates are clamped to [[rto_min], [rto_max]]. *)
let rto_init = Sim.Cycles.of_us 200.

let rto_min = Sim.Cycles.of_us 50.

let rto_max = Sim.Cycles.of_ms 2.

(* Unacked datagrams per peer.  The receiver's dedup window is 64 seqs
   deep: more in flight and a stale replay could slip past it. *)
let window = 64

let create ?(max_attempts = 6) () =
  if max_attempts < 1 then invalid_arg "Rdp.create: max_attempts must be >= 1";
  {
    peers = Hashtbl.create 8;
    max_attempts;
    sent = 0;
    retransmits = 0;
    acked = 0;
    gave_up = 0;
    dups = 0;
    junk = 0;
  }

let peer_of t k =
  match Hashtbl.find_opt t.peers k with
  | Some p -> p
  | None ->
      let p =
        {
          next_seq = 0;
          pending = Hashtbl.create 8;
          order = [];
          rx_highest = 0;
          rx_mask = 0L;
          rx_any = false;
          srtt = 0L;
          rttvar = 0L;
        }
      in
      Hashtbl.add t.peers k p;
      p

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let rto p =
  if p.srtt = 0L then rto_init
  else
    clamp rto_min rto_max
      (Int64.add p.srtt (Int64.mul 4L p.rttvar))

(* One (Karn-filtered) RTT sample folds in with the classic gains:
   srtt += (rtt - srtt)/8, rttvar += (|rtt - srtt| - rttvar)/4. *)
let observe_rtt p rtt =
  if p.srtt = 0L then begin
    p.srtt <- rtt;
    p.rttvar <- Int64.div rtt 2L
  end
  else begin
    let err = Int64.sub rtt p.srtt in
    let abs_err = Int64.abs err in
    p.srtt <- Int64.add p.srtt (Int64.div err 8L);
    p.rttvar <-
      Int64.add p.rttvar (Int64.div (Int64.sub abs_err p.rttvar) 4L)
  end

let drop_pending p seq =
  Hashtbl.remove p.pending seq;
  p.order <- List.filter (fun s -> s <> seq) p.order

let give_up t p seq =
  drop_pending p seq;
  t.gave_up <- t.gave_up + 1

(* {1 Sender side} *)

let send t ~now ~dst payload =
  let k = key_of dst in
  let p = peer_of t k in
  (* The pending window is a hard bound: rather than grow without
     limit when the peer is gone, the oldest unacked message is
     abandoned — an accounted give-up, exactly like retry exhaustion. *)
  if Hashtbl.length p.pending >= window then begin
    match p.order with
    | oldest :: _ -> give_up t p oldest
    | [] -> ()
  end;
  let seq = p.next_seq in
  p.next_seq <- (p.next_seq + 1) land 0xFFFFFFFF;
  let datagram = encode_data ~seq payload in
  let rto_now = rto p in
  let entry =
    {
      seq;
      datagram;
      first_sent = now;
      last_sent = now;
      due = Int64.add now rto_now;
      attempts = 1;
      backoff =
        Sim.Backoff.create
          ~seed:(Int64.add seed (Int64.of_int seq))
          ~base:rto_now ~cap:rto_max ();
    }
  in
  (* Attempt 1 is the send itself: the first Backoff.next (= base with
     jitter) spaces attempt 2. *)
  ignore (Sim.Backoff.next entry.backoff);
  Hashtbl.replace p.pending seq entry;
  p.order <- p.order @ [ seq ];
  t.sent <- t.sent + 1;
  datagram

(* {1 Receiver side: dedup window} *)

let window_bits = 64

(* [true] when [seq] was already delivered (and records it if not). *)
let seen_before p seq =
  if not p.rx_any then begin
    p.rx_any <- true;
    p.rx_highest <- seq;
    p.rx_mask <- 0L;
    false
  end
  else if seq > p.rx_highest then begin
    let shift = seq - p.rx_highest in
    p.rx_mask <-
      (if shift >= window_bits then 0L
       else Int64.logor (Int64.shift_left p.rx_mask shift) 1L);
    p.rx_highest <- seq;
    false
  end
  else if seq = p.rx_highest then true
  else
    let back = p.rx_highest - seq in
    if back > window_bits then true
      (* Older than the window: can only be a stale replay — the sender
         never has that many datagrams in flight ([window] = 64). *)
    else
      let bit = Int64.shift_left 1L (back - 1) in
      if Int64.logand p.rx_mask bit <> 0L then true
      else begin
        p.rx_mask <- Int64.logor p.rx_mask bit;
        false
      end

type rx =
  | Deliver of Bytes.t * Bytes.t (* fresh payload, ack to send back *)
  | Duplicate of Bytes.t (* already delivered: ack again, drop *)
  | Acked (* one of our DATA was confirmed *)
  | Ack_unknown (* ack for nothing we have pending (late/dup ack) *)
  | Junk (* not an RDP datagram *)

let input t ~now ~src datagram =
  let k = key_of src in
  match decode datagram with
  | Junk ->
      t.junk <- t.junk + 1;
      Junk
  | Data (seq, payload) ->
      let p = peer_of t k in
      if seen_before p seq then begin
        t.dups <- t.dups + 1;
        Duplicate (encode_ack ~seq)
      end
      else Deliver (payload, encode_ack ~seq)
  | Ack seq -> (
      let p = peer_of t k in
      match Hashtbl.find_opt p.pending seq with
      | None -> Ack_unknown
      | Some e ->
          (* Karn: only never-retransmitted messages yield RTT samples
             (a retransmitted ack is ambiguous about which copy it
             answers). *)
          if e.attempts = 1 then observe_rtt p (Int64.sub now e.first_sent);
          drop_pending p seq;
          t.acked <- t.acked + 1;
          Acked)

(* {1 The retransmit clock} *)

let next_deadline t =
  Hashtbl.fold
    (fun _ p acc ->
      Hashtbl.fold
        (fun _ e acc ->
          match acc with
          | None -> Some e.due
          | Some d -> Some (Int64.min d e.due))
        p.pending acc)
    t.peers None

let due t ~now =
  let out = ref [] in
  Hashtbl.iter
    (fun (ip, port) p ->
      let addr = (Packet.Addr.Ip.of_int ip, port) in
      let expired =
        Hashtbl.fold
          (fun _ e acc -> if e.due <= now then e :: acc else acc)
          p.pending []
      in
      List.iter
        (fun e ->
          if e.attempts >= t.max_attempts then give_up t p e.seq
          else begin
            e.attempts <- e.attempts + 1;
            e.last_sent <- now;
            e.due <- Int64.add now (Sim.Backoff.next e.backoff);
            t.retransmits <- t.retransmits + 1;
            out := (addr, e.datagram) :: !out
          end)
        (* Oldest-first keeps retransmission order stable. *)
        (List.sort (fun a b -> compare a.seq b.seq) expired))
    t.peers;
  List.rev !out

let pending t =
  Hashtbl.fold (fun _ p acc -> acc + Hashtbl.length p.pending) t.peers 0

(* Abandon every pending DATA as a counted give-up: endpoint teardown
   must not let unacked sends vanish without an accounting trail. *)
let abandon t =
  Hashtbl.iter
    (fun _ p -> List.iter (fun seq -> give_up t p seq) p.order)
    t.peers

let sent t = t.sent

let retransmits t = t.retransmits

let acked t = t.acked

let gave_up t = t.gave_up

let dups t = t.dups

let junk t = t.junk
