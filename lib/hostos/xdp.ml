type action = Pass | Drop | Redirect

type prog = Bytes.t -> action

type xsk = {
  id : int;
  engine : Sim.Engine.t;
  fill : Rings.Layout.t;
  rx : Rings.Layout.t;
  tx : Rings.Layout.t;
  compl_ : Rings.Layout.t;
  (* The kernel's private cursors (a real kernel never re-reads its own
     shared index word, so Malice smashes cannot poison these). *)
  kfill : Kring.t;
  krx : Kring.t;
  ktx : Kring.t;
  kcompl : Kring.t;
  umem : Mem.Ptr.t;
  umem_size : int;
  frame_size : int;
  tx_wake : Sim.Condition.t;
  rx_notify : Sim.Condition.t;
  compl_notify : Sim.Condition.t;
  mutable transmit : Bytes.t -> unit;
  rx_delivered : Obs.Metrics.counter;
  rx_dropped : Obs.Metrics.counter;
  (* Edge-drop causes, for diagnosing WHY an XSK stopped accepting:
     oversize frame, xRX full, xFill empty, garbage fill entry. *)
  rx_drop_oversize : Obs.Metrics.counter;
  rx_drop_krx_full : Obs.Metrics.counter;
  rx_drop_fill_empty : Obs.Metrics.counter;
  rx_drop_bad_fill : Obs.Metrics.counter;
  tx_sent : Obs.Metrics.counter;
  (* Which datapath shard this XSK serves — the context shard-pinned
     Malice armings match against.  None until the runtime attaches. *)
  mutable shard : int option;
  (* Wire-attack state: the last frame legitimately seen (Replay
     re-presents it) and the window a Reorder_burst is holding back. *)
  mutable replay_stash : Bytes.t option;
  mutable burst_hold : Bytes.t list;
  mutable burst_gen : int;
}

type t = {
  engine : Sim.Engine.t;
  malice : Malice.t option ref;
  mutable next_id : int;
}

let create engine ~malice = { engine; malice; next_id = 0 }

let create_xsk ?obs ?(name = "xdp") t ~alloc ~umem_size ~frame_size ~ring_size =
  t.next_id <- t.next_id + 1;
  let m =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  let c suffix = Obs.Metrics.counter m (name ^ "." ^ suffix) in
  let ring () = Rings.Layout.alloc alloc ~entry_size:Abi.Xsk_desc.entry_size ~size:ring_size in
  let fill = ring () and rx = ring () and tx = ring () and compl_ = ring () in
  let umem = Mem.Alloc.alloc_ptr alloc ~align:frame_size umem_size in
  {
    id = t.next_id;
    engine = t.engine;
    fill;
    rx;
    tx;
    compl_;
    kfill = Kring.consumer fill;
    krx = Kring.producer rx;
    ktx = Kring.consumer tx;
    kcompl = Kring.producer compl_;
    umem;
    umem_size;
    frame_size;
    tx_wake = Sim.Condition.create ();
    rx_notify = Sim.Condition.create ();
    compl_notify = Sim.Condition.create ();
    transmit = (fun _ -> ());
    rx_delivered = c "rx_delivered";
    rx_dropped = c "rx_dropped";
    rx_drop_oversize = c "drop.oversize";
    rx_drop_krx_full = c "drop.krx_full";
    rx_drop_fill_empty = c "drop.fill_empty";
    rx_drop_bad_fill = c "drop.bad_fill";
    tx_sent = c "tx_sent";
    shard = None;
    replay_stash = None;
    burst_hold = [];
    burst_gen = 0;
  }

let xsk_id x = x.id

let set_shard x shard = x.shard <- Some shard

let shard x = x.shard

let fill_layout x = x.fill

let rx_layout x = x.rx

let tx_layout x = x.tx

let compl_layout x = x.compl_

let umem_ptr x = x.umem

let umem_size x = x.umem_size

let frame_size x = x.frame_size

let rx_delivered x = Obs.Metrics.value x.rx_delivered

let rx_dropped x = Obs.Metrics.value x.rx_dropped

let rx_drop_reasons x =
  let v = Obs.Metrics.value in
  [
    ("oversize", v x.rx_drop_oversize);
    ("krx_full", v x.rx_drop_krx_full);
    ("fill_empty", v x.rx_drop_fill_empty);
    ("bad_fill", v x.rx_drop_bad_fill);
  ]

let tx_sent x = Obs.Metrics.value x.tx_sent

(* One edge drop: the total plus its cause. *)
let edge_drop x cause =
  Obs.Metrics.incr x.rx_dropped;
  Obs.Metrics.incr cause

let charge_per_packet () = Sim.Engine.delay Sgx.Params.xdp_redirect_per_packet

let charge_copy len =
  Sim.Engine.delay
    (Int64.of_float (float_of_int len *. Sgx.Params.memcpy_cycles_per_byte))

(* The kernel's own validation of a user-supplied UMem offset: in range
   and frame-aligned (AF_XDP aligned mode). *)
let umem_offset_ok x off =
  off >= 0 && off + x.frame_size <= x.umem_size && off mod x.frame_size = 0

let tamper_after_rx t x =
  match !(t.malice) with
  | None -> ()
  | Some m ->
      if Malice.roll ?shard:x.shard !(t.malice) Prod_overshoot then begin
        Malice.record m Prod_overshoot;
        Rings.Layout.write_prod x.rx
          (Rings.U32.add (Rings.Layout.read_prod x.rx) (x.rx.Rings.Layout.size + 7))
      end;
      if Malice.roll ?shard:x.shard !(t.malice) Prod_regress then begin
        Malice.record m Prod_regress;
        Rings.Layout.write_prod x.rx
          (Rings.U32.sub (Rings.Layout.read_prod x.rx) 2)
      end;
      if Malice.roll ?shard:x.shard !(t.malice) Cons_overshoot then begin
        Malice.record m Cons_overshoot;
        Rings.Layout.write_cons x.fill
          (Rings.U32.add (Rings.Layout.read_prod x.fill) (x.fill.Rings.Layout.size + 5))
      end;
      if Malice.roll ?shard:x.shard !(t.malice) Cons_regress then begin
        Malice.record m Cons_regress;
        Rings.Layout.write_cons x.fill
          (Rings.U32.sub (Rings.Layout.read_cons x.fill) 3)
      end

(* Announce a frame on xRX at [slot] (-1: xRX is full), possibly with a
   forged descriptor.  Malice rolls whether or not the slot exists, as
   the attack is chosen before the kernel looks for room. *)
let set_rx x slot ~offset ~len =
  if slot >= 0 then Abi.Xsk_desc.set x.rx.Rings.Layout.region slot ~offset ~len

let rx_descriptor t x ~slot ~offset ~len =
  match !(t.malice) with
  | None -> set_rx x slot ~offset ~len
  | Some m ->
      if Malice.roll ?shard:x.shard !(t.malice) Bad_umem_offset then begin
        Malice.record m Bad_umem_offset;
        set_rx x slot ~offset:(x.umem_size + (4 * x.frame_size)) ~len
      end
      else if Malice.roll ?shard:x.shard !(t.malice) Misaligned_offset then begin
        Malice.record m Misaligned_offset;
        set_rx x slot ~offset:(offset + 3) ~len
      end
      else if Malice.roll ?shard:x.shard !(t.malice) Foreign_frame then begin
        Malice.record m Foreign_frame;
        (* A perfectly in-bounds, aligned frame — just not one the FM
           handed to this routine. *)
        set_rx x slot ~offset:(x.umem_size - x.frame_size) ~len
      end
      else if Malice.roll ?shard:x.shard !(t.malice) Oversize_len then begin
        Malice.record m Oversize_len;
        set_rx x slot ~offset ~len:(2 * x.frame_size)
      end
      else set_rx x slot ~offset ~len

let maybe_corrupt t x frame =
  match !(t.malice) with
  | Some m when Malice.roll ?shard:x.shard !(t.malice) Corrupt_packet ->
      Malice.record m Corrupt_packet;
      let frame = Bytes.copy frame in
      let n = 1 + Sim.Rng.int (Malice.rng m) 4 in
      for _ = 1 to n do
        let i = Sim.Rng.int (Malice.rng m) (Bytes.length frame) in
        Bytes.set frame i (Sim.Rng.byte (Malice.rng m))
      done;
      frame
  | _ -> frame

(* Deliver one redirected frame into the XSK: consume a fill entry,
   write the packet into UMem, announce it on xRX. *)
let rx_deliver t x frame =
  charge_per_packet ();
  let frame = maybe_corrupt t x frame in
  let len = Bytes.length frame in
  (* Starvation drops wake the XSK owner even though no descriptor moved
     — AF_XDP's need-wakeup contract.  An empty xFill (or a full xRX)
     means the enclave-side FM is parked or starved: dropping silently
     would withhold the only event that could ever prompt it to restock
     (or to republish an owned index word Malice smashed — see
     [Rings.Certified.republish]), turning a transient condition into a
     permanently dead shard that edge-drops every arrival. *)
  if len > x.frame_size then begin
    edge_drop x x.rx_drop_oversize
  end
  else if Kring.free x.krx <= 0 then begin
    edge_drop x x.rx_drop_krx_full;
    Sim.Condition.broadcast x.rx_notify
  end
  else begin
    let fill_slot = Kring.consume_slot x.kfill in
    if fill_slot < 0 then begin
      edge_drop x x.rx_drop_fill_empty;
      Sim.Condition.broadcast x.rx_notify
    end
    else begin
      let offset =
        Abi.Xsk_desc.get_offset x.fill.Rings.Layout.region fill_slot
      in
      Kring.advance x.kfill;
      if not (umem_offset_ok x offset) then begin
        (* Kernel refuses garbage fill entries. *)
        edge_drop x x.rx_drop_bad_fill;
        Sim.Condition.broadcast x.rx_notify
      end
      else begin
        charge_copy len;
        Mem.Region.blit_from_bytes frame 0 x.umem.Mem.Ptr.region
          (x.umem.Mem.Ptr.off + offset) len;
        let slot = Kring.produce_slot x.krx in
        rx_descriptor t x ~slot ~offset ~len;
        if slot >= 0 then begin
          Kring.advance x.krx;
          Obs.Metrics.incr x.rx_delivered
        end
        else edge_drop x x.rx_drop_krx_full;
        tamper_after_rx t x;
        Sim.Condition.broadcast x.rx_notify
      end
    end
  end

(* Drain the xTX ring: validate each descriptor, put the frame on the
   wire and recycle the UMem offset through xCompl. *)
let rec tx_drain t x =
  let slot = Kring.consume_slot x.ktx in
  if slot >= 0 then begin
    let region = x.tx.Rings.Layout.region in
    let offset = Abi.Xsk_desc.get_offset region slot
    and len = Abi.Xsk_desc.get_len region slot in
    Kring.advance x.ktx;
    if umem_offset_ok x offset && len > 0 && len <= x.frame_size then begin
      charge_per_packet ();
      charge_copy len;
      let frame = Bytes.create len in
      Mem.Region.blit_to_bytes x.umem.Mem.Ptr.region
        (x.umem.Mem.Ptr.off + offset) frame 0 len;
      x.transmit frame;
      Obs.Metrics.incr x.tx_sent
    end;
    let compl_off =
      match !(t.malice) with
      | Some m when Malice.roll ?shard:x.shard !(t.malice) Foreign_frame ->
          Malice.record m Foreign_frame;
          0 (* recycle a frame the FM did not send *)
      | Some m when Malice.roll ?shard:x.shard !(t.malice) Bad_umem_offset ->
          Malice.record m Bad_umem_offset;
          x.umem_size + x.frame_size
      | _ -> offset
    in
    let compl_slot = Kring.produce_slot x.kcompl in
    if compl_slot >= 0 then begin
      Abi.Xsk_desc.set_offset x.compl_.Rings.Layout.region compl_slot compl_off;
      Kring.advance x.kcompl
    end;
    Sim.Condition.broadcast x.compl_notify;
    tx_drain t x
  end

let tx_worker t x () =
  let rec loop () =
    Sim.Condition.wait x.tx_wake;
    tx_drain t x;
    loop ()
  in
  loop ()

(* --- Hostile wire: Malice re-presenting traffic it legitimately saw
   (the [Replay]/[Reorder_burst]/[Fragment_storm] attacks).  The host
   owns the NIC rx path, so before the XDP program even sees a frame it
   can replay an old one, hold a window back and release it reversed, or
   explode a datagram into an adversarial IPv4 fragment volley. *)

(* Build the fragment-storm volley from a valid IPv4 frame: ident churn,
   overlapping 8-aligned offsets, random slice lengths — aimed at the
   enclave reassembler's quotas and overlap (teardrop) rejection.
   Non-IPv4 or unparseable frames yield no volley. *)
let storm_fragments rng frame =
  match Packet.Eth.parse frame with
  | Error _ -> []
  | Ok eth -> (
      match eth.Packet.Eth.ethertype with
      | Packet.Eth.Arp | Packet.Eth.Unknown _ -> []
      | Packet.Eth.Ipv4 -> (
          match Packet.Ipv4.parse_fragment eth.Packet.Eth.payload with
          | Error _ -> []
          | Ok { Packet.Ipv4.packet; _ } ->
              let n = 4 + Sim.Rng.int rng 5 in
              List.init n (fun _ ->
                  let ident =
                    (* Mostly the victim datagram's ident (to poison its
                       reassembly), sometimes fresh (to fill quotas). *)
                    if Sim.Rng.int rng 4 = 0 then Sim.Rng.int rng 0x10000
                    else packet.Packet.Ipv4.ident
                  in
                  let frag_offset = 8 * Sim.Rng.int rng 64 in
                  let len = 8 * (1 + Sim.Rng.int rng 8) in
                  let payload = Bytes.init len (fun _ -> Sim.Rng.byte rng) in
                  let more = Sim.Rng.int rng 2 = 0 in
                  Packet.Eth.build
                    {
                      eth with
                      Packet.Eth.payload =
                        Packet.Ipv4.build_fragment
                          { packet with Packet.Ipv4.ident; payload }
                          ~frag_offset ~more;
                    })))

let burst_window = 4

(* [burst_hold] is newest-first, so delivering the list as-is IS the
   reversed release. *)
let flush_burst x ~deliver =
  let held = x.burst_hold in
  x.burst_hold <- [];
  x.burst_gen <- x.burst_gen + 1;
  List.iter deliver held

let hostile_rx t x frame ~deliver =
  match !(t.malice) with
  | None -> deliver frame
  | Some m ->
      if Malice.roll ?shard:x.shard !(t.malice) Fragment_storm then begin
        (* The volley arrives in addition to the original frame, keeping
           the attack availability-only for flows that never fragment. *)
        let volley = storm_fragments (Malice.rng m) frame in
        if volley <> [] then begin
          Malice.record m Fragment_storm;
          List.iter deliver volley
        end
      end;
      (match x.replay_stash with
      | Some old when Malice.roll ?shard:x.shard !(t.malice) Replay ->
          Malice.record m Replay;
          deliver old
      | _ -> ());
      x.replay_stash <- Some frame;
      if Malice.roll ?shard:x.shard !(t.malice) Reorder_burst then begin
        Malice.record m Reorder_burst;
        x.burst_hold <- frame :: x.burst_hold;
        if List.length x.burst_hold >= burst_window then
          flush_burst x ~deliver
        else begin
          (* A held frame with no successors must still arrive — the
             attack may reorder, never silently lose.  The timer is
             generation-guarded against a window that already flushed. *)
          let gen = x.burst_gen in
          Sim.Engine.at x.engine
            (Int64.add (Sim.Engine.now x.engine)
               Sgx.Params.fault_wire_reorder_flush)
            (fun () -> if x.burst_gen = gen then flush_burst x ~deliver)
        end
      end
      else deliver frame

let attach t ~nic ~queue ~prog ~xsk ~stack_fallback =
  xsk.transmit <- (fun frame -> Nic.transmit nic frame);
  Sim.Engine.spawn t.engine
    ~name:(Printf.sprintf "xsk%d-tx-worker" xsk.id)
    (tx_worker t xsk);
  let deliver frame =
    match prog frame with
    | Pass -> stack_fallback frame
    | Drop -> ()
    | Redirect -> rx_deliver t xsk frame
  in
  Nic.set_rx_handler nic ~queue (fun frame -> hostile_rx t xsk frame ~deliver)

(* Wakeup syscalls re-enter the kernel, which rewrites the shared ring
   words from its private cursors as a side effect — in a real kernel
   the shared word always reflects kernel truth, so a Malice smash of a
   kernel-owned index only survives until the next kernel visit. *)
let republish x =
  Kring.publish_consumer x.kfill;
  Kring.publish_producer x.krx;
  Kring.publish_consumer x.ktx;
  Kring.publish_producer x.kcompl

let tx_wakeup _t x =
  republish x;
  Sim.Condition.signal x.tx_wake

let rx_wakeup _t x = republish x

let rx_notify x = x.rx_notify

let compl_notify x = x.compl_notify
