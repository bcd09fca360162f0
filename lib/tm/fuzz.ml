type report = {
  executions : int;
  crashes : int;
  crash_samples : string list;
  codec_checks : int;
  delivered : int;
  dropped : int;
  arp_handled : int;
  corpus_size : int;
  distinct_outcomes : int;
}

let stack_mac = Packet.Addr.Mac.of_repr "02:aa:bb:cc:dd:01"

let stack_ip = Packet.Addr.Ip.of_repr "192.168.7.1"

let peer_mac = Packet.Addr.Mac.of_repr "02:aa:bb:cc:dd:02"

let peer_ip = Packet.Addr.Ip.of_repr "192.168.7.2"

let bound_ports = [ 53; 5201; 11211 ]

let udp_frame port payload =
  Packet.Frame.build_udp
    {
      Packet.Frame.src_mac = peer_mac;
      dst_mac = stack_mac;
      src_ip = peer_ip;
      dst_ip = stack_ip;
      src_port = 40000;
      dst_port = port;
    }
    (Bytes.of_string payload)

(* A valid 3-fragment split of an 80-byte UDP datagram, as the wire
   sees it — seeds the reassembly path in both the stack harness and
   the structure-aware mutators (which then bend the offsets). *)
let fragment_frames () =
  match Packet.Eth.parse (udp_frame 53 (String.make 80 'f')) with
  | Error _ -> []
  | Ok eth -> (
      match Packet.Ipv4.parse_fragment eth.Packet.Eth.payload with
      | Error _ -> []
      | Ok { Packet.Ipv4.packet; _ } ->
          let total = Bytes.length packet.Packet.Ipv4.payload in
          let frag off len more =
            Packet.Eth.build
              {
                eth with
                Packet.Eth.payload =
                  Packet.Ipv4.build_fragment
                    {
                      packet with
                      Packet.Ipv4.payload =
                        Bytes.sub packet.Packet.Ipv4.payload off len;
                    }
                    ~frag_offset:off ~more;
              }
          in
          [ frag 0 32 true; frag 32 32 true; frag 64 (total - 64) false ])

(* Valid RDP datagrams ('R' kind seq payload), raw and UDP-wrapped:
   the raw forms drive the RDP codec, the wrapped ones ride the full
   stack to a bound port. *)
let rdp_seeds () =
  let data = "RD\x00\x00\x00\x07payload" and ack = "RA\x00\x00\x00\x07" in
  [
    Bytes.of_string data;
    Bytes.of_string ack;
    udp_frame 11211 data;
    udp_frame 11211 ack;
  ]

(* Seed corpus: well-formed frames at every layer plus boundary sizes.
   Built once per process and shared by every run: [Frame.build_udp]
   draws the IPv4 ident from a process-wide counter, so frames rebuilt
   per run would make a run's outcome depend on how many frames the
   process built before it, not on the run's seed alone. *)
let seeds =
  lazy
    (let arp op =
       Packet.Frame.build_arp ~src_mac:peer_mac ~dst_mac:stack_mac
         {
           Packet.Arp.op;
           sender_mac = peer_mac;
           sender_ip = peer_ip;
           target_mac = Packet.Addr.Mac.zero;
           target_ip = stack_ip;
         }
     in
     [
       udp_frame 53 "hello";
       udp_frame 5201 (String.make 1400 'x');
       udp_frame 9999 "unbound port";
       arp Packet.Arp.Request;
       arp Packet.Arp.Reply;
       Bytes.create 0;
       Bytes.create 13;
       Bytes.create 14;
       Bytes.make 60 '\xff';
     ]
     @ fragment_frames () @ rdp_seeds ())

(* Every crasher the fuzzer ever found, shrunk and pinned as hex:
   replayed ahead of the random schedule on every run, so a fixed bug
   that regresses trips immediately and deterministically.  (Empty so
   far — append the shrunk sample printed in the crash report.) *)
let pinned : string list = []

let unhex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

(* {1 Mutators} *)

(* Field-boundary values: 0/1, header sizes +- 1 (Eth 14, IP 20, UDP 8,
   Eth+IP 34, full overhead 42), MTU, the 13-bit fragment field edge
   and 16-bit extremes. *)
let interesting16 =
  [| 0; 1; 7; 8; 9; 13; 14; 15; 19; 20; 21; 33; 34; 41; 42; 255; 1500; 8191; 8192; 0xFFFF |]

(* Structure-aware mutation: smash exactly one protocol field at its
   real wire offset, biased toward boundary values — lengths, offsets,
   ethertypes and header-length nibbles are where parsers break, and
   random byte soup almost never lands on them. *)
let field_mutate rng input =
  let b = Bytes.copy input in
  let n = Bytes.length b in
  let set16 off v = if off + 2 <= n then Bytes.set_uint16_be b off (v land 0xFFFF) in
  let set8 off v = if off + 1 <= n then Bytes.set b off (Char.chr (v land 0xFF)) in
  let pick16 () =
    if Sim.Rng.int rng 2 = 0 then
      interesting16.(Sim.Rng.int rng (Array.length interesting16))
    else Sim.Rng.int rng 65536
  in
  (match Sim.Rng.int rng 10 with
  | 0 ->
      (* ethertype: the real ones plus garbage *)
      set16 12
        (match Sim.Rng.int rng 4 with
        | 0 -> 0x0800
        | 1 -> 0x0806
        | 2 -> 0x86DD
        | _ -> pick16 ())
  | 1 ->
      (* IP version / IHL nibbles, half the time keeping version 4 so
         the mutation reaches the IHL check instead of dying at the
         version check *)
      set8 14
        (if Sim.Rng.int rng 2 = 0 then 0x40 lor Sim.Rng.int rng 16
         else Sim.Rng.int rng 256)
  | 2 -> set16 16 (pick16 ()) (* IP total length *)
  | 3 -> set16 18 (pick16 ()) (* IP ident: collides reassembly keys *)
  | 4 -> set16 20 (pick16 ()) (* IP flags + fragment offset *)
  | 5 -> set8 22 (match Sim.Rng.int rng 3 with 0 -> 0 | 1 -> 1 | _ -> 255)
  | 6 -> set8 23 (match Sim.Rng.int rng 3 with 0 -> 6 | 1 -> 17 | _ -> Sim.Rng.int rng 256)
  | 7 -> set16 24 (pick16 ()) (* IP header checksum *)
  | 8 -> set16 38 (pick16 ()) (* UDP length *)
  | _ -> set16 (34 + (2 * Sim.Rng.int rng 2)) (pick16 ()) (* UDP ports *));
  b

let mutate rng input =
  let b = Bytes.copy input in
  let n = Bytes.length b in
  match Sim.Rng.int rng 8 with
  | 0 when n > 0 ->
      (* single byte set *)
      Bytes.set b (Sim.Rng.int rng n) (Sim.Rng.byte rng);
      b
  | 1 when n > 0 ->
      (* bit flip *)
      let i = Sim.Rng.int rng n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Sim.Rng.int rng 8)));
      b
  | 2 when n > 1 ->
      (* truncate *)
      Bytes.sub b 0 (Sim.Rng.int rng n)
  | 3 ->
      (* extend with random bytes *)
      let extra = Bytes.create (1 + Sim.Rng.int rng 64) in
      Sim.Rng.fill_bytes rng extra;
      Bytes.cat b extra
  | 4 when n > 4 ->
      (* random 2-byte field smash (lengths, checksums, ports) *)
      let i = Sim.Rng.int rng (n - 1) in
      Bytes.set_uint16_be b i (Sim.Rng.int rng 65536);
      b
  | 5 | 6 -> field_mutate rng input
  | _ ->
      (* fully random frame *)
      let r = Bytes.create (Sim.Rng.int rng 128) in
      Sim.Rng.fill_bytes rng r;
      r

(* {1 Per-codec never-raise / bounded-output harness}

   Every input also goes straight through each packet codec (and the
   stateful reassembly / RDP decoders), independent of the stack: a
   parser must never raise on any bytes, and an [Ok] result must never
   claim more payload than the buffer holds (the OOB/bounded-allocation
   contract).  Violations are counted as crashes. *)

exception Contract of string

let contract c msg = if not c then raise (Contract msg)

let codecs ~rdp ~reasm ~reasm_clock =
  [
    ( "eth.parse",
      fun b ->
        match Packet.Eth.parse b with
        | Error _ -> ()
        | Ok e ->
            contract
              (Bytes.length e.Packet.Eth.payload <= Bytes.length b)
              "eth payload exceeds buffer" );
    ("arp.parse", fun b -> ignore (Packet.Arp.parse b));
    ( "ipv4.parse",
      fun b ->
        match Packet.Ipv4.parse b with
        | Error _ -> ()
        | Ok p ->
            contract
              (Bytes.length p.Packet.Ipv4.payload <= Bytes.length b)
              "ipv4 payload exceeds buffer" );
    ( "ipv4.parse_fragment",
      fun b ->
        match Packet.Ipv4.parse_fragment b with
        | Error _ -> ()
        | Ok f ->
            contract
              (Bytes.length f.Packet.Ipv4.packet.Packet.Ipv4.payload
              <= Bytes.length b)
              "fragment payload exceeds buffer" );
    ( "udp.parse",
      fun b ->
        match Packet.Udp.parse ~src:peer_ip ~dst:stack_ip b with
        | Error _ -> ()
        | Ok u ->
            contract
              (Bytes.length u.Packet.Udp.payload <= Bytes.length b)
              "udp payload exceeds buffer" );
    ( "frame.dissect_udp",
      fun b ->
        match Packet.Frame.dissect_udp b with
        | Error _ -> ()
        | Ok (_, payload) ->
            contract
              (Bytes.length payload <= Bytes.length b)
              "frame payload exceeds buffer" );
    ("frame.udp_dst_port", fun b -> ignore (Packet.Frame.udp_dst_port b));
    ("frame.rss_queue", fun b -> ignore (Packet.Frame.rss_queue ~queues:4 b));
    ( "rdp.input",
      fun b -> ignore (Netstack.Rdp.input rdp ~now:0L ~src:(peer_ip, 40000) b)
    );
    ( "reassembly.insert",
      fun b ->
        match Packet.Ipv4.parse_fragment b with
        | Error _ -> ()
        | Ok frag -> (
            (* Advance the reassembler's clock so its lazy sweep and
               timeout paths run under fuzz too. *)
            reasm_clock := Int64.add !reasm_clock 100_000L;
            match Netstack.Reassembly.insert reasm frag with
            | Netstack.Reassembly.Complete p ->
                contract
                  (Bytes.length p.Packet.Ipv4.payload <= 65535)
                  "reassembled datagram exceeds 64k"
            | Netstack.Reassembly.Pending | Netstack.Reassembly.Rejected _ ->
                ()) );
  ]

(* Greedy structural shrink: repeatedly try dropping halves and edge
   bytes while the input still crashes, then zero residual bytes for a
   canonical sample.  [still] must be safe to call on candidates. *)
let shrink still input =
  let try_smaller b =
    let n = Bytes.length b in
    let cands =
      (if n >= 2 then [ Bytes.sub b 0 (n / 2); Bytes.sub b (n / 2) (n - (n / 2)) ]
       else [])
      @ (if n >= 1 then [ Bytes.sub b 0 (n - 1); Bytes.sub b 1 (n - 1) ] else [])
    in
    List.find_opt still cands
  in
  let rec go b budget =
    if budget = 0 then b
    else match try_smaller b with Some smaller -> go smaller (budget - 1) | None -> b
  in
  let small = go input (16 + (2 * Bytes.length input)) in
  let z = Bytes.copy small in
  for i = 0 to min 63 (Bytes.length z - 1) do
    let saved = Bytes.get z i in
    if saved <> '\000' then begin
      Bytes.set z i '\000';
      if not (still z) then Bytes.set z i saved
    end
  done;
  z

(* Outcome signature of one execution — the coverage proxy. *)
let outcome_signature ~delivered_delta ~arp_delta ~reasons =
  if delivered_delta > 0 then "delivered"
  else if arp_delta > 0 then "arp"
  else
    match reasons with
    | [] -> "silent"
    | rs -> String.concat "+" (List.sort String.compare rs)

let hex b =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (Bytes.to_seq b))))

let run ?(seed = 0xF00DL) ?(executions = 50_000) () =
  let rng = Sim.Rng.create ~seed in
  let engine = Sim.Engine.create () in
  let stack = Netstack.Stack.create engine ~mac:stack_mac ~ip:stack_ip () in
  (* Emulated user actions: bound sockets whose queues are drained and
     echoed below; a transmit hook the stack can always use. *)
  Netstack.Stack.set_transmit stack (fun _frame -> ());
  Netstack.Arp_cache.learn (Netstack.Stack.arp stack) peer_ip peer_mac;
  let socks =
    List.map
      (fun port ->
        match Netstack.Stack.bind stack ~port with
        | Ok s -> s
        | Error `Port_in_use -> assert false)
      bound_ports
  in
  let corpus = ref (Lazy.force seeds) in
  let corpus_n = ref (List.length !corpus) in
  let outcomes = Hashtbl.create 32 in
  let crashes = ref 0 and crash_samples = ref [] in
  let record_crash name exn still input =
    incr crashes;
    if List.length !crash_samples < 5 then begin
      let safe_still b = try still b with _ -> true in
      let small = shrink safe_still input in
      crash_samples :=
        Printf.sprintf "%s:%s (%s)" name (hex small) (Printexc.to_string exn)
        :: !crash_samples
    end
  in
  (* Codec harness state: one RDP engine and one reassembler live for
     the whole run, so their internal tables see adversarial sequences,
     not just single datagrams. *)
  let rdp = Netstack.Rdp.create () in
  let reasm_clock = ref 0L in
  let reasm = Netstack.Reassembly.create ~clock:(fun () -> !reasm_clock) () in
  let codec_list = codecs ~rdp ~reasm ~reasm_clock in
  let codec_checks = ref 0 in
  let codec_exec input =
    List.iter
      (fun (name, f) ->
        incr codec_checks;
        try f input
        with exn ->
          record_crash name exn
            (fun b ->
              match f b with () -> false | exception _ -> true)
            input)
      codec_list
  in
  let arp_before = ref (Netstack.Arp_cache.entries (Netstack.Stack.arp stack)) in
  let delivered_before = ref 0 in
  let reasons_before = ref [] in
  (* Shrinking a stack crasher needs a side effect-free predicate: a
     fresh stack per candidate, so state mutated by the original crash
     cannot mask or fake reproduction. *)
  let stack_still b =
    let s = Netstack.Stack.create engine ~mac:stack_mac ~ip:stack_ip () in
    Netstack.Stack.set_transmit s (fun _ -> ());
    match Netstack.Stack.input s b with () -> false | exception _ -> true
  in
  let exec input =
    codec_exec input;
    delivered_before := Netstack.Stack.rx_delivered stack;
    reasons_before := Netstack.Stack.drop_reasons stack;
    arp_before := Netstack.Arp_cache.entries (Netstack.Stack.arp stack);
    let crashed =
      match Netstack.Stack.input stack input with
      | () -> false
      | exception exn ->
          record_crash "stack.input" exn stack_still input;
          true
    in
    (* Emulated user: drain and echo whatever arrived. *)
    List.iter
      (fun sock ->
        while Netstack.Udp_socket.readable sock do
          let payload, (src_ip, src_port) =
            Netstack.Udp_socket.recvfrom sock ~max:65536
          in
          ignore
            (Netstack.Stack.sendto stack
               ~src_port:(Netstack.Udp_socket.port sock)
               ~dst:(src_ip, src_port) payload)
        done)
      socks;
    if not crashed then begin
      let delivered_delta =
        Netstack.Stack.rx_delivered stack - !delivered_before
      in
      let arp_delta =
        Netstack.Arp_cache.entries (Netstack.Stack.arp stack) - !arp_before
      in
      let new_reasons =
        List.filter_map
          (fun (r, c) ->
            match List.assoc_opt r !reasons_before with
            | Some c0 when c0 = c -> None
            | _ -> Some r)
          (Netstack.Stack.drop_reasons stack)
      in
      let signature =
        outcome_signature ~delivered_delta ~arp_delta ~reasons:new_reasons
      in
      if not (Hashtbl.mem outcomes signature) then begin
        Hashtbl.add outcomes signature ();
        corpus := input :: !corpus;
        incr corpus_n
      end
    end
  in
  (* Replay pinned crashers and all seeds, then mutate. *)
  List.iter (fun s -> exec (unhex s)) pinned;
  List.iter exec (Lazy.force seeds);
  let corpus_array () = Array.of_list !corpus in
  let arr = ref (corpus_array ()) in
  for i = 1 to executions do
    if i mod 4096 = 0 then arr := corpus_array ();
    let base = Sim.Rng.pick rng !arr in
    exec (mutate rng base)
  done;
  {
    executions =
      executions + List.length (Lazy.force seeds) + List.length pinned;
    crashes = !crashes;
    crash_samples = !crash_samples;
    codec_checks = !codec_checks;
    delivered = Netstack.Stack.rx_delivered stack;
    dropped = Netstack.Stack.rx_dropped stack;
    arp_handled = Netstack.Arp_cache.entries (Netstack.Stack.arp stack);
    corpus_size = !corpus_n;
    distinct_outcomes = Hashtbl.length outcomes;
  }

let passed r = r.crashes = 0

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>executions        : %d@,\
     crashes           : %d@,\
     codec checks      : %d@,\
     delivered         : %d@,\
     dropped           : %d@,\
     corpus size       : %d@,\
     distinct outcomes : %d@,\
     verdict           : %s@]"
    r.executions r.crashes r.codec_checks r.delivered r.dropped r.corpus_size
    r.distinct_outcomes
    (if passed r then "PASS" else "FAIL")
