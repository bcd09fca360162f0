(* One datapath shard (DESIGN.md §10): a slice of the NIC's queues with
   its own XSKs + UMems, its own in-enclave stack instance, its own
   Monitor and its own XSK circuit breaker.  RSS pins each UDP flow to
   one NIC queue — hence to one shard — so shards share no mutable
   fast-path state and a fault confined to shard [k] can only degrade
   shard [k]'s flows. *)
type shard = {
  sq : int; (* shard index *)
  sh_stack : Netstack.Stack.t;
  sh_fms : Xsk_fm.t array;
  sh_xsks : Hostos.Xdp.xsk array;
  sh_monitor : Monitor.t;
  sh_breaker : Health.t;
  sh_overload : Overload.t option; (* Some iff [config.overload] *)
  mutable last_tx_ok : bool; (* feedback from [stack_transmit] *)
  mutable probing : bool; (* half-open probe in flight: skip the reroute *)
  mutable tx_counter : int;
}

(* A user thread's io_uring context is its SyncProxy, which holds the
   thread's FM. *)
type thread = Syncproxy.t

type t = {
  enclave : Sgx.Enclave.t;
  kernel : Hostos.Kernel.t;
  config : Config.t;
  obs : Obs.t;
  shards : shard array;
  nic_queues : int; (* RSS universe the TX shard pick must match *)
  shared_alloc : Mem.Alloc.t;
  owned_ports : unit Sim.Int_table.t;
  (* The io_uring and Monitor breakers stay runtime-wide: io_uring FMs
     are per-thread (not per-queue), and the watchdog is one enclave
     thread overseeing every shard's MM.  XSK breakers are per shard
     ("health.xsk.<k>.*" once sharded) — the per-queue failover unit. *)
  uring_breaker : Health.t;
  mm_breaker : Health.t;
  (* One overload controller for every thread's SyncProxy pending table
     (io_uring FMs are per-thread, not per-queue — same scoping as the
     uring breaker). *)
  uring_overload : Overload.t option;
  slow : Slowpath.t; (* what the XSK and io_uring breakers fail over to *)
  mutable udp_socks : udp_sock list;
  mutable threads : thread list;
  mutable thread_counter : int;
}

and udp_sock = {
  (* One enclave socket per shard, all bound to the same port ([| |] =
     unbound): a flow's datagrams surface on the socket of whichever
     shard its RSS hash picked.  Mirrored binds keep every shard
     stack's port table identical, so ephemeral allocation on shard 0
     is collision-free everywhere. *)
  mutable bound : Netstack.Udp_socket.t array;
  mutable activity : Sim.Condition.t list;
      (* the [bound] sockets' activity conditions, listed once at bind *)
  mutable host_fd : int option; (* exit-based fallback socket, same port *)
}

let enclave t = t.enclave

let kernel t = t.kernel

let stack t = t.shards.(0).sh_stack

let monitor t = t.shards.(0).sh_monitor

let config t = t.config

let obs t = t.obs

let shard_count t = Array.length t.shards

let xsk_fms t = Array.concat (Array.to_list (Array.map (fun sh -> sh.sh_fms) t.shards))

let xsk_breaker t = t.shards.(0).sh_breaker

let uring_breaker t = t.uring_breaker

let mm_breaker t = t.mm_breaker

let shard_breaker t k = t.shards.(k).sh_breaker

let shard_fms t k = t.shards.(k).sh_fms

let shard_xsks t k = t.shards.(k).sh_xsks

let shard_rx_delivered t k = Netstack.Stack.rx_delivered t.shards.(k).sh_stack

let shard_tx_frames t k = t.shards.(k).tx_counter

(* Which shard carries a given flow: the same symmetric RSS hash the NIC
   applies on receive, folded from NIC queues onto shards exactly like
   the attach mapping (queue q -> shard q mod num_queues).  TX therefore
   has the same affinity as RX: replies leave through the shard whose
   queues the flow arrives on. *)
let pick_shard t ~src_port ~dst:(dst_ip, dst_port) =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0)
  else
    let q =
      Packet.Rss.queue ~queues:t.nic_queues
        ~src_ip:(Packet.Addr.Ip.to_int t.config.Config.ip)
        ~dst_ip:(Packet.Addr.Ip.to_int dst_ip)
        ~src_port ~dst_port
    in
    t.shards.(q mod n)

(* The XDP program loaded on this shard's NIC queues: redirect UDP for
   enclave-owned ports and ARP aimed at the enclave IP; everything else
   falls through to the host stack.  While the shard's XSK breaker is
   not closed, owned-port traffic is PASSed instead: the host stack
   delivers it to the fallback socket bound to the same port, the RX
   half of the exit-based slow path.  ARP is PASSed too — the NIC shares
   the enclave's IP, so the host stack answers neighbour queries that
   the enclave could only answer over the dead XSK TX ring.

   ARP looks at {e every} shard's breaker, not just this one: non-UDP
   frames always steer to queue 0 (so shard 0's program sees them), yet
   it is the degraded shard's fallback socket whose slow-path sends need
   the host stack to resolve neighbours.  Redirecting ARP while any
   shard is degraded would starve the host stack of replies and turn
   every rescue into ENOTCONN. *)
let any_shard_degraded t =
  Array.exists (fun s -> Health.degraded s.sh_breaker) t.shards

let xdp_program t shard frame =
  let dst_port = Packet.Frame.udp_dst_port frame in
  if dst_port >= 0 then
    if not (Sim.Int_table.mem t.owned_ports dst_port) then Hostos.Xdp.Pass
    else if Health.degraded shard.sh_breaker then Hostos.Xdp.Pass
    else Hostos.Xdp.Redirect
  else (
      match Packet.Eth.parse frame with
      | Ok { ethertype = Arp; payload; _ } -> (
          match Packet.Arp.parse payload with
          | Ok arp when Packet.Addr.Ip.equal arp.target_ip t.config.Config.ip
            ->
              if any_shard_degraded t then Hostos.Xdp.Pass
              else Hostos.Xdp.Redirect
          | Ok _ | Error _ -> Hostos.Xdp.Pass)
      | Ok _ | Error _ -> Hostos.Xdp.Pass)

(* {1 XSK failover (DESIGN.md §9)} *)

let sock_port sock =
  if Array.length sock.bound = 0 then None
  else Some (Netstack.Udp_socket.port sock.bound.(0))

(* Lazily create the exit-based fallback socket for a bound enclave
   socket: a host UDP socket bound to the same port (the host stack's
   port table is separate from the enclave netstack's, so the port is
   free there).  Once it exists, XDP PASSes owned-port traffic into it
   while the breaker is open.  One fallback serves every shard — the
   host stack is not sharded. *)
let host_fallback t sock =
  match (sock.host_fd, sock_port sock) with
  | Some fd, _ -> Some fd
  | None, None -> None
  | None, Some port -> (
      let fd = Slowpath.udp_socket t.slow in
      match Slowpath.udp_bind t.slow fd ~port with
      | Ok () ->
          sock.host_fd <- Some fd;
          Some fd
      | Error _ ->
          Slowpath.udp_close t.slow fd;
          None)

let find_sock t port =
  List.find_opt (fun sock -> sock_port sock = Some port) t.udp_socks

(* Resend one rescued layer-2 frame through the slow path: dissect it
   back into (socket, destination, payload) and push the payload out
   of the owning socket's fallback fd.  Non-UDP frames (ARP) and frames
   of sockets closed meanwhile have nothing to reroute. *)
let reroute_frame t shard frame =
  match Packet.Frame.dissect_udp frame with
  | Error _ -> false
  | Ok (info, payload) -> (
      match find_sock t info.Packet.Frame.src_port with
      | None -> false
      | Some sock -> (
          match host_fallback t sock with
          | None -> false
          | Some fd -> (
              Health.record_failover shard.sh_breaker;
              match
                Slowpath.udp_sendto t.slow fd payload
                  ~dst:(info.Packet.Frame.dst_ip, info.Packet.Frame.dst_port)
              with
              | Ok _ -> true
              | Error _ -> false)))

(* Breaker-open hook for one shard: bind fallback sockets for every
   bound port first (so PASSed inbound traffic has somewhere to land),
   then rescue the in-flight TX frames of this shard's XSKs through the
   slow path.  Other shards' FMs are untouched — their flows keep the
   fast path. *)
let on_xsk_open t shard () =
  List.iter (fun sock -> ignore (host_fallback t sock)) t.udp_socks;
  Array.iter
    (fun fm ->
      ignore (Xsk_fm.failover_reroute fm ~resend:(reroute_frame t shard)))
    shard.sh_fms

(* Open-breaker handling of a frame the netstack wants transmitted.
   UDP frames are resent through the owning socket's fallback host fd.
   ARP requests are "answered" on the spot by teaching the cache a
   broadcast placeholder: the host kernel does its own neighbour
   resolution on the slow path, and a thread blocked in
   [Netstack.Stack.sendto]'s ARP resolve must not wait for a reply that
   can never arrive on a dead XSK.  (The placeholder lingers after
   failback; this kernel delivers UDP by port, and any genuine ARP
   traffic overwrites it.) *)
let failover_transmit t shard frame =
  match Packet.Frame.dissect_udp frame with
  | Ok _ -> reroute_frame t shard frame
  | Error _ -> (
      match Packet.Eth.parse frame with
      | Ok { Packet.Eth.ethertype = Packet.Eth.Arp; payload; _ } -> (
          match Packet.Arp.parse payload with
          | Ok { Packet.Arp.op = Packet.Arp.Request; target_ip; _ } ->
              Netstack.Arp_cache.learn
                (Netstack.Stack.arp shard.sh_stack)
                target_ip Packet.Addr.Mac.broadcast;
              true
          | Ok { Packet.Arp.op = Packet.Arp.Reply; _ } ->
              (* XDP PASSes ARP while the breaker is open, so the host
                 stack answers queries on the enclave's behalf; a reply
                 of our own has nowhere useful to go. *)
              true
          | Error _ -> false)
      | Ok _ | Error _ -> false)

(* Transmit hook installed into one shard's UDP/IP stack: spread frames
   over the shard's XSK FMs round-robin — unless the shard's XSK
   breaker is open, in which case frames take the exit-based route.
   [last_tx_ok] feeds the outcome back to [udp_sendto], which cannot
   see it through [Netstack.Stack.sendto] — a frame every path refused
   is surfaced as [EAGAIN], never silently dropped.  Half-open probe
   traffic ([shard.probing]) must reach the FM: its completion (or
   rekick timeout) is the very signal the breaker is waiting on to fail
   back (or re-open). *)
let rec transmit_from shard frame ~start i =
  let n = Array.length shard.sh_fms in
  i < n
  && (Xsk_fm.transmit shard.sh_fms.((start + i) mod n) frame
     || transmit_from shard frame ~start (i + 1))

let stack_transmit t shard frame =
  if
    Health.degraded shard.sh_breaker
    && (not shard.probing)
    && failover_transmit t shard frame
  then shard.last_tx_ok <- true
  else begin
    let start = shard.tx_counter in
    shard.tx_counter <- shard.tx_counter + 1;
    shard.last_tx_ok <- transmit_from shard frame ~start 0
  end

let shared_arena_size config =
  let ring_foot =
    Rings.Layout.footprint ~entry_size:Abi.Xsk_desc.entry_size
      ~size:config.Config.ring_size
  in
  let per_xsk =
    config.Config.umem_size + (4 * ring_foot)
    + (2 * Sgx.Params.umem_frame_size)
  in
  (config.Config.num_queues * config.Config.num_xsks * per_xsk)
  + (32 * 1024 * 1024)
  + (if config.Config.zerocopy then
       (* headroom for up to 32 threads' zero-copy pool arenas *)
       32 * Sgx.Params.zc_frames * Sgx.Params.zc_frame_size
     else 0)

let boot kernel ~sgx ?(config = Config.default) () =
  match Config.validate config with
  | Error e -> Error ("rakis config: " ^ e)
  | Ok () ->
      let engine = Hostos.Kernel.engine kernel in
      let nic = Hostos.Kernel.nic kernel 0 in
      let nic_queues = Hostos.Nic.queue_count nic in
      let num_queues = config.Config.num_queues in
      (* An AF_XDP socket is bound to one NIC queue, and attaching is
         what spawns an XSK's kernel TX worker: an XSK no queue feeds
         would still be handed replies, and they would never leave. *)
      if num_queues * config.Config.num_xsks > nic_queues then
        Error
          (Printf.sprintf
             "rakis config: num_queues (%d) x num_xsks (%d) exceeds NIC \
              queues (%d)"
             num_queues config.Config.num_xsks nic_queues)
      else begin
      let enclave = Sgx.Enclave.create engine ~sgx ~name:"rakis" in
      let shared =
        Sgx.Enclave.untrusted_region enclave ~size:(shared_arena_size config)
          ~name:"shared"
      in
      let shared_alloc = Mem.Alloc.create shared () in
      (* One registry + trace ring for the whole runtime, stamped with
         the simulation clock: every subsystem below registers its
         instruments here under a per-instance name. *)
      let obs =
        Obs.create ~trace_capacity:8192
          ~clock:(fun () -> Sim.Engine.clock engine)
          ()
      in
      let sharded = num_queues > 1 in
      (* One ARP cache for all shard stacks: ARP frames have no 4-tuple,
         RSS pins them to queue 0, so only shard 0 ever hears replies —
         a private per-shard cache would deadlock resolution. *)
      let shared_arp =
        if sharded then Some (Netstack.Arp_cache.create ~obs engine ())
        else None
      in
      let clock () = Sim.Engine.now engine in
      let breaker name = Health.create ~obs ~name ~clock () in
      let overload name ~sources =
        if config.Config.overload then
          (* Watermarks fit the narrowest guarded queue: on a machine
             whose rings hold fewer frames than the default watermark,
             depth can never reach it and saturation — with the edge
             throttling it drives — would be unreachable.  Saturate at
             3/4 of a ring, clear at 1/4, capped by the defaults on
             full-size machines. *)
          let high =
            min Overload.default_high_watermark
              (max 8 (3 * config.Config.ring_size / 4))
          in
          let low =
            min Overload.default_low_watermark
              (max 2 (config.Config.ring_size / 4))
          in
          Some
            (Overload.create ~obs ~name ~high_watermark:high
               ~low_watermark:low ~sources ~clock ())
        else None
      in
      (* Build each shard: its stack, Monitor, XSK breaker and overload
         controller first, then its FMs, each created wired to them.
         With one queue the instance names collapse to the historical
         ones ("stack", "mm", "xsk<i>") so single-shard metric names,
         repro tokens and CI greps are unchanged. *)
      let rec make_shards k acc =
        if k = num_queues then Ok (Array.of_list (List.rev acc))
        else begin
          let instance base =
            if sharded then Printf.sprintf "%s.%d" base k else base
          in
          let stack =
            Netstack.Stack.create ~obs ~name:(instance "stack") ?arp:shared_arp
              engine ~mac:config.mac ~ip:config.ip ~locking:config.locking ()
          in
          let monitor =
            Monitor.create ~obs ~name:(instance "mm") ~shard:k engine ~kernel
          in
          let sh_breaker = breaker (instance "xsk") in
          (* Depth sources: the socket queue (0) and each XSK's xRX
             backlog (1 + i). *)
          let sh_overload =
            overload (instance "overload") ~sources:(1 + config.num_xsks)
          in
          let rec make_fms i fms =
            if i = config.num_xsks then Ok (List.rev fms)
            else begin
              (* XSK initialization runs outside the enclave (paper
                 §4.1): one OCALL covers the setup syscall batch. *)
              Sgx.Enclave.ocall enclave;
              let name =
                if sharded then Printf.sprintf "xsk.%d.%d" k i
                else "xsk" ^ string_of_int i
              in
              let fd, xsk =
                Hostos.Kernel.xsk_create ~obs ~name:(name ^ ".xdp") kernel
                  ~alloc:shared_alloc ~umem_size:config.umem_size
                  ~frame_size:Sgx.Params.umem_frame_size
                  ~ring_size:config.ring_size
              in
              Hostos.Xdp.set_shard xsk k;
              match
                Xsk_fm.create ~obs ~name ~enclave ~kernel ~config ~stack
                  ~monitor ~breaker:sh_breaker
                  ~overload:(Option.map (fun ov -> (ov, 1 + i)) sh_overload)
                  ~fd ~xsk ()
              with
              | Error e ->
                  Error (Format.asprintf "xsk fm: %a" Xsk_fm.pp_init_error e)
              | Ok fm -> make_fms (i + 1) ((fm, xsk) :: fms)
            end
          in
          match make_fms 0 [] with
          | Error e -> Error e
          | Ok fms ->
              make_shards (k + 1)
                ({
                   sq = k;
                   sh_stack = stack;
                   sh_fms = Array.of_list (List.map fst fms);
                   sh_xsks = Array.of_list (List.map snd fms);
                   sh_monitor = monitor;
                   sh_breaker;
                   sh_overload;
                   last_tx_ok = true;
                   probing = false;
                   tx_counter = 0;
                 }
                :: acc)
        end
      in
      match make_shards 0 [] with
      | Error e -> Error e
      | Ok shards ->
          let t =
            {
              enclave;
              kernel;
              config;
              obs;
              shards;
              nic_queues;
              shared_alloc;
              owned_ports = Sim.Int_table.create 16;
              uring_breaker = breaker "uring";
              mm_breaker = breaker "mm";
              uring_overload = overload "overload.uring" ~sources:1;
              slow = Slowpath.create ~obs kernel enclave;
              udp_socks = [];
              threads = [];
              thread_counter = 0;
            }
          in
          (* Overload wiring (DESIGN.md §15): the shard's controller
             gates rx enqueues (CoDel shedding state) and tracks queue
             sojourns; its FMs already feed it their ring backlogs and
             starve their fill rings while the high watermark holds. *)
          Array.iter
            (fun shard ->
              Netstack.Stack.set_transmit shard.sh_stack
                (stack_transmit t shard);
              match shard.sh_overload with
              | None -> ()
              | Some ov ->
                  Netstack.Stack.set_overload_hooks shard.sh_stack
                    ~rx_gate:(fun ~depth ->
                      Overload.note_depth ov ~src:0 depth;
                      Overload.admit ov Overload.Data)
                    ~on_dequeue:(fun ~sojourn ~depth ->
                      Overload.note_depth ov ~src:0 depth;
                      Overload.observe_sojourn ov sojourn))
            t.shards;
          (* NIC queue q -> shard (q mod S); within the shard, queue q ->
             XSK ((q / S) mod num_xsks).  With S = 1 this is the
             historical q mod num_xsks mapping.  Both NICs learn the
             layout so shard-pinned wire faults fold receive queues onto
             datapath shards the same way. *)
          Hostos.Nic.set_shards nic num_queues;
          Hostos.Nic.set_shards (Hostos.Kernel.nic kernel 1) num_queues;
          for q = 0 to nic_queues - 1 do
            let shard = t.shards.(q mod num_queues) in
            let num_xsks = Array.length shard.sh_xsks in
            Sgx.Enclave.ocall enclave;
            Hostos.Kernel.xsk_attach kernel
              ~xsk:shard.sh_xsks.(q / num_queues mod num_xsks)
              ~nic_id:0 ~queue:q
              ~prog:(xdp_program t shard)
          done;
          Array.iter
            (fun shard ->
              Array.iteri
                (fun i fm ->
                  Monitor.watch_xsk shard.sh_monitor shard.sh_xsks.(i);
                  Xsk_fm.start fm)
                shard.sh_fms;
              Health.set_on_open shard.sh_breaker (on_xsk_open t shard);
              Monitor.start shard.sh_monitor)
            t.shards;
          Ok t
      end

(* {1 UDP} *)

let udp_socket t =
  let sock = { bound = [||]; activity = []; host_fd = None } in
  t.udp_socks <- sock :: t.udp_socks;
  sock

let udp_bind t sock port =
  match Netstack.Stack.bind t.shards.(0).sh_stack ~port with
  | Error `Port_in_use -> Error Abi.Errno.EADDRINUSE
  | Ok s0 ->
      let n = Array.length t.shards in
      let socks = Array.make n s0 in
      let p = Netstack.Udp_socket.port s0 in
      (* Mirror the bind onto every shard stack (same concrete port, so
         all port tables stay identical). *)
      let rec mirror k =
        if k = n then begin
          sock.bound <- socks;
          sock.activity <-
            Array.to_list (Array.map Netstack.Udp_socket.activity socks);
          Sim.Int_table.replace t.owned_ports p ();
          (* Bound while a breaker is already open: create the fallback
             immediately, or PASSed traffic for this port would be
             lost. *)
          if any_shard_degraded t then ignore (host_fallback t sock);
          Ok ()
        end
        else
          match Netstack.Stack.bind t.shards.(k).sh_stack ~port:p with
          | Ok s ->
              socks.(k) <- s;
              mirror (k + 1)
          | Error `Port_in_use ->
              for j = 0 to k - 1 do
                Netstack.Stack.unbind t.shards.(j).sh_stack socks.(j)
              done;
              Error Abi.Errno.EADDRINUSE
      in
      mirror 1

let ensure_bound t sock =
  if Array.length sock.bound > 0 then Ok ()
  else
    match udp_bind t sock 0 with
    | Ok () ->
        if Array.length sock.bound > 0 then Ok () else Error Abi.Errno.EINVAL
    | Error e -> Error e

let fast_sendto shard s payload ~dst =
  shard.last_tx_ok <- true;
  match
    Netstack.Stack.sendto shard.sh_stack
      ~src_port:(Netstack.Udp_socket.port s)
      ~dst payload
  with
  | Ok n -> if shard.last_tx_ok then Ok n else Error Abi.Errno.EAGAIN
  | Error Netstack.Stack.Payload_too_big -> Error Abi.Errno.EMSGSIZE
  | Error Netstack.Stack.Unresolvable -> Error Abi.Errno.ENOTCONN
  | Error Netstack.Stack.No_transmit -> Error Abi.Errno.ENOTCONN

let slow_sendto t sock payload ~dst =
  match host_fallback t sock with
  | None -> None
  | Some fd -> Some (Slowpath.udp_sendto t.slow fd payload ~dst)

(* Overload admission (DESIGN.md §15) for one shard. *)
let admit shard cls =
  match shard.sh_overload with None -> true | Some ov -> Overload.admit ov cls

let record_tx_shed shard =
  match shard.sh_overload with
  | Some ov -> Overload.record_shed ov
  | None -> ()

let udp_sendto t sock payload ~dst =
  match ensure_bound t sock with
  | Error e -> Error e
  | Ok () ->
      let socks = sock.bound in
      let src_port = Netstack.Udp_socket.port socks.(0) in
      let shard = pick_shard t ~src_port ~dst in
      let s = socks.(shard.sq) in
      (* Data traffic is refused with an {e accounted} [EAGAIN] while
         the shard is under pressure — the datagram was never accepted,
         so nothing is silently lost.  Breaker probes classify as
         [Control] and are never shed: the probe's round trip is the
         signal that ends the failover, and starving it would make the
         overload metastable. *)
      match Health.allow shard.sh_breaker with
      | Health.Slow -> (
          if not (admit shard Overload.Data) then Error Abi.Errno.EAGAIN
          else
            match slow_sendto t sock payload ~dst with
            | Some r -> r
            | None ->
                Health.record_shed shard.sh_breaker;
                record_tx_shed shard;
                Error Abi.Errno.EAGAIN)
      | Health.Fast | Health.Probe as verdict -> (
          if
            not
              (admit shard
                 (if verdict = Health.Probe then Overload.Control
                  else Overload.Data))
          then Error Abi.Errno.EAGAIN
          else begin
            if verdict = Health.Probe then shard.probing <- true;
            let sent =
              match fast_sendto shard s payload ~dst with
              | r ->
                  shard.probing <- false;
                  r
              | exception e ->
                  shard.probing <- false;
                  raise e
            in
            match sent with
            | Error Abi.Errno.EAGAIN -> (
                (* Every FM refused the frame (the exhaustion already
                   fed the breaker): resend via the slow path, or make
                   the backpressure explicit. *)
                match slow_sendto t sock payload ~dst with
                | Some r ->
                    Health.record_failover shard.sh_breaker;
                    r
                | None ->
                    Health.record_shed shard.sh_breaker;
                    record_tx_shed shard;
                    Error Abi.Errno.EAGAIN)
            | r -> r
          end)

let rec first_readable socks i =
  if i = Array.length socks then -1
  else if Netstack.Udp_socket.readable socks.(i) then i
  else first_readable socks (i + 1)

(* Datagrams may sit in either the enclave netstack (XDP Redirect
   epochs) or the host fallback socket (XDP Pass epochs), so poll both.
   [sock.host_fd] is re-read every iteration — a thread that blocked here while the
   breaker was still closed must start draining a fallback that
   [on_xsk_open] binds only later.  The host-side check runs whenever
   the fallback exists, not only while the breaker is open: packets
   PASSed just before failback must still be drained afterwards.

   With several shards the same loop additionally multiplexes the
   per-shard sockets: a flow's datagrams surface on exactly one of
   them (RSS), but one recvfrom serves flows from every shard. *)
let rec recv_any t sock socks conds ~max =
  let i = first_readable socks 0 in
  if i >= 0 then Ok (Netstack.Udp_socket.recvfrom socks.(i) ~max)
  else
    match sock.host_fd with
    | Some fd when Slowpath.udp_readable t.slow fd -> (
        match Slowpath.udp_recvfrom t.slow fd ~max with
        | Ok (_, (src_ip, src_port)) as r ->
            (* Attribute the failover to the shard that owns the flow
               (RSS), not blanket shard 0 — per-shard counters are the
               containment witness. *)
            let shard =
              match sock_port sock with
              | Some port -> pick_shard t ~src_port:port ~dst:(src_ip, src_port)
              | None -> t.shards.(0)
            in
            Health.record_failover shard.sh_breaker;
            r
        | Error _ as r -> r)
    | _ ->
        (* Park on enclave-socket activity, plus a quantum timer:
           host-socket arrivals broadcast a different condition, so the
           timer bounds how stale the host-side check can get. *)
        let engine = Hostos.Kernel.engine t.kernel in
        let wake = List.hd conds in
        let fired = ref false in
        Sim.Engine.at engine
          (Int64.add (Sim.Engine.now engine) Sgx.Params.xsk_rekick_period)
          (fun () ->
            if not !fired then begin
              fired := true;
              Sim.Condition.broadcast wake
            end);
        Sim.Condition.wait_any conds;
        fired := true;
        recv_any t sock socks conds ~max

let udp_recvfrom t sock ~max =
  match sock.bound with
  | [||] -> Error Abi.Errno.EINVAL
  | _ when max < 0 -> Error Abi.Errno.EINVAL (* before dequeuing *)
  | socks -> recv_any t sock socks sock.activity ~max

let udp_readable t sock =
  Array.exists Netstack.Udp_socket.readable sock.bound
  ||
  match sock.host_fd with
  | Some fd -> Slowpath.udp_readable t.slow fd
  | None -> false

let udp_close t sock =
  Option.iter (Slowpath.udp_close t.slow) sock.host_fd;
  sock.host_fd <- None;
  t.udp_socks <- List.filter (fun o -> o != sock) t.udp_socks;
  if Array.length sock.bound > 0 then begin
    Sim.Int_table.remove t.owned_ports (Netstack.Udp_socket.port sock.bound.(0));
    Array.iteri
      (fun k s -> Netstack.Stack.unbind t.shards.(k).sh_stack s)
      sock.bound;
    sock.bound <- [||];
    sock.activity <- []
  end

(* {1 Threads} *)

let new_thread t =
  (* io_uring setup runs outside the enclave, like XSK setup. *)
  Sgx.Enclave.ocall t.enclave;
  let fd, uring =
    Hostos.Kernel.uring_create t.kernel ~alloc:t.shared_alloc
      ~entries:t.config.Config.uring_entries
  in
  let bounce =
    Mem.Alloc.alloc_ptr t.shared_alloc ~align:8 t.config.Config.max_io_size
  in
  let id = t.thread_counter in
  t.thread_counter <- t.thread_counter + 1;
  (* Threads are sharded round-robin: the shard's Monitor watches this
     ring, and shard-pinned faults/attacks on the io_uring path key off
     this tag. *)
  let shard = t.shards.(id mod Array.length t.shards) in
  Hostos.Io_uring.set_shard uring shard.sq;
  (* Zero-copy pool: carve the frame arena out of the shared region and
     pin it with the kernel once ([IORING_REGISTER_BUFFERS], entry i =
     frame i) — fixed SQEs then name table indices with no per-op
     syscall.  Registration is setup work, outside the enclave. *)
  let zc_arena =
    if not t.config.Config.zerocopy then Ok None
    else begin
      let zframe = Sgx.Params.zc_frame_size in
      let arena =
        Mem.Alloc.alloc_ptr t.shared_alloc ~align:8
          (Sgx.Params.zc_frames * zframe)
      in
      let entries =
        List.init Sgx.Params.zc_frames (fun i ->
            (arena.Mem.Ptr.off + (i * zframe), zframe))
      in
      Sgx.Enclave.ocall t.enclave;
      match Hostos.Kernel.uring_register_buffers t.kernel uring entries with
      | Ok () -> Ok (Some arena)
      | Error e ->
          Error
            (Format.asprintf "zero-copy buffer registration: %a"
               Mem.Regtable.pp_error e)
    end
  in
  match
    Result.bind zc_arena (fun zc_arena ->
        Result.map_error
          (Format.asprintf "io_uring fm: %a" Iouring_fm.pp_init_error)
          (Iouring_fm.create ~obs:t.obs
             ~name:("uring" ^ string_of_int id)
             ~enclave:t.enclave ~config:t.config ~monitor:shard.sh_monitor
             ~breaker:t.uring_breaker ~fd ~uring ~bounce ?zc_arena ()))
  with
  | Error e -> Error e
  | Ok fm ->
      (* Under SQPOLL the kernel's own poller finds new SQEs; otherwise
         the shard's MM scans this ring. *)
      if not t.config.Config.use_sqpoll then
        Monitor.watch_uring shard.sh_monitor uring;
      let proxy =
        Syncproxy.create ~slow:t.slow ~breaker:t.uring_breaker
          ~overload:t.uring_overload fm
      in
      t.threads <- proxy :: t.threads;
      Ok proxy

let syncproxy thread = thread

(* {1 Introspection}

   Each counter total is one registry query (DESIGN.md §7) over the
   instance names [boot] and [new_thread] give out; the name patterns
   live only here. *)

let query ?infix t ~prefix ~suffix =
  Obs.Metrics.sum_counters ?infix (Obs.metrics t.obs) ~prefix ~suffix

let total_ring_check_failures t =
  query t ~prefix:"xsk" ~suffix:".failures"
  + query t ~prefix:"uring" ~suffix:".failures"

(* Not the zero-copy pool's "uring<n>.zc.rejects": a hostile CQE naming
   a bad zc frame already counts under ".cqe_rejects". *)
let total_desc_rejects t =
  query t ~prefix:"xsk" ~suffix:".umem.rejects"
  + query t ~prefix:"uring" ~suffix:".cqe_rejects"

let total_zc_sends t = query t ~prefix:"uring" ~suffix:".zc_sends"

let total_zc_fallbacks t = query t ~prefix:"uring" ~suffix:".zc_fallbacks"

let total_zc_notifs t = query t ~prefix:"uring" ~suffix:".zc_notifs"

let total_zc_notif_rejects t =
  query t ~prefix:"uring" ~suffix:".zc_notif_early"
  + query t ~prefix:"uring" ~suffix:".zc_notif_stray"

(* Not a counter: derived from each FM's pending-notif table. *)
let total_zc_leaks t =
  List.fold_left
    (fun acc th -> acc + Iouring_fm.zc_leaks (Syncproxy.fm th))
    0 t.threads

(* {1 Overload introspection (DESIGN.md §15)} *)

let shard_overload t k = t.shards.(k).sh_overload

let uring_overload t = t.uring_overload

let total_overload_shed t = query t ~prefix:"overload" ~suffix:".shed.data"

let total_overload_admitted t =
  query t ~prefix:"overload" ~suffix:".admitted.data"
  + query t ~prefix:"overload" ~suffix:".admitted.control"

(* Control is never refused, so no counter exists to read. *)
let total_control_shed _t = 0

(* Frames the host NIC dropped at the edge (fill starvation — including
   throttle-driven starvation — or oversized frames): the accounted
   destination of the flood an edge-throttled shard refuses to buffer. *)
let total_edge_drops t = query t ~prefix:"xsk" ~suffix:".xdp.rx_dropped"

let total_fill_throttles t = query t ~prefix:"xsk" ~suffix:".fill_throttled"

(* Frames the injected wire faults destroyed in flight, either link
   direction.  A truncated frame is double-booked (once here, once as
   the parse-reject it becomes downstream); the accounting gates are
   one-sided inequalities, so over-counting is safe where an uncounted
   loss would not be. *)
let total_wire_losses t = Hostos.Kernel.wire_losses t.kernel

(* Datagrams that died with an accounting trail, runtime-wide: netstack
   drop counters (bad packets, queue-full, overload sheds), NIC edge
   drops, wire-fault losses, and descriptor/ring rejects.  The soak
   harness checks every client-side loss against this total — silent
   loss means a datagram vanished with {e no} counter anywhere, which is
   a soak failure. *)
let total_accounted_drops t =
  query t ~prefix:"stack" ~infix:".drop." ~suffix:""
  + total_edge_drops t + total_desc_rejects t + total_ring_check_failures t
  + total_wire_losses t

let shard_stack t k = t.shards.(k).sh_stack

let shard_invariant_holds sh =
  Array.for_all Xsk_fm.invariant_holds sh.sh_fms
  && Array.for_all
       (fun fm -> Umem.conservation_holds (Xsk_fm.umem fm))
       sh.sh_fms

let invariant_holds t =
  Array.for_all shard_invariant_holds t.shards
  && List.for_all
       (fun th -> Iouring_fm.invariant_holds (Syncproxy.fm th))
       t.threads
  && List.for_all
       (fun th -> Iouring_fm.accounting_holds (Syncproxy.fm th))
       t.threads

(* {1 Watchdog (DESIGN.md §8)} *)

let watchdog_timeout = Int64.to_int Sgx.Params.watchdog_timeout

(* The in-enclave thread that keeps the (untrusted, crashable) Monitor
   Modules honest — one watchdog oversees every shard's MM.  Spawned on
   demand — it is only meaningful when a fault injector can kill an MM,
   and its periodic timer would keep the event queue of fault-free runs
   from draining. *)
let start_watchdog t =
  let engine = Hostos.Kernel.engine t.kernel in
  let m = Obs.metrics t.obs in
  let restarts = Obs.Metrics.counter m "watchdog.restarts" in
  let degraded = Obs.Metrics.counter m "watchdog.degraded_scans" in
  Sim.Engine.spawn engine ~name:"rakis-watchdog" (fun () ->
      let rec loop () =
        Sim.Engine.delay Sgx.Params.watchdog_period;
        let any_bad = ref false in
        Array.iter
          (fun shard ->
            let mon = shard.sh_monitor in
            let stale =
              Sim.Engine.clock engine - Monitor.last_beat mon > watchdog_timeout
            in
            if (not (Monitor.alive mon)) || stale then begin
              any_bad := true;
              (* Degraded polling: one scan from inside the enclave
                 (paying enclave exits for its wakeups — the stopgap,
                 not the design) so work published while the MM was
                 down moves now, then hand back to a fresh MM
                 incarnation. *)
              Obs.Metrics.incr degraded;
              Sgx.Enclave.ocall t.enclave;
              Monitor.force_scan mon;
              (* MM breaker: a persistently dying Monitor stops earning
                 restarts (the enclave-side scans above carry the load);
                 half-open probes are restart attempts, and a stretch of
                 healthy checks below closes the breaker again. *)
              Health.record_failure t.mm_breaker;
              match Health.allow t.mm_breaker with
              | Health.Fast | Health.Probe ->
                  Obs.Metrics.incr restarts;
                  Monitor.restart mon;
                  Monitor.kick mon
              | Health.Slow -> ()
            end)
          t.shards;
        if not !any_bad then Health.record_success t.mm_breaker;
        loop ()
      in
      loop ())

let watchdog_restarts t =
  Obs.Metrics.value (Obs.Metrics.counter (Obs.metrics t.obs) "watchdog.restarts")

let watchdog_degraded_scans t =
  Obs.Metrics.value
    (Obs.Metrics.counter (Obs.metrics t.obs) "watchdog.degraded_scans")

let udp_activity _t sock = sock.activity
