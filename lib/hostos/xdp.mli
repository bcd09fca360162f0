(** Kernel-side XDP / AF_XDP (XSK) implementation.

    Mirrors the Linux data path the paper builds on (§2.3): an XDP
    program attached to a NIC receive queue classifies each incoming
    frame as PASS (fall through to the kernel stack), DROP, or REDIRECT
    to the XSK bound to that queue.  Redirected frames are written into
    a user-supplied UMem frame taken from the xFill ring and announced
    on the xRX ring; transmission drains the xTX ring into the wire and
    recycles frames through xCompl.  The kernel side uses the
    {!Rings.Raw} accessors — it trusts its own memory — while the
    enclave side (RAKIS's FM) must use {!Rings.Certified}.

    When a {!Malice.t} is armed, this is where the kernel lies: indices
    are smashed, descriptors forged and packets corrupted exactly at the
    trust boundary. *)

type action = Pass | Drop | Redirect

type prog = Bytes.t -> action
(** The eBPF program model: pure classification over the raw frame. *)

type xsk

type t

val create : Sim.Engine.t -> malice:Malice.t option ref -> t

val create_xsk :
  ?obs:Obs.t ->
  ?name:string ->
  t ->
  alloc:Mem.Alloc.t ->
  umem_size:int ->
  frame_size:int ->
  ring_size:int ->
  xsk
(** Performs the setup the paper describes as "at least 14 syscalls":
    allocates the UMem and the four rings from the shared (untrusted)
    allocator and returns the kernel object.  The enclave learns the
    five resulting pointers via the accessors below — and must validate
    them, since a hostile kernel could return anything.

    [obs] puts the XSK's edge counters in the shared registry under
    [name] (default ["xdp"]): ["<name>.rx_delivered"],
    ["<name>.rx_dropped"], one ["<name>.drop.<cause>"] per
    {!rx_drop_reasons} cause, and ["<name>.tx_sent"]. *)

val xsk_id : xsk -> int

val set_shard : xsk -> int -> unit
(** Tag this XSK with the datapath shard it serves.  Malice rolls on its
    rings then carry this shard context, so shard-pinned attacks hit
    only their target shard's XSKs. *)

val shard : xsk -> int option

val fill_layout : xsk -> Rings.Layout.t

val rx_layout : xsk -> Rings.Layout.t

val tx_layout : xsk -> Rings.Layout.t

val compl_layout : xsk -> Rings.Layout.t

val umem_ptr : xsk -> Mem.Ptr.t

val umem_size : xsk -> int

val frame_size : xsk -> int

val attach :
  t ->
  nic:Nic.t ->
  queue:int ->
  prog:prog ->
  xsk:xsk ->
  stack_fallback:(Bytes.t -> unit) ->
  unit
(** Install the XDP program on one NIC queue, binding the XSK to it and
    starting the XSK's kernel transmit worker.  PASS frames go to
    [stack_fallback]. *)

val tx_wakeup : t -> xsk -> unit
(** The [sendto] wakeup: non-blocking; nudges the transmit worker. *)

val rx_wakeup : t -> xsk -> unit
(** The [recvfrom] wakeup: a no-op here (frames arriving while xFill is
    empty are dropped, per the QoS discussion in §4.1). *)

val rx_delivered : xsk -> int

val rx_dropped : xsk -> int

val rx_drop_reasons : xsk -> (string * int) list
(** Edge-drop cause breakdown (["oversize"], ["krx_full"],
    ["fill_empty"], ["bad_fill"]); the values sum to {!rx_dropped}.
    Says {e why} an XSK stopped accepting — fill starvation names the
    enclave side, xRX backlog names a parked consumer. *)

val tx_sent : xsk -> int

val rx_notify : xsk -> Sim.Condition.t
(** Broadcast whenever the kernel produces onto xRX.  Simulation stand-in
    for the FM thread's shared-memory busy-poll noticing new packets:
    waiting on it instead of simulating each poll iteration keeps the
    event count tractable without changing observable timing (the FM's
    dedicated thread would notice within one poll period). *)

val compl_notify : xsk -> Sim.Condition.t
(** Broadcast whenever the kernel produces onto xCompl; same stand-in. *)
