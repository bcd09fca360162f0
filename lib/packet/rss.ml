(* Receive-side scaling: the deterministic Toeplitz hash NICs use to
   pin a flow to one receive queue.  The hash runs over the 12-byte
   UDP/IPv4 4-tuple (src ip, dst ip, src port, dst port) against a
   fixed 40-byte key — the same construction as Microsoft's RSS spec,
   which real AF_XDP deployments rely on so that one XSK bound to one
   queue sees every packet of "its" flows and none of anyone else's.

   The tuple is canonicalized (lower endpoint first) before hashing, so
   the hash is symmetric: both directions of a flow land on the same
   queue.  The enclave runtime exploits this to give flows shard
   affinity — the shard that receives a flow's datagrams is the shard
   whose XSK transmits the replies. *)

(* The de-facto standard 40-byte RSS key (Microsoft's example key, as
   shipped by ixgbe/i40e/mlx5 by default). *)
let key =
  [|
    0x6d; 0x5a; 0x56; 0xda; 0x25; 0x5b; 0x0e; 0xc2;
    0x41; 0x67; 0x25; 0x3d; 0x43; 0xa3; 0x8f; 0xb0;
    0xd0; 0xca; 0x2b; 0xcb; 0xae; 0x7b; 0x30; 0xb4;
    0x77; 0xcb; 0x2d; 0xa3; 0x80; 0x30; 0xf2; 0x0c;
    0x6a; 0x42; 0xb7; 0x3b; 0xbe; 0xac; 0x01; 0xfa;
  |]

(* 32-bit window of the key starting at bit [bit]. *)
let key_window bit =
  let byte = bit / 8 and shift = bit mod 8 in
  let b i = if i < Array.length key then key.(i) else 0 in
  let w40 =
    (b byte lsl 32)
    lor (b (byte + 1) lsl 24)
    lor (b (byte + 2) lsl 16)
    lor (b (byte + 3) lsl 8)
    lor b (byte + 4)
  in
  (w40 lsr (8 - shift)) land 0xffffffff

(* Toeplitz is linear in the input bits: the hash is the XOR, over every
   set bit [b] of the tuple, of the key window at [b].  So each tuple byte
   contributes independently, and [table.((i lsl 8) lor v)] is the
   contribution of value [v] at byte [i] — twelve lookups per hash, no
   allocation. *)
let table =
  Array.init (12 * 256) (fun j ->
      let bit = (j lsr 8) * 8 and v = j land 0xff in
      let acc = ref 0 in
      for i = 0 to 7 do
        if v land (0x80 lsr i) <> 0 then acc := !acc lxor key_window (bit + i)
      done;
      !acc)

(* Toeplitz over the canonicalized 12-byte tuple (lo ip, hi ip, lo port,
   hi port), big-endian.  Endpoints are ordered by (ip, port) so
   hash(a->b) = hash(b->a). *)
let hash ~src_ip ~dst_ip ~src_port ~dst_port =
  let src_lo = src_ip < dst_ip || (src_ip = dst_ip && src_port <= dst_port) in
  let lo_ip = if src_lo then src_ip else dst_ip
  and hi_ip = if src_lo then dst_ip else src_ip
  and lo_port = if src_lo then src_port else dst_port
  and hi_port = if src_lo then dst_port else src_port in
  let byte i v = table.((i lsl 8) lor (v land 0xff)) in
  byte 0 (lo_ip lsr 24)
  lxor byte 1 (lo_ip lsr 16)
  lxor byte 2 (lo_ip lsr 8)
  lxor byte 3 lo_ip
  lxor byte 4 (hi_ip lsr 24)
  lxor byte 5 (hi_ip lsr 16)
  lxor byte 6 (hi_ip lsr 8)
  lxor byte 7 hi_ip
  lxor byte 8 (lo_port lsr 8)
  lxor byte 9 lo_port
  lxor byte 10 (hi_port lsr 8)
  lxor byte 11 hi_port

(* Queue selection: hash through a mod-[queues] indirection, as the
   simulated NIC has no 128-entry indirection table to program. *)
let queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port =
  if queues <= 1 then 0
  else hash ~src_ip ~dst_ip ~src_port ~dst_port mod queues
