(* Kernel-side ring endpoint with a private index.

   A real kernel never trusts the shared copy of its *own* ring index:
   it advances an internal head/tail and re-writes the shared word on
   every publish.  The simulated kernel originally used Rings.Raw
   directly on the shared words, which meant a Malice smash of a
   kernel-owned index poisoned the kernel itself (e.g. a smashed xRX
   producer made Raw.free negative forever and the ring died, or a
   smashed iSub consumer sent the drain loop spinning over 2^32
   entries).  That models an attacker corrupting kernel-internal state,
   which is outside the RAKIS threat model — the attacker owns shared
   memory, not the kernel's private variables.

   Kring restores fidelity: the kernel's cursor lives here, in host
   (simulator) memory, and every honest operation republishes the
   shared word.  Malice can still smash the shared copies at will — the
   enclave-side certified rings must detect that — but the kernel's own
   behaviour stays sane, and the next honest publish naturally repairs
   the shared word (attacks are transient unless re-applied). *)

type t = { layout : Rings.Layout.t; mutable pos : int; consumes : bool }

let consumer layout =
  { layout; pos = Rings.Layout.read_cons layout; consumes = true }

let producer layout =
  { layout; pos = Rings.Layout.read_prod layout; consumes = false }

(* The opposite index is owned by the (honest) enclave producer or
   consumer, but Malice may have smashed the shared word; clamp so the
   kernel never acts on an impossible distance. *)
let available t =
  let d = Rings.U32.distance ~ahead:(Rings.Layout.read_prod t.layout) ~behind:t.pos in
  if d < 0 || d > t.layout.Rings.Layout.size then 0 else d

let free t =
  let used =
    Rings.U32.distance ~ahead:t.pos ~behind:(Rings.Layout.read_cons t.layout)
  in
  if used < 0 || used > t.layout.Rings.Layout.size then 0
  else t.layout.Rings.Layout.size - used

let publish_consumer t = Rings.Layout.write_cons t.layout t.pos

let publish_producer t = Rings.Layout.write_prod t.layout t.pos

(* One slot at a time, with no closure: the caller reads (or writes)
   the slot at the offset returned, then calls [advance]. *)
let consume_slot t =
  if available t <= 0 then -1 else Rings.Layout.slot_off t.layout t.pos

let produce_slot t =
  if free t <= 0 then -1 else Rings.Layout.slot_off t.layout t.pos

let advance t =
  t.pos <- Rings.U32.succ t.pos;
  if t.consumes then publish_consumer t else publish_producer t
