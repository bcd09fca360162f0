(* Items live in a growable ring: slot [(head + i) land (cap - 1)] holds
   the [i]-th oldest, and the power-of-two capacity starts at 0, doubles
   on demand and never exceeds what the mailbox has held at once, so
   putting allocates nothing in the steady state.  A vacated slot is
   overwritten with [empty] so the ring never keeps a taken item alive.
   [empty] is the immediate 0: every ring is made by [Array.make] from
   it, so no ring is ever a flat float array, and a slot holding it is
   never read as an item. *)
type 'a t = {
  mutable items : 'a array;
  mutable head : int;
  mutable len : int;
  capacity : int;
  not_empty : Condition.t;
  not_full : Condition.t;
}

let empty () : 'a = Obj.magic 0

let create ?(capacity = max_int) () =
  if capacity <= 0 then invalid_arg "Mailbox.create: capacity must be > 0";
  {
    items = [||];
    head = 0;
    len = 0;
    capacity;
    not_empty = Condition.create ();
    not_full = Condition.create ();
  }

let length t = t.len

let is_empty t = t.len = 0

let capacity t = t.capacity

(* Double the ring, unrolling it so the oldest item is slot 0. *)
let grow t =
  let cap = Array.length t.items in
  let items = Array.make (max 4 (2 * cap)) (empty ()) in
  for i = 0 to t.len - 1 do
    items.(i) <- t.items.((t.head + i) land (cap - 1))
  done;
  t.items <- items;
  t.head <- 0

(* Remove the oldest item.  Requires [t.len > 0]. *)
let take t =
  let i = t.head in
  let x = t.items.(i) in
  t.items.(i) <- empty ();
  t.head <- (i + 1) land (Array.length t.items - 1);
  t.len <- t.len - 1;
  x

let try_put t x =
  if t.len >= t.capacity then false
  else begin
    if t.len = Array.length t.items then grow t;
    t.items.((t.head + t.len) land (Array.length t.items - 1)) <- x;
    t.len <- t.len + 1;
    Condition.signal t.not_empty;
    true
  end

let rec put t x =
  if try_put t x then ()
  else begin
    Condition.wait t.not_full;
    put t x
  end

let listen t = Condition.listen t.not_empty

let try_get t =
  if t.len = 0 then None
  else begin
    let x = take t in
    Condition.signal t.not_full;
    Some x
  end

let rec get t =
  if t.len = 0 then begin
    Condition.wait t.not_empty;
    get t
  end
  else begin
    let x = take t in
    Condition.signal t.not_full;
    x
  end

let peek t = if t.len = 0 then None else Some t.items.(t.head)
