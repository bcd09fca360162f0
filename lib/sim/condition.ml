(* Waiters are [(process, suspension)] pairs kept unboxed in a growable
   ring of two parallel arrays: slot [i] is suspension [ns.(i)] of
   [procs.(i)].  Capacity is a power of two (0 until the first wait).
   A [wait_any] waiter stays queued on its other conditions after one
   wakes it, and a timed wait's waiter after its timeout wakes it; such
   a stale entry still counts in [waiters] and its wake is ignored by
   {!Engine.wake}.  A full ring drops its stale entries before it
   doubles, so stale entries fill the ring but never grow it: its
   capacity stays at most twice the most live waiters it ever held
   (and at least 4). *)
type t = {
  mutable procs : Engine.process array;
  mutable ns : int array;
  mutable head : int;
  mutable len : int;
}

let create () = { procs = [||]; ns = [||]; head = 0; len = 0 }

(* Double the ring, unrolling it so the oldest waiter is slot 0.  The
   new slots are filled with [p], the waiter about to be added. *)
let grow t p =
  let cap = Array.length t.procs in
  let cap' = max 4 (2 * cap) in
  let procs = Array.make cap' p and ns = Array.make cap' 0 in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) land (cap - 1) in
    procs.(i) <- t.procs.(j);
    ns.(i) <- t.ns.(j)
  done;
  t.procs <- procs;
  t.ns <- ns;
  t.head <- 0

(* Keep only the entries whose suspension has not passed, in order. *)
let drop_stale t =
  let mask = Array.length t.procs - 1 in
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) land mask in
    let p = t.procs.(j) and n = t.ns.(j) in
    if Engine.suspension p = n then begin
      let k = (t.head + !kept) land mask in
      t.procs.(k) <- p;
      t.ns.(k) <- n;
      incr kept
    end
  done;
  t.len <- !kept

let add t p n =
  if t.len = Array.length t.procs then begin
    drop_stale t;
    if t.len = Array.length t.procs then grow t p
  end;
  let i = (t.head + t.len) land (Array.length t.procs - 1) in
  (* A waiter that waits again often finds its own slot: skip the
     write barrier then. *)
  if t.procs.(i) != p then t.procs.(i) <- p;
  t.ns.(i) <- n;
  t.len <- t.len + 1

(* Wake the oldest waiter.  Requires [t.len > 0]. *)
let wake_oldest t =
  let i = t.head in
  t.head <- (i + 1) land (Array.length t.procs - 1);
  t.len <- t.len - 1;
  Engine.wake t.procs.(i) t.ns.(i)

let listen t =
  let p = Engine.self () in
  add t p (Engine.suspension p)

let wait t =
  listen t;
  Engine.park ()

let signal t = if t.len > 0 then wake_oldest t

(* Wake exactly the waiters present at the call, oldest first.  A woken
   process runs only at a later event, so none can join meanwhile. *)
let broadcast t =
  for _ = 1 to t.len do
    wake_oldest t
  done

let waiters t = t.len

let rec add_all p n = function
  | [] -> ()
  | t :: ts ->
      add t p n;
      add_all p n ts

let wait_any ts =
  let p = Engine.self () in
  add_all p (Engine.suspension p) ts;
  Engine.park ()
