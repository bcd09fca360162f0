type 'a t = {
  items : 'a Queue.t;
  capacity : int;
  not_empty : Condition.t;
  not_full : Condition.t;
}

let create ?(capacity = max_int) () =
  if capacity <= 0 then invalid_arg "Mailbox.create: capacity must be > 0";
  {
    items = Queue.create ();
    capacity;
    not_empty = Condition.create ();
    not_full = Condition.create ();
  }

let length t = Queue.length t.items

let is_empty t = Queue.is_empty t.items

let capacity t = t.capacity

let try_put t x =
  if Queue.length t.items >= t.capacity then false
  else begin
    Queue.add x t.items;
    Condition.signal t.not_empty;
    true
  end

let rec put t x =
  if try_put t x then ()
  else begin
    Condition.wait t.not_full;
    put t x
  end

let try_get t =
  match Queue.take_opt t.items with
  | None -> None
  | Some x ->
      Condition.signal t.not_full;
      Some x

let rec get t =
  if Queue.is_empty t.items then begin
    Condition.wait t.not_empty;
    get t
  end
  else begin
    let x = Queue.take t.items in
    Condition.signal t.not_full;
    x
  end

let peek t = Queue.peek_opt t.items
