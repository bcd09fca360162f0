type t = { queue : (unit -> unit) Queue.t }

let create () = { queue = Queue.create () }

let wait t = Engine.suspend (fun waker -> Queue.add waker t.queue)

let signal t =
  match Queue.take_opt t.queue with None -> () | Some waker -> waker ()

(* Wake exactly the waiters present at the call, oldest first; a waiter
   a waker registers meanwhile stays queued for the next wake-up. *)
let broadcast t =
  for _ = 1 to Queue.length t.queue do
    (Queue.take t.queue) ()
  done

let waiters t = Queue.length t.queue

let wait_any ts =
  Engine.suspend (fun waker ->
      List.iter (fun t -> Queue.add waker t.queue) ts)
