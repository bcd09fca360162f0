(* Tests for the discrete-event engine and its event heap, conditions,
   mailboxes, locks and the RNG. *)

open Sim

let check = Alcotest.(check int)

let check64 = Alcotest.(check int64)

let check_bool = Alcotest.(check bool)

(* {1 Engine} *)

let test_engine_time_advances () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay 100L;
      log := (Engine.now e, "a") :: !log;
      Engine.delay 50L;
      log := (Engine.now e, "b") :: !log);
  Engine.run e;
  Alcotest.(check (list (pair int64 string)))
    "timeline"
    [ (100L, "a"); (150L, "b") ]
    (List.rev !log)

let test_engine_interleaving () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay 10L;
      log := "p1@10" :: !log;
      Engine.delay 20L;
      log := "p1@30" :: !log);
  Engine.spawn e (fun () ->
      Engine.delay 20L;
      log := "p2@20" :: !log);
  Engine.run e;
  Alcotest.(check (list string))
    "interleave" [ "p1@10"; "p2@20"; "p1@30" ] (List.rev !log)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn e (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.spawn e (fun () ->
      let rec loop () =
        Engine.delay 10L;
        incr ran;
        loop ()
      in
      loop ());
  let late = ref false in
  Engine.at e 150L (fun () -> late := true);
  Engine.run ~until:100L e;
  check "horizon caps iterations" 10 !ran;
  check64 "clock at horizon" 100L (Engine.now e);
  check "later events stay queued" 2 (Engine.pending e);
  check_bool "later callback not run" false !late;
  (* Resumable after the horizon. *)
  Engine.run ~until:200L e;
  check "resumed" 20 !ran;
  check_bool "later callback ran" true !late

let test_engine_stop () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.spawn e (fun () ->
      let rec loop () =
        Engine.delay 10L;
        incr ran;
        if !ran = 3 then Engine.stop e;
        loop ()
      in
      loop ());
  Engine.run e;
  check "stopped after 3" 3 !ran

let test_engine_at_callback () =
  let e = Engine.create () in
  let fired = ref 0L in
  Engine.at e 500L (fun () -> fired := Engine.now e);
  Engine.run e;
  check64 "at fires at time" 500L !fired

let test_engine_past_at_runs_now () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay 100L;
      Engine.at e 50L (fun () -> log := ("past", Engine.now e) :: !log);
      Engine.at e 100L (fun () -> log := ("now", Engine.now e) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "clamped to now, in schedule order"
    [ ("past", 100L); ("now", 100L) ]
    (List.rev !log)

let test_engine_same_time_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := (Engine.now e, s) :: !log in
  Engine.at e 20L (note "a");
  Engine.at e 10L (note "b");
  Engine.spawn e (note "p");
  Engine.at e 20L (note "c");
  Engine.at e 10L (note "d");
  Engine.at e 0L (note "e");
  Engine.run e;
  Alcotest.(check (list (pair int64 string)))
    "(time, seq) order"
    [ (0L, "p"); (0L, "e"); (10L, "b"); (10L, "d"); (20L, "a"); (20L, "c") ]
    (List.rev !log)

(* [clock], [at_clock] and [arm_timeout_at] are the boxed API with
   native times: the same events at the same (time, seq). *)
let test_engine_native_clock () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := (Engine.now e, s) :: !log in
  Engine.spawn e (fun () ->
      Engine.delay 100L;
      Alcotest.(check int) "clock" 100 (Engine.clock e);
      Engine.at_clock e 50 (note "past");
      Engine.at e 120L (note "a");
      Engine.at_clock e 120 (note "b");
      Engine.at e 120L (note "c");
      Engine.arm_timeout_at 90;
      Engine.timed_park ();
      note "passed deadline" ();
      Engine.arm_timeout_at 300;
      Engine.timed_park ();
      check_bool "timed out" true (Engine.timed_out ());
      note "deadline" ());
  Engine.run e;
  Alcotest.(check (list (pair int64 string)))
    "(time, seq) order"
    [
      (100L, "past");
      (100L, "passed deadline");
      (120L, "a");
      (120L, "b");
      (120L, "c");
      (300L, "deadline");
    ]
    (List.rev !log)

let test_engine_growth () =
  let e = Engine.create () in
  let n = 1500 in
  let log = ref [] in
  (* A scrambled permutation of times (7919 is prime to n), two events per
     time: the heap grows well past its initial capacity and must still
     pop in (time, seq) order. *)
  let time_of i = i * 7919 mod n in
  for i = 0 to n - 1 do
    let time = Int64.of_int (time_of i) in
    Engine.at e time (fun () -> log := (Engine.now e, i) :: !log);
    Engine.at e time (fun () -> log := (Engine.now e, n + i) :: !log)
  done;
  check "all queued" (2 * n) (Engine.pending e);
  Engine.run e;
  let index_at = Array.make n 0 in
  for i = 0 to n - 1 do
    index_at.(time_of i) <- i
  done;
  let expected =
    List.concat
      (List.init n (fun t ->
           let i = index_at.(t) in
           [ (Int64.of_int t, i); (Int64.of_int t, n + i) ]))
  in
  Alcotest.(check (list (pair int64 int)))
    "(time, seq) order" expected (List.rev !log);
  check "drained" 0 (Engine.pending e)

let test_engine_pending () =
  let e = Engine.create () in
  check "empty" 0 (Engine.pending e);
  Engine.at e 10L ignore;
  Engine.at e 5L ignore;
  Engine.spawn e (fun () -> Engine.delay 20L);
  check "three queued" 3 (Engine.pending e);
  Engine.run ~until:7L e;
  (* The process's delay replaced its start event. *)
  check "after the early ones" 2 (Engine.pending e);
  Engine.run e;
  check "drained" 0 (Engine.pending e)

let test_engine_delay_saturates () =
  (* A delay past the end of time parks the process behind every finite
     event instead of wrapping around to "now". *)
  let e = Engine.create () in
  let woke = ref false and later = ref false in
  Engine.spawn e (fun () ->
      Engine.delay 1_000L;
      Engine.delay Int64.max_int;
      woke := true);
  Engine.at e 5_000L (fun () -> later := true);
  Engine.run ~until:1_000_000_000L e;
  check_bool "later event ran" true !later;
  check_bool "still parked" false !woke;
  check "only the far delay queued" 1 (Engine.pending e);
  Engine.run e;
  check_bool "woken at the end of time" true !woke;
  check64 "clock saturated" (Int64.of_int max_int) (Engine.now e)

let test_engine_exception_propagates () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> failwith "boom");
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run e)

let test_engine_delay_outside_process () =
  (* Setup code outside processes may charge; it is a no-op. *)
  Engine.delay 1000L;
  ()

let test_engine_suspend_outside_raises () =
  let c = Condition.create () in
  (match Condition.wait c with
  | () -> Alcotest.fail "wait outside process must raise"
  | exception Engine.Not_in_process -> ());
  check "nothing queued" 0 (Condition.waiters c)

let test_engine_stats () =
  let e = Engine.create () in
  let c = Obs.Metrics.counter (Engine.stats e) "x" in
  Obs.Metrics.incr c;
  check "stats attached" 1 (Obs.Metrics.get_counter (Engine.stats e) "x");
  check "one registry per engine" 0
    (Obs.Metrics.get_counter (Engine.stats (Engine.create ())) "x")

(* {1 Condition} *)

let test_condition_signal_wakes_one () =
  let e = Engine.create () in
  let c = Condition.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Condition.wait c;
        incr woken)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 10L;
      Condition.signal c);
  Engine.run e;
  check "one woken" 1 !woken

let test_condition_broadcast_wakes_all () =
  let e = Engine.create () in
  let c = Condition.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Condition.wait c;
        incr woken)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 10L;
      Condition.broadcast c);
  Engine.run e;
  check "all woken" 3 !woken

let test_condition_broadcast_current_waiters () =
  let e = Engine.create () in
  let c = Condition.create () in
  let log = ref [] in
  let waiter name () =
    Condition.wait c;
    log := name :: !log
  in
  List.iter (fun n -> Engine.spawn e (waiter n)) [ "w1"; "w2"; "w3" ];
  Engine.spawn e (fun () ->
      Engine.delay 10L;
      check "three waiting" 3 (Condition.waiters c);
      Condition.broadcast c;
      check "queue emptied" 0 (Condition.waiters c);
      (* Waiters arriving after the broadcast wait for the next one. *)
      Engine.spawn e (waiter "late");
      Engine.delay 10L;
      check "late waiter still queued" 1 (Condition.waiters c);
      Condition.broadcast c);
  Engine.run e;
  Alcotest.(check (list string))
    "FIFO, each once" [ "w1"; "w2"; "w3"; "late" ] (List.rev !log)

(* Allocation gate: with 2,000 idle timers queued (the depth echo64 keeps,
   mostly poll timeouts) a steady-state delay resume and a wait/broadcast
   wake-up must stay within a fixed minor-heap budget per event.  The
   (time, seq) heap, the effects and the condition ring allocate
   nothing, and a process holds its continuation unboxed, so the budget
   is exactly what the runtime allocates per suspension: the
   continuation, 2 words.  An option around it adds 2 words per event,
   a waker closure per wait 2.5, and a closure or tuple per sift level
   (about 11 levels at this depth, twice per event) far more. *)
let words_per_event_budget = 2.

let test_engine_alloc_budget () =
  let e = Engine.create () in
  for i = 1 to 2000 do
    Engine.at e (Int64.of_int (1_000_000_000 + i)) ignore
  done;
  let c = Condition.create () in
  let warm = 1000 and n = 20_000 in
  let words = ref 0. in
  Engine.spawn e (fun () ->
      for _ = 1 to warm + n do
        Condition.wait c
      done);
  Engine.spawn e (fun () ->
      let w0 = ref 0. in
      for i = 1 to warm + n do
        if i = warm + 1 then w0 := Gc.minor_words ();
        Engine.delay 1L;
        Condition.broadcast c
      done;
      words := Gc.minor_words () -. !w0);
  Engine.run e;
  (* Two events per cycle: the delay resume and the broadcast wake-up. *)
  let per_event = !words /. float_of_int (2 * n) in
  if per_event > words_per_event_budget then
    Alcotest.failf "%.2f minor words per event, budget %.0f" per_event
      words_per_event_budget

let test_condition_wait_any () =
  let e = Engine.create () in
  let c1 = Condition.create () and c2 = Condition.create () in
  let woken = ref false in
  Engine.spawn e (fun () ->
      Condition.wait_any [ c1; c2 ];
      woken := true);
  Engine.spawn e (fun () ->
      Engine.delay 5L;
      Condition.broadcast c2);
  Engine.run e;
  check_bool "woken via second condition" true !woken

let test_condition_signal_no_waiters () =
  let c = Condition.create () in
  Condition.signal c;
  Condition.broadcast c;
  check "no waiters" 0 (Condition.waiters c)

let test_condition_ring_wraps_and_grows () =
  (* Interleave waits and signals so the ring wraps, then queue more
     waiters than it holds so it grows mid-wrap: FIFO must survive. *)
  let e = Engine.create () in
  let c = Condition.create () in
  let log = ref [] in
  let waiter i () =
    Condition.wait c;
    log := i :: !log
  in
  Engine.spawn e (fun () ->
      for round = 0 to 2 do
        for i = 0 to 2 do
          Engine.spawn e (waiter ((10 * round) + i))
        done;
        Engine.yield ();
        Condition.signal c;
        Condition.signal c;
        Engine.yield ()
      done;
      for i = 100 to 109 do
        Engine.spawn e (waiter i)
      done;
      Engine.yield ();
      check "all queued" 13 (Condition.waiters c);
      Condition.broadcast c);
  Engine.run e;
  Alcotest.(check (list int))
    "FIFO across wrap and growth"
    ([ 0; 1; 2; 10; 11; 12; 20; 21; 22 ] @ List.init 10 (( + ) 100))
    (List.rev !log)

(* {1 Mailbox} *)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn e (fun () ->
      for i = 1 to 5 do
        Mailbox.put mb i
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to 5 do
        got := Mailbox.get mb :: !got
      done);
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_mailbox_blocking_get () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got_at = ref 0L in
  Engine.spawn e (fun () ->
      ignore (Mailbox.get mb);
      got_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.delay 100L;
      Mailbox.put mb ());
  Engine.run e;
  check64 "blocked until put" 100L !got_at

let test_mailbox_capacity_blocks_put () =
  let e = Engine.create () in
  let mb = Mailbox.create ~capacity:2 () in
  let done_at = ref 0L in
  Engine.spawn e (fun () ->
      Mailbox.put mb 1;
      Mailbox.put mb 2;
      Mailbox.put mb 3;
      (* blocks *)
      done_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.delay 50L;
      ignore (Mailbox.get mb));
  Engine.run e;
  check64 "third put blocked" 50L !done_at

let test_mailbox_try_put_full () =
  let mb = Mailbox.create ~capacity:1 () in
  check_bool "accepts" true (Mailbox.try_put mb 1);
  check_bool "rejects when full" false (Mailbox.try_put mb 2);
  check "length" 1 (Mailbox.length mb)

let test_mailbox_try_get_empty () =
  let mb : int Mailbox.t = Mailbox.create () in
  check_bool "empty" true (Mailbox.try_get mb = None)

let test_mailbox_peek () =
  let mb = Mailbox.create () in
  check_bool "peek empty" true (Mailbox.peek mb = None);
  ignore (Mailbox.try_put mb 42);
  check_bool "peek" true (Mailbox.peek mb = Some 42);
  check "peek does not consume" 1 (Mailbox.length mb)

(* {1 Condition and Mailbox against their closure-and-Queue originals} *)

(* The condition variable and mailbox as they were when every waiter was
   a waker closure in a [Queue], with one rule of the ring added (stale
   waiters are dropped before it doubles), and delays as they were when
   every one was queued.  The property below runs random schedules on
   both and requires the same behaviour. *)
(* The engine the Ref schedule runs on (the closure timer needs it). *)
let engine = ref (Engine.create ())

module Ref = struct
  module Condition = struct
    (* A waiter is its waker closure, plus the [(process, suspension)]
       it wakes so that the ring's one rule can be modelled: when the
       queue reaches [cap] (the ring's capacity), waiters whose
       suspension has passed are dropped, and only a queue still at
       [cap] doubles it. *)
    type t = {
      queue : (Engine.process * int * (unit -> unit)) Queue.t;
      mutable cap : int;
    }

    let create () = { queue = Queue.create (); cap = 0 }

    let register t waiter =
      if Queue.length t.queue = t.cap then begin
        let live = Queue.create () in
        Queue.iter
          (fun ((p, n, _) as w) ->
            if Engine.suspension p = n then Queue.add w live)
          t.queue;
        Queue.clear t.queue;
        Queue.transfer live t.queue;
        if Queue.length t.queue = t.cap then t.cap <- max 4 (2 * t.cap)
      end;
      Queue.add waiter t.queue

    let suspend register =
      let p = Engine.self () in
      let n = Engine.suspension p in
      register (p, n, fun () -> Engine.wake p n);
      Engine.park ()

    let wait t = suspend (register t)

    let wake (_, _, waker) = waker ()

    let signal t =
      match Queue.take_opt t.queue with None -> () | Some w -> wake w

    let broadcast t =
      for _ = 1 to Queue.length t.queue do
        wake (Queue.take t.queue)
      done

    let waiters t = Queue.length t.queue

    let wait_any ts =
      suspend (fun waker -> List.iter (fun t -> register t waker) ts)

    (* The timed wait as the host kernel's poll used to build it on every
       call: a fresh timer condition, a flag and a closure on the heap. *)
    let timed_wait_any ts d =
      let e = !engine in
      let timer = create () in
      let timed_out = ref false in
      Engine.at e
        (Int64.add (Engine.now e) d)
        (fun () ->
          timed_out := true;
          broadcast timer);
      wait_any (timer :: ts);
      !timed_out
  end

  module Mailbox = struct
    type 'a t = {
      items : 'a Queue.t;
      capacity : int;
      not_empty : Condition.t;
      not_full : Condition.t;
    }

    let create ?(capacity = max_int) () =
      {
        items = Queue.create ();
        capacity;
        not_empty = Condition.create ();
        not_full = Condition.create ();
      }

    let try_put t x =
      if Queue.length t.items >= t.capacity then false
      else begin
        Queue.add x t.items;
        Condition.signal t.not_empty;
        true
      end

    let rec put t x =
      if not (try_put t x) then begin
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
      match try_get t with
      | Some x -> x
      | None ->
          Condition.wait t.not_empty;
          get t
  end

  (* A delay as it was before it could skip the queue: a no-op event
     queued now keeps the queue's head no later than the wake time, so
     the resumption is queued at exactly the (time, seq) it always
     was. *)
  let sleep d =
    let e = !engine in
    Engine.at e (Engine.now e) ignore;
    Engine.delay (Int64.of_int d)
end

module type SYNC = sig
  module Condition : sig
    type t

    val create : unit -> t

    val wait : t -> unit

    val wait_any : t list -> unit

    val signal : t -> unit

    val broadcast : t -> unit

    val waiters : t -> int

    val timed_wait_any : t list -> int64 -> bool
    (** Wait on [ts] for at most [d] cycles; [true] if the timeout
        fired. *)
  end

  module Mailbox : sig
    type 'a t

    val create : ?capacity:int -> unit -> 'a t

    val put : 'a t -> 'a -> unit

    val get : 'a t -> 'a
  end

  val sleep : int -> unit
end

type step =
  | Wait of int
  | Wait_any of int list
  | Signal of int
  | Broadcast of int
  | Put of int
  | Get
  | Sleep of int
  | Timed_wait of int list * int

let n_conditions = 3

(* The engine as it is: the per-process timeout, and delays that skip
   the queue when they are next anyway, behind the same signature. *)
module Timed = struct
  module Condition = struct
    include Sim.Condition

    let timed_wait_any ts d =
      Engine.arm_timeout d;
      List.iter listen ts;
      Engine.timed_park ();
      let r = Engine.timed_out () in
      Engine.disarm_timeout ();
      r
  end

  module Mailbox = Sim.Mailbox

  let sleep d = Engine.delay (Int64.of_int d)
end

(* Run one schedule: each process performs its steps in order, with
   [Sleep] spacing them out.  The trace records, in execution order, each
   step a process completes (with the clock) and the waiter counts of
   every condition after each signal or broadcast.  The mailbox's
   capacity is the schedule's first number. *)
let run_schedule (module S : SYNC) (capacity, procs) =
  let e = Engine.create () in
  engine := e;
  let conds = Array.init n_conditions (fun _ -> S.Condition.create ()) in
  let mb = S.Mailbox.create ~capacity () in
  let trace = ref [] in
  let note x = trace := x :: !trace in
  let counts () = Array.to_list (Array.map S.Condition.waiters conds) in
  List.iteri
    (fun id steps ->
      Engine.spawn e (fun () ->
          List.iteri
            (fun k step ->
              (match step with
              | Wait c -> S.Condition.wait conds.(c)
              | Wait_any cs ->
                  S.Condition.wait_any (List.map (fun c -> conds.(c)) cs)
              | Signal c ->
                  S.Condition.signal conds.(c);
                  note (-1 :: counts ())
              | Broadcast c ->
                  S.Condition.broadcast conds.(c);
                  note (-2 :: counts ())
              | Put v -> S.Mailbox.put mb v
              | Get -> note [ -3; S.Mailbox.get mb ]
              | Sleep d -> S.sleep d
              | Timed_wait (cs, d) ->
                  let expired =
                    S.Condition.timed_wait_any
                      (List.map (fun c -> conds.(c)) cs)
                      (Int64.of_int d)
                  in
                  note [ -4; Bool.to_int expired ]);
              note [ id; k; Int64.to_int (Engine.now e) ])
            steps))
    procs;
  Engine.run e;
  (List.rev !trace, counts (), Engine.now e, Engine.pending e)

let schedule_gen =
  let open QCheck.Gen in
  let cond = 0 -- (n_conditions - 1) in
  let step =
    frequency
      [
        (4, map (fun c -> Wait c) cond);
        (2, map (fun cs -> Wait_any cs) (list_size (1 -- n_conditions) cond));
        (3, map (fun c -> Signal c) cond);
        (2, map (fun c -> Broadcast c) cond);
        (2, map (fun v -> Put v) (0 -- 99));
        (2, return Get);
        (3, map (fun d -> Sleep d) (0 -- 20));
        ( 3,
          map2
            (fun cs d -> Timed_wait (cs, d))
            (list_size (0 -- n_conditions) cond)
            (0 -- 30) );
      ]
  in
  pair (1 -- 3) (list_size (1 -- 8) (list_size (0 -- 25) step))

let print_schedule (capacity, procs) =
  let step = function
    | Wait c -> Printf.sprintf "wait %d" c
    | Wait_any cs -> "wait_any " ^ String.concat "," (List.map string_of_int cs)
    | Signal c -> Printf.sprintf "signal %d" c
    | Broadcast c -> Printf.sprintf "broadcast %d" c
    | Put v -> Printf.sprintf "put %d" v
    | Get -> "get"
    | Sleep d -> Printf.sprintf "sleep %d" d
    | Timed_wait (cs, d) ->
        Printf.sprintf "timed_wait %s for %d"
          (String.concat "," (List.map string_of_int cs))
          d
  in
  Printf.sprintf "capacity %d\n%s" capacity
    (String.concat "\n"
       (List.mapi
          (fun i steps ->
            Printf.sprintf "p%d: %s" i
              (String.concat "; " (List.map step steps)))
          procs))

let prop_sync_matches_ref =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make
       ~name:"condition/mailbox: same wake order, waiters and clock as Ref"
       ~count:500
       (QCheck.make ~print:print_schedule schedule_gen)
       (fun sched ->
         run_schedule (module Timed) sched = run_schedule (module Ref) sched))

(* {1 Timed waits} *)

(* A firing that is no longer the armed one wakes nothing: neither after
   the wait it belonged to returned (the process is parked elsewhere),
   nor once a later wait re-armed the timeout. *)
let test_timed_wait_stale_firing () =
  let e = Engine.create () in
  let c = Condition.create () and other = Condition.create () in
  let log = ref [] in
  let note s = log := (s, Engine.now e) :: !log in
  Engine.spawn e (fun () ->
      let timed d =
        Engine.arm_timeout d;
        Condition.listen c;
        Engine.timed_park ();
        let r = Engine.timed_out () in
        Engine.disarm_timeout ();
        r
      in
      (* Woken by [c] at 10; its timeout, due at 100, goes stale. *)
      check_bool "first: woken, not timed out" false (timed 100L);
      note "first";
      (* Re-armed for 210: the stale firing at 100 must not end it. *)
      check_bool "second: woken, not timed out" false (timed 200L);
      note "second";
      (* A plain wait across the second call's stale firing at 210. *)
      Condition.wait other;
      note "other";
      (* Nothing wakes this one: its own timeout does, at 250 + 50. *)
      check_bool "third: timed out" true (timed 50L);
      note "third");
  Engine.spawn e (fun () ->
      Engine.delay 10L;
      Condition.broadcast c;
      Engine.delay 140L;
      Condition.broadcast c;
      Engine.delay 100L;
      Condition.broadcast other);
  Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "wake times"
    [ ("first", 10L); ("second", 150L); ("other", 250L); ("third", 300L) ]
    (List.rev !log);
  check "no event left" 0 (Engine.pending e)

(* A timed wait queues at most one event and allocates nothing beyond the
   suspended continuation (the 2 words of {!words_per_event_budget}), so
   a wait that times out costs one continuation and one that is woken
   costs the same. *)
let test_timed_wait_alloc () =
  let e = Engine.create () in
  let c = Condition.create () in
  let warm = 1000 and n = 20_000 in
  let words = ref 0. in
  Engine.spawn e (fun () ->
      let w0 = ref 0. in
      for i = 1 to warm + n do
        if i = warm + 1 then w0 := Gc.minor_words ();
        Engine.arm_timeout 5L;
        Condition.listen c;
        Engine.timed_park ();
        ignore (Engine.timed_out ());
        Engine.disarm_timeout ()
      done;
      words := Gc.minor_words () -. !w0);
  Engine.run e;
  let per_wait = !words /. float_of_int n in
  if per_wait > words_per_event_budget then
    Alcotest.failf "%.2f minor words per timed wait, budget %.0f" per_wait
      words_per_event_budget

(* Timed waits woken before their deadline leave no dead timeouts in the
   queue: each process keeps at most its one timeout event (plus its
   own resumption) queued.  The last disarmed deadline still holds the
   clock: the run ends there, as it did when every armed deadline left
   an event behind.  The wake period (7) does not divide the timeout, so
   the chain of re-queued timeout events does not land on the last
   deadline by accident. *)
let test_timed_wait_queue_bounded () =
  let e = Engine.create () in
  let waiters = 3 and rounds = 10_000 in
  let conds = Array.init waiters (fun _ -> Condition.create ()) in
  let last_deadline = ref 0L and max_pending = ref 0 and early = ref 0 in
  Array.iter
    (fun c ->
      Engine.spawn e (fun () ->
          for _ = 1 to rounds do
            Engine.arm_timeout 1_000L;
            last_deadline := Int64.add (Engine.now e) 1_000L;
            Condition.listen c;
            Engine.timed_park ();
            if not (Engine.timed_out ()) then incr early;
            Engine.disarm_timeout ()
          done))
    conds;
  Engine.spawn e (fun () ->
      for _ = 1 to rounds do
        Engine.delay 7L;
        max_pending := max !max_pending (Engine.pending e);
        Array.iter Condition.broadcast conds
      done);
  Engine.run e;
  check "every wait satisfied early" (waiters * rounds) !early;
  if !max_pending > 2 * (waiters + 1) then
    Alcotest.failf "%d events queued for %d processes" !max_pending
      (waiters + 1);
  check64 "final clock is the last armed deadline" !last_deadline
    (Engine.now e);
  check "drained" 0 (Engine.pending e)

(* Arming a deadline earlier than the queued timeout event queues a new
   one: it fires on time, and the superseded event fires into nothing. *)
let test_timed_wait_earlier_deadline () =
  let e = Engine.create () in
  let other = Condition.create () in
  let log = ref [] in
  let note s = log := (s, Engine.now e) :: !log in
  Engine.spawn e (fun () ->
      Engine.arm_timeout 1_000L;
      Engine.disarm_timeout ();
      Engine.arm_timeout 100L;
      Engine.timed_park ();
      check_bool "timed out" true (Engine.timed_out ());
      note "timeout";
      (* Superseded without a disarm, then parked across both earlier
         deadlines: neither may end this wait. *)
      Engine.arm_timeout 2_000L;
      Engine.arm_timeout 50L;
      Engine.disarm_timeout ();
      Condition.wait other;
      note "other");
  Engine.spawn e (fun () ->
      Engine.delay 1_500L;
      Condition.broadcast other);
  Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "wake times"
    [ ("timeout", 100L); ("other", 1_500L) ]
    (List.rev !log);
  check64 "clock runs to the latest deadline" 2_100L (Engine.now e)

(* A delay that is next anyway skips the queue; one landing on a queued
   event's time still runs after it, and [run ~until] and [stop] cut a
   chain of such delays where they cut queued ones. *)
let test_delay_fast_path () =
  let e = Engine.create () in
  let log = ref [] in
  let note s = log := (s, Engine.now e) :: !log in
  Engine.at e 10L (fun () -> note "event");
  Engine.spawn e (fun () ->
      Engine.delay 5L;
      note "earlier";
      Engine.delay 5L;
      note "same time";
      Engine.yield ();
      note "yield");
  Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "order"
    [ ("earlier", 5L); ("event", 10L); ("same time", 10L); ("yield", 10L) ]
    (List.rev !log);
  let e = Engine.create () in
  let times = ref [] in
  Engine.spawn e (fun () ->
      for i = 1 to 10 do
        Engine.delay 10L;
        times := Engine.now e :: !times;
        if i = 3 then Engine.stop e
      done);
  Engine.run e;
  Alcotest.(check (list int64)) "stop" [ 30L; 20L; 10L ] !times;
  check64 "stopped at 30" 30L (Engine.now e);
  Engine.run ~until:55L e;
  Alcotest.(check (list int64)) "until" [ 50L; 40L; 30L; 20L; 10L ] !times;
  check64 "clock at the horizon" 55L (Engine.now e);
  check "the next delay queued" 1 (Engine.pending e);
  Engine.run e;
  check "all ten" 10 (List.length !times);
  check64 "ran to the end" 100L (Engine.now e)

(* {1 Mailbox ring against a Queue} *)

type mb_op = Try_put of int | Try_get | Peek

let prop_mailbox_matches_queue =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (5, Gen.map (fun v -> Try_put v) (Gen.int_bound 999));
        (4, Gen.return Try_get);
        (1, Gen.return Peek);
      ]
  in
  let print_op = function
    | Try_put v -> Printf.sprintf "put %d" v
    | Try_get -> "get"
    | Peek -> "peek"
  in
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (Test.make ~name:"mailbox: ring matches a Queue through growth and wrap"
       ~count:500
       (make
          ~print:(Print.pair string_of_int (Print.list print_op))
          Gen.(pair (1 -- 40) (list_size (0 -- 300) op)))
       (fun (capacity, ops) ->
         let mb = Mailbox.create ~capacity () and q = Queue.create () in
         List.for_all
           (fun op ->
             let same =
               match op with
               | Try_put v ->
                   let fits = Queue.length q < capacity in
                   if fits then Queue.add v q;
                   Mailbox.try_put mb v = fits
               | Try_get -> Mailbox.try_get mb = Queue.take_opt q
               | Peek -> Mailbox.peek mb = Queue.peek_opt q
             in
             same
             && Mailbox.length mb = Queue.length q
             && Mailbox.is_empty mb = Queue.is_empty q
             && Mailbox.capacity mb = capacity)
           ops))

(* Put one fresh block, take it back and drop it: only a ring that
   cleared the vacated slot lets the GC collect it. *)
let[@inline never] put_and_take mb weak =
  let x = Bytes.make 16 'x' in
  Weak.set weak 0 (Some x);
  ignore (Mailbox.try_put mb x);
  ignore (Mailbox.try_get mb)

let test_mailbox_forgets_taken () =
  let mb = Mailbox.create () in
  let weak = Weak.create 1 in
  (* Wrap the ring once first, so the slot reused is not slot 0. *)
  for _ = 1 to 5 do
    ignore (Mailbox.try_put mb (Bytes.create 1));
    ignore (Mailbox.try_get mb)
  done;
  put_and_take mb weak;
  Gc.full_major ();
  check_bool "taken item collected" true (Weak.get weak 0 = None);
  check "empty" 0 (Mailbox.length mb)

(* {1 Lock} *)

let test_lock_mutual_exclusion () =
  let e = Engine.create () in
  let l = Lock.create () in
  let in_critical = ref 0 and max_seen = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        Lock.with_lock l (fun () ->
            incr in_critical;
            max_seen := max !max_seen !in_critical;
            Engine.delay 10L;
            decr in_critical))
  done;
  Engine.run e;
  check "never two holders" 1 !max_seen;
  check "contention recorded" 3 (Lock.contended l)

let test_lock_release_not_held () =
  let l = Lock.create () in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Lock.release: not held") (fun () -> Lock.release l)

let test_lock_with_lock_exception_releases () =
  let e = Engine.create () in
  let l = Lock.create () in
  Engine.spawn e (fun () ->
      (try Lock.with_lock l (fun () -> failwith "inside") with
      | Failure _ -> ());
      Alcotest.(check bool) "released after exception" false (Lock.held l));
  Engine.run e

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    check64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done

let test_rng_int_bad_bound () =
  let r = Rng.create ~seed:1L in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be > 0") (fun () ->
      ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create ~seed:9L in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:3L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* {1 Cycles} *)

let test_cycles_roundtrip () =
  Alcotest.(check (float 1e-6)) "sec roundtrip" 1.5
    (Cycles.to_sec (Cycles.of_sec 1.5))

let test_cycles_wire_rate () =
  (* 25 Gbps at 2.4 GHz: 0.768 cycles per byte. *)
  Alcotest.(check (float 1e-9)) "25G" 0.768 (Cycles.per_byte_at_gbps 25.

)

let suite =
  [
    ("engine: time advances with delay", `Quick, test_engine_time_advances);
    ("engine: processes interleave by time", `Quick, test_engine_interleaving);
    ("engine: same-time events are FIFO", `Quick, test_engine_fifo_same_time);
    ("engine: until horizon and resume", `Quick, test_engine_until);
    ("engine: stop ends run", `Quick, test_engine_stop);
    ("engine: at callback", `Quick, test_engine_at_callback);
    ("engine: past at runs immediately", `Quick, test_engine_past_at_runs_now);
    ("engine: events run in time, seq order", `Quick,
     test_engine_same_time_schedule_order);
    ("engine: heap growth", `Quick, test_engine_growth);
    ("engine: pending", `Quick, test_engine_pending);
    ("engine: allocation per event within budget", `Quick,
     test_engine_alloc_budget);
    ("engine: delay saturates at the end of time", `Quick,
     test_engine_delay_saturates);
    ("engine: process exception escapes run", `Quick,
     test_engine_exception_propagates);
    ("engine: delay outside process is no-op", `Quick,
     test_engine_delay_outside_process);
    ("engine: suspend outside process raises", `Quick,
     test_engine_suspend_outside_raises);
    ("engine: stats registry attached", `Quick, test_engine_stats);
    ("condition: signal wakes one", `Quick, test_condition_signal_wakes_one);
    ("condition: broadcast wakes all", `Quick,
     test_condition_broadcast_wakes_all);
    ("condition: broadcast wakes current waiters once, FIFO", `Quick,
     test_condition_broadcast_current_waiters);
    ("condition: wait_any", `Quick, test_condition_wait_any);
    ("condition: signal with no waiters", `Quick,
     test_condition_signal_no_waiters);
    ("condition: ring wraps and grows, FIFO", `Quick,
     test_condition_ring_wraps_and_grows);
    prop_sync_matches_ref;
    ("mailbox: fifo order", `Quick, test_mailbox_fifo);
    ("mailbox: get blocks until put", `Quick, test_mailbox_blocking_get);
    ("mailbox: put blocks at capacity", `Quick,
     test_mailbox_capacity_blocks_put);
    ("mailbox: try_put on full", `Quick, test_mailbox_try_put_full);
    ("mailbox: try_get on empty", `Quick, test_mailbox_try_get_empty);
    ("mailbox: peek", `Quick, test_mailbox_peek);
    ("lock: mutual exclusion", `Quick, test_lock_mutual_exclusion);
    ("lock: release unheld raises", `Quick, test_lock_release_not_held);
    ("lock: with_lock releases on exception", `Quick,
     test_lock_with_lock_exception_releases);
    ("rng: deterministic stream", `Quick, test_rng_deterministic);
    ("rng: int bounds", `Quick, test_rng_int_bounds);
    ("rng: int bad bound", `Quick, test_rng_int_bad_bound);
    ("rng: float bounds", `Quick, test_rng_float_bounds);
    ("rng: shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("cycles: sec roundtrip", `Quick, test_cycles_roundtrip);
    ("cycles: 25G wire rate", `Quick, test_cycles_wire_rate);
    ("engine: stale timeout firing is a no-op", `Quick,
     test_timed_wait_stale_firing);
    ("engine: timed wait allocates only its continuation", `Quick,
     test_timed_wait_alloc);
    prop_mailbox_matches_queue;
    ("mailbox: a taken item is not kept", `Quick, test_mailbox_forgets_taken);
    ("engine: timed waits leave at most one timeout queued", `Quick,
     test_timed_wait_queue_bounded);
    ("engine: an earlier deadline armed later fires on time", `Quick,
     test_timed_wait_earlier_deadline);
    ("engine: a delay next anyway skips the queue", `Quick,
     test_delay_fast_path);
    ("engine: native clock, at_clock and arm_timeout_at", `Quick,
     test_engine_native_clock);
  ]
