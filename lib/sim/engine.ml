type time = int64

exception Not_in_process

exception Suspend_in_actor

(* Events are ints.  Process [p]'s resumption is code [2 * pid], its
   timeout firing [2 * pid + 1]; a callback ({!at}, {!at_clock}, a
   {!spawn}'s start) lives in slot [s] of [slots] and is code
   [-(s + 1)].  Scheduling an event therefore stores only ints, which
   neither allocate nor pass through the write barrier.

   An event waits in one of two queues.  The heap is a 4-ary min-heap
   over (time, seq) in one flat int array: entry [i] is the triple at
   [3 * i], event [heap.(3i + 2)] due at [heap.(3i)], scheduled
   [heap.(3i + 1)]-th.  The ready ring is a FIFO of events due at the
   current clock, in (seq) order: an event goes there when it is due
   now and its [seq] is above the ring tail's, which is every wake,
   spawn and yield.  Nothing in the ring is ever due later than
   [clock], and the clock never moves back: it moves only by running
   the earliest event or to a [run ~until] horizon, which is never
   behind it.  [seq] is unique per engine, so the order is
   total, and running whichever of the ring head and the heap minimum
   comes first on (time, seq) runs events in exactly the order one
   queue would.  Times are kept as native ints (simulated cycles stay
   far below 2^62); [now] is the same clock boxed for the public API,
   boxed lazily: it is valid while [boxed = clock], and the first
   {!now} after the clock moves re-boxes it. *)
type t = {
  mutable now : time;
  mutable boxed : int;
  mutable clock : int;
  mutable seq : int;
  mutable len : int;
  mutable heap : int array;  (* [3 * capacity] *)
  mutable r_head : int;
  mutable r_len : int;
  mutable r_seqs : int array;  (* capacity a power of two *)
  mutable r_codes : int array;
  mutable slots : (unit -> unit) array;
  mutable free_slots : int array;  (* a stack of free [slots] indices *)
  mutable n_free_slots : int;
  mutable n_slots : int;  (* slots ever used *)
  mutable procs : process array;  (* by pid *)
  mutable free_pids : int array;  (* a stack, like [free_slots] *)
  mutable n_free_pids : int;
  mutable n_pids : int;
  mutable running : int;  (* [seq] of the event being run *)
  mutable stopped : bool;
  mutable horizon : int;  (* the running {!run}'s [until], native *)
  mutable wake_at : int;  (* due time of the delay being performed *)
  mutable fibers : int;  (* spawned and not yet returned *)
  mutable inline : bool;  (* the running actor's charge came due at once *)
  mutable cur : int;  (* pid of the running process; -1: none *)
  stats : Obs.Metrics.t;
  some : t option;  (* [Some t], allocated once: what a run installs *)
}

(* A process waits on at most one event at a time, so everything a
   suspension needs is built once, at spawn: a suspension stores only
   its continuation in [k] (a delay hands its due time to the handler
   in the engine's [wake_at]); while the process runs, [k] is
   {!sentinel}.  [wakes] numbers the suspensions: the one in progress
   is number [wakes], and {!wake} of any other number is stale.  A
   process that returned has [wakes = finished], so every wake is.

   The process's one timeout is built once too.  Arming it takes a
   [seq] and records the armed key [(timeout_at, timeout_seq)]; its
   firing is queued only when the process has no timeout event queued,
   or when the new deadline is earlier than the queued one, whose key
   is [(queued_at, queued_seq)].  A queued event that runs while a
   later timeout is armed re-queues itself at the armed key, so the
   armed timeout fires at exactly the (time, seq) an event pushed at
   arming would have run at.  A firing is live only while the engine
   runs the armed key, so re-arming or disarming turns every older
   firing into a no-op without touching the queue.  A live firing sets
   [timeout_seq] to [fired] and wakes suspension [timeout_n], the one
   {!timed_park} entered (-1: none, so a firing during a delay wakes
   nothing).  With nothing armed, the queued event re-queues once as a
   no-op ghost at [(ghost_at, ghost_seq)], the last key ever armed in
   (time, seq) order, unless that key has run: one queued event per
   armed deadline would leave the same last event, so [run ~until],
   {!stop} and the final clock find the queue as it would.  An event superseded by
   an earlier deadline stays queued untracked ([queued_seq] no longer
   names it) and runs as a no-op.

   A finished process's pid is reused once no tracked timeout event of
   its is queued.  An untracked one may still run after that, as a
   firing of the new process whose [seq] that process never armed: the
   same no-op.

   An actor is a process without a stack: [k] stays {!sentinel} and
   its resumption event calls a stage instead.  Its [stages] say which:
   [next] when [charged] ({!charge} queued the event), else [resume],
   the actor's wake stage.  A charge whose event would run next anyway
   sets the engine's [inline] instead of queueing, and the dispatch
   loop runs [next] at once.  Every fiber shares {!no_stages}. *)
and process = {
  engine : t;
  pid : int;
  stages : stages;
  mutable k : (unit, unit) Effect.Deep.continuation;
  mutable wakes : int;
  mutable timeout_at : int;
  mutable timeout_seq : int;  (* or [disarmed] or [fired] *)
  mutable queued_at : int;
  mutable queued_seq : int;  (* -1: none queued *)
  mutable ghost_at : int;
  mutable ghost_seq : int;
  mutable timeout_n : int;
}

and stages = {
  name : string;
  mutable next : unit -> unit;
  mutable resume : unit -> unit;
  mutable charged : bool;
}

let disarmed = -1

let fired = -2

let finished = min_int

type _ Effect.t +=
  | Delay : unit Effect.t
  | Park : unit Effect.t
  | Capture : unit Effect.t

(* A continuation captured once and never resumed: what a running
   process's [k] holds, so storing a suspension allocates no option. *)
let sentinel : (unit, unit) Effect.Deep.continuation =
  let open Effect.Deep in
  let captured = ref None in
  let keep (k : (unit, unit) continuation) = captured := Some k in
  match_with (fun () -> Effect.perform Capture) ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Capture -> (Some keep : ((a, unit) continuation -> unit) option)
          | _ -> None);
    };
  match !captured with Some k -> k | None -> assert false

let nop () = ()

let no_stages = { name = "fiber"; next = nop; resume = nop; charged = false }

let[@inline] is_actor p = p.stages != no_stages

(* {1 Event heap}

   Entry [i]'s children are entries [4i + 1] to [4i + 4], its parent
   entry [(i - 1) / 4]: half the depth of a binary heap, and a node's
   children side by side in memory.  Every comparison and array access
   is typed [int], so it compiles to a machine compare or load, not a
   call to the polymorphic compare or to a generic array primitive. *)

(* Whether [(time, seq)] runs before [(time', seq')]. *)
let[@inline] earlier (time : int) (seq : int) (time' : int) (seq' : int) =
  time < time' || (time = time' && seq < seq')

let extend a used cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 used;
  b

let[@inline] fill (h : int array) i time seq code =
  let b = 3 * i in
  h.(b) <- time;
  h.(b + 1) <- seq;
  h.(b + 2) <- code

(* Move entry [src] into entry [dst]. *)
let[@inline] move (h : int array) ~src ~dst =
  let s = 3 * src and d = 3 * dst in
  h.(d) <- h.(s);
  h.(d + 1) <- h.(s + 1);
  h.(d + 2) <- h.(s + 2)

(* Move the hole at [i] up until its parent runs before [(time, seq)],
   then fill it. *)
let rec sift_up h i time seq code =
  if i = 0 then fill h 0 time seq code
  else
    let p = (i - 1) lsr 2 in
    if earlier time seq h.(3 * p) h.((3 * p) + 1) then begin
      move h ~src:p ~dst:i;
      sift_up h p time seq code
    end
    else fill h i time seq code

(* Move the hole at [i] down until every child runs after
   [(time, seq)], then fill it; [len] entries are in use. *)
let rec sift_down h len i time seq code =
  let first = (4 * i) + 1 in
  if first >= len then fill h i time seq code
  else begin
    let last = if first + 3 < len then first + 3 else len - 1 in
    let c = ref first in
    let ct = ref h.(3 * first) and cs = ref h.((3 * first) + 1) in
    for j = first + 1 to last do
      let jt = h.(3 * j) and js = h.((3 * j) + 1) in
      if earlier jt js !ct !cs then begin
        c := j;
        ct := jt;
        cs := js
      end
    done;
    if earlier !ct !cs time seq then begin
      move h ~src:!c ~dst:i;
      sift_down h len !c time seq code
    end
    else fill h i time seq code
  end

(* Queue [code] at [(time, seq)] in the heap; [seq] must be one no
   queued event has. *)
let push_heap t time seq code =
  if 3 * t.len = Array.length t.heap then
    t.heap <- extend t.heap (3 * t.len) (2 * Array.length t.heap) 0;
  t.len <- t.len + 1;
  sift_up t.heap (t.len - 1) time seq code

(* Remove the earliest heap event and return its code. *)
let pop_heap t =
  let h = t.heap in
  let code = h.(2) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then
    sift_down h last 0 h.(3 * last) h.((3 * last) + 1) h.((3 * last) + 2);
  code

(* {1 Ready ring} *)

let ring_push t seq code =
  let cap = Array.length t.r_seqs in
  if t.r_len = cap then begin
    (* Unwrap into a ring twice the size, head at 0. *)
    let seqs = Array.make (2 * cap) 0 and codes = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      let j = (t.r_head + i) land (cap - 1) in
      seqs.(i) <- t.r_seqs.(j);
      codes.(i) <- t.r_codes.(j)
    done;
    t.r_seqs <- seqs;
    t.r_codes <- codes;
    t.r_head <- 0
  end;
  let i = (t.r_head + t.r_len) land (Array.length t.r_seqs - 1) in
  t.r_seqs.(i) <- seq;
  t.r_codes.(i) <- code;
  t.r_len <- t.r_len + 1

let ring_pop t =
  let code = t.r_codes.(t.r_head) in
  t.r_head <- (t.r_head + 1) land (Array.length t.r_seqs - 1);
  t.r_len <- t.r_len - 1;
  code

let ring_tail_seq t =
  t.r_seqs.((t.r_head + t.r_len - 1) land (Array.length t.r_seqs - 1))

(* Queue [code] at [(time, seq)]: in the ring when that keeps it in
   (seq) order of events due now, in the heap otherwise. *)
let schedule t time seq code =
  if time = t.clock && (t.r_len = 0 || seq > ring_tail_seq t) then
    ring_push t seq code
  else push_heap t time seq code

let push t time code =
  t.seq <- t.seq + 1;
  schedule t time t.seq code

(* {1 Callback slots} *)

let add_slot t f =
  let s =
    if t.n_free_slots > 0 then begin
      t.n_free_slots <- t.n_free_slots - 1;
      t.free_slots.(t.n_free_slots)
    end
    else begin
      let s = t.n_slots in
      if s = Array.length t.slots then begin
        let cap = 2 * s in
        t.slots <- extend t.slots s cap nop;
        t.free_slots <- extend t.free_slots 0 cap 0
      end;
      t.n_slots <- s + 1;
      s
    end
  in
  t.slots.(s) <- f;
  -(s + 1)

(* Empty slot [s] before its callback runs, so the queue never keeps a
   finished closure alive. *)
let take_slot t s =
  let f = t.slots.(s) in
  t.slots.(s) <- nop;
  t.free_slots.(t.n_free_slots) <- s;
  t.n_free_slots <- t.n_free_slots + 1;
  f

(* {1 Clock} *)

let max_time = Int64.of_int max_int

(* Times beyond the native range (never reached by a run) sort last. *)
let[@inline] native time =
  if Int64.compare time max_time >= 0 then max_int else Int64.to_int time

(* A duration as a native count: none if not positive. *)
let[@inline] cycles d = if Int64.compare d 0L <= 0 then 0 else native d

(* [d] cycles from now, saturating at the far end. *)
let[@inline] after t d =
  if d <= 0 then t.clock
  else if d > max_int - t.clock then max_int
  else t.clock + d

let create () =
  let rec t =
    {
      now = 0L;
      boxed = 0;
      clock = 0;
      seq = 0;
      len = 0;
      heap = Array.make (3 * 64) 0;
      r_head = 0;
      r_len = 0;
      r_seqs = Array.make 64 0;
      r_codes = Array.make 64 0;
      slots = Array.make 64 nop;
      free_slots = Array.make 64 0;
      n_free_slots = 0;
      n_slots = 0;
      procs = [||];
      free_pids = [||];
      n_free_pids = 0;
      n_pids = 0;
      running = 0;
      stopped = false;
      horizon = max_int;
      wake_at = 0;
      fibers = 0;
      inline = false;
      cur = -1;
      stats = Obs.Metrics.create ();
      some = Some t;
    }
  in
  t

(* The engine whose run is in progress, so the argument-free
   [delay]/[park] API finds the running process, its [cur]; the effects
   themselves are handled by the handler [spawn] installed. *)
let active : t option ref = ref None

let now t =
  if t.boxed <> t.clock then begin
    t.now <- Int64.of_int t.clock;
    t.boxed <- t.clock
  end;
  t.now

let clock t = t.clock

let stats t = t.stats

let at_clock t time f =
  push t (if time < t.clock then t.clock else time) (add_slot t f)

let at t time f = at_clock t (native time) f

let pending t = t.len + t.r_len

(* {1 Processes} *)

(* Whether an event due at [w] and scheduled now would be the next one
   the run loop runs. *)
let[@inline] next_anyway t w =
  w <= t.horizon && t.r_len = 0 && (t.len = 0 || w < t.heap.(0)) && not t.stopped

let delay_cycles d =
  (* Outside any process (e.g. environment boot code running before the
     simulation starts) time cannot advance: treat the charge as free
     rather than failing — setup costs are not part of any measurement
     window.  Parking, by contrast, is always an error there. *)
  match !active with
  | Some t when t.cur >= 0 ->
      if is_actor t.procs.(t.cur) then raise Suspend_in_actor;
      let w = after t d in
      if next_anyway t w then begin
        (* The resumption would be the next event the run loop runs:
           nothing queued comes first, the loop would not stop before
           it, and it would run at [w].  Take its [seq] and time and
           carry on without queueing it. *)
        t.seq <- t.seq + 1;
        t.running <- t.seq;
        t.clock <- w
      end
      else begin
        t.wake_at <- w;
        Effect.perform Delay
      end
  | _ -> ()

let delay d = delay_cycles (cycles d)

let yield () = delay_cycles 0

let self () =
  match !active with
  | Some t when t.cur >= 0 -> t.procs.(t.cur)
  | _ -> raise Not_in_process

(* The calling process, which must be able to suspend. *)
let fiber () =
  let p = self () in
  if is_actor p then raise Suspend_in_actor;
  p

let suspension p = p.wakes

let park () =
  ignore (fiber ());
  Effect.perform Park

(* Suspension [n] is woken at most once, and never after a later
   suspension began. *)
let wake p n =
  if p.wakes = n then begin
    p.wakes <- n + 1;
    push p.engine p.engine.clock (2 * p.pid)
  end

let[@inline] arm p at =
  let t = p.engine in
  t.seq <- t.seq + 1;
  p.timeout_at <- at;
  p.timeout_seq <- t.seq;
  p.timeout_n <- -1;
  if at >= p.ghost_at then begin
    p.ghost_at <- at;
    p.ghost_seq <- t.seq
  end;
  if p.queued_seq < 0 || at < p.queued_at then begin
    p.queued_at <- at;
    p.queued_seq <- t.seq;
    schedule t at t.seq ((2 * p.pid) + 1)
  end

let arm_timeout d =
  let p = fiber () in
  arm p (after p.engine (cycles d))

let arm_timeout_at at =
  let p = fiber () in
  arm p (if at < p.engine.clock then p.engine.clock else at)

let disarm_timeout () =
  match !active with
  | Some t when t.cur >= 0 ->
      let p = t.procs.(t.cur) in
      if p.timeout_seq >= 0 then p.timeout_seq <- disarmed
  | _ -> ()

let timed_out () =
  match !active with
  | Some t when t.cur >= 0 -> t.procs.(t.cur).timeout_seq = fired
  | _ -> false

let timed_park () =
  let p = fiber () in
  p.timeout_n <- p.wakes;
  Effect.perform Park

let release_pid t p =
  t.free_pids.(t.n_free_pids) <- p.pid;
  t.n_free_pids <- t.n_free_pids + 1

(* A re-queued timeout keeps its armed [seq], which may be below the
   ring tail's, so it always goes to the heap. *)
let requeue p at seq =
  p.queued_at <- at;
  p.queued_seq <- seq;
  push_heap p.engine at seq ((2 * p.pid) + 1)

let fire p =
  let t = p.engine in
  if t.running = p.queued_seq then begin
    p.queued_seq <- -1;
    if t.running = p.timeout_seq then begin
      p.timeout_seq <- fired;
      wake p p.timeout_n
    end;
    if p.timeout_seq >= 0 then requeue p p.timeout_at p.timeout_seq
    else if
      p.ghost_at > t.clock || (p.ghost_at = t.clock && p.ghost_seq > t.running)
    then requeue p p.ghost_at p.ghost_seq
    else if p.wakes = finished then release_pid t p
  end

let finish p =
  p.engine.fibers <- p.engine.fibers - 1;
  p.wakes <- finished;
  if p.queued_seq < 0 then release_pid p.engine p

let stop t = t.stopped <- true

let resume p =
  let k = p.k in
  assert (k != sentinel);
  p.k <- sentinel;
  p.engine.cur <- p.pid;
  Effect.Deep.continue k ()

let new_pid t =
  if t.n_free_pids > 0 then begin
    t.n_free_pids <- t.n_free_pids - 1;
    t.free_pids.(t.n_free_pids)
  end
  else begin
    t.n_pids <- t.n_pids + 1;
    t.n_pids - 1
  end

let install t p =
  let cap = Array.length t.procs in
  if p.pid = cap then begin
    let cap = max 16 (2 * cap) in
    t.procs <- extend t.procs p.pid cap p;
    t.free_pids <- extend t.free_pids 0 cap 0
  end;
  t.procs.(p.pid) <- p

let make t stages =
  let pid = new_pid t in
  let p =
    {
      engine = t;
      pid;
      stages;
      k = sentinel;
      wakes = 0;
      timeout_at = 0;
      timeout_seq = disarmed;
      queued_at = 0;
      queued_seq = -1;
      ghost_at = 0;
      ghost_seq = 0;
      timeout_n = -1;
    }
  in
  install t p;
  p

let spawn t ?(name = "proc") f =
  let open Effect.Deep in
  let p = make t no_stages in
  t.fibers <- t.fibers + 1;
  let on_delay =
    Some
      (fun k ->
        p.k <- k;
        push t t.wake_at (2 * p.pid))
  in
  let on_park = Some (fun k -> p.k <- k) in
  let body () =
    match_with f ()
      {
        retc = (fun () -> finish p);
        exnc =
          (fun e ->
            let bt = Printexc.get_raw_backtrace () in
            Logs.err (fun m ->
                m "process %s died: %s" name (Printexc.to_string e));
            Printexc.raise_with_backtrace e bt);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Delay -> (on_delay : ((a, unit) continuation -> unit) option)
            | Park -> (on_park : ((a, unit) continuation -> unit) option)
            | _ -> None);
      }
  in
  at_clock t t.clock (fun () ->
      t.cur <- p.pid;
      body ())

let actor t ?(name = "actor") build =
  let p = make t { name; next = nop; resume = nop; charged = false } in
  let stage = build p in
  p.stages.resume <- stage;
  p.stages.next <- stage;
  (* Its start takes the [seq] a {!spawn}'s start would. *)
  push t t.clock (2 * p.pid);
  p

(* Run the stage an actor's event stands for, then every stage a
   charge made due at once. *)
let run_actor t p =
  t.cur <- p.pid;
  let a = p.stages in
  match
    if a.charged then begin
      a.charged <- false;
      a.next ()
    end
    else a.resume ();
    while t.inline do
      t.inline <- false;
      a.next ()
    done
  with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Logs.err (fun m -> m "actor %s died: %s" a.name (Printexc.to_string e));
      Printexc.raise_with_backtrace e bt

let charge p d stage =
  let t = p.engine in
  if t.cur = p.pid && is_actor p then begin
    let w = after t d in
    let a = p.stages in
    (* A loop charges the same stage again and again: skip the write
       barrier then. *)
    if a.next != stage then a.next <- stage;
    if next_anyway t w then begin
      (* As in {!delay_cycles}: the event's [seq] and time, no queue. *)
      t.seq <- t.seq + 1;
      t.running <- t.seq;
      t.clock <- w;
      t.inline <- true
    end
    else begin
      a.charged <- true;
      push t w (2 * p.pid)
    end
  end
  else
    match !active with
    | Some t when t.cur >= 0 ->
        delay_cycles d;
        stage ()
    | _ -> stage ()

let fibers t = t.fibers

let dispatch t code =
  if code >= 0 then begin
    let p = t.procs.(code lsr 1) in
    if code land 1 = 1 then fire p
    else if is_actor p then run_actor t p
    else resume p
  end
  else begin
    (* A callback runs outside any process. *)
    t.cur <- -1;
    (take_slot t (-code - 1)) ()
  end

let run ?until t =
  let horizon =
    match until with
    | None -> max_int
    | Some u -> native u
  in
  let rec loop () =
    if t.stopped then ()
    else
      let from_ring =
        t.r_len > 0
        && not
             (t.len > 0 && earlier t.heap.(0) t.heap.(1) t.clock t.r_seqs.(t.r_head))
      in
      if (not from_ring) && t.len = 0 then ()
      else
        let time = if from_ring then t.clock else t.heap.(0) in
        if time > horizon then begin
          (* Leave future events queued so a later [run] can resume.
             Only a heap event can be due after the horizon, and then
             the ring is empty: its events are due at the clock, which
             is no later than the horizon. *)
          match until with
          | Some u ->
              t.clock <- horizon;
              t.now <- u;
              t.boxed <- horizon
          | None -> ()
        end
        else begin
          let code =
            if from_ring then begin
              t.running <- t.r_seqs.(t.r_head);
              ring_pop t
            end
            else begin
              t.running <- t.heap.(1);
              pop_heap t
            end
          in
          t.clock <- time;
          (* A process event makes its process [cur], and it stays so
             until the next event replaces it. *)
          dispatch t code;
          loop ()
        end
  in
  (* A horizon behind the clock has passed: nothing is due before it,
     and the clock does not move back to it. *)
  if horizon >= t.clock then begin
    t.stopped <- false;
    t.horizon <- horizon;
    let caller = !active and cur = t.cur in
    active := t.some;
    match loop () with
    | () ->
        t.cur <- cur;
        active := caller
    | exception e ->
        t.cur <- cur;
        active := caller;
        raise e
  end

let in_process () =
  match !active with
  | Some t when t.cur >= 0 -> not (is_actor t.procs.(t.cur))
  | _ -> false
