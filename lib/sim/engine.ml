type time = int64

exception Not_in_process

(* The event queue is a binary min-heap over (time, seq) kept as three
   parallel arrays, so pushing, popping and sifting allocate nothing:
   slot [i] is the event [fns.(i)] due at [times.(i)], scheduled
   [seqs.(i)]-th.  [seq] is unique per engine, so the order is total and
   any correct heap pops events in exactly the same sequence.  Times are
   kept as native ints (simulated cycles stay far below 2^62); [now] is
   the same clock boxed for the public API, boxed lazily: it is valid
   while [boxed = clock], and the first {!now} after the clock moves
   re-boxes it. *)
type t = {
  mutable now : time;
  mutable boxed : int;
  mutable clock : int;
  mutable seq : int;
  mutable len : int;
  mutable times : int array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable running : int;  (* [seq] of the event being run *)
  mutable stopped : bool;
  mutable horizon : int;  (* the running {!run}'s [until], native *)
  mutable wake_at : int;  (* due time of the delay being performed *)
  stats : Obs.Metrics.t;
}

(* A process waits on at most one event at a time, so everything a
   suspension needs is built once, at spawn: a suspension stores only
   its continuation in [k] (a delay hands its due time to the handler
   in the engine's [wake_at]).  [wakes] numbers the suspensions: the
   one in progress is number [wakes], and {!wake} of any other number
   is stale.

   The process's one timeout is built once too.  Arming it takes a
   [seq] and records the armed key [(timeout_at, timeout_seq)]; the
   prebuilt [fire] callback is queued only when the process has no
   timeout event queued, or when the new deadline is earlier than the
   queued one, whose key is [(queued_at, queued_seq)].  A queued event
   that runs while a later timeout is armed re-queues itself at the
   armed key, so the armed timeout fires at exactly the (time, seq) an
   event pushed at arming would have run at.  A firing is live only
   while the engine runs the armed key, so re-arming or disarming turns
   every older firing into a no-op without touching the heap.  A live
   firing sets [timeout_seq] to [fired] and wakes suspension
   [timeout_n], the one {!timed_park} entered (-1: none, so a firing
   during a delay wakes nothing).  With nothing armed, the queued event
   re-queues once as a no-op ghost at [ghost_at], the latest deadline
   ever armed, which keeps [run ~until] and the final clock exactly
   where one queued event per armed deadline would leave them.  An
   event superseded by an earlier deadline stays queued untracked
   ([queued_seq] no longer names it) and runs as a no-op. *)
type process = {
  engine : t;
  mutable k : (unit, unit) Effect.Deep.continuation option;
  mutable wakes : int;
  mutable timeout_at : int;
  mutable timeout_seq : int;  (* or [disarmed] or [fired] *)
  mutable queued_at : int;
  mutable queued_seq : int;  (* -1: none queued *)
  mutable ghost_at : int;
  mutable timeout_n : int;
  resume : unit -> unit;
  fire : unit -> unit;
  self : process option;
      (* [Some p], allocated once: the ambient process a resumption
         installs. *)
}

let disarmed = -1

let fired = -2

type _ Effect.t += Delay : unit Effect.t | Park : unit Effect.t

(* The process currently running, so the argument-free
   [delay]/[park] API works; the effects themselves are handled by the
   handler [spawn] installed. *)
let current : process option ref = ref None

let nop () = ()

(* {1 Event heap} *)

let set_slot t i time seq f =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.fns.(i) <- f

let move_slot t ~src ~dst =
  set_slot t dst t.times.(src) t.seqs.(src) t.fns.(src)

(* Whether slot [i] runs before an event at [(time, seq)]. *)
let before t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

let grow t =
  let cap = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.fns <- extend t.fns nop

(* Move the hole at [i] up until its parent runs before [(time, seq)],
   then fill it. *)
let rec sift_up t i time seq f =
  let p = (i - 1) / 2 in
  if i > 0 && not (before t p time seq) then begin
    move_slot t ~src:p ~dst:i;
    sift_up t p time seq f
  end
  else set_slot t i time seq f

(* Move the hole at [i] down until both children run after
   [(time, seq)], then fill it. *)
let rec sift_down t i time seq f =
  let l = (2 * i) + 1 in
  if l >= t.len then set_slot t i time seq f
  else
    let c =
      if l + 1 < t.len && before t (l + 1) t.times.(l) t.seqs.(l) then l + 1
      else l
    in
    if before t c time seq then begin
      move_slot t ~src:c ~dst:i;
      sift_down t c time seq f
    end
    else set_slot t i time seq f

(* Queue [f] at [(time, seq)]; [seq] must be one no queued event has. *)
let push_key t time seq f =
  if t.len = Array.length t.times then grow t;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) time seq f

let push t time f =
  t.seq <- t.seq + 1;
  push_key t time t.seq f

(* Remove and return the earliest event.  The vacated slot drops its
   callback so the heap never keeps a finished closure alive. *)
let pop t =
  let f = t.fns.(0) in
  let last = t.len - 1 in
  t.len <- last;
  let f_last = t.fns.(last) in
  t.fns.(last) <- nop;
  if last > 0 then sift_down t 0 t.times.(last) t.seqs.(last) f_last;
  f

(* {1 Clock} *)

let max_time = Int64.of_int max_int

(* Times beyond the native range (never reached by a run) sort last. *)
let[@inline] native time =
  if Int64.compare time max_time >= 0 then max_int else Int64.to_int time

(* An event time as queued: past times run now. *)
let[@inline] due t time =
  let time = native time in
  if time < t.clock then t.clock else time

(* [d] cycles from now, saturating at the far end like {!due}. *)
let after t d =
  if Int64.compare d 0L <= 0 then t.clock
  else
    let d = native d in
    if d > max_int - t.clock then max_int else t.clock + d

let create () =
  {
    now = 0L;
    boxed = 0;
    clock = 0;
    seq = 0;
    len = 0;
    times = Array.make 64 0;
    seqs = Array.make 64 0;
    fns = Array.make 64 nop;
    running = 0;
    stopped = false;
    horizon = max_int;
    wake_at = 0;
    stats = Obs.Metrics.create ();
  }

let now t =
  if t.boxed <> t.clock then begin
    t.now <- Int64.of_int t.clock;
    t.boxed <- t.clock
  end;
  t.now

let clock t = t.clock

let stats t = t.stats

let at t time f = push t (due t time) f

let at_clock t time f = push t (if time < t.clock then t.clock else time) f

let pending t = t.len

(* {1 Processes} *)

let delay d =
  (* Outside any process (e.g. environment boot code running before the
     simulation starts) time cannot advance: treat the charge as free
     rather than failing — setup costs are not part of any measurement
     window.  Parking, by contrast, is always an error there. *)
  match !current with
  | None -> ()
  | Some p ->
      let t = p.engine in
      let w = after t d in
      if w <= t.horizon && (t.len = 0 || w < t.times.(0)) && not t.stopped
      then begin
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

let yield () = delay 0L

let self () =
  match !current with None -> raise Not_in_process | Some p -> p

let suspension p = p.wakes

let park () =
  match !current with
  | None -> raise Not_in_process
  | Some _ -> Effect.perform Park

(* Suspension [n] is woken at most once, and never after a later
   suspension began. *)
let wake p n =
  if p.wakes = n then begin
    p.wakes <- n + 1;
    push p.engine p.engine.clock p.resume
  end

let[@inline] arm p at =
  let t = p.engine in
  t.seq <- t.seq + 1;
  p.timeout_at <- at;
  p.timeout_seq <- t.seq;
  p.timeout_n <- -1;
  if at > p.ghost_at then p.ghost_at <- at;
  if p.queued_seq < 0 || at < p.queued_at then begin
    p.queued_at <- at;
    p.queued_seq <- t.seq;
    push_key t at t.seq p.fire
  end

let arm_timeout d =
  let p = self () in
  arm p (after p.engine d)

let arm_timeout_at at =
  let p = self () in
  arm p (if at < p.engine.clock then p.engine.clock else at)

let disarm_timeout () =
  match !current with
  | Some p when p.timeout_seq >= 0 -> p.timeout_seq <- disarmed
  | _ -> ()

let timed_out () =
  match !current with None -> false | Some p -> p.timeout_seq = fired

let timed_park () =
  let p = self () in
  p.timeout_n <- p.wakes;
  Effect.perform Park

let requeue p at seq =
  p.queued_at <- at;
  p.queued_seq <- seq;
  push_key p.engine at seq p.fire

let fire p () =
  let t = p.engine in
  if t.running = p.queued_seq then begin
    p.queued_seq <- -1;
    if t.running = p.timeout_seq then begin
      p.timeout_seq <- fired;
      wake p p.timeout_n
    end;
    if p.timeout_seq >= 0 then requeue p p.timeout_at p.timeout_seq
    else if p.ghost_at > t.clock then begin
      t.seq <- t.seq + 1;
      requeue p p.ghost_at t.seq
    end
  end

let stop t = t.stopped <- true

let resume p () =
  match p.k with
  | None -> assert false
  | Some k ->
      p.k <- None;
      current := p.self;
      Effect.Deep.continue k ()

let spawn t ?(name = "proc") f =
  let open Effect.Deep in
  let rec p =
    {
      engine = t;
      k = None;
      wakes = 0;
      timeout_at = 0;
      timeout_seq = disarmed;
      queued_at = 0;
      queued_seq = -1;
      ghost_at = 0;
      timeout_n = -1;
      resume = (fun () -> resume p ());
      fire = (fun () -> fire p ());
      self = Some p;
    }
  in
  let on_delay =
    Some
      (fun k ->
        p.k <- Some k;
        push t t.wake_at p.resume)
  in
  let on_park = Some (fun k -> p.k <- Some k) in
  let body () =
    match_with f ()
      {
        retc = (fun () -> ());
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
  push t t.clock (fun () ->
      current := p.self;
      body ())

let run ?until t =
  t.stopped <- false;
  let horizon =
    match until with
    | None -> max_int
    | Some u -> native u
  in
  t.horizon <- horizon;
  let rec loop () =
    if t.stopped || t.len = 0 then ()
    else
      let time = t.times.(0) in
      if time > horizon then begin
        (* Leave future events queued so a later [run] can resume. *)
        match until with
        | Some u ->
            t.clock <- horizon;
            t.now <- u;
            t.boxed <- horizon
        | None -> ()
      end
      else begin
        t.running <- t.seqs.(0);
        let f = pop t in
        t.clock <- time;
        let saved = !current in
        (match f () with
        | () -> current := saved
        | exception e ->
            current := saved;
            raise e);
        loop ()
      end
  in
  loop ()

let in_process () = !current <> None
