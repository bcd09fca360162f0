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
  mutable stopped : bool;
  stats : Obs.Metrics.t;
}

(* A process waits on at most one event at a time, so everything a
   suspension needs is built once, at spawn: a suspension stores only
   its continuation in [k], and a delay its due time in [wake_at].
   [wakes] numbers the suspensions: the one in progress is number
   [wakes], and {!wake} of any other number is stale. *)
type process = {
  engine : t;
  mutable k : (unit, unit) Effect.Deep.continuation option;
  mutable wakes : int;
  mutable wake_at : int;
  resume : unit -> unit;
  self : process option;
      (* [Some p], allocated once: the ambient process a resumption
         installs. *)
}

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

let push t time f =
  if t.len = Array.length t.times then grow t;
  t.seq <- t.seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) time t.seq f

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
    stopped = false;
    stats = Obs.Metrics.create ();
  }

let now t =
  if t.boxed <> t.clock then begin
    t.now <- Int64.of_int t.clock;
    t.boxed <- t.clock
  end;
  t.now

let stats t = t.stats

let at t time f = push t (due t time) f

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
      p.wake_at <- after p.engine d;
      Effect.perform Delay

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
      wake_at = 0;
      resume = (fun () -> resume p ());
      self = Some p;
    }
  in
  let on_delay =
    Some
      (fun k ->
        p.k <- Some k;
        push t p.wake_at p.resume)
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
