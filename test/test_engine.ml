(* [Sim.Engine]'s event core: order equivalence against a reference
   scheduler, and what a suspension allocates.

   The engine keeps two queues (an int-coded heap and a ready ring for
   events due now), lets a delay that is next anyway skip both, and
   keeps one timeout event per process however often it re-arms.  The
   reference keeps one sorted list of every event on (time, seq), with
   one event per armed deadline.  Random programs mixing spawn, delays,
   yields, park/wake, callbacks, timeouts, [run ~until] and [stop] must
   leave the same event log, the same clock after every run and the
   same emptiness of the queue on both. *)

open Sim

type instr =
  | Delay of int  (** [Engine.delay] *)
  | Delay_cycles of int
  | Yield
  | Park  (** publish the suspension, then park *)
  | Wake of int  (** wake what process [i] published last, stale or not *)
  | At of int * int option
      (** a callback [dt] from now (past times run now) that may wake a
          process's published suspension *)
  | At_clock of int * int option
  | Spawn of instr list
  | Arm of int
  | Arm_at of int  (** [arm_timeout_at] [dt] from now *)
  | Disarm
  | Timed_park
  | Stop

(* A run: the scripts of the processes spawned before the first
   [run], then each [run]'s horizon relative to the clock ([None]: run
   to the end; negative: a horizon already passed). *)
type program = { procs : instr list list; runs : int option list }

type entry = { time : int; who : int; what : string; arg : int }

(* What a program leaves: its log, and after each run the clock and
   whether the queue is empty. *)
type outcome = { log : entry list; after_runs : (int * bool) list }

let end_of_time = max_int

let after clock d =
  if d <= 0 then clock else if d > max_int - clock then max_int else clock + d

(* {1 The engine} *)

(* [most], if given, ends up holding the most events ever queued at
   once just after a callback was scheduled.  [actor id] says whether
   process [id] runs as an actor: [Delay] becomes a {!Engine.charge},
   [Park] publishing the suspension and returning, and the rest of the
   script runs in the stage the charge or the wake calls.  Actors
   cannot time out, so their scripts hold no timeout instructions
   (see {!actorize}). *)
let run_engine ?(most = ref 0) ?(actor = fun _ -> false) prog =
  let e = Engine.create () in
  let log = ref [] in
  let note who what arg =
    log := { time = Engine.clock e; who; what; arg } :: !log
  in
  let waiting = Hashtbl.create 8 in
  let next_id = ref 0 and next_cb = ref 0 in
  let wake_published j =
    match Hashtbl.find_opt waiting j with
    | Some (p, n) -> Engine.wake p n
    | None -> ()
  in
  let callback w =
    let cb = !next_cb in
    incr next_cb;
    fun () ->
      note (-1) "callback" cb;
      Option.iter wake_published w
  in
  let publish id = Hashtbl.replace waiting id Engine.(self (), suspension (self ())) in
  let rec spawn script =
    let id = !next_id in
    incr next_id;
    if actor id then spawn_actor id script
    else
      Engine.spawn e (fun () ->
          note id "start" 0;
          List.iter (exec id) script;
          note id "end" 0)
  and spawn_actor id script =
    let rest = ref script and on_wake = ref ("start", 0) in
    ignore
      (Engine.actor e (fun p ->
           let rec step () =
             match !rest with
             | [] -> note id "end" 0
             | i :: tl -> (
                 rest := tl;
                 let charge d =
                   Engine.charge p d (fun () ->
                       note id (if i = Yield then "yield" else "delay") d;
                       step ())
                 in
                 match i with
                 | Delay d | Delay_cycles d -> charge d
                 | Yield -> charge 0
                 | Park ->
                     publish id;
                     on_wake := ("park", 0)
                 | Arm _ | Arm_at _ | Disarm | Timed_park ->
                     invalid_arg "an actor cannot time out"
                 | i ->
                     exec id i;
                     step ())
           in
           fun () ->
             let what, arg = !on_wake in
             note id what arg;
             step ()))
  and exec id = function
    | Delay d ->
        Engine.delay (Int64.of_int d);
        note id "delay" d
    | Delay_cycles d ->
        Engine.delay_cycles d;
        note id "delay" d
    | Yield ->
        Engine.yield ();
        note id "yield" 0
    | Park ->
        publish id;
        Engine.park ();
        note id "park" 0
    | Wake j -> wake_published j
    | At (dt, w) ->
        Engine.at e (Int64.of_int (Engine.clock e + dt)) (callback w);
        most := max !most (Engine.pending e)
    | At_clock (dt, w) ->
        Engine.at_clock e (Engine.clock e + dt) (callback w);
        most := max !most (Engine.pending e)
    | Spawn script -> spawn script
    | Arm d -> Engine.arm_timeout (Int64.of_int d)
    | Arm_at dt -> Engine.arm_timeout_at (Engine.clock e + dt)
    | Disarm -> Engine.disarm_timeout ()
    | Timed_park ->
        publish id;
        Engine.timed_park ();
        note id "timed" (Bool.to_int (Engine.timed_out ()))
    | Stop -> Engine.stop e
  in
  List.iter spawn prog.procs;
  let after_runs =
    List.map
      (fun until ->
        (match until with
        | None -> Engine.run e
        | Some dt -> Engine.run ~until:(Int64.of_int (Engine.clock e + dt)) e);
        (Engine.clock e, Engine.pending e = 0))
      prog.runs
  in
  { log = List.rev !log; after_runs }

(* {1 The reference}

   One sorted list of events on (time, seq).  A process is its
   remaining script plus what to log when it resumes; each armed
   deadline is its own event, live while it is still the armed one. *)

type action =
  | Start of int
  | Resume of int
  | Callback of int * int option
  | Fire of int  (** live while its seq is the process's armed one *)

type rproc = {
  id : int;
  mutable script : instr list;
  mutable on_resume : string * int;  (* what to log; "timed" logs [timed_out] *)
  mutable wakes : int;
  mutable timeout_seq : int;  (* armed seq, or -1 disarmed, -2 fired *)
  mutable timeout_n : int;
}

let run_reference prog =
  let clock = ref 0 and seq = ref 0 and stopped = ref false in
  let queue = ref [] in
  let push time action =
    incr seq;
    let key = (time, !seq) in
    let rec ins = function
      | ((k, _) as x) :: rest when compare k key < 0 -> x :: ins rest
      | l -> (key, action) :: l
    in
    queue := ins !queue
  in
  let log = ref [] in
  let note who what arg = log := { time = !clock; who; what; arg } :: !log in
  let procs = Hashtbl.create 8 and waiting = Hashtbl.create 8 in
  let next_id = ref 0 and next_cb = ref 0 in
  let wake id n =
    let p = Hashtbl.find procs id in
    if p.wakes = n then begin
      p.wakes <- n + 1;
      push !clock (Resume id)
    end
  in
  let wake_published j =
    match Hashtbl.find_opt waiting j with Some (i, n) -> wake i n | None -> ()
  in
  let spawn script =
    let id = !next_id in
    incr next_id;
    Hashtbl.replace procs id
      {
        id;
        script;
        on_resume = ("", 0);
        wakes = 0;
        timeout_seq = -1;
        timeout_n = -1;
      };
    push !clock (Start id)
  in
  let at time w =
    let cb = !next_cb in
    incr next_cb;
    push (max !clock time) (Callback (cb, w))
  in
  let arm p time =
    push time (Fire p.id);
    p.timeout_seq <- !seq;
    p.timeout_n <- -1
  in
  (* Run [p] until it suspends or ends. *)
  let rec step p =
    match p.script with
    | [] -> note p.id "end" 0
    | i :: rest -> (
        p.script <- rest;
        let suspend what arg time =
          p.on_resume <- (what, arg);
          push time (Resume p.id)
        in
        match i with
        | Delay d | Delay_cycles d -> suspend "delay" d (after !clock d)
        | Yield -> suspend "yield" 0 !clock
        | Park ->
            Hashtbl.replace waiting p.id (p.id, p.wakes);
            p.on_resume <- ("park", 0)
        | Timed_park ->
            Hashtbl.replace waiting p.id (p.id, p.wakes);
            p.timeout_n <- p.wakes;
            p.on_resume <- ("timed", 0)
        | Wake j ->
            wake_published j;
            step p
        | At (dt, w) | At_clock (dt, w) ->
            at (!clock + dt) w;
            step p
        | Spawn script ->
            spawn script;
            step p
        | Arm d ->
            arm p (after !clock d);
            step p
        | Arm_at dt ->
            arm p (max !clock (!clock + dt));
            step p
        | Disarm ->
            if p.timeout_seq >= 0 then p.timeout_seq <- -1;
            step p
        | Stop ->
            stopped := true;
            step p)
  in
  let dispatch (_, s) = function
    | Start id ->
        let p = Hashtbl.find procs id in
        note id "start" 0;
        step p
    | Resume id ->
        let p = Hashtbl.find procs id in
        let what, arg = p.on_resume in
        note id what
          (if what = "timed" then Bool.to_int (p.timeout_seq = -2) else arg);
        step p
    | Callback (cb, w) ->
        note (-1) "callback" cb;
        Option.iter wake_published w
    | Fire id ->
        let p = Hashtbl.find procs id in
        if p.timeout_seq = s then begin
          p.timeout_seq <- -2;
          wake id p.timeout_n
        end
  in
  let run horizon =
    let rec loop () =
      match !queue with
      | [] -> ()
      | _ when !stopped -> ()
      | (((time, _) as key), action) :: rest ->
          if time > horizon then clock := horizon
          else begin
            queue := rest;
            clock := time;
            dispatch key action;
            loop ()
          end
    in
    (* A horizon already passed runs nothing and leaves the clock. *)
    if horizon >= !clock then begin
      stopped := false;
      loop ()
    end
  in
  List.iter spawn prog.procs;
  let after_runs =
    List.map
      (fun until ->
        (match until with
        | None -> run end_of_time
        | Some dt -> run (!clock + dt));
        (!clock, !queue = []))
      prog.runs
  in
  { log = List.rev !log; after_runs }

(* {1 Random programs} *)

let max_procs = 8

let gen_program =
  let open QCheck.Gen in
  let target = 0 -- (max_procs - 1) in
  let waker = opt ~ratio:0.5 target in
  let leaf =
    frequency
      [
        (3, map (fun d -> Delay d) (0 -- 12));
        (3, map (fun d -> Delay_cycles d) (-2 -- 12));
        (2, return Yield);
        (2, return Park);
        (3, map (fun j -> Wake j) target);
        (2, map2 (fun dt w -> At (dt, w)) (-3 -- 12) waker);
        (2, map2 (fun dt w -> At_clock (dt, w)) (-3 -- 12) waker);
        (3, map (fun d -> Arm d) (0 -- 8));
        (3, map (fun dt -> Arm_at dt) (-2 -- 8));
        (2, return Disarm);
        (3, return Timed_park);
        (1, return Stop);
      ]
  in
  let script =
    let inner = list_size (0 -- 8) leaf in
    list_size (0 -- 12)
      (frequency [ (10, leaf); (1, map (fun s -> Spawn s) inner) ])
  in
  let runs =
    map
      (fun rs -> rs @ [ None ])
      (list_size (0 -- 3) (opt ~ratio:0.8 (-5 -- 40)))
  in
  map2 (fun procs runs -> { procs; runs }) (list_size (1 -- 4) script) runs

let rec print_instr = function
  | Delay d -> Printf.sprintf "delay %d" d
  | Delay_cycles d -> Printf.sprintf "delay_cycles %d" d
  | Yield -> "yield"
  | Park -> "park"
  | Wake j -> Printf.sprintf "wake p%d" j
  | At (dt, w) | At_clock (dt, w) as i ->
      Printf.sprintf "%s +%d%s"
        (match i with At _ -> "at" | _ -> "at_clock")
        dt
        (match w with Some j -> Printf.sprintf " waking p%d" j | None -> "")
  | Spawn s -> Printf.sprintf "spawn [%s]" (String.concat "; " (List.map print_instr s))
  | Arm d -> Printf.sprintf "arm %d" d
  | Arm_at dt -> Printf.sprintf "arm_at +%d" dt
  | Disarm -> "disarm"
  | Timed_park -> "timed_park"
  | Stop -> "stop"

let print_program prog =
  String.concat "\n"
    (List.mapi
       (fun i s ->
         Printf.sprintf "p%d: %s" i (String.concat "; " (List.map print_instr s)))
       prog.procs
    @ [
        "runs: "
        ^ String.concat ", "
            (List.map
               (function None -> "all" | Some dt -> Printf.sprintf "until +%d" dt)
               prog.runs);
      ])

let print_outcome o =
  String.concat "\n"
    (List.map
       (fun e -> Printf.sprintf "%d %d %s %d" e.time e.who e.what e.arg)
       o.log
    @ List.map (fun (c, empty) -> Printf.sprintf "clock %d empty %b" c empty) o.after_runs)

let prop_order_matches_reference =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make
       ~name:"engine: same events, order and clock as a sorted-list scheduler"
       ~count:5000
       (QCheck.make ~print:print_program gen_program)
       (fun prog ->
         let got = run_engine prog and want = run_reference prog in
         got = want
         || QCheck.Test.fail_reportf "engine:\n%s\nreference:\n%s"
              (print_outcome got) (print_outcome want)))

(* {1 Actors}

   The same programs with some or all processes run as actors, minus
   the timeout instructions an actor cannot perform, against the
   unchanged reference: an actor's charge must be the event a delay
   would be, its fast path included, and a wake must run its stage
   where a fiber would resume. *)

let rec actorize_script script =
  List.filter_map
    (function
      | Arm _ | Arm_at _ | Disarm | Timed_park -> None
      | Spawn s -> Some (Spawn (actorize_script s))
      | i -> Some i)
    script

let actorize prog = { prog with procs = List.map actorize_script prog.procs }

let prop_actors_match_reference =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make
       ~name:"engine: actors, alone or among fibers, match the reference"
       ~count:3000
       (QCheck.make ~print:print_program (QCheck.Gen.map actorize gen_program))
       (fun prog ->
         let want = run_reference prog in
         List.for_all
           (fun (mode, actor) ->
             let got = run_engine ~actor prog in
             got = want
             || QCheck.Test.fail_reportf "%s:\n%s\nreference:\n%s" mode
                  (print_outcome got) (print_outcome want))
           [
             ("all actors", fun _ -> true);
             ("odd ids actors", fun id -> id land 1 = 1);
           ]))

(* {1 Many processes, many callbacks}

   The programs above rarely queue more than a dozen events.  These
   spawn 16 to 24 processes, each scheduling 13 to 16 callbacks at a
   handful of colliding times, at least 8 of them before it first
   suspends: over 200 callbacks in all and 128 or more queued at once, so
   the heap grows past its initial 64 entries, and a sift compares all
   four children of a node, mostly on [seq] because their times
   tie. *)

let gen_stress_program =
  let open QCheck.Gen in
  let target = 0 -- 23 in
  let waker = opt ~ratio:0.3 target in
  let callback =
    frequency
      [
        (1, map2 (fun dt w -> At (dt, w)) (-2 -- 6) waker);
        (1, map2 (fun dt w -> At_clock (dt, w)) (-2 -- 6) waker);
      ]
  in
  let leaf =
    frequency
      [
        (3, map (fun d -> Delay d) (0 -- 6));
        (2, return Yield);
        (2, return Park);
        (3, map (fun j -> Wake j) target);
        (2, map (fun d -> Arm d) (0 -- 6));
        (2, return Timed_park);
        (1, return Disarm);
      ]
  in
  (* At least 8 callbacks before a process first suspends, so 16
     processes starting at once queue 128 or more of them. *)
  let script =
    list_size (8 -- 10) callback >>= fun first ->
    list_size (5 -- 6) callback >>= fun cbs ->
    list_size (0 -- 8) leaf >>= fun rest ->
    map (fun tail -> first @ tail) (shuffle_l (cbs @ rest))
  in
  let runs = map (fun rs -> rs @ [ None ]) (list_size (0 -- 2) (map Option.some (0 -- 6))) in
  map2 (fun procs runs -> { procs; runs }) (list_size (16 -- 24) script) runs

let prop_stress_matches_reference =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make
       ~name:"engine: 16+ processes and 200+ colliding callbacks match the reference"
       ~count:300
       (QCheck.make ~print:print_program gen_stress_program)
       (fun prog ->
         let most = ref 0 in
         let got = run_engine ~most prog and want = run_reference prog in
         (got = want
         || QCheck.Test.fail_reportf "engine:\n%s\nreference:\n%s"
              (print_outcome got) (print_outcome want))
         && (!most >= 128
            || QCheck.Test.fail_reportf "only %d events queued at once" !most)))

(* A horizon behind the clock: the first run stops at 10 with a
   callback queued for 25; a run until 6 must neither run it nor wind
   the clock back to 6. *)
let test_past_horizon () =
  let prog =
    { procs = [ [ Delay 5; At (20, None) ] ]; runs = [ Some 10; Some (-4); None ] }
  in
  let got = run_engine prog in
  Alcotest.(check (list (pair int bool)))
    "clock and emptiness after each run"
    [ (10, false); (10, false); (25, true) ]
    got.after_runs;
  Alcotest.(check string)
    "same as the reference" (print_outcome (run_reference prog))
    (print_outcome got)

(* {1 What a suspension allocates}

   A suspension stores its continuation and queues an int, so the only
   allocation is the continuation itself. *)

let check_bool = Alcotest.(check bool)

let words_per_suspension = 2.

let check_words what ~suspensions words =
  let per = words /. float_of_int suspensions in
  if per > words_per_suspension then
    Alcotest.failf "%s: %.2f minor words per suspension, budget %.0f" what per
      words_per_suspension

(* Two processes one cycle apart, each delaying two: the other's
   resumption always comes first, so every delay is queued.  Both
   suspend in the measured window. *)
let test_delay_alloc () =
  let e = Engine.create () in
  let warm = 1000 and n = 20_000 in
  let words = ref 0. in
  let loop ~measure () =
    let w0 = ref 0. in
    for i = 1 to warm + n do
      if i = warm + 1 then w0 := Gc.minor_words ();
      Engine.delay 2L
    done;
    if measure then words := Gc.minor_words () -. !w0
  in
  Engine.spawn e (loop ~measure:true);
  Engine.at e 1L (fun () -> Engine.spawn e (loop ~measure:false));
  Engine.run e;
  check_words "delay" ~suspensions:(2 * n) !words

(* Two processes that take turns: each wakes the other, then parks. *)
let test_park_wake_alloc () =
  let e = Engine.create () in
  let warm = 1000 and n = 20_000 in
  let words = ref 0. in
  let procs = Array.make 2 None and parked = Array.make 2 0 in
  let player me ~measure () =
    let self = Engine.self () in
    procs.(me) <- Some self;
    let w0 = ref 0. in
    for i = 1 to warm + n do
      if i = warm + 1 then w0 := Gc.minor_words ();
      (match procs.(1 - me) with
      | Some p -> Engine.wake p parked.(1 - me)
      | None -> ());
      parked.(me) <- Engine.suspension self;
      Engine.park ()
    done;
    if measure then words := Gc.minor_words () -. !w0
  in
  Engine.spawn e (player 0 ~measure:true);
  Engine.spawn e (player 1 ~measure:false);
  Engine.run e;
  check_words "park/wake" ~suspensions:(2 * n) !words

(* {1 What an actor may not do, and where a charge is free} *)

(* Every way to suspend raises the named exception inside an actor;
   in a fiber the same calls suspend. *)
let test_actor_cannot_suspend () =
  let attempts =
    [
      ("delay", fun () -> Engine.delay 5L);
      ("delay_cycles", fun () -> Engine.delay_cycles 5);
      ("yield", Engine.yield);
      ("park", Engine.park);
      ("timed_park", Engine.timed_park);
      ("arm_timeout", fun () -> Engine.arm_timeout 5L);
    ]
  in
  List.iter
    (fun (what, f) ->
      let e = Engine.create () in
      let raised = ref false and in_fiber = ref true in
      ignore
        (Engine.actor e (fun _ () ->
             in_fiber := Engine.in_process ();
             match f () with
             | () -> ()
             | exception Engine.Suspend_in_actor -> raised := true));
      Engine.run e;
      Alcotest.(check bool) (what ^ " raises Suspend_in_actor") true !raised;
      Alcotest.(check bool) "an actor is not a fiber" false !in_fiber)
    attempts

(* A charge made from a callback is free, as a delay there is: the
   stage runs at once, the clock stays.  From a fiber, a charge is a
   delay, then the stage. *)
let test_charge_contexts () =
  let e = Engine.create () in
  let p = Engine.actor e (fun _ () -> ()) in
  let seen = ref [] in
  let log what = seen := (what, Engine.clock e) :: !seen in
  Engine.at_clock e 10 (fun () ->
      Engine.charge p 1000 (fun () ->
          log "callback stage";
          Engine.charge p 1000 (fun () -> log "second callback stage")));
  Engine.spawn e (fun () ->
      Engine.charge p 7 (fun () -> log "fiber stage");
      log "fiber after");
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "stages and their clocks"
    [
      ("fiber stage", 7);
      ("fiber after", 7);
      ("callback stage", 10);
      ("second callback stage", 10);
    ]
    (List.rev !seen);
  check_bool "fibers" true (Engine.fibers e = 0)

let suite =
  [
    prop_order_matches_reference;
    prop_actors_match_reference;
    ("engine: an actor that tries to suspend raises Suspend_in_actor", `Quick,
     test_actor_cannot_suspend);
    ("engine: a charge is free in a callback, a delay in a fiber", `Quick,
     test_charge_contexts);
    ("engine: a queued delay allocates only its continuation", `Quick,
     test_delay_alloc);
    ("engine: park/wake allocates only the continuation", `Quick,
     test_park_wake_alloc);
    prop_stress_matches_reference;
    ("engine: a run until a passed horizon leaves clock and queue", `Quick,
     test_past_horizon);
  ]
