(* QCheck state-machine tests: random command sequences against the
   pure reference models (DESIGN.md §11).

   Each harness generates a command list, interprets it against both
   the real module and its {!Tm.Stm_model} mirror, and checks full
   observational agreement after EVERY command — not just at the end,
   so a counterexample pinpoints the first diverging step.  Commands
   whose precondition does not hold in the current state are skipped
   rather than rejected, which keeps QCheck's shrunk sequences valid
   (precondition-aware interpretation).  The final harness drives the
   whole per-shard product machine through {!Tm.Explore.drive}, which
   runs the explorer's V1-V7 battery down random walks far deeper than
   the breadth-first bound.

   Plus: repro-token fuzz — round-trips over all token segments (seed,
   schedule, faults, queues, budget, shard pins, and the trailing
   zero-copy "zc" flag) and a never-raises property for malformed
   tokens. *)

module C = Tm.Campaign
module F = Hostos.Faults
module M = Hostos.Malice
module B = Tm.Stm_model.Breaker
module R = Tm.Stm_model.Ring
module U = Tm.Stm_model.Umem

let count =
  (* RAKIS_SEED makes a failure reproducible; RAKIS_QCHECK_COUNT sizes
     the run (CI can afford more than a laptop) *)
  match int_of_string_opt (try Sys.getenv "RAKIS_QCHECK_COUNT" with Not_found -> "") with
  | Some n when n > 0 -> n
  | _ -> 200

(* {1 Breaker} *)

type bcmd = B_allow | B_fail | B_success | B_cancel | B_tick

let bcmd_name = function
  | B_allow -> "allow"
  | B_fail -> "fail"
  | B_success -> "success"
  | B_cancel -> "cancel"
  | B_tick -> "tick"

let bcmds_arb =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map bcmd_name l))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(
      list_size (int_bound 80)
        (oneofl [ B_allow; B_fail; B_success; B_cancel; B_tick ]))

(* every breaker op is total, so there are no preconditions to skip *)
let breaker_conforms cmds =
  let clock = ref 0L in
  let real =
    Rakis.Health.create ~name:"stm" ~clock:(fun () -> !clock) ~threshold:2
      ~cooldown:50L ~probes_needed:2 ()
  in
  let model = ref (B.create ~threshold:2 ~probes_needed:2 ~cooldown:50L) in
  List.for_all
    (fun c ->
      (match c with
      | B_allow ->
          let d = Rakis.Health.allow real in
          let m, md = B.allow !model ~now:!clock in
          model := m;
          d = md
      | B_fail ->
          Rakis.Health.record_failure real;
          model := B.record_failure !model ~now:!clock;
          true
      | B_success ->
          Rakis.Health.record_success real;
          model := B.record_success !model;
          true
      | B_cancel ->
          Rakis.Health.cancel_probe real;
          model := B.cancel_probe !model;
          true
      | B_tick ->
          (* 17 < cooldown: several ticks per reopen window, so the
             partially-cooled states get visited too *)
          clock := Int64.add !clock 17L;
          true)
      && B.agrees !model ~now:!clock (Rakis.Health.observe real)
      && Rakis.Health.opens real = (!model).B.opens
      && Rakis.Health.closes real = (!model).B.closes)
    cmds

(* {1 UMem} *)

type ucmd =
  | U_alloc
  | U_commit_rx
  | U_commit_tx
  | U_cancel
  | U_reclaim_rx  (** an offset legitimately out on Rx *)
  | U_reclaim_tx
  | U_register  (** lend a limbo frame on SEND_ZC, awaiting its notif *)
  | U_release  (** the honest notif for the oldest registered frame *)
  | U_release_junk of int  (** a hostile notif: one of the canned offsets *)
  | U_junk of int  (** one of the canned hostile descriptors *)
  | U_grid of int  (** one point of the descriptor boundary grid *)

let ucmd_name = function
  | U_alloc -> "alloc"
  | U_commit_rx -> "commit-rx"
  | U_commit_tx -> "commit-tx"
  | U_cancel -> "cancel"
  | U_reclaim_rx -> "reclaim-rx"
  | U_reclaim_tx -> "reclaim-tx"
  | U_register -> "register"
  | U_release -> "release"
  | U_release_junk i -> Printf.sprintf "release-junk%d" i
  | U_junk i -> Printf.sprintf "junk%d" i
  | U_grid i -> Printf.sprintf "grid%d" i

let frame_size = 64

let frames = 4

(* Descriptor boundary grid: every offset edge of the UMem (negative,
   misaligned, last frame, one past the end) x every length edge of a
   frame, for both completion routines. *)
let grid =
  let size = frames * frame_size in
  let offsets =
    [ -frame_size; -1; 0; 1; 3; frame_size - 1; frame_size; frame_size + 1;
      2 * frame_size; (3 * frame_size) + 7; size - frame_size; size - 1;
      size; size + frame_size ]
  in
  let lens =
    [ 0; 1; frame_size - 1; frame_size; frame_size + 1; 2 * frame_size ]
  in
  Array.of_list
    (List.concat_map
       (fun routine ->
         List.concat_map
           (fun offset -> List.map (fun len -> (routine, offset, len)) lens)
           offsets)
       [ Rakis.Umem.Rx; Rakis.Umem.Tx ])

let ucmds_arb =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map ucmd_name l))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(
      list_size (int_bound 80)
        (oneof
           [
             oneofl
               [
                 U_alloc; U_commit_rx; U_commit_tx; U_cancel; U_reclaim_rx;
                 U_reclaim_tx; U_register; U_release;
               ];
             map (fun i -> U_junk i) (int_bound 3);
             map (fun i -> U_release_junk i) (int_bound 3);
             map (fun i -> U_grid i) (int_bound (Array.length grid - 1));
           ]))

(* hostile descriptors: misaligned, out of range, oversize length,
   wrong owner (frame 0 whatever its state) *)
let junk i =
  match i with
  | 0 -> (frame_size / 2, frame_size)
  | 1 -> (frames * frame_size, frame_size)
  | 2 -> (0, frame_size + 1)
  | _ -> (0, frame_size)

let umem_conforms cmds =
  let real = Rakis.Umem.create ~size:(frames * frame_size) ~frame_size () in
  let model = ref (U.create ~frames ~frame_size) in
  (* harness bookkeeping so commit/cancel/reclaim hit live offsets *)
  let limbo = ref [] and out_rx = ref [] and out_tx = ref [] in
  let registered = ref [] in
  let step c =
    match c with
    | U_alloc -> (
        match Rakis.Umem.alloc real with
        | None ->
            let m, off = U.alloc !model in
            model := m;
            off = None
        | Some off ->
            let m, moff = U.alloc !model in
            model := m;
            limbo := !limbo @ [ off ];
            moff = Some off)
    | U_commit_rx -> (
        match !limbo with
        | [] -> true (* precondition fails: skip *)
        | off :: rest ->
            Rakis.Umem.commit real off Rakis.Umem.Rx;
            model := U.commit !model off Rakis.Umem.Rx;
            limbo := rest;
            out_rx := !out_rx @ [ off ];
            true)
    | U_commit_tx -> (
        match !limbo with
        | [] -> true
        | off :: rest ->
            Rakis.Umem.commit real off Rakis.Umem.Tx;
            model := U.commit !model off Rakis.Umem.Tx;
            limbo := rest;
            out_tx := !out_tx @ [ off ];
            true)
    | U_cancel -> (
        match !limbo with
        | [] -> true
        | off :: rest ->
            Rakis.Umem.cancel real off;
            model := U.cancel !model off;
            limbo := rest;
            true)
    | U_reclaim_rx -> (
        match !out_rx with
        | [] -> true
        | off :: rest ->
            let ok =
              Result.is_ok
                (Rakis.Umem.reclaim real Rakis.Umem.Rx ~offset:off
                   ~len:(frame_size - 4) ())
            in
            let m, mok =
              U.reclaim !model Rakis.Umem.Rx ~offset:off ~len:(frame_size - 4)
            in
            model := m;
            out_rx := rest;
            ok && mok)
    | U_reclaim_tx -> (
        match !out_tx with
        | [] -> true
        | off :: rest ->
            let ok =
              Result.is_ok
                (Rakis.Umem.reclaim real Rakis.Umem.Tx ~offset:off ())
            in
            let m, mok = U.reclaim !model Rakis.Umem.Tx ~offset:off ~len:0 in
            model := m;
            out_tx := rest;
            ok && mok)
    | U_register -> (
        match !limbo with
        | [] -> true
        | off :: rest ->
            Rakis.Umem.register real off;
            model := U.register !model off;
            limbo := rest;
            registered := !registered @ [ off ];
            true)
    | U_release -> (
        match !registered with
        | [] -> true
        | off :: rest ->
            (* the honest notif: both sides must accept it, and only
               once — the frame leaves the harness's registered list *)
            let ok = Result.is_ok (Rakis.Umem.release real ~offset:off) in
            let m, mok = U.release !model ~offset:off in
            model := m;
            registered := rest;
            ok && mok)
    | U_release_junk i ->
        (* a hostile notif: misaligned, out of range, or naming frame 0
           whatever its state (forged, duplicated, or — when frame 0
           really is registered — accidentally legitimate) *)
        (* a release only validates its offset, so junk 2 (oversize
           length, offset 0) degenerates to the frame-0 case too *)
        let offset, _ = junk i in
        let ok = Result.is_ok (Rakis.Umem.release real ~offset) in
        let m, mok = U.release !model ~offset in
        model := m;
        if i >= 2 && ok then
          registered := List.filter (fun o -> o <> offset) !registered;
        ok = mok && ((i >= 2) || not ok)
    | U_junk i ->
        let offset, len = junk i in
        let ok =
          Result.is_ok (Rakis.Umem.reclaim real Rakis.Umem.Rx ~offset ~len ())
        in
        let m, mok = U.reclaim !model Rakis.Umem.Rx ~offset ~len in
        model := m;
        (* junk 3 is only hostile when frame 0 is not actually out on
           Rx; when it is, the reclaim is legitimate and the frame must
           leave the harness's out list too *)
        if i = 3 && ok then out_rx := List.filter (fun o -> o <> offset) !out_rx;
        (* verdicts must agree; junk 0-2 must always be refused *)
        ok = mok && ((i >= 3) || not ok)
    | U_grid i ->
        (* the model is the judge; an accepted point was a frame really
           out on that routine, so it leaves the harness's list *)
        let routine, offset, len = grid.(i) in
        let ok =
          Result.is_ok (Rakis.Umem.reclaim real routine ~offset ~len ())
        in
        let m, mok = U.reclaim !model routine ~offset ~len in
        model := m;
        if ok then begin
          let out =
            match routine with Rakis.Umem.Rx -> out_rx | Rakis.Umem.Tx -> out_tx
          in
          out := List.filter (fun o -> o <> offset) !out
        end;
        ok = mok
  in
  List.for_all
    (fun c ->
      step c
      && U.agrees !model real
      && Rakis.Umem.conservation_holds real
      && U.conservation_holds !model)
    cmds

(* {1 Certified ring} *)

type rcmd =
  | R_host_advance  (** honest: deliver one slot at the true index *)
  | R_host_restore  (** honest: republish the true index *)
  | R_smash of int  (** hostile: one of the four candidate values *)
  | R_consume
  | R_skip
  | R_available

let rcmd_name = function
  | R_host_advance -> "advance"
  | R_host_restore -> "restore"
  | R_smash i -> Printf.sprintf "smash%d" i
  | R_consume -> "consume"
  | R_skip -> "skip"
  | R_available -> "available"

let rcmds_arb =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map rcmd_name l))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(
      list_size (int_bound 80)
        (oneof
           [
             oneofl [ R_host_advance; R_host_restore; R_consume; R_skip; R_available ];
             map (fun i -> R_smash i) (int_bound 3);
           ]))

let ring_size = 4

let ring_conforms cmds =
  let region =
    Mem.Region.create ~kind:Untrusted ~name:"stm-ring"
      ~size:(Rings.Layout.footprint ~entry_size:8 ~size:ring_size + 64)
  in
  let alloc = Mem.Alloc.create region () in
  let layout = Rings.Layout.alloc alloc ~entry_size:8 ~size:ring_size in
  let real = Rings.Certified.create layout ~role:Rings.Certified.Consumer () in
  let model = ref (R.create ~size:ring_size) in
  let shadow = ref 0 in
  let write v =
    Rings.Layout.write_prod layout v;
    model := R.host_write_prod !model v
  in
  let step c =
    match c with
    | R_host_advance ->
        (* honest delivery: never outruns the published consumer *)
        if
          Rings.U32.distance ~ahead:!shadow
            ~behind:(Rings.Layout.read_cons layout)
          < ring_size
        then begin
          shadow := Rings.U32.succ !shadow;
          write !shadow
        end;
        true
    | R_host_restore ->
        write !shadow;
        true
    | R_smash i ->
        let tc = Rings.Certified.trusted_cons real in
        let tp = Rings.Certified.trusted_prod real in
        let v =
          match i with
          | 0 -> Rings.U32.sub tc 1
          | 1 -> Rings.U32.add tc (ring_size + 1)
          | 2 -> Rings.U32.add tc ring_size
          | _ -> Rings.U32.add tp 0x4000_0000
        in
        write v;
        true
    | R_consume ->
        let got =
          Result.is_ok (Rings.Certified.consume real ~read:(fun ~slot_off -> ignore slot_off))
        in
        let m, slot = R.consume !model in
        model := m;
        got = (slot <> None)
    | R_skip ->
        Rings.Certified.skip real;
        model := R.skip !model;
        true
    | R_available ->
        let a = Rings.Certified.available real in
        let m, ma = R.available !model in
        model := m;
        a = ma && a >= 0 && a <= ring_size
  in
  List.for_all
    (fun c ->
      step c
      && R.agrees !model real
      && Rings.Certified.invariant_holds real
      && R.invariant_holds !model)
    cmds

(* {1 The product machine, by random walk} *)

let walk_arb =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_int l))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_bound 120) (int_bound 1000))

let product_walk_clean choices =
  let violations, _trail = Tm.Explore.drive ~choices () in
  violations = []

(* {1 Repro-token fuzz} *)

let probabilities = [ 0.05; 0.1; 0.25; 0.5; 0.75; 1.0 ]

let attack_gen = QCheck.Gen.oneofl M.all_attacks

let entry_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun step attack -> C.At { step; attack }) (int_bound 9999) attack_gen;
        map3
          (fun first width (probability, attack) ->
            C.During { first; last = first + width; probability; attack })
          (int_bound 5000) (int_bound 999)
          (pair (oneofl probabilities) attack_gen);
      ])

let trigger_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> F.Probability p) (oneofl probabilities);
        map (fun p -> F.Once p) (oneofl probabilities);
        map (fun s -> F.At_step s) (int_bound 9999);
        map3
          (fun first_step width probability ->
            F.Burst { first_step; last_step = first_step + width; probability })
          (int_bound 5000) (int_bound 999) (oneofl probabilities);
        return F.Persistent;
      ])

let plan_entry_gen =
  QCheck.Gen.(
    map3
      (fun fault when_ shard -> { F.fault; when_; shard })
      (oneofl F.all_faults) trigger_gen
      (oneof [ return None; map (fun k -> Some k) (int_bound 3) ]))

let token_case_gen =
  QCheck.Gen.(
    let* datapath = oneofl [ C.Xsk; C.Iouring ] in
    let* seed = map Int64.of_int (int_bound 1_000_000) in
    let* budget = int_range 1 99_999 in
    let* schedule = list_size (int_bound 4) entry_gen in
    let* plan = list_size (int_bound 4) plan_entry_gen in
    let* queues = int_range 1 4 in
    let* zerocopy = bool in
    return (datapath, seed, budget, schedule, plan, queues, zerocopy))

let print_token_case (dp, seed, budget, schedule, plan, queues, zerocopy) =
  Printf.sprintf "%s:%Ld:%d:[%d entries]:%s:q%d%s"
    (match dp with C.Xsk -> "xsk" | C.Iouring -> "io_uring")
    seed budget (List.length schedule)
    (F.plan_to_string plan)
    queues
    (if zerocopy then ":zc" else "")

(* One cheap template outcome; [repro] only reads the six identity
   fields, so the fuzz rewrites those and never re-runs campaigns. *)
let template =
  lazy (C.run ~datapath:C.Xsk ~seed:1L ~budget:4 [])

let token_roundtrip (datapath, seed, budget, schedule, plan, queues, zerocopy)
    =
  let o =
    {
      (Lazy.force template) with
      C.datapath;
      seed;
      budget;
      schedule;
      fault_plan = plan;
      queues;
      zerocopy;
    }
  in
  let token = C.repro o in
  match C.parse_repro token with
  | Error e -> QCheck.Test.fail_reportf "parse failed on %S: %s" token e
  | Ok (dp', seed', budget', schedule', plan', queues', zc', _ov', _wire') ->
      dp' = datapath && seed' = seed && budget' = budget
      && schedule' = schedule && plan' = plan && queues' = queues
      && zc' = zerocopy

let token_arb = QCheck.make ~print:print_token_case token_case_gen

(* malformed tokens: always a useful [Error], never an exception *)
let garbage_arb =
  QCheck.make
    ~print:(fun s -> String.escaped s)
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:printable (int_bound 40);
          (* structurally close to valid: the nastier fuzz *)
          (let* seed = small_int in
           let* tail =
             oneofl
               [
                 "";
                 ":";
                 ":::::";
                 ":notanumber:10:";
                 ":5:x:";
                 ":5:10:1=no-such-attack";
                 ":5:10:1..=prod-overshoot";
                 ":5:10::persist=no-such-fault";
                 ":5:10::persist=drop-wakeup#x";
                 ":5:10::@nan=transient-errno";
                 ":5:10::;;";
                 ":5:10::persist=drop-wakeup:q0";
                 ":5:10::persist=drop-wakeup:qq";
                 ":5:10::persist=drop-wakeup:q-1";
                 ":5:10:99999999999999999999=prod-overshoot";
                 ":5:10::persist=drop-wakeup:zc2";
                 ":5:10::persist=drop-wakeup:q2:zc:zc";
                 ":5:10:::q1:zc2";
               ]
           in
           return (Printf.sprintf "xsk:%d%s" seed tail));
        ])

let malformed_never_raises s =
  match C.parse_repro s with
  | Ok _ -> true
  | Error e -> String.length e > 0
  | exception exn ->
      QCheck.Test.fail_reportf "parse_repro %S raised %s" s
        (Printexc.to_string exn)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* a handful of pinned malformed shapes must parse to Error, and the
   message must name the offending piece, not "int_of_string" *)
let test_malformed_messages () =
  List.iter
    (fun (token, fragment) ->
      match C.parse_repro token with
      | Ok _ -> Alcotest.failf "accepted malformed token %S" token
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error %S mentions %S" token e fragment)
            true
            (contains ~needle:fragment e))
    [
      ("", "repro");
      ("xsk", "repro");
      ("walrus:5:10:", "repro header");
      ("xsk:notanumber:10:", "repro header");
      ("xsk:5:ten:", "repro header");
      ("xsk:5:10:frob=prod-overshoot", "bad step");
      ("xsk:5:10:1=no-such-attack", "unknown attack");
      ("xsk:5:10:7", "schedule entry");
      ("xsk:5:10::persist=no-such-fault", "unknown fault");
      ("xsk:5:10::persist=drop-wakeup:q0", "queue segment");
      ("xsk:5:10::persist=drop-wakeup:qx", "queue segment");
      (* "zc2" is not the literal "zc": it lands in the queue-segment
         position and must be named there, never silently accepted *)
      ("xsk:5:10::persist=drop-wakeup:zc2", "queue segment");
      (* a second "zc" survives the single strip and overflows *)
      ("xsk:5:10::persist=drop-wakeup:q2:zc:zc", "repro string");
    ]

let q name arb prop =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name ~count arb prop)

let suite =
  [
    q "stm: breaker conforms to Stm_model.Breaker" bcmds_arb breaker_conforms;
    q "stm: umem conforms to Stm_model.Umem" ucmds_arb umem_conforms;
    q "stm: certified ring conforms to Stm_model.Ring" rcmds_arb ring_conforms;
    q "stm: product machine clean down random walks" walk_arb
      product_walk_clean;
    q "token: six-segment repro round-trip" token_arb token_roundtrip;
    q "token: malformed input never raises" garbage_arb malformed_never_raises;
    Alcotest.test_case "token: malformed messages are useful" `Quick
      test_malformed_messages;
  ]
