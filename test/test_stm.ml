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

   Plus: repro-token fuzz — whole campaign and soak specs round-trip
   through their printed token (every key and flag, shard pins, and
   arbitrary probabilities in [0, 1]) — and a never-raises property for
   malformed tokens. *)

module C = Tm.Campaign
module F = Hostos.Faults
module I = Hostos.Injector
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

let probability_gen = QCheck.Gen.float_bound_inclusive 1.0

let trigger_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> I.Probability p) probability_gen;
        map (fun p -> I.Once p) probability_gen;
        map (fun s -> I.At_step s) (int_bound 9999);
        map3
          (fun first_step width probability ->
            I.Burst { first_step; last_step = first_step + width; probability })
          (int_bound 5000) (int_bound 999) probability_gen;
        return I.Persistent;
      ])

(* One plan-entry generator for both injectors: every trigger, with or
   without a "#k" shard pin. *)
let entry_gen all =
  QCheck.Gen.(
    map3
      (fun what when_ shard -> { I.what; when_; shard })
      (oneofl all) trigger_gen
      (oneof [ return None; map (fun k -> Some k) (int_bound 3) ]))

let plan_arb all to_string =
  QCheck.make ~print:to_string QCheck.Gen.(list_size (int_bound 6) (entry_gen all))

let plan_roundtrip to_string of_string plan =
  let s = to_string plan in
  match of_string s with
  | Ok plan' ->
      plan' = plan || QCheck.Test.fail_reportf "%S parsed to another plan" s
  | Error e -> QCheck.Test.fail_reportf "parse failed on %S: %s" s e

let token_gen =
  QCheck.Gen.(
    let* seed = int64 in
    let* queues = int_range 1 4 in
    let* wire = bool in
    oneof
      [
        (let* datapath = oneofl [ C.Xsk; C.Iouring ] in
         let* budget = int_range 1 99_999 in
         let* schedule = list_size (int_bound 4) (entry_gen M.all) in
         let* faults = list_size (int_bound 4) (entry_gen F.all) in
         let* zerocopy = bool in
         let* overload = bool in
         return
           (C.Campaign
              {
                datapath;
                seed;
                budget;
                queues;
                schedule;
                faults;
                zerocopy;
                overload;
                wire;
              }));
        (let* steps = int_range 1 1_000_000 in
         let* slo_p99 =
           map (fun n -> Int64.of_int (n + 1)) (int_bound 10_000_000)
         in
         return (C.Soak { seed; steps; queues; slo_p99; wire }));
      ])

let token_roundtrip t =
  let token = C.token_to_string t in
  match C.token_of_string token with
  | Ok t' ->
      t' = t || QCheck.Test.fail_reportf "%S parsed to another spec" token
  | Error e -> QCheck.Test.fail_reportf "parse failed on %S: %s" token e

let token_arb = QCheck.make ~print:C.token_to_string token_gen

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
           let* kind = oneofl [ "xsk"; "io_uring"; "soak"; "" ] in
           let* tail =
             oneofl
               [
                 "";
                 ":";
                 ":::::";
                 ":budget=10";
                 ":budget=x";
                 ":budget=10:budget=10";
                 ":budget=10:attacks=1=no-such-attack";
                 ":budget=10:attacks=1..=prod-overshoot";
                 ":budget=10:attacks=persist=replay";
                 ":budget=10:faults=persist=no-such-fault";
                 ":budget=10:faults=persist=drop-wakeup#x";
                 ":budget=10:faults=@nan=transient-errno";
                 ":budget=10:faults=;;";
                 ":budget=10:q=0";
                 ":budget=10:q=-1";
                 ":budget=10:q";
                 ":budget=10:attacks=99999999999999999999=prod-overshoot";
                 ":budget=10:zc=2";
                 ":budget=10:zc:zc";
                 ":steps=10:slo=0";
                 ":steps=10:slo";
                 ":steps=10:wire=";
                 ":5:10::persist=drop-wakeup:q2:zc";
               ]
           in
           return (Printf.sprintf "%s:seed=%d%s" kind seed tail));
        ])

let malformed_never_raises s =
  match C.token_of_string s with
  | Ok _ -> true
  | Error e -> String.length e > 0
  | exception exn ->
      QCheck.Test.fail_reportf "token_of_string %S raised %s" s
        (Printexc.to_string exn)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* One case per malformed [attacks=] or [faults=] value: the error
   names the key and the offending piece, not "int_of_string".  The
   token-level cases live in test_campaign. *)
let test_malformed_messages () =
  List.iter
    (fun (value, piece) ->
      let token = "xsk:seed=5:budget=10:" ^ value in
      let key = "\"" ^ String.sub value 0 (String.index value '=') ^ "\"" in
      match C.token_of_string token with
      | Ok _ -> Alcotest.failf "accepted malformed token %S" token
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error %S names %s and %S" token e key piece)
            true
            (contains ~needle:key e && contains ~needle:piece e))
    [
      ("attacks=1=no-such-attack", "no-such-attack");
      ("attacks=frob=prod-overshoot", "frob");
      ("attacks=7", "plan entry");
      ("attacks=1..x@0.5=replay", "window");
      ("attacks=1..5@p=replay", "probability");
      ("attacks=persist=replay#x", "shard suffix");
      ("faults=persist=no-such-fault", "no-such-fault");
      ("faults=persist=drop-wakeup#x", "shard suffix");
      ("faults=@x=short-io", "probability");
      ("faults=soon=short-io", "trigger");
    ]

(* Every trigger arms an attack: a token whose schedule uses one prints
   back unchanged, the attack fires, and two replays of the token are
   the same run. *)
let test_every_trigger_arms_an_attack () =
  List.iter
    (fun attacks ->
      let token = "xsk:seed=5:budget=10:attacks=" ^ attacks in
      (match C.token_of_string token with
      | Ok t -> Alcotest.(check string) "round-trips" token (C.token_to_string t)
      | Error e -> Alcotest.failf "%S: %s" token e);
      match (Result.map C.run (C.parse_repro token), Result.map C.run (C.parse_repro token)) with
      | Ok o, Ok o' ->
          Alcotest.(check bool)
            (token ^ " fires") true
            (List.mem_assoc M.Replay o.C.fired);
          Alcotest.(check bool) (token ^ " replays") true (o = o')
      | Error e, _ | _, Error e -> Alcotest.failf "%S: %s" token e)
    [ "@0.5=replay"; "once=replay"; "persist=replay" ]

(* [arm]'s replace rule, for both injectors: a Probability arming
   replaces the event's earlier armings, every other trigger appends.
   So "5=k;@0.1=k" rolls exactly like "@0.1=k" alone, while
   "@0.1=k;5=k" also fires the step arming — at the first roll the
   probability misses. *)
let test_replace_rule () =
  let check_rule (type e) (module J : I.S with type event = e) name =
    let rolls plan =
      match J.plan_of_string plan with
      | Ok ({ I.what; _ } :: _ as p) ->
          let t = J.create ~seed:11L () in
          J.install t p;
          J.set_step t 5;
          List.init 40 (fun _ -> J.roll (Some t) what)
      | _ -> Alcotest.failf "%S does not parse" plan
    in
    let alone = rolls ("@0.1=" ^ name) in
    Alcotest.(check bool) (name ^ ": the probability misses") true
      (List.mem false alone);
    Alcotest.(check (list bool))
      (name ^ ": @P replaces an earlier step arming")
      alone
      (rolls (Printf.sprintf "5=%s;@0.1=%s" name name));
    let rec fill_first_miss = function
      | [] -> []
      | false :: rest -> true :: rest
      | true :: rest -> true :: fill_first_miss rest
    in
    Alcotest.(check (list bool))
      (name ^ ": a step arming appends to @P")
      (fill_first_miss alone)
      (rolls (Printf.sprintf "@0.1=%s;5=%s" name name))
  in
  check_rule (module F) "short-io";
  check_rule (module M) "replay"

(* The shared trigger printer keeps every digit a probability needs:
   [%g] would print 0.0123456789 as 0.0123457 and the replay would run
   under a different plan. *)
let test_probability_digits () =
  let p = 0.0123456789 in
  let plan =
    [ { I.what = F.Transient_errno; when_ = I.Probability p; shard = None } ]
  in
  Alcotest.(check string) "printed in full" "@0.0123456789=transient-errno"
    (F.plan_to_string plan);
  Alcotest.(check bool) "parses back" true
    (F.plan_of_string (F.plan_to_string plan) = Ok plan);
  let third = 1. /. 3. in
  Alcotest.(check bool) "17 digits when needed" true
    (I.trigger_of_string (I.trigger_to_string (I.Probability third))
    = Ok (I.Probability third))

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
    q "plan: fault plans round-trip" (plan_arb F.all F.plan_to_string)
      (plan_roundtrip F.plan_to_string F.plan_of_string);
    q "plan: attack plans round-trip" (plan_arb M.all M.plan_to_string)
      (plan_roundtrip M.plan_to_string M.plan_of_string);
    q "token: campaign and soak specs round-trip" token_arb token_roundtrip;
    q "token: malformed input never raises" garbage_arb malformed_never_raises;
    Alcotest.test_case "token: malformed messages are useful" `Quick
      test_malformed_messages;
    Alcotest.test_case "token: every trigger arms an attack" `Quick
      test_every_trigger_arms_an_attack;
    Alcotest.test_case "plan: a probability arming replaces, others append"
      `Quick test_replace_rule;
    Alcotest.test_case "token: probabilities keep every digit" `Quick
      test_probability_digits;
  ]
