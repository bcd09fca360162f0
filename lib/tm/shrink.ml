(* Greedy trace shrinker (ddmin-lite).

   Given a failing trace and a predicate that replays a candidate trace
   and reports whether it still fails, repeatedly delete chunks —
   halving the chunk size down to single elements — until no single
   deletion preserves the failure.  The result is 1-minimal: removing
   any one remaining element makes the failure disappear.  Replay
   determinism (seeded RNGs everywhere in the TM) is what makes the
   predicate meaningful. *)

type 'a result = {
  trace : 'a list;  (* the minimized failing trace *)
  original : int;  (* length of the input trace *)
  tests : int;  (* predicate evaluations spent *)
}

let remove_slice l start len =
  List.filteri (fun i _ -> i < start || i >= start + len) l

(* One ddmin sweep: delete chunks, halving the chunk size down to single
   elements, keeping every deletion [try_fails] accepts.  It may shrink
   to the empty list; a caller that must not passes a [try_fails] that
   refuses [[]]. *)
let ddmin ~try_fails l =
  if l = [] then l
  else
    let rec shrink chunk l =
      let changed = ref false in
      let cur = ref l in
      let start = ref 0 in
      while !start < List.length !cur do
        let cand = remove_slice !cur !start chunk in
        if List.length cand < List.length !cur && try_fails cand then begin
          cur := cand;
          changed := true
        end
        else start := !start + chunk
      done;
      if !changed then shrink chunk !cur
      else if chunk > 1 then shrink (chunk / 2) !cur
      else !cur
    in
    shrink (max 1 (List.length l / 2)) l

let minimize ~fails trace =
  let max_tests = 10_000 in
  let tests = ref 0 in
  let try_fails c =
    incr tests;
    !tests <= max_tests && fails c
  in
  let original = List.length trace in
  if original = 0 || not (try_fails trace) then
    { trace; original; tests = !tests }
  else
    let trace = ddmin ~try_fails:(fun c -> c <> [] && try_fails c) trace in
    { trace; original; tests = !tests }

let ratio r =
  if r.trace = [] then 1.0
  else float_of_int r.original /. float_of_int (List.length r.trace)

(* {1 Two-list minimization}

   A failing campaign has two coordinates: the attack schedule AND the
   fault plan.  Minimizing only the schedule (the original
   [shrink_failure]) leaves repro tokens dragging along fault armings
   that play no part in the failure.  [minimize2] runs the same ddmin
   pass over both lists, alternating until neither side shrinks — and
   unlike the single-list entry point it may shrink either side to
   empty (a failure that needs no faults at all should say so). *)

type ('a, 'b) result2 = {
  trace2 : 'a list;
  plan2 : 'b list;
  original2 : int * int;  (* input lengths: (trace, plan) *)
  tests2 : int;
}

let minimize2 ~fails trace plan =
  let max_tests = 20_000 in
  let tests = ref 0 in
  let try2 a b =
    incr tests;
    !tests <= max_tests && fails a b
  in
  let original2 = (List.length trace, List.length plan) in
  if not (try2 trace plan) then { trace2 = trace; plan2 = plan; original2; tests2 = !tests }
  else begin
    let a = ref trace and b = ref plan in
    let progress = ref true in
    while !progress do
      progress := false;
      let a' = ddmin ~try_fails:(fun x -> try2 x !b) !a in
      if List.length a' < List.length !a then begin
        a := a';
        progress := true
      end;
      let b' = ddmin ~try_fails:(fun y -> try2 !a y) !b in
      if List.length b' < List.length !b then begin
        b := b';
        progress := true
      end
    done;
    { trace2 = !a; plan2 = !b; original2; tests2 = !tests }
  end

(* {1 Element simplification}

   Deletion cannot reach everything: a fault arming pinned to shard 1
   (["persist=drop-wakeup#1"]) may be essential while its {e pin} is
   not.  [simplify] proposes a simpler variant per element and keeps
   each replacement that still fails, to fixpoint. *)

let simplify ~fails ~simpler l =
  let max_tests = 1_000 in
  let tests = ref 0 in
  let try_fails c =
    incr tests;
    !tests <= max_tests && fails c
  in
  let arr = Array.of_list l in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun i e ->
        match simpler e with
        | None -> ()
        | Some e' ->
            let cand =
              Array.to_list (Array.mapi (fun j x -> if j = i then e' else x) arr)
            in
            if try_fails cand then begin
              arr.(i) <- e';
              progress := true
            end)
      arr
  done;
  (Array.to_list arr, !tests)
