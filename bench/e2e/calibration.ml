(* Host speed calibration for the host-time metrics.

   On a shared machine the same code runs up to a third slower for
   minutes at a time, when neighbours contend for memory and caches, and
   CPU time per operation moves with it.  Before every round the run
   times a fixed computation that shares no code with the system under
   test: a minor-heap allocation loop and an effect perform/continue
   loop, the two things the simulator's hot path does most.  The round's
   host times are scaled by [nominal / measured], so they read as times
   on a machine where the reference takes [nominal] seconds.  Over six
   echo64 runs on a loaded 2-vCPU VM it cut the spread of CPU time per
   operation (quartile distance over median) from 20 % to 2 %. *)

type _ Effect.t += Tick : unit Effect.t

let allocate () =
  let acc = ref [] in
  for i = 1 to 3_000_000 do
    acc := (i, i) :: (if i land 255 = 0 then [] else !acc)
  done;
  ignore (Sys.opaque_identity !acc)

let switch () =
  let open Effect.Deep in
  match_with
    (fun () ->
      for _ = 1 to 1_000_000 do
        Effect.perform Tick
      done)
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Tick -> Some (fun (k : (a, _) continuation) -> continue k ())
          | _ -> None);
    }

(* CPU seconds of the reference on an unloaded 2-vCPU x86-64 VM. *)
let nominal = 0.0175

(* The factor that scales host times measured now to the nominal speed:
   the fastest of three timings, so a single interruption does not count
   as a slow machine. *)
let factor () =
  let time () =
    let t0 = Sys.time () in
    allocate ();
    switch ();
    Sys.time () -. t0
  in
  nominal /. List.fold_left min (time ()) [ time (); time () ]
