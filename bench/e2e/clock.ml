(* Host wall clock: CLOCK_MONOTONIC in nanoseconds, read without
   allocating so it can bracket individual calls. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since ns = float_of_int (now_ns () - ns) /. 1e9
