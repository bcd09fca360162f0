(* Capacity of an open-loop workload: the highest offered rate whose
   latency stays within the limit and whose losses stay within a
   threshold.

   Each step is a fresh round at one rate.  The search climbs a ladder
   of rates to the first one that misses; if every rung passes it keeps
   doubling the rate, up to [max_rate].  It then bisects [bisections]
   times between the last pass (0 when the first rung misses) and the
   first miss. *)

let slo_p99 = Sim.Cycles.of_us 100.

type search = {
  rates : float list;  (** kops/s, climbed in order *)
  max_rate : float;  (** no rung above this *)
  bisections : int;
  max_fail_ratio : float;
}

(* The p99 over every attempted operation, failed ones counting as
   infinitely slow; [None] when the failures reach the p99 rank. *)
let p99 (o : Round.outcome) =
  Sample.percentile_of_total o.latencies ~per_100k:99_000 ~total:(Round.attempted o)

let passes s (o : Round.outcome) =
  o.violations = [] && o.stopped = None
  && float_of_int o.failed <= s.max_fail_ratio *. float_of_int (Round.attempted o)
  && match p99 o with Some p -> p <= Int64.to_int slo_p99 | None -> false

(* [step kops] runs one round and returns it.  After bisecting, the
   capacity is interpolated between the last pass and the first miss
   where log p99 crosses the limit, so it moves smoothly with the system
   rather than in bisection-sized steps; a miss by loss has no p99, and
   then the capacity is the last pass. *)
let capacity s ~step =
  let try_rate k =
    let o = step k in
    (passes s o, p99 o)
  in
  let rec climb last = function
    | [] ->
        let top = fst last in
        if top <= 0. || top >= s.max_rate then (last, None)
        else climb last [ Float.min s.max_rate (2. *. top) ]
    | k :: rest -> (
        match try_rate k with
        | true, p -> climb (k, p) rest
        | false, p -> (last, Some (k, p)))
  in
  match climb (0., None) s.rates with
  | (lo, _), None -> lo
  | lo, Some miss ->
      let lo = ref lo and hi = ref miss in
      for _ = 1 to s.bisections do
        let mid = (fst !lo +. fst !hi) /. 2. in
        match try_rate mid with
        | true, p -> lo := (mid, p)
        | false, p -> hi := (mid, p)
      done;
      let (lo, lo_p99), (hi, hi_p99) = (!lo, !hi) in
      let limit = Int64.to_int slo_p99 in
      match (lo_p99, hi_p99) with
      | Some a, Some b when b > limit ->
          let log_of x = log (float_of_int x) in
          lo +. ((hi -. lo) *. (log_of limit -. log_of a) /. (log_of b -. log_of a))
      | _ -> lo
