(* Exact samples and the order statistics the benchmark reports.

   Latencies are kept one per operation in a growable int array and
   sorted once, so percentiles are exact nearest-rank values rather than
   histogram bucket bounds. *)

type t = { mutable a : int array; mutable n : int; mutable sorted : bool }

let create capacity = { a = Array.make (max 16 capacity) 0; n = 0; sorted = true }

let add t v =
  if t.n = Array.length t.a then begin
    let bigger = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 bigger 0 t.n;
    t.a <- bigger
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1;
  t.sorted <- false

let count t = t.n

let sort t =
  if not t.sorted then begin
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    Array.blit s 0 t.a 0 t.n;
    t.sorted <- true
  end

(* Nearest rank over [total] observations, of which the [count t]
   recorded ones are the smallest and the rest are treated as infinite
   (failed requests miss every latency limit).  [per_100k] is the
   percentile in thousandths of a percent (99.9 -> 99_900), so the rank
   is computed in integers.  [None] when the rank lands on a missing
   observation. *)
let percentile_of_total t ~per_100k ~total =
  if total = 0 then None
  else
    let r = max 1 (((per_100k * total) + 99_999) / 100_000) in
    if r > t.n then None
    else begin
      sort t;
      Some t.a.(r - 1)
    end

let percentile t ~per_100k =
  Option.value ~default:0 (percentile_of_total t ~per_100k ~total:t.n)

(* {1 Float summaries (across rounds and runs)} *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so the quartiles printed here match the ones the benchmark's
   acceptance check computes. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
