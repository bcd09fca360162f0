type counter = { c_name : string; mutable c_value : int }

type gauge = { g_name : string; mutable g_value : float }

(* Bucket [0] counts observations <= 0; bucket [k] (k >= 1) counts
   observations v with [2^(k-1) <= v < 2^k], i.e. k is the bit-length
   of v.  63 value buckets cover the whole non-negative [int] range on
   a 64-bit platform. *)
let nbuckets = 64

type histogram = {
  h_name : string;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
}

type t = {
  cs : (string, counter) Hashtbl.t;
  mutable all_counters : counter list; (* [cs]'s values, for {!sum_counters} *)
  gs : (string, gauge) Hashtbl.t;
  hs : (string, histogram) Hashtbl.t;
}

let create () =
  { cs = Hashtbl.create 64; all_counters = [];
    gs = Hashtbl.create 16; hs = Hashtbl.create 16 }

let counter t name =
  match Hashtbl.find_opt t.cs name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.add t.cs name c;
      t.all_counters <- c :: t.all_counters;
      c

let gauge t name =
  match Hashtbl.find_opt t.gs name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_value = 0. } in
      Hashtbl.add t.gs name g;
      g

let histogram t name =
  match Hashtbl.find_opt t.hs name with
  | Some h -> h
  | None ->
      let h =
        { h_name = name; h_buckets = Array.make nbuckets 0; h_count = 0; h_sum = 0 }
      in
      Hashtbl.add t.hs name h;
      h

(* {1 Hot-path operations: field mutations only, no allocation} *)

let incr c = c.c_value <- c.c_value + 1

let add c n = c.c_value <- c.c_value + n

let value c = c.c_value

let counter_name c = c.c_name

let set g v = g.g_value <- v

let get g = g.g_value

let gauge_name g = g.g_name

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* bit length of v: position of the highest set bit, plus one *)
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min (nbuckets - 1) (bits v 0)
  end

let bucket_bounds k =
  if k = 0 then (min_int, 0) else (1 lsl (k - 1), (1 lsl k) - 1)

let observe h v =
  h.h_buckets.(bucket_of v) <- h.h_buckets.(bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v

let count h = h.h_count

let sum h = h.h_sum

let mean h = if h.h_count = 0 then 0. else float_of_int h.h_sum /. float_of_int h.h_count

let histogram_name h = h.h_name

let buckets h =
  let acc = ref [] in
  for k = nbuckets - 1 downto 0 do
    if h.h_buckets.(k) > 0 then begin
      let lo, hi = bucket_bounds k in
      acc := (lo, hi, h.h_buckets.(k)) :: !acc
    end
  done;
  !acc

let percentile h p =
  if h.h_count = 0 then 0
  else begin
    let p = if p < 0. then 0. else if p > 100. then 100. else p in
    (* Rank of the requested observation (1-based, ceiling): the
       smallest k such that at least p% of observations are <= the
       answer.  Resolution is the log2 bucket: we report the bucket's
       upper bound, a conservative (pessimistic) latency estimate. *)
    let rank =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int h.h_count)))
    in
    let rec walk k seen =
      if k >= nbuckets then snd (bucket_bounds (nbuckets - 1))
      else
        let seen = seen + h.h_buckets.(k) in
        if seen >= rank then snd (bucket_bounds k) else walk (k + 1) seen
    in
    walk 0 0
  end

type summary = {
  s_count : int;
  s_mean : float;
  s_p50 : int;
  s_p99 : int;
  s_p999 : int;
}

(* One-call latency digest for reports (campaign soak, bench --json).
   Each percentile is {!percentile}'s bucket upper bound: for a true
   value v >= 1 the reported figure lies in [v, 2v), i.e. conservative
   by at most 2x.  Comparisons between two summaries from the same
   workload shape are still meaningful because both sides carry the
   same bucketing bias. *)
let summary h =
  {
    s_count = h.h_count;
    s_mean = mean h;
    s_p50 = percentile h 50.;
    s_p99 = percentile h 99.;
    s_p999 = percentile h 99.9;
  }

let pp_summary ppf s =
  Format.fprintf ppf "count=%d mean=%.0f p50=%d p99=%d p999=%d" s.s_count
    s.s_mean s.s_p50 s.s_p99 s.s_p999

(* {1 Registry-wide queries} *)

let find t name = Option.map (fun c -> c.c_value) (Hashtbl.find_opt t.cs name)

let get_counter t name = Option.value ~default:0 (find t name)

let sorted_by_name key tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> String.compare (key a) (key b))

let counters t =
  sorted_by_name (fun c -> c.c_name) t.cs
  |> List.map (fun c -> (c.c_name, c.c_value))

let gauges t =
  sorted_by_name (fun g -> g.g_name) t.gs
  |> List.map (fun g -> (g.g_name, g.g_value))

let histograms t = sorted_by_name (fun h -> h.h_name) t.hs

let with_prefix t prefix =
  List.filter_map
    (fun (name, v) ->
      if String.starts_with ~prefix name then
        Some
          ( String.sub name (String.length prefix)
              (String.length name - String.length prefix),
            v )
      else None)
    (counters t)

(* {!sum_counters}'s matching: top-level loops over explicit arguments
   (no closure, no substring), so the query allocates nothing. *)
let rec holds name pat off i =
  i = String.length pat
  || String.unsafe_get name (off + i) = String.unsafe_get pat i
     && holds name pat off (i + 1)

(* [pat] at some offset in [off, last] — at [off] if [pat] is empty. *)
let rec holds_within name pat off last =
  off <= last && (holds name pat off 0 || holds_within name pat (off + 1) last)

let rec sum_list cs ~prefix ~infix ~suffix acc =
  match cs with
  | [] -> acc
  | { c_name = n; c_value } :: rest ->
      let s = String.length n - String.length suffix in
      let hit =
        s >= String.length prefix
        && holds n prefix 0 0 && holds n suffix s 0
        && holds_within n infix (String.length prefix) (s - String.length infix)
      in
      sum_list rest ~prefix ~infix ~suffix (if hit then acc + c_value else acc)

let sum_counters ?(infix = "") t ~prefix ~suffix =
  sum_list t.all_counters ~prefix ~infix ~suffix 0

let reset t =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) t.cs;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.) t.gs;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 nbuckets 0;
      h.h_count <- 0;
      h.h_sum <- 0)
    t.hs

(* {1 Rendering} *)

let pp_histogram ppf h =
  Format.fprintf ppf "@[<v2>%s: count=%d sum=%d mean=%.2f" h.h_name h.h_count
    h.h_sum (mean h);
  List.iter
    (fun (lo, hi, n) ->
      let range =
        if lo = min_int then "[..0]" else Printf.sprintf "[%d..%d]" lo hi
      in
      Format.fprintf ppf "@,%-14s %8d" range n)
    (buckets h);
  Format.fprintf ppf "@]"

let pp ppf t =
  let widest =
    List.fold_left
      (fun acc (name, _) -> max acc (String.length name))
      0 (counters t)
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-*s %12d@," widest name v)
    (counters t);
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-*s %12g@," widest name v)
    (gauges t);
  Format.pp_print_list pp_histogram ppf (histograms t);
  Format.fprintf ppf "@]"
