type event = { ts : int64; dur : int64; cat : string; name : string; arg : int }

(* Struct-of-arrays ring buffer: recording an event is five array
   stores (the string stores are pointer writes of literals, the rest
   native ints), so the hot path neither allocates nor copies.  An
   [event] is built, with its boxed stamps, only on read. *)
type t = {
  cap : int;
  e_ts : int array;
  e_dur : int array;
  e_cat : string array;
  e_name : string array;
  e_arg : int array;
  mutable total : int; (* events ever recorded *)
  mutable enabled : bool;
  clock : unit -> int;
}

let create ?(capacity = 4096) ~clock () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  {
    cap = capacity;
    e_ts = Array.make capacity 0;
    e_dur = Array.make capacity 0;
    e_cat = Array.make capacity "";
    e_name = Array.make capacity "";
    e_arg = Array.make capacity 0;
    total = 0;
    enabled = true;
    clock;
  }

let set_enabled t v = t.enabled <- v

let now t = t.clock ()

let recorded t = t.total

let record t ~ts ~dur ~cat ~arg name =
  if t.enabled then begin
    let i = t.total mod t.cap in
    t.e_ts.(i) <- ts;
    t.e_dur.(i) <- dur;
    t.e_cat.(i) <- cat;
    t.e_name.(i) <- name;
    t.e_arg.(i) <- arg;
    t.total <- t.total + 1
  end

let instant t ~cat ~arg name = record t ~ts:(t.clock ()) ~dur:0 ~cat ~arg name

let span t ~cat ~arg name ~start =
  record t ~ts:start ~dur:(t.clock () - start) ~cat ~arg name

let retained t = min t.total t.cap

let nth_oldest t i =
  (* [i] in [0, retained): 0 is the oldest retained event. *)
  let first = if t.total <= t.cap then 0 else t.total mod t.cap in
  let j = (first + i) mod t.cap in
  {
    ts = Int64.of_int t.e_ts.(j);
    dur = Int64.of_int t.e_dur.(j);
    cat = t.e_cat.(j);
    name = t.e_name.(j);
    arg = t.e_arg.(j);
  }

let events t = List.init (retained t) (nth_oldest t)

let last t n =
  let r = retained t in
  let n = min n r in
  List.init n (fun i -> nth_oldest t (r - n + i))

let dropped t = max 0 (t.total - t.cap)

(* {1 Chrome trace_event export}

   about://tracing and https://ui.perfetto.dev load the "JSON object
   format": {"traceEvents": [...]}.  Complete events carry ph="X" with
   a duration; instants carry ph="i" with global scope. *)

let json_escape name =
  (* Instrument names are code literals, but keep the output valid JSON
     for any string. *)
  let b = Buffer.create (String.length name + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    name;
  Buffer.contents b

let to_chrome ?(us_per_cycle = 1e-3) ppf t =
  Format.fprintf ppf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Format.fprintf ppf ",";
      let ts = Int64.to_float e.ts *. us_per_cycle in
      if e.dur > 0L then
        Format.fprintf ppf
          "@\n\
           {\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"arg\":%d}}"
          (json_escape e.name) (json_escape e.cat) ts
          (Int64.to_float e.dur *. us_per_cycle)
          e.arg
      else
        Format.fprintf ppf
          "@\n\
           {\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"arg\":%d}}"
          (json_escape e.name) (json_escape e.cat) ts e.arg)
    (events t);
  Format.fprintf ppf "@\n],\"displayTimeUnit\":\"ms\"}@\n"

(* {1 Text timeline} *)

let pp_event ppf e =
  Format.fprintf ppf "[%12Ld] %-10s %-28s arg=%d" e.ts e.cat e.name e.arg;
  if e.dur > 0L then Format.fprintf ppf " dur=%Ld" e.dur

let pp_timeline ppf t =
  if dropped t > 0 then
    Format.fprintf ppf "... %d earlier events dropped (ring capacity %d)@\n"
      (dropped t) t.cap;
  List.iter (fun e -> Format.fprintf ppf "%a@\n" pp_event e) (events t)
