(* Spans of the traced run.

   The benchmark wraps the [Libos.Api.t] records it hands to the
   workload's client and server code; every call through a wrapper
   records one span: the call name, which side of the trust boundary
   made it, the request it served and that request's root span, and
   both its simulated and its wall-clock interval.  Spans land in
   preallocated struct-of-arrays stores, so recording allocates
   nothing.

   Every span is aggregated (per-call cycle samples for the enclave
   side, server service times).  Raw spans are kept only for the trace
   file: all spans until request [head_requests] is seen, plus the spans
   of the [slowest] slowest requests, recovered from a ring of recent
   spans when each request completes. *)

let call_names = [| "sendto"; "recvfrom"; "poll"; "read"; "write"; "lseek"; "request" |]

let sendto = 0

let recvfrom = 1

let poll = 2

let read = 3

let write = 4

let lseek = 5

let request = 6

(* Which [Libos.Api.t] the call went through: the environment under test
   (RAKIS-SGX) or the native peer that plays the client. *)
let enclave = 0

let peer = 1

let head_requests = 10_000

let slowest = 100

let max_spans_per_request = 32

type store = {
  id : int array;
  call : int array;
  side : int array;
  req : int array;
  parent : int array;
  sim0 : int array;
  sim1 : int array;
  wall0 : int array;
  wall1 : int array;
}

let store n =
  let a () = Array.make n 0 in
  {
    id = a ();
    call = a ();
    side = a ();
    req = a ();
    parent = a ();
    sim0 = a ();
    sim1 = a ();
    wall0 = a ();
    wall1 = a ();
  }

let copy_span src i dst j =
  dst.id.(j) <- src.id.(i);
  dst.call.(j) <- src.call.(i);
  dst.side.(j) <- src.side.(i);
  dst.req.(j) <- src.req.(i);
  dst.parent.(j) <- src.parent.(i);
  dst.sim0.(j) <- src.sim0.(i);
  dst.sim1.(j) <- src.sim1.(i);
  dst.wall0.(j) <- src.wall0.(i);
  dst.wall1.(j) <- src.wall1.(i)

type t = {
  ring : store;
  ring_cap : int;
  mutable recorded : int;
  mutable next_id : int;
  head : store;
  head_cap : int;
  mutable head_n : int;
  mutable head_open : bool;
  slow : store;  (** slot [s] holds spans [s * max_spans_per_request ..] *)
  slow_n : int array;  (** spans held per slot *)
  slow_latency : int array;  (** [-1] = empty slot *)
  cycles : Sample.t array;  (** enclave-side cycles, per call *)
  calls : int array;  (** enclave-side calls, per call *)
  service : Sample.t;
      (** server cycles from a [recvfrom] returning to the next
          [sendto] on the same thread *)
}

let create () =
  let ring_cap = 1 lsl 16 and head_cap = 1 lsl 17 in
  {
    ring = store ring_cap;
    ring_cap;
    recorded = 0;
    next_id = 0;
    head = store head_cap;
    head_cap;
    head_n = 0;
    head_open = true;
    slow = store (slowest * max_spans_per_request);
    slow_n = Array.make slowest 0;
    slow_latency = Array.make slowest (-1);
    cycles = Array.init (Array.length call_names) (fun _ -> Sample.create 1024);
    calls = Array.make (Array.length call_names) 0;
    service = Sample.create 1024;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ~id ~call ~side ~req ~parent ~sim0 ~sim1 ~wall0 ~wall1 =
  let r = t.ring and i = t.recorded land (t.ring_cap - 1) in
  r.id.(i) <- id;
  r.call.(i) <- call;
  r.side.(i) <- side;
  r.req.(i) <- req;
  r.parent.(i) <- parent;
  r.sim0.(i) <- sim0;
  r.sim1.(i) <- sim1;
  r.wall0.(i) <- wall0;
  r.wall1.(i) <- wall1;
  t.recorded <- t.recorded + 1;
  if t.head_open then
    if req >= head_requests || t.head_n = t.head_cap then t.head_open <- false
    else begin
      copy_span r i t.head t.head_n;
      t.head_n <- t.head_n + 1
    end;
  if side = enclave && call <> request then begin
    Sample.add t.cycles.(call) (sim1 - sim0);
    t.calls.(call) <- t.calls.(call) + 1
  end

(* A request finished: record its root span and, if it is among the
   slowest so far, copy its spans out of the ring.  Spans are recorded
   when they end, so the ring is ordered by end time and the scan stops
   at the first span that ended before the request began. *)
let request_done t ~req ~root ~sim0 ~sim1 ~wall0 =
  record t ~id:root ~call:request ~side:peer ~req ~parent:(-1) ~sim0 ~sim1
    ~wall0 ~wall1:(Clock.now_ns ());
  let latency = sim1 - sim0 in
  let slot = ref (-1) in
  for s = 0 to slowest - 1 do
    if
      !slot < 0
      || t.slow_latency.(s) < t.slow_latency.(!slot)
    then slot := s
  done;
  let s = !slot in
  if latency > t.slow_latency.(s) then begin
    t.slow_latency.(s) <- latency;
    let base = s * max_spans_per_request in
    let n = ref 0 in
    let k = ref (t.recorded - 1) in
    let oldest = max 0 (t.recorded - t.ring_cap) in
    while
      !k >= oldest
      && !n < max_spans_per_request
      && t.ring.sim1.(!k land (t.ring_cap - 1)) >= sim0
    do
      let i = !k land (t.ring_cap - 1) in
      if t.ring.req.(i) = req then begin
        copy_span t.ring i t.slow (base + !n);
        incr n
      end;
      decr k
    done;
    t.slow_n.(s) <- !n
  end

let enclave_calls t = Array.fold_left ( + ) 0 t.calls

(* {1 Wrapping the syscall surface} *)

(* Per-thread attribution state: the client code sets [req] and
   [parent] before its calls; a server's wrapper learns [req] from the
   payload its [recvfrom] returned. *)
type ctx = {
  mutable req : int;
  mutable parent : int;
  mutable recv_at : int;
  mutable root_sim : int;
  mutable root_wall : int;
}

let ctx () = { req = -1; parent = -1; recv_at = -1; root_sim = 0; root_wall = 0 }

let rec wrap t ~side ?(classify = fun _ -> -1) c (api : Libos.Api.t) =
  let now () = Int64.to_int (Sim.Engine.now api.Libos.Api.engine) in
  let span call f =
    let s0 = now () and w0 = Clock.now_ns () in
    let r = f () in
    record t ~id:(fresh_id t) ~call ~side ~req:c.req ~parent:c.parent
      ~sim0:s0 ~sim1:(now ()) ~wall0:w0 ~wall1:(Clock.now_ns ());
    r
  in
  {
    api with
    Libos.Api.sendto =
      (fun fd buf dst ->
        if c.recv_at >= 0 then begin
          Sample.add t.service (now () - c.recv_at);
          c.recv_at <- -1
        end;
        span sendto (fun () -> api.Libos.Api.sendto fd buf dst));
    recvfrom =
      (fun fd max ->
        let s0 = now () and w0 = Clock.now_ns () in
        let r = api.Libos.Api.recvfrom fd max in
        (match r with
        | Ok (payload, _) ->
            c.recv_at <- now ();
            let id = classify payload in
            if id >= 0 then c.req <- id
        | Error _ -> ());
        record t ~id:(fresh_id t) ~call:recvfrom ~side ~req:c.req
          ~parent:c.parent ~sim0:s0 ~sim1:(now ()) ~wall0:w0
          ~wall1:(Clock.now_ns ());
        r);
    poll =
      (fun specs ~timeout ->
        span poll (fun () -> api.Libos.Api.poll specs ~timeout));
    read =
      (fun fd buf off len ->
        span read (fun () -> api.Libos.Api.read fd buf off len));
    write =
      (fun fd buf off len -> span write (fun () -> api.Libos.Api.write fd buf off len));
    lseek = (fun fd pos -> span lseek (fun () -> api.Libos.Api.lseek fd pos));
    spawn =
      (fun ~name body ->
        api.Libos.Api.spawn ~name (fun child ->
            body (wrap t ~side ~classify (ctx ()) child)));
  }

(* {1 Hooks for the workloads' client code}

   All are no-ops in an untraced run ([None]), so the client code is the
   same in both runs. *)

let wrap_opt spans ~side ?classify api =
  let c = ctx () in
  match spans with None -> (api, c) | Some t -> (wrap t ~side ?classify c api, c)

(* A closed-loop client starts request [req]; its calls until [end_op]
   are children of the request's root span. *)
let begin_op spans c ~req ~now =
  match spans with
  | None -> ()
  | Some t ->
      c.req <- req;
      c.parent <- fresh_id t;
      c.root_sim <- Int64.to_int now;
      c.root_wall <- Clock.now_ns ()

let end_op spans c ~now =
  match spans with
  | None -> ()
  | Some t ->
      request_done t ~req:c.req ~root:c.parent ~sim0:c.root_sim
        ~sim1:(Int64.to_int now) ~wall0:c.root_wall

(* {1 Chrome trace export} *)

let span_event ~us b st i =
  let call = call_names.(st.call.(i)) in
  Printf.bprintf b
    "{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \
     \"pid\": 1, \"tid\": %d, \"args\": {\"id\": %d, \"req\": %d, \"parent\": \
     %d, \"wall_ns\": %d}}"
    call
    (if st.side.(i) = enclave then "enclave" else "peer")
    (us st.sim0.(i))
    (us (st.sim1.(i) - st.sim0.(i)))
    st.req.(i) st.id.(i) st.req.(i) st.parent.(i)
    (st.wall1.(i) - st.wall0.(i))

let write_chrome t ~path ~obs_events =
  let us c = Sim.Cycles.to_us (Int64.of_int c) in
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"traceEvents\": [\n";
  let first = ref true in
  let sep () =
    if not !first then Buffer.add_string b ",\n";
    first := false
  in
  for i = 0 to t.head_n - 1 do
    sep ();
    span_event ~us b t.head i
  done;
  for s = 0 to slowest - 1 do
    for k = 0 to t.slow_n.(s) - 1 do
      sep ();
      span_event ~us b t.slow ((s * max_spans_per_request) + k)
    done
  done;
  List.iter
    (fun (e : Obs.Trace.event) ->
      sep ();
      Printf.bprintf b
        "{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
         %.3f, \"pid\": 2, \"tid\": 0, \"args\": {\"arg\": %d}}"
        e.name e.cat (us (Int64.to_int e.ts)) (us (Int64.to_int e.dur)) e.arg)
    obs_events;
  Buffer.add_string b "\n]}\n";
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)
