type routine = Rx | Tx

type reject =
  | Out_of_range of int
  | Misaligned of int
  | Wrong_owner of { offset : int; expected : routine }
  | Oversize of { offset : int; len : int }
  | Not_registered of int

type state = Owned | Allocated | With_kernel of routine | Registered

type t = {
  size : int;
  frame_size : int;
  nframes : int;
  state : state array;
  (* Free frame indices, a FIFO ring of capacity [nframes]: the oldest
     free frame is [free.(free_head)], and frames are handed out in the
     order they came home. *)
  free : int array;
  mutable free_head : int;
  mutable free_len : int;
  mutable out_rx : int; (* frames currently With_kernel Rx *)
  mutable out_tx : int; (* frames currently With_kernel Tx *)
  mutable allocated : int; (* frames in Allocated limbo *)
  mutable registered_n : int; (* frames lent to the kernel until notif *)
  rejects : Obs.Metrics.counter;
  force_reclaims : Obs.Metrics.counter;
  trace : Obs.Trace.t option;
  alloc_label : string; (* precomputed: alloc/free trace is per-frame *)
  free_label : string;
}

let create ?obs ?(name = "umem") ~size ~frame_size () =
  if frame_size <= 0 || size <= 0 || size mod frame_size <> 0 then
    invalid_arg "Umem.create: size must be a positive multiple of frame_size";
  let nframes = size / frame_size in
  let m =
    match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create ()
  in
  {
    size;
    frame_size;
    nframes;
    state = Array.make nframes Owned;
    free = Array.init nframes Fun.id;
    free_head = 0;
    free_len = nframes;
    out_rx = 0;
    out_tx = 0;
    allocated = 0;
    registered_n = 0;
    rejects = Obs.Metrics.counter m (name ^ ".rejects");
    force_reclaims = Obs.Metrics.counter m (name ^ ".force_reclaims");
    trace = Option.map Obs.trace obs;
    alloc_label = name ^ ".alloc";
    free_label = name ^ ".free";
  }

let frame_size t = t.frame_size

let frame_count t = t.nframes

let free_frames t = t.free_len

(* Ring position [i] for [0 <= i < 2 * nframes]. *)
let wrap t i = if i >= t.nframes then i - t.nframes else i

let push_free t idx =
  t.free.(wrap t (t.free_head + t.free_len)) <- idx;
  t.free_len <- t.free_len + 1

(* The [With_kernel] states are the two constant blocks, never one
   allocated per commit. *)
let with_kernel = function Rx -> With_kernel Rx | Tx -> With_kernel Tx

let outstanding t routine = match routine with Rx -> t.out_rx | Tx -> t.out_tx

let trace_frame t label offset =
  match t.trace with
  | None -> ()
  | Some tr -> Obs.Trace.instant tr ~cat:"umem" ~arg:offset label

let alloc t =
  if t.free_len = 0 then None
  else begin
    let idx = t.free.(t.free_head) in
    t.free_head <- wrap t (t.free_head + 1);
    t.free_len <- t.free_len - 1;
    t.state.(idx) <- Allocated;
    t.allocated <- t.allocated + 1;
    let offset = idx * t.frame_size in
    trace_frame t t.alloc_label offset;
    Some offset
  end

let frame_of_exn t offset op =
  if offset < 0 || offset >= t.size then
    invalid_arg (Printf.sprintf "Umem.%s: offset %d out of range" op offset);
  if offset mod t.frame_size <> 0 then
    invalid_arg (Printf.sprintf "Umem.%s: offset %d misaligned" op offset);
  offset / t.frame_size

let commit t offset routine =
  let idx = frame_of_exn t offset "commit" in
  match t.state.(idx) with
  | Allocated ->
      t.state.(idx) <- with_kernel routine;
      t.allocated <- t.allocated - 1;
      (match routine with
      | Rx -> t.out_rx <- t.out_rx + 1
      | Tx -> t.out_tx <- t.out_tx + 1)
  | Owned | With_kernel _ | Registered ->
      invalid_arg "Umem.commit: frame was not allocated"

let cancel t offset =
  let idx = frame_of_exn t offset "cancel" in
  match t.state.(idx) with
  | Allocated ->
      t.state.(idx) <- Owned;
      t.allocated <- t.allocated - 1;
      push_free t idx
  | Owned | With_kernel _ | Registered ->
      invalid_arg "Umem.cancel: frame was not allocated"

(* Zero-copy lending: the frame leaves on a SEND_ZC and the kernel may
   read it until the notif CQE — Allocated -> Registered is an
   FM-internal transition (caller bug = exception, like commit). *)
let register t offset =
  let idx = frame_of_exn t offset "register" in
  match t.state.(idx) with
  | Allocated ->
      t.state.(idx) <- Registered;
      t.allocated <- t.allocated - 1;
      t.registered_n <- t.registered_n + 1
  | Owned | With_kernel _ | Registered ->
      invalid_arg "Umem.register: frame was not allocated"

let reject t r =
  Obs.Metrics.incr t.rejects;
  Error r

(* Registered -> free is the only exit from Registered, and it is
   host-prompted (a notif CQE names the frame), so it is validated like
   {!reclaim}: a notif for a frame we never lent — or lent and already
   took back — is a Table-2-style violation, refused with nothing
   changed. *)
let release t ~offset =
  if offset < 0 || offset >= t.size then reject t (Out_of_range offset)
  else if offset mod t.frame_size <> 0 then reject t (Misaligned offset)
  else begin
    let idx = offset / t.frame_size in
    match t.state.(idx) with
    | Registered ->
        t.state.(idx) <- Owned;
        t.registered_n <- t.registered_n - 1;
        push_free t idx;
        trace_frame t t.free_label offset;
        Ok ()
    | Owned | Allocated | With_kernel _ -> reject t (Not_registered offset)
  end

let reclaim t routine ~offset ?(len = 0) () =
  if offset < 0 || offset + max len 1 > t.size then reject t (Out_of_range offset)
  else if offset mod t.frame_size <> 0 then reject t (Misaligned offset)
  else if len > t.frame_size then reject t (Oversize { offset; len })
  else begin
    let idx = offset / t.frame_size in
    match t.state.(idx) with
    | With_kernel r when r = routine ->
        t.state.(idx) <- Owned;
        (match routine with
        | Rx -> t.out_rx <- t.out_rx - 1
        | Tx -> t.out_tx <- t.out_tx - 1);
        push_free t idx;
        trace_frame t t.free_label offset;
        Ok ()
    | Owned | Allocated | With_kernel _ | Registered ->
        reject t (Wrong_owner { offset; expected = routine })
  end

let limbo t = t.allocated

let registered t = t.registered_n

let conservation_holds t =
  t.free_len + t.out_rx + t.out_tx + t.allocated + t.registered_n
  = t.nframes

(* Quarantine-and-reinit support: after ring re-certification nothing
   the kernel still "holds" will ever legitimately come back, so pull
   every With_kernel frame home.  Frames in Allocated limbo belong to a
   transmit in progress and are deliberately left alone — their owner
   will commit or cancel them. *)
let reclaim_outstanding ?only t =
  let want r = match only with None -> true | Some o -> o = r in
  let count = ref 0 in
  Array.iteri
    (fun idx -> function
      | With_kernel r when want r ->
          t.state.(idx) <- Owned;
          push_free t idx;
          trace_frame t t.free_label (idx * t.frame_size);
          incr count
      | With_kernel _ | Owned | Allocated | Registered ->
          (* Registered frames are NOT swept: ring re-certification says
             nothing about whether the NIC has drained a zero-copy
             frag — only its notif may free it (docs/zerocopy.md). *)
          ())
    t.state;
  if want Rx then t.out_rx <- 0;
  if want Tx then t.out_tx <- 0;
  Obs.Metrics.add t.force_reclaims !count;
  !count

let force_reclaims t = Obs.Metrics.value t.force_reclaims

let rejects t = Obs.Metrics.value t.rejects

let pp_reject ppf = function
  | Out_of_range off -> Format.fprintf ppf "offset %d out of UMem range" off
  | Misaligned off -> Format.fprintf ppf "offset %d not frame-aligned" off
  | Wrong_owner { offset; expected } ->
      Format.fprintf ppf "frame %d not owned by %s routine" offset
        (match expected with Rx -> "receive" | Tx -> "send")
  | Oversize { offset; len } ->
      Format.fprintf ppf "descriptor (%d, +%d) exceeds frame" offset len
  | Not_registered off ->
      Format.fprintf ppf "notif for frame %d that is not lent out" off
