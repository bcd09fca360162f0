type t = {
  fm : Iouring_fm.t;
  slow : Slowpath.t;
  breaker : Health.t;
  overload : Overload.t option;
}

let create ~slow ~breaker ~overload fm = { fm; slow; breaker; overload }

let fm t = t.fm

(* False for ops whose abandoned SQE could corrupt state if the kernel
   executes it late (a probe [recv] would consume stream bytes nobody
   awaits) — those decline the probe slot and go slow. *)
let probe_ok : Iouring_fm.op -> bool = function
  | Read | Write | Send -> true
  | Recv -> false

(* Overload admission on the pending table (DESIGN.md §15).  Data-class
   ops are refused with an accounted [EAGAIN] while the runtime-wide
   io_uring controller is under pressure; breaker probes are control
   traffic, counted and never shed — shedding the probe would starve
   the failback signal.  Each admitted fast op feeds its wall time back
   as the controller's sojourn sample (the CoDel signal for this queue)
   and the FM's in-flight count as the depth sample. *)
let admit t =
  match t.overload with None -> true | Some ov -> Overload.admit ov

let admit_control t = Option.iter Overload.admit_control t.overload

let fast t op ~fd ~off ~buf ~pos ~len =
  match t.overload with
  | None -> Iouring_fm.io t.fm op ~fd ~off ~buf ~pos ~len
  | Some ov ->
      Overload.note_depth ov ~src:0 (Iouring_fm.inflight t.fm);
      let started = Overload.now ov in
      let r = Iouring_fm.io t.fm op ~fd ~off ~buf ~pos ~len in
      Overload.observe_sojourn ov (Int64.sub (Overload.now ov) started);
      Overload.note_depth ov ~src:0 (Iouring_fm.inflight t.fm);
      r

let probe_attempt t op ~fd ~off ~buf ~pos ~len =
  Iouring_fm.set_probe_mode t.fm true;
  Fun.protect
    ~finally:(fun () -> Iouring_fm.set_probe_mode t.fm false)
    (fun () -> fast t op ~fd ~off ~buf ~pos ~len)

(* One synchronous op through the breaker.  An [ETIMEDOUT] fast result
   is the terminal "every attempt failed" verdict (DESIGN.md §8);
   completing it via the slow path keeps the failure invisible to the
   app.  That completion is at-least-once: an attempt abandoned on the
   FM's sync-op deadline may still execute later. *)
let io t op ~fd ~off ~buf ~pos ~len =
  let b = t.breaker in
  match Health.allow b with
  | Health.Slow ->
      if admit t then Slowpath.io t.slow op ~fd ~off ~buf ~pos ~len
      else Error Abi.Errno.EAGAIN
  | Health.Probe when not (probe_ok op) ->
      admit_control t;
      Health.cancel_probe b;
      Health.record_failover b;
      Slowpath.io t.slow op ~fd ~off ~buf ~pos ~len
  | Health.Probe -> (
      admit_control t;
      match probe_attempt t op ~fd ~off ~buf ~pos ~len with
      | Ok _ as r ->
          Health.record_success b;
          r
      | Error Abi.Errno.ETIMEDOUT ->
          Health.record_failure b;
          Health.record_failover b;
          Slowpath.io t.slow op ~fd ~off ~buf ~pos ~len
      | Error e as r when Abi.Errno.is_transient e ->
          (* Admission shed, not a datapath verdict: release the probe
             slot and surface the backpressure. *)
          Health.cancel_probe b;
          r
      | Error _ as r ->
          (* The FIOKP answered; the op failed semantically. *)
          Health.record_success b;
          r)
  | Health.Fast when not (admit t) -> Error Abi.Errno.EAGAIN
  | Health.Fast -> (
      match fast t op ~fd ~off ~buf ~pos ~len with
      | Ok _ as r ->
          Health.record_success b;
          r
      | Error Abi.Errno.ETIMEDOUT ->
          Health.record_failure b;
          Health.record_failover b;
          Slowpath.io t.slow op ~fd ~off ~buf ~pos ~len
      | Error _ as r -> r)

let poll_multi t = Iouring_fm.poll_multi t.fm

let forget_fd t ~fd = Iouring_fm.forget_fd t.fm ~fd
