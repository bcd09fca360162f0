type t = {
  fm : Iouring_fm.t;
  slow : Slowpath.t;
  breaker : Health.t;
  overload : Overload.t option;
}

let create ~slow ~breaker ~overload fm = { fm; slow; breaker; overload }

let fm t = t.fm

(* The four proxied syscalls.  A call passes its arguments down with
   its [op] instead of building a closure per path. *)
type op = Read | Write | Send | Recv

(* False for ops whose abandoned SQE could corrupt state if the kernel
   executes it late (a probe [recv] would consume stream bytes nobody
   awaits) — those decline the probe slot and go slow. *)
let probe_ok = function Read | Write | Send -> true | Recv -> false

let fm_call t op ~fd ~off ~buf ~pos ~len =
  match op with
  | Read -> Iouring_fm.read t.fm ~fd ~off ~buf ~pos ~len
  | Write -> Iouring_fm.write t.fm ~fd ~off ~buf ~pos ~len
  | Send -> Iouring_fm.send t.fm ~fd ~buf ~pos ~len
  | Recv -> Iouring_fm.recv t.fm ~fd ~buf ~pos ~len

let slow_call t op ~fd ~off ~buf ~pos ~len =
  match op with
  | Read -> Slowpath.read t.slow ~fd ~off ~buf ~pos ~len
  | Write -> Slowpath.write t.slow ~fd ~off ~buf ~pos ~len
  | Send -> Slowpath.send t.slow ~fd ~buf ~pos ~len
  | Recv -> Slowpath.recv t.slow ~fd ~buf ~pos ~len

(* Overload admission on the pending table (DESIGN.md §15).  Data-class
   ops are refused with an accounted [EAGAIN] while the runtime-wide
   io_uring controller is under pressure; breaker probes classify as
   [Control] and always pass — shedding the probe would starve the
   failback signal.  Each admitted fast op feeds its wall time back as
   the controller's sojourn sample (the CoDel signal for this queue)
   and the FM's in-flight count as the depth sample. *)
let admit t cls =
  match t.overload with None -> true | Some ov -> Overload.admit ov cls

let fast t op ~fd ~off ~buf ~pos ~len =
  match t.overload with
  | None -> fm_call t op ~fd ~off ~buf ~pos ~len
  | Some ov ->
      Overload.note_depth ov ~src:0 (Iouring_fm.inflight t.fm);
      let started = Overload.now ov in
      let r = fm_call t op ~fd ~off ~buf ~pos ~len in
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
let route t op ~fd ~off ~buf ~pos ~len =
  let b = t.breaker in
  match Health.allow b with
  | Health.Slow ->
      if admit t Overload.Data then slow_call t op ~fd ~off ~buf ~pos ~len
      else Error Abi.Errno.EAGAIN
  | Health.Probe when not (probe_ok op) ->
      ignore (admit t Overload.Control);
      Health.cancel_probe b;
      Health.record_failover b;
      slow_call t op ~fd ~off ~buf ~pos ~len
  | Health.Probe when not (admit t Overload.Control) ->
      (* Unreachable — [Control] is never shed — but if the controller
         ever misbehaved, release the probe slot rather than leak it. *)
      Health.cancel_probe b;
      Error Abi.Errno.EAGAIN
  | Health.Probe -> (
      match probe_attempt t op ~fd ~off ~buf ~pos ~len with
      | Ok _ as r ->
          Health.record_success b;
          r
      | Error Abi.Errno.ETIMEDOUT ->
          Health.record_failure b;
          Health.record_failover b;
          slow_call t op ~fd ~off ~buf ~pos ~len
      | Error e as r when Abi.Errno.is_transient e ->
          (* Admission shed, not a datapath verdict: release the probe
             slot and surface the backpressure. *)
          Health.cancel_probe b;
          r
      | Error _ as r ->
          (* The FIOKP answered; the op failed semantically. *)
          Health.record_success b;
          r)
  | Health.Fast when not (admit t Overload.Data) -> Error Abi.Errno.EAGAIN
  | Health.Fast -> (
      match fast t op ~fd ~off ~buf ~pos ~len with
      | Ok _ as r ->
          Health.record_success b;
          r
      | Error Abi.Errno.ETIMEDOUT ->
          Health.record_failure b;
          Health.record_failover b;
          slow_call t op ~fd ~off ~buf ~pos ~len
      | Error _ as r -> r)

let read t ~fd ~off ~buf ~pos ~len = route t Read ~fd ~off ~buf ~pos ~len

let write t ~fd ~off ~buf ~pos ~len = route t Write ~fd ~off ~buf ~pos ~len

let send t ~fd ~buf ~pos ~len = route t Send ~fd ~off:0 ~buf ~pos ~len

let recv t ~fd ~buf ~pos ~len = route t Recv ~fd ~off:0 ~buf ~pos ~len

let poll_multi t = Iouring_fm.poll_multi t.fm

let forget_fd t ~fd = Iouring_fm.forget_fd t.fm ~fd
