type fault =
  | Transient_errno
  | Short_io
  | Partial_cqe
  | Drop_wakeup
  | Delay_wakeup
  | Nic_stall
  | Monitor_crash
  | Monitor_hang
  | Wire_drop
  | Wire_dup
  | Wire_reorder
  | Wire_delay
  | Wire_trunc
  | Wire_runt
  | Wire_giant

let all =
  [
    Transient_errno;
    Short_io;
    Partial_cqe;
    Drop_wakeup;
    Delay_wakeup;
    Nic_stall;
    Monitor_crash;
    Monitor_hang;
    Wire_drop;
    Wire_dup;
    Wire_reorder;
    Wire_delay;
    Wire_trunc;
    Wire_runt;
    Wire_giant;
  ]

let name = function
  | Transient_errno -> "transient-errno"
  | Short_io -> "short-io"
  | Partial_cqe -> "partial-cqe"
  | Drop_wakeup -> "drop-wakeup"
  | Delay_wakeup -> "delay-wakeup"
  | Nic_stall -> "nic-stall"
  | Monitor_crash -> "monitor-crash"
  | Monitor_hang -> "monitor-hang"
  | Wire_drop -> "wire-drop"
  | Wire_dup -> "wire-dup"
  | Wire_reorder -> "wire-reorder"
  | Wire_delay -> "wire-delay"
  | Wire_trunc -> "wire-trunc"
  | Wire_runt -> "wire-runt"
  | Wire_giant -> "wire-giant"

include Injector.Make (struct
  type t = fault

  let all = all
  let name = name
  let prefix = "faults"
  let total = "faults.injected"
end)

let transient_errnos = Array.of_list Abi.Errno.transient

let pick_errno t = Sim.Rng.pick (rng t) transient_errnos
