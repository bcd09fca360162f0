type t = {
  engine : Sim.Engine.t;
  sgx : bool;
  name : string;
  exits : Obs.Metrics.counter;
  boundary_bytes : Obs.Metrics.counter;
}

let create engine ~sgx ~name =
  let counter = Obs.Metrics.counter (Sim.Engine.stats engine) in
  {
    engine;
    sgx;
    name;
    exits = counter "sgx.exits";
    boundary_bytes = counter "sgx.boundary_bytes";
  }

let engine t = t.engine

let sgx_enabled t = t.sgx

let name t = t.name

let trusted_region t ~size ~name =
  Mem.Region.create ~kind:Trusted ~name:(t.name ^ "." ^ name) ~size

let untrusted_region t ~size ~name =
  Mem.Region.create ~kind:Untrusted ~name:(t.name ^ "." ^ name) ~size

let charge _t cycles =
  if Int64.compare cycles 0L > 0 then Sim.Engine.delay cycles

let ocall t =
  Obs.Metrics.incr t.exits;
  if t.sgx then charge t !Params.enclave_exit_cycles

let exits t = Obs.Metrics.value t.exits

let copy_cycles t ~crossing len =
  let per_byte =
    if crossing && t.sgx then
      Params.memcpy_cycles_per_byte +. Params.boundary_copy_extra_per_byte
    else Params.memcpy_cycles_per_byte
  in
  Int64.of_float (ceil (float_of_int len *. per_byte))

let charge_copy t ~crossing len =
  if crossing then Obs.Metrics.add t.boundary_bytes len;
  charge t (copy_cycles t ~crossing len)
