type t = {
  engine : Sim.Engine.t;
  kernel : Hostos.Kernel.t;
  env : Libos.Env.t;
  peer : Libos.Api.t;
}

let make kind ?rakis_config ?(nic_queues = 4) () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine ~nic_queues () in
  match Libos.Env.create kernel kind ?rakis_config () with
  | Error e -> Error e
  | Ok env -> Ok { engine; kernel; env; peer = Libos.Hostapi.native kernel }

let api t = Libos.Env.api t.env

let run ?until t = Sim.Engine.run ?until t.engine

let stop t = Sim.Engine.stop t.engine
