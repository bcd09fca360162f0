type t = {
  engine : Sim.Engine.t;
  kernel : Hostos.Kernel.t;
  env : Libos.Env.t;
  peer : Libos.Api.t;
}

let make kind ?rakis_config ?nic_queues () =
  let nic_queues =
    match nic_queues with
    | Some n -> n
    | None ->
        let c = Option.value rakis_config ~default:Rakis.Config.default in
        max 4 (c.Rakis.Config.num_queues * c.Rakis.Config.num_xsks)
  in
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine ~nic_queues () in
  match Libos.Env.create kernel kind ?rakis_config () with
  | Error e -> Error e
  | Ok env -> Ok { engine; kernel; env; peer = Libos.Hostapi.native kernel }

let api t = Libos.Env.api t.env

let run ?until t = Sim.Engine.run ?until t.engine

let stop t = Sim.Engine.stop t.engine
