(* An alias kept only for bench/e2e/round.ml, which lists the engine's
   registry as [Sim.Stats.counters]: the registry is an [Obs.Metrics.t]. *)
include Obs.Metrics
