module Metrics = Metrics
module Trace = Trace

type t = { metrics : Metrics.t; trace : Trace.t }

let create ?trace_capacity ?(clock = fun () -> 0) () =
  {
    metrics = Metrics.create ();
    trace = Trace.create ?capacity:trace_capacity ~clock ();
  }

let metrics t = t.metrics

let trace t = t.trace

let counter t name = Metrics.counter t.metrics name
