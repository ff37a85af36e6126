(* The context handed to instrumented layers: a metrics registry and
   an event sink. Instrumented entry points take [?obs:Obs.t]
   defaulting to [None] — absence of a context is the true zero-cost
   path (one [match] per potential instrumentation point). *)

type t = { metrics : Metrics.t; events : Events.t }

let create ?(events = Events.nop) () = { metrics = Metrics.create (); events }

let events_on t = Events.enabled t.events
