(** Observability context: one metrics registry + one event sink.

    Instrumented entry points across the runtime, detector, agreement,
    and exploration layers accept [?obs:Obs.t]. [None] (the default)
    is the zero-cost path; [Some ctx] routes counters/histograms into
    [ctx.metrics] and events into [ctx.events]. Metrics are updated
    from one domain: the parallel explorer records its workers' counts
    after they have joined (see {!Metrics}). *)

type t = { metrics : Metrics.t; events : Events.t }

val create : ?events:Events.t -> unit -> t
(** Fresh registry and the given sink (default {!Events.nop}). *)

val events_on : t -> bool
(** [Events.enabled t.events] — guard allocation-heavy emission sites. *)
