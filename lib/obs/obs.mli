(** Observability context: one metrics registry + one event sink.

    Instrumented entry points across the runtime, detector, agreement,
    and exploration layers accept [?obs:Obs.t]. [None] (the default)
    is the zero-cost path; [Some ctx] routes counters/histograms into
    [ctx.metrics] and events into [ctx.events]. Single-domain layers
    update shard 0; the parallel explorer passes each worker's id as
    the shard itself, so hot paths never contend (see {!Metrics}). *)

type t = { metrics : Metrics.t; events : Events.t }

val create : ?shards:int -> ?events:Events.t -> unit -> t
(** Fresh registry with [shards] cells (default 1) and the given sink
    (default {!Events.nop}). *)

val events_on : t -> bool
(** [Events.enabled t.events] — guard allocation-heavy emission sites. *)
