(** Metrics registry: counters, gauges, and fixed log-scale histograms.

    Every metric is a single cell and a hot-path update is one
    unsynchronized increment — no atomics, no locks — so a registry is
    updated from one domain at a time. A parallel exploration keeps its
    counts in per-worker meters and records them here after its
    workers have joined.

    Metrics are interned by name: [counter t "x"] returns the same
    counter every time, so instruments can look their metrics up
    cheaply once and update them in loops. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create. Raises [Invalid_argument] if [name] is already a
    metric of a different kind (same for {!gauge}, {!histogram}). *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** {2 Updates} (hot path; unsynchronized) *)

val incr : ?by:int -> counter -> unit

val set : gauge -> float -> unit
(** Gauges are single-cell: last write wins (racy across domains, which
    is the usual gauge semantics — monitor, don't aggregate). *)

val set_max : gauge -> float -> unit
(** High-water-mark update: keeps the max of all values set. *)

val observe : histogram -> float -> unit
(** Record one sample. Bucketing is exact powers of two: bucket 0 holds
    values < 1, bucket [i] holds [[2^(i-1), 2^i)], the last bucket
    overflows to infinity. Boundary values land in the upper bucket
    ([observe 8.] lands in the bucket starting at 8), computed via
    [Float.frexp], so no rounding at the boundary. *)

(** {2 Reads} *)

val counter_value : counter -> int
val gauge_value : gauge -> float option

type hsnap = {
  count : int;
  sum : float;
  min : float;  (** meaningless when [count = 0] *)
  max : float;  (** meaningless when [count = 0] *)
  buckets : int array;  (** length {!bucket_count} *)
}

val histogram_snapshot : histogram -> hsnap

(** {2 Buckets} *)

val bucket_count : int
(** 64. *)

val bucket_of : float -> int
(** The bucket index a value lands in. *)

val bucket_lower_bound : int -> float
(** Inclusive lower bound of bucket [i] ([neg_infinity] for bucket 0). *)

val bucket_upper_bound : int -> float
(** Exclusive upper bound of bucket [i] ([infinity] for the last). *)

(** {2 Serialization} *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}] in
    registration order; histogram buckets are emitted sparsely (only
    non-empty buckets, with their [ge]/[lt] bounds). *)
