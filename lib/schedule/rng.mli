(** Deterministic pseudo-random number generator (splitmix64).

    All randomized schedule generators and experiments in this repository
    take explicit seeds and draw from this generator, so every run is
    reproducible bit-for-bit regardless of the global [Random] state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Requires
    [bound > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val float : t -> float
(** Uniform draw in [0, 1). *)

val geometric : t -> float -> int
(** [geometric t p] draws from the geometric distribution with success
    probability [p]: the number of failures before the first success
    (mean [(1-p)/p]), capped at 4096. Requires [0 < p <= 1]. Used by
    the fuzzer for segment lengths and crash-point shifts. *)

val pick : t -> 'a list -> 'a
(** Uniform draw from a non-empty list. Raises [Invalid_argument] on an
    empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val split : t -> t
(** Derive an independent generator (for nested experiment streams)
    while advancing [t]. *)
