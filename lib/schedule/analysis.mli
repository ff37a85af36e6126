(** Timeliness over growing prefixes.

    Experiments reason about infinite schedules through growing finite
    prefixes; re-scanning a prefix per measurement would be quadratic,
    so these views feed one {!Timeliness.Monitor} per (P, Q) pair, one
    step at a time, and read its worst gap where they sample. *)

type curve = { lengths : int array; bounds : int array }
(** Observed bound as a function of prefix length. *)

val bound_curve :
  p:Procset.t -> q:Procset.t -> source:Source.t -> lengths:int list -> curve
(** Pulls from [source] up to the largest requested length, sampling
    the observed bound at each requested prefix length (which must be
    given in increasing order). If the source is exhausted early, the
    curve stops at the last reachable length. *)

val singleton_matrix : Schedule.t -> int array array
(** [m.(a).(b)] is the observed bound of singleton [{a}] with respect
    to singleton [{b}] over the whole schedule — the process-timeliness
    matrix of [3]. *)
