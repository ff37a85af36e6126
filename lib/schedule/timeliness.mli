(** Set timeliness (Definition 1 of the paper).

    A set [P] is timely with respect to a set [Q] in a schedule [S] if
    there is an integer [b] such that every sequence of consecutive
    steps of [S] that contains [b] occurrences of processes in [Q]
    contains a step of a process in [P].

    Equivalently (the form the implementation uses): every maximal
    [P]-free gap of [S] — a run of consecutive steps none of which
    belongs to [P] — contains strictly fewer than [b] steps of [Q].

    On finite schedules the existential over [b] is decidable:
    {!observed_bound} computes the least such [b]. On infinite
    schedules one analyzes growing prefixes (see {!Analysis}); our
    generators instead come with explicit bound contracts.

    {!Monitor} is the only home of the gap rule: the checks below fold
    it over a schedule, and the generators, the adaptive adversary and
    the fuzzer's contract repair step it. *)

module Monitor : sig
  type t
  (** The open and the worst [P]-free gap, in [Q]-steps, of the steps
      fed so far. *)

  val create : ?gap:int -> p:Procset.t -> q:Procset.t -> unit -> t
  (** [gap] (default 0, [Invalid_argument] if negative) starts the
      monitor as if [gap] steps of [Q ∖ P] had been fed: the open gap
      of a prefix the fed steps continue. *)

  val feed : t -> Proc.t -> unit
  (** A [P]-step closes the open gap; a [Q ∖ P] step extends it. *)

  val of_schedule : ?gap:int -> p:Procset.t -> q:Procset.t -> Schedule.t -> t

  val open_gap : t -> int

  val worst_gap : t -> int
  (** [max_gap] of everything fed. *)

  val critical : t -> bound:int -> bool
  (** [open_gap >= bound - 1]: on steps that keep [holds ~bound], one
      more [Q ∖ P] step would break it, so an enforcer runs a [P]-member. *)
end

val holds : bound:int -> p:Procset.t -> q:Procset.t -> Schedule.t -> bool
(** [holds ~bound ~p ~q s] checks Definition 1 with witness integer
    [bound] on the finite schedule [s]. Requires [bound >= 1]. *)

val observed_bound : p:Procset.t -> q:Procset.t -> Schedule.t -> int
(** Least [b] such that [holds ~bound:b ~p ~q s]; equals 1 + the
    maximum number of [Q]-steps inside any [P]-free gap of [s]. The
    result is [1] when [q] never takes a step outside [p] (vacuous
    timeliness) and grows without bound, as prefixes grow, exactly when
    [p] is not timely with respect to [q] in the underlying infinite
    schedule. *)

val max_gap : p:Procset.t -> q:Procset.t -> Schedule.t -> int
(** Maximum number of [Q]-steps inside any [P]-free gap
    ([observed_bound] − 1). *)

val process_timely : bound:int -> p:Proc.t -> q:Proc.t -> Schedule.t -> bool
(** Process timeliness of [3], the singleton special case of
    Definition 1. *)

val union_bound : int -> int -> int
(** Observation 2, quantitatively: if [P] is timely w.r.t. [Q] with
    bound [b1] and [P'] w.r.t. [Q'] with bound [b2], then [P ∪ P'] is
    timely w.r.t. [Q ∪ Q'] with bound [union_bound b1 b2] = [b1 + b2 - 1].
    (Any window with that many [Q ∪ Q'] steps has [b1] [Q]-steps or [b2]
    [Q']-steps.) *)

val monotone : p:Procset.t -> p':Procset.t -> q:Procset.t -> q':Procset.t -> bool
(** Observation 3's hypothesis: [p ⊆ p'] and [q' ⊆ q]. When it holds,
    any bound witnessing [(p, q)] also witnesses [(p', q')]. *)

val self_timely_bound : unit -> int
(** Every set is timely with respect to itself with bound 1 (any window
    containing a [Q]-step contains a [P]-step when [Q ⊆ P]); used by
    Observation 5 and the constructions of Theorem 27. *)
