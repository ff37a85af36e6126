(** Properties checked during bounded exploration.

    A property is a named check over exploration states (the ['state]
    parameter is {!Explorer.state} in practice; properties are kept
    polymorphic so they can also run against hand-built states in
    tests). Two kinds exist, mirroring the two shapes of claim the
    paper makes about runs:

    - {b Safety} properties are invariants checked at {e every} state
      the explorer visits (e.g. k-set-agreement's "at most [k] distinct
      decided values", validity). A single violating state refutes
      them, and the prefix reaching it is a counterexample schedule.
    - {b Stabilization} properties are checked only on {e maximal}
      prefixes — prefixes at the depth bound or from which no process
      can take another step. They are the bounded proxy for the paper's
      "eventually" claims (e.g. k-anti-Ω's "some correct process is
      eventually outside every output"): within the bound, the system
      must have reached the stable situation on every maximal path.
      A failed check refutes stabilization-within-bound, not
      stabilization per se — see DESIGN.md §6 on what bounded
      exploration can and cannot establish. *)

type kind = Safety | Stabilization

type 'state t = {
  name : string;
  kind : kind;
  check : 'state -> string option;
      (** [None] when the state conforms; [Some reason] on violation. *)
}

val safety : name:string -> ('state -> string option) -> 'state t
(** The check may read the state's prefix as well as its memory: every
    engine materializes a commutation-pruned state and checks the
    pending safety properties on it before discarding it. *)

val stabilization : name:string -> ('state -> string option) -> 'state t

(** {2 Ready-made checks}

    Parameterized by accessor functions so they are agnostic to the
    system under test's observation type. *)

val kset_agreement : k:int -> decisions:('state -> int option array) -> 'state t
(** Safety: at most [k] distinct values are decided. *)

val validity : inputs:int array -> decisions:('state -> int option array) -> 'state t
(** Safety: every decided value is some process's input. *)

val set_timely :
  p:Setsync_schedule.Procset.t ->
  q:Setsync_schedule.Procset.t ->
  bound:int ->
  schedule:('state -> Setsync_schedule.Schedule.t) ->
  'state t
(** Safety over the {e schedule} rather than the memory state: the
    prefix satisfies Definition 1 for [(p, q)] at [bound]. Singleton
    [p] expresses single-process timeliness — false on the Figure 1
    family, which is how the engine is seeded to find and shrink a
    Figure-1-style counterexample.

    Being schedule-sensitive, this property is {b incompatible with
    the explorer's reductions}: fingerprint and sleep-set pruning
    identify prefixes that reach the same memory state through
    different (hence differently-timely) interleavings. Explore with
    both reductions off (see {!Explorer.config}). *)

val anti_omega_stabilized :
  k:int ->
  outputs:('state -> Setsync_schedule.Procset.t array) ->
  correct:('state -> Setsync_schedule.Procset.t) ->
  'state t
(** Stabilization: at the horizon, every correct process's output has
    exactly [n - k] members and some correct process is outside every
    correct process's output (the k-anti-Ω stable situation,
    Theorem 23). *)
