(** Schedule generators.

    Experiments need schedules that are guaranteed, by construction, to
    lie inside a given [S^i_{j,n}] (to exercise the possibility
    theorems) or outside every non-trivial witness (to exercise the
    impossibility boundary). Checking membership of generated prefixes
    is how the generator contracts are themselves tested.

    All randomized generators take explicit {!Rng.t} seeds and a [live]
    predicate; a generator never emits a process for which [live]
    returns false, which is how crash injection composes with the
    guarantees below (the executor flips [live] through a fault plan). *)

val all_live : Proc.t -> bool
(** Default liveness predicate: everybody is alive. *)

val round_robin : ?live:(Proc.t -> bool) -> n:int -> unit -> Source.t
(** [p1·p2·…·pn] forever, skipping dead processes. Exhausts only if all
    processes die. *)

val figure1 : ?n:int -> ?p1:Proc.t -> ?p2:Proc.t -> ?q:Proc.t -> unit -> Source.t
(** The paper's Figure 1 schedule [(p1·q)^i · (p2·q)^i] for
    [i = 1, 2, 3, …]. Defaults: [n = 3], [p1 = 0], [p2 = 1], [q = 2].
    In it, neither [{p1}] nor [{p2}] is timely with respect to [{q}],
    but [{p1, p2}] is (with bound 2). *)

val net_adversary :
  ?live:(Proc.t -> bool) ->
  ?burst:int ->
  n:int ->
  groups:Proc.t list list ->
  unit ->
  Source.t
(** Serial process bursts in group order, cycling forever: with
    [groups = [[1; 2]; [0]]] and [burst = 6] the schedule is
    [1⁶·2⁶·0⁶·1⁶·…]. Paired with a partition adversary over the same
    groups, each burst lets one isolated group run whole protocol
    rounds while its messages to the others sit undeliverable — the
    schedule shape of the Biely/Robinson/Schmid k-set impossibility
    runs, and the seed family for fuzzing the net backend. Dead
    processes forfeit their bursts; exhausts only if all die. *)

val random_fair :
  ?live:(Proc.t -> bool) -> n:int -> rng:Rng.t -> unit -> Source.t
(** Uniformly random steps over live processes. Fair with probability
    1, but with unbounded (log-growing) gaps: no set of fewer than all
    live processes is timely with respect to disjoint sets at any fixed
    bound, asymptotically. *)

type timely_contract = {
  p : Procset.t;  (** the set promised to be timely *)
  q : Procset.t;  (** the set it is timely with respect to *)
  bound : int;  (** witness bound: every [p]-free gap has < [bound] [q]-steps *)
}

val timely :
  ?live:(Proc.t -> bool) ->
  ?fairness:int ->
  ?burstiness:float ->
  ?gap:int ->
  n:int ->
  contract:timely_contract ->
  rng:Rng.t ->
  unit ->
  Source.t
(** Adversarial generator honoring a timeliness contract.

    [gap] (default 0) is the number of [q]-steps already taken in the
    currently open [p]-free gap of a schedule this output will be
    appended to: the generator's first emissions close that gap within
    the contract, so splicing its output after any prefix whose open
    gap has [gap] [q]-steps preserves the contract across the seam
    (the fuzzer's suffix-regeneration mutator).

    Guarantees on the emitted sequence, as long as at least one member
    of [contract.p] stays live:

    - every maximal [p]-free gap contains fewer than [contract.bound]
      steps of [contract.q] (so any prefix satisfies
      [Timeliness.holds ~bound] for the contract pair, hence lies in
      [S^i_{j,n}] with [i = cardinal p], [j = cardinal q]);
    - every live process takes a step at least once every [fairness]
      emitted steps (default [8 * n * bound]), so all live processes are
      correct in the limit.

    Within those constraints the generator is adversarial: it emits
    geometric bursts of a single process (parameter [burstiness],
    default 0.7) and starves arbitrary processes up to the fairness
    cap, so individual processes in [p] are generally NOT timely — only
    the set is, which is the paper's point.

    If every member of [contract.p] is dead, the generator stops
    emitting members of [contract.q] (preserving the gap invariant) and
    keeps scheduling the remaining live processes; if nothing live
    remains it is exhausted. *)

val starvation_adversary :
  ?live:(Proc.t -> bool) ->
  ?phase0:int ->
  ?growth:int ->
  n:int ->
  i:int ->
  unit ->
  Source.t
(** Generator whose schedules lie OUTSIDE [S^i_{j,n}] for every
    [j > i], generalizing Figure 1: it cycles through all sets
    [P ∈ Π^i_n] and, in ever-longer phases (phase [m] has length
    [phase0 + growth·m]), schedules only processes outside the current
    [P] (round-robin). Hence every [i]-set has [P]-free gaps with
    unboundedly many steps of every [j]-set ([j > i] forces
    [Q ⊄ P]). Recovery segments of [2n] steps between phases keep every
    live process taking infinitely many steps. Phases and scan come
    from {!Phase_clock} and {!next_allowed}; raises [Invalid_argument]
    if [phase0 < 1] or [growth < 0]. *)

val exclusive_timely :
  ?live:(Proc.t -> bool) ->
  ?phase0:int ->
  ?growth:int ->
  n:int ->
  contract:timely_contract ->
  defeat:int ->
  unit ->
  Source.t
(** The impossibility-side adversary: honors exactly the contract's
    timeliness and {e nothing more}. Every candidate set [A] of size
    [defeat] is starved in ever-longer phases (together with
    [contract.q] when [contract.p ⊆ A], so that contract enforcement
    cannot interrupt the starvation), with round-robin recovery
    segments of [4n] steps in between keeping all live processes
    correct; the run opens with a recovery segment. Phase [m] lasts
    [phase0 + growth·m] steps ({!Phase_clock}).

    Consequences, in the limit: the contract pair is timely at its
    bound; a [defeat]-sized set [A] is timely with respect to a set
    [B] only if [B ⊆ A ∪ (contract.q when contract.p ⊆ A)] — the
    inheritance forced by Observations 2–3 — so, running the Figure 2
    detector with [k = defeat] on top, the set of processes that stop
    accusing [A] has size at most [k + j - i] (for [p ⊆ q], sizes
    [i, j]), and the detector converges iff [k + j - i >= t + 1]:
    exactly Theorem 27's boundary. Deterministic (phase structure
    needs no randomness).

    Raises [Invalid_argument] if a phase could never schedule anyone
    ([defeat + cardinal contract.q >= n] with disjoint sets), or if
    [phase0 < 1] or [growth < 0]. *)

val crash_after : n:int -> (Proc.t * int) list -> (Proc.t -> bool) * (Proc.t -> int -> bool)
(** [crash_after ~n plan] builds a simple self-contained liveness
    tracker for generator-only experiments (the full executor uses
    {!Setsync_runtime.Fault} instead): returns [(live, observe)] where
    [observe p own_steps] is to be called each time [p] takes a step
    and flips [live p] to false once [p] has taken the number of steps
    the plan allots it. *)

(** {1 Shared building blocks}

    One cursor scan and one phase clock serve {!round_robin}, the
    starvation adversaries above and [Setsync_agreement.Adaptive]. *)

val next_allowed : int ref -> n:int -> (Proc.t -> bool) -> Proc.t option
(** The first allowed process of at most [n] scanned cyclically from
    [!cursor], which moves past each one scanned. *)

module Phase_clock : sig
  type t
  (** Phase [m] lasts [phase0 + growth·m] ticks; a recovery segment of
      [recovery] ticks sits between consecutive phases. *)

  val create :
    ?on_phase_start:(unit -> unit) ->
    who:string ->
    phase0:int ->
    growth:int ->
    recovery:int ->
    start_in_recovery:bool ->
    unit ->
    t
  (** [on_phase_start] runs whenever a recovery segment gives way to a
      phase. Raises [Invalid_argument "<who>: bad phase parameters"]
      if [phase0 < 1] or [growth < 0], which would shrink every phase
      to one step. *)

  val phase : t -> int
  (** The current phase, or in recovery the next one. *)

  val starved : t -> (int -> Procset.t) -> Procset.t
  (** [victims (phase t)] in a phase, empty in recovery. *)

  val tick : t -> unit
end
