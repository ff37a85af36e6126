(** The adaptive adversary for the unsolvable side (E8).

    Impossibility-side schedulers are omniscient: they may inspect the
    processes' state when choosing every step. This one combines three
    mechanisms, always under the system's timeliness contract (which it
    enforces exactly, like {!Setsync_schedule.Generators.timely}):

    - {b proposer freezing}: a process inside a Paxos attempt
      ([engagement]) is starved until some higher ballot is visible in
      its instance — at which point resuming it can only abort — and a
      process that considers itself a winnerset leader is starved so it
      cannot start fresh attempts while its leadership lasts;
    - {b rotating starvation phases} (as in
      {!Setsync_schedule.Generators.exclusive_timely}): candidate
      [k]-sets, together with the contract's observed set when they
      contain its timely set, are starved for ever-growing phases, so
      no timeliness beyond the contract ever holds;
    - {b contract enforcement} preempting both.

    On predicted-unsolvable cells ([i <= k], [j - i < t + 1 - k],
    nested witnesses) every candidate winnerset keeps accumulating
    accusations, leadership keeps moving, frozen proposers are only
    released into interference, and no decision ever happens. On
    predicted-solvable cells the eventual winner contains the
    contract's timely set, whose members the contract keeps scheduling
    and whose accusation counter stays bounded through every phase, so
    the frozen-leader member still completes its instance: the solver
    must win. E7/E8 run both sides against this adversary. *)

val source :
  ?live:(Setsync_schedule.Proc.t -> bool) ->
  ?phase0:int ->
  ?growth:int ->
  n:int ->
  contract:Setsync_schedule.Generators.timely_contract ->
  fault_budget:int ->
  defeat:int ->
  view:Kset_solver.adversary_view ->
  unit ->
  Setsync_schedule.Source.t
(** [defeat] is the candidate-set size for the starvation phases (use
    the problem's [k]); [fault_budget] is the problem's [t]: the
    adversary never starves more than [t] processes for a whole phase
    (a schedule with more than [t] faulty processes proves nothing).
    This cap is where Theorem 27's arithmetic bites: the target
    together with the contract's observed set fits the budget iff
    [k + j - i <= t] — exactly the unsolvable cells. [view] is
    {!Kset_solver.adversary_view} (or
    {!Kset_solver.empty_adversary_view} when the trivial algorithm
    runs). Phases run on {!Setsync_schedule.Generators.Phase_clock}
    (recovery [4n], starting in phase 0), so [phase0 < 1] or
    [growth < 0] raises [Invalid_argument]. *)
