(** Ready-made systems under test for the explorer.

    The CLI's [explore] subcommand, the E11 bench section, and the
    tests all drive the same three instantiations: a trivial system
    for pure schedule-space exploration, the paper's Figure 2 detector,
    and the Theorem 24 k-set-agreement solver. *)

val pause_procs : n:int -> unit Explorer.sut
(** [n] processes that pause forever: every interleaving is enabled at
    every depth, no registers, no observation. This is pure
    schedule-space exploration, for schedule-sensitive properties like
    {!Property.set_timely}. Explore it with both reductions off: the
    reductions identify prefixes by the (here trivial) memory state,
    which is exactly what a schedule property distinguishes. Every
    renaming of its processes is admissible (a pause step touches
    nothing); the group is built once per sut. *)

type detector_obs = {
  fd_outputs : Setsync_schedule.Procset.t array;  (** per-process [fdOutput] *)
  winnersets : Setsync_schedule.Procset.t array;
  iterations : int array;  (** completed detector loop iterations *)
}

val kanti_detector :
  params:Setsync_detector.Kanti_omega.params ->
  ?initial_timeout:int ->
  unit ->
  detector_obs Explorer.sut
(** The Figure 2 k-anti-Ω detector: the engines step
    {!Setsync_detector.Kanti_omega.machine}, and [body] is its fiber
    form ({!Setsync_runtime.Machine.body}). The observation exposes what
    {!Property.anti_omega_stabilized} needs. The machine's payload is
    its declared state's identity
    ({!Setsync_detector.Kanti_omega.identity}: every register, local
    and PC), so fingerprint pruning over this system is exact. Its
    renaming group is the identity alone, so symmetry reduction
    changes nothing here. *)

type kset_obs = { decisions : int option array }

val kset_agreement :
  problem:Setsync_agreement.Problem.t ->
  inputs:int array ->
  ?initial_timeout:int ->
  unit ->
  kset_obs Explorer.sut
(** The Theorem 24 solver ({!Setsync_agreement.Kset_solver}). Raises
    [Invalid_argument] unless [k <= t], when called rather than when the
    first instance is built. As for {!kanti_detector}, the payload is
    the declared state's identity
    ({!Setsync_agreement.Kset_solver.identity}, the Paxos locals
    included), so fingerprint pruning is exact, and the renaming group
    is the identity alone. *)
