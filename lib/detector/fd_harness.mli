(** One-call harness: run Figure 2 standalone and validate it.

    Spawns one {!Kanti_omega} process per process identifier, drives
    them from a schedule source, samples [fdOutput] and [winnerset]
    after every step, optionally stops early once the winnersets have
    been stable for a window, and returns the run together with both
    validator verdicts. This is what the E2 experiments and the
    detector test-suite call. *)

type result = {
  run : Setsync_runtime.Run.t;
  outputs : Setsync_schedule.Procset.t History.t;  (** fdOutput timelines *)
  winnersets : Setsync_schedule.Procset.t History.t;
  iterations : int array;  (** completed loop iterations per process *)
  verdict : Anti_omega.verdict;
  winner_verdict : Anti_omega.winner_verdict;
  store : Setsync_memory.Store.t;  (** the run's shared memory, for inspection *)
}

val run :
  params:Kanti_omega.params ->
  source:Setsync_runtime.Executor.source_factory ->
  max_steps:int ->
  ?fault:Setsync_runtime.Fault.plan ->
  ?initial_timeout:int ->
  ?stop_after_stable:int ->
  ?margin:int ->
  ?obs:Setsync_obs.Obs.t ->
  unit ->
  result
(** [stop_after_stable w] ends the run early once every live process
    has completed at least one iteration and no live process's
    winnerset has changed for [w] consecutive global steps — a
    convergence-detection optimization for experiments; leave it unset
    for fixed-length runs (the methodologically conservative mode used
    by the test-suite's correctness assertions). [margin] is passed to
    the validators.

    [obs] (also forwarded to the executor) counts runs into
    [detector.runs], records the winner-stabilization step in the
    [detector.stabilization_steps] histogram, and — when tracing —
    emits one ["fd_output_change"] event per change of a process's
    fdOutput and a ["stabilization_detected"] event when the winner
    verdict is stable (category ["detector"]). *)

val convergence_step : result -> int option
(** Step from which the winner was stable, if it was
    ([Winner_stable]). *)
