(** One-call harness: solve (t,k,n)-agreement and check the result.

    Dispatches to {!Kset_solver} (the Theorem 24 construction) when
    [k <= t] and to {!Trivial} when [t < k] (Corollary 25), runs the
    chosen algorithm under the given schedule source and fault plan,
    and validates the outcome with {!Checker}. Each algorithm is a
    machine form ({!Setsync_runtime.Machine.step}): on a plain store
    the executor steps it directly and spawns no fiber; a [substrate],
    a routed [store] or an [extra_body] runs every process as a fiber,
    the solver's through {!Setsync_runtime.Machine.body}. The E4/E5/E7
    experiments, the separation demonstration, and the adversarial
    stress of E8 all go through this entry point. *)

type outcome = {
  run : Setsync_runtime.Run.t;
  decisions : int option array;
  decide_steps : int option array;  (** global step at which each decision was first visible *)
  report : Checker.report;
      (** starvation-aware: processes the scheduler abandoned for the
          final tenth of the run count as faulty (see
          {!Checker.check}) *)
  fd_iterations : int array option;  (** [None] for the trivial algorithm *)
  used_trivial : bool;
}

val solve :
  problem:Problem.t ->
  inputs:int array ->
  source:Setsync_runtime.Executor.source_factory ->
  max_steps:int ->
  ?fault:Setsync_runtime.Fault.plan ->
  ?initial_timeout:int ->
  ?solver:[ `Auto | `Paxos ] ->
  ?store:Setsync_memory.Store.t ->
  ?total:int ->
  ?extra_body:(Setsync_schedule.Proc.t -> unit -> unit) ->
  ?boost:Setsync_runtime.Executor.boost ->
  ?substrate:Setsync_runtime.Substrate.t ->
  ?on_step:(global:int -> proc:Setsync_schedule.Proc.t -> unit) ->
  ?obs:Setsync_obs.Obs.t ->
  unit ->
  outcome
(** The run ends as soon as every live process has decided and halted
    (the executor's all-halted condition), or at [max_steps].

    [solver] picks the algorithm: [`Auto] (default) dispatches on the
    problem as described above; [`Paxos] runs {!Consensus} — end-to-end
    single-decree consensus with a designated proposer — regardless of
    [(t, k)], for backend-equality experiments.

    [store] supplies the shared store (default: a fresh local one).
    Pass a store with a routed register proxy installed
    (net backend) to run the same solver over messages.

    [total], [extra_body], [boost] and [substrate] widen the executor
    universe beyond the problem: processes [n..total-1] run
    [extra_body] (e.g. register owners serving routed requests), the
    substrate and boost policy are forwarded to the executor, and the
    extra processes are invisible to the checker — they never decide
    and are excluded from the crashed/starved sets (owners are starved
    by construction under a clients-only source). The source's universe must be [total].

    [on_step] is invoked once per executed global step, before the
    harness's own decision sampling (e.g. to attribute time per step);
    it must not perturb the run.

    [obs] (also forwarded to the executor) records each decision's
    first-visible step into the [agreement.decision_latency_steps]
    histogram, counts decisions into [agreement.decided], and — when
    tracing — emits one ["decide"] event per deciding process
    (category ["agreement"]). *)

val solve_adaptive :
  problem:Problem.t ->
  inputs:int array ->
  make_source:
    (view:Kset_solver.adversary_view -> Setsync_runtime.Executor.source_factory) ->
  max_steps:int ->
  ?fault:Setsync_runtime.Fault.plan ->
  ?initial_timeout:int ->
  ?obs:Setsync_obs.Obs.t ->
  unit ->
  outcome
(** Like {!solve}, but the source factory receives an omniscient view
    of solver state ({!Kset_solver.adversary_view}), enabling
    state-adaptive adversaries such as {!Adaptive.source}. With the
    trivial algorithm ([t < k]) the view is all-empty. *)

val ok : outcome -> bool
(** [Checker.ok] on the report. *)

val last_decide_step : outcome -> int option
(** Largest decide step, i.e. the protocol's completion time. *)

val pp : outcome Fmt.t
