(** High-level experiment scenarios.

    A scenario fixes a problem instance [(t,k,n)], a partially
    synchronous system [S^i_{j,n}] to run inside, an adversary flavour,
    a crash count, and a seed; {!run_agreement} then assembles witness
    sets, a contract-honouring schedule generator and a crash plan,
    solves the problem with the appropriate algorithm, validates the
    outcome, and reports it next to Theorem 27's prediction. This is
    the single entry point behind the examples, the CLI and the
    E4/E5/E7/E8 experiment tables. *)

type adversary =
  | Fair
      (** {!Setsync_schedule.Generators.timely}: adversarial bursts and
          bounded starvation, but every live process is scheduled at
          least once per fairness window. All timeliness the contract
          does not promise still exists at large bounds, so this
          adversary tests the solvable side. *)
  | Exclusive
      (** {!Setsync_schedule.Generators.exclusive_timely}: exactly the
          contract's timeliness and nothing more (growing starvation
          phases). Defeats the failure detector's convergence precisely
          on predicted-unsolvable cells; one-shot agreement termination
          may still succeed against it (impossibility is a statement
          about all schedules, not all runs). *)
  | Adaptive
      (** {!Setsync_agreement.Adaptive.source}: a state-inspecting
          scheduler that starves the union of current winnersets while
          honouring the contract. On predicted-unsolvable cells the
          solver must fail against it; on predicted-solvable cells it
          must still win. For {!run_detector} this flavour falls back
          to [Exclusive] (there is no solver state to adapt to). *)

type spec = {
  t : int;
  k : int;
  n : int;
  i : int;  (** timely-set size of the ambient system *)
  j : int;  (** observed-set size of the ambient system *)
  bound : int;  (** witness timeliness bound *)
  seed : int;
  crashes : int;  (** how many processes the fault plan kills *)
  adversary : adversary;
  max_steps : int;
}

val validate : spec -> unit
(** Raises [Invalid_argument] on inconsistent parameters (including an
    [Exclusive] adversary with [k >= n], which has no candidate phases
    to rotate, and [crashes > t], which would make every property
    vacuous). *)

type report = {
  spec : spec;
  predicted : bool;  (** Theorem 27 on [(t,k,n)] vs [S^i_{j,n}] *)
  witness_p : Setsync_schedule.Procset.t;  (** the contract's timely set, size [i] *)
  witness_q : Setsync_schedule.Procset.t;  (** observed set, size [j], contains [witness_p] *)
  fault : Setsync_runtime.Fault.plan;
  outcome : Setsync_agreement.Ag_harness.outcome;
  solved : bool;  (** checker fully satisfied *)
}

val run_agreement :
  ?obs:Setsync_obs.Obs.t ->
  spec ->
  report
(** Build and run the scenario. The witness sets are seed-chosen with
    [witness_p ⊆ witness_q]; the crash plan kills [crashes] seed-chosen
    processes (never the designated survivor of [witness_p]) at
    seed-chosen early times. [obs] is forwarded to
    {!Setsync_agreement.Ag_harness.solve} (decision-latency histogram,
    executor step metrics, decide/step events). *)

val run_detector :
  ?obs:Setsync_obs.Obs.t ->
  spec ->
  Setsync_detector.Fd_harness.result * bool
(** Same scenario construction, but running the Figure 2 detector alone
    ([k], [t] from the spec); returns the harness result and the
    Theorem 27 prediction. Requires [k <= t]. [obs] is forwarded to
    {!Setsync_detector.Fd_harness.run} (stabilization histogram,
    output-change events). *)

val pp_report : report Fmt.t
