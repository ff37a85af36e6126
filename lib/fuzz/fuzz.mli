(** Coverage-guided randomized schedule fuzzing with deterministic
    reproduction.

    The fuzzer drives the same [sut]/{!Setsync_explore.Property}
    abstractions as the bounded explorer, but instead of enumerating
    the prefix tree it executes whole random schedules and mutates the
    interesting ones: each state of an execution's trajectory gets a
    novelty key ({!Setsync_explore.Explorer.Session.key}), a
    candidate that reached unseen keys joins the {!Corpus}, and
    {!Mutate} perturbs corpus picks (structural moves, crash-point
    shifts, contract-preserving suffix regeneration). Safety
    properties are probed along every trajectory in a single replay
    ({!Setsync_explore.Explorer.Session.trajectory}); stabilization
    properties are checked on final states. A candidate violation is
    re-verified exactly with
    {!Setsync_explore.Explorer.Session.check_schedule} and then
    minimized through the explorer's ddmin {!Setsync_explore.Shrink}.

    A hunt runs on one {!Setsync_explore.Explorer.Session}: for a sut
    with a machine form, every execution, re-verification and ddmin
    test steps the same live instance, restored to its initial
    savepoint; other suts build a fresh fiber instance per run. Both
    reach the same states, so the report does not depend on which.

    {b Determinism:} with no wall-clock limit, {!run} is a pure
    function of its configuration and [seed] — same seed, same report,
    byte for byte. That is the reproduction contract behind the CLI's
    [fuzz --repro]. *)

type violation = {
  property : string;
  reason : string;  (** from the exact re-verification *)
  found : Setsync_schedule.Schedule.t;  (** executed prefix reaching the violation *)
  fault : Setsync_runtime.Fault.plan;  (** crash plan active when it was found *)
  shrunk : Setsync_schedule.Schedule.t;  (** ddmin 1-minimal counterexample *)
  shrink_tests : int;
  exec : int;  (** 1-based index of the execution that found it *)
}

type outcome = Passed | Violation of violation

type report = {
  outcome : outcome;
  execs : int;  (** schedules executed *)
  spurious : int;  (** candidate violations that failed exact re-verification *)
  corpus : int;  (** corpus entries at the end *)
  corpus_evictions : int;
      (** at-capacity corpus adds that displaced a lower-novelty entry *)
  corpus_rejections : int;
      (** at-capacity corpus adds dropped for ranking at or below the worst *)
  digests : int;  (** distinct state digests seen (the coverage count) *)
  digest_evictions : int;
      (** digests forgotten by the bounded filter ({!Corpus.digest_evictions});
          nonzero means [digests] overcounts *)
  stats : Setsync_explore.Budget.stats;
  seed : int;
}

val run :
  ?obs:Setsync_obs.Obs.t ->
  ?on_progress:(report -> unit) ->
  ?progress_interval:float ->
  ?live:(Setsync_schedule.Proc.t -> bool) ->
  ?contracts:Setsync_schedule.Generators.timely_contract list ->
  ?fault:Setsync_runtime.Fault.plan ->
  ?max_crashes:int ->
  ?len:int ->
  ?stride:int ->
  ?limits:Setsync_explore.Budget.limits ->
  ?seeds:Setsync_schedule.Schedule.t list ->
  sut:'obs Setsync_explore.Explorer.sut ->
  properties:'obs Setsync_explore.Explorer.state Setsync_explore.Property.t list ->
  seed:int ->
  unit ->
  report
(** Fuzz until a property is violated (re-verified and shrunk) or the
    budget is exhausted. Budget semantics under {!Setsync_explore.Budget}:
    [max_states] caps executions, [max_replay_steps] the total executed
    steps, [max_seconds] the wall clock (setting it trades determinism
    for a time box, exactly as in the explorer).

    [len] (default 96) is the target schedule length; [stride]
    (default 1) thins the trajectory probe (digests and safety checks
    every [stride] executed steps — cheaper, but coverage-blind and
    safety-blind between probes). [fault] (default none) is the base
    crash plan; [max_crashes] (default its length) lets the
    crash-shift mutator move/add/remove up to that many crashes.
    [seeds] are extra initial candidates executed (and admitted to the
    corpus on novelty) before the built-in round-robin/contract/random
    openers — the hook for domain-specific schedule families such as
    {!Setsync_schedule.Generators.net_adversary} bursts.
    [contracts] constrains every candidate to the declared timeliness
    contracts and enables contract-preserving regeneration.

    [obs] opts into observability: counters [fuzz.execs],
    [fuzz.replay_steps], [fuzz.novel] (digests first seen),
    [fuzz.corpus_adds], [fuzz.corpus_evictions], [fuzz.corpus_rejections],
    [fuzz.digest_evictions], [fuzz.spurious], [fuzz.violations]; gauges
    [fuzz.corpus] and [fuzz.digests]. With a recording event sink,
    events (category ["fuzz"]): ["corpus_add"] per kept candidate,
    ["violation"], and periodic ["heartbeat"] instants (args [execs],
    [corpus], [digests], [execs_per_s]) on the [on_progress] clock.

    [on_progress] receives the hunt's report as it stands, at most
    once per [progress_interval] seconds (default 1.0; <= 0 disables):
    the same builder makes the returned report, so a live report's
    [outcome] is [Passed] and its counts only grow. *)

val execs_per_s : report -> float
(** Executions per wall-clock second of the report's stats ([0.] before
    any time has passed). *)

val pp_violation : violation Fmt.t
(** The violation block the CLI prints — stable across runs of the
    same seed and configuration, which is what [fuzz --repro] asserts
    byte-for-byte. *)

val pp_report : report Fmt.t
