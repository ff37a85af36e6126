(** The scheduler: drives processes from a schedule source.

    One call to {!run} executes one (partial) run of an algorithm: it
    spawns a fiber per process, then repeatedly pulls the next process
    from the source and grants it one step, injecting crashes per the
    fault plan. Crashed and finished processes are skipped without
    consuming schedule steps; the source receives a [live] predicate so
    crash-aware generators can keep their contracts.

    The loop is parametric in how a process takes its step ({!step}),
    under the same skip, stall, all-halted, budget and stop rules
    either way. Shared-memory runs hand {!run_with}/{!replay_with} a
    machine form's step called with {!Machine.direct}: no fiber is
    spawned. {!run}/{!replay} resume effect fibers ({!fibers}); they
    remain for runs over routed registers (a machine's fiber form,
    {!Machine.body}) and for the fiber-only algorithms — the net
    backend's CT detector, blind gossip and register owners, and the
    BG simulation. *)

type source_factory = live:(Setsync_schedule.Proc.t -> bool) -> Setsync_schedule.Source.t
(** The executor builds the source with a predicate that is false for
    processes that have crashed or halted. Factories may ignore it
    (e.g. replay of a fixed schedule). *)

type boost = global:int -> next:Setsync_schedule.Proc.t -> Setsync_schedule.Proc.t option
(** A scheduling side-policy consulted before each source-granted step:
    given the global step counter and the process the source chose
    next, it may name a different process to step first (repeatedly,
    up to [n] insertions per source grant). Boosted steps are ordinary
    executed steps — recorded in the run's [taken] schedule and charged
    to [max_steps] — so recorded runs replay without the policy. Used
    by the net backend's round policy to grant register owners serve
    turns while the next client is parked on a reply. *)

type step = Setsync_schedule.Proc.t -> bool
(** One granted step of a process: its local code up to and including
    its next atomic action. [true] iff the process halted in this step
    (it is then never granted another). *)

val fibers : n:int -> (Setsync_schedule.Proc.t -> unit -> unit) -> step
(** Spawn one effect fiber per process on [body p]; each step resumes
    it. A returning body reports its halt in the step that returns. *)

val grant :
  ?substrate:Substrate.t -> Run.Tally.t -> step -> Setsync_schedule.Proc.t -> bool
(** [grant ?substrate tally step p] is the executor's one granted step
    of [p], at [tally]'s next global index: the substrate's [pre_step],
    [step p], the halt it reports, and the step count in [tally] — which
    injects the fault plan's crash when [p]'s budget runs out. Returns
    [true] iff that crash happened. Every run loop grants through it,
    and so does a caller that steps a run outside the loop (the
    explorer's depth-first walk), under the same rule. *)

val run_with :
  n:int ->
  source:source_factory ->
  max_steps:int ->
  ?fault:Fault.plan ->
  ?tally:Run.Tally.t ->
  ?substrate:Substrate.t ->
  ?boost:boost ->
  ?on_step:(global:int -> proc:Setsync_schedule.Proc.t -> unit) ->
  ?stop:(unit -> bool) ->
  ?obs:Setsync_obs.Obs.t ->
  step ->
  Run.t
(** {!run} over an arbitrary {!step}. *)

val run :
  n:int ->
  source:source_factory ->
  max_steps:int ->
  ?fault:Fault.plan ->
  ?tally:Run.Tally.t ->
  ?substrate:Substrate.t ->
  ?boost:boost ->
  ?on_step:(global:int -> proc:Setsync_schedule.Proc.t -> unit) ->
  ?stop:(unit -> bool) ->
  ?obs:Setsync_obs.Obs.t ->
  (Setsync_schedule.Proc.t -> unit -> unit) ->
  Run.t
(** [run ~n ~source ~max_steps body] executes [body p] as process [p]
    for each [p], one fiber each ({!fibers}).

    - [max_steps] bounds the total number of executed steps.
    - [fault] injects crashes (default: none).
    - [tally] is the record the run advances, for a caller that reads
      it live (default: a fresh one over [fault]). It must be fresh,
      with universe [n], and carries its own fault plan: passing both
      [tally] and [fault] raises [Invalid_argument]. The returned run
      is {!Run.Tally.freeze} of it.
    - [substrate] supplies the communication medium's hooks (default:
      shared memory semantics — no liveness veto, no pre-step work).
      Its [live] predicate vetoes steps like a crash does; its
      [pre_step] runs just before each granted atomic action.
    - [on_step] is invoked after every executed step (use it to sample
      process outputs or shared state via [Register.peek]).
    - [stop] is polled after every step; returning [true] ends the run
      (used to stop once convergence is detected).
    - [obs] (default: none, the zero-cost path) counts executed steps
      and injected crashes into the [runtime.steps] / [runtime.crashes]
      counters, and — when the event sink is enabled — emits a
      ["run"] begin/end span plus one ["step"] event per executed step
      and a ["crash"] event per injected crash (category ["runtime"]).

    Exceptions raised by process bodies propagate (a process with a bug
    fails the whole run loudly rather than being mistaken for a
    crash). *)

val replay_with :
  n:int ->
  schedule:Setsync_schedule.Schedule.t ->
  ?fault:Fault.plan ->
  ?tally:Run.Tally.t ->
  ?substrate:Substrate.t ->
  ?on_step:(global:int -> proc:Setsync_schedule.Proc.t -> unit) ->
  ?stop:(unit -> bool) ->
  ?obs:Setsync_obs.Obs.t ->
  step ->
  Run.t
(** {!replay} over an arbitrary {!step}. *)

val resume_with :
  n:int -> source:Setsync_schedule.Source.t -> tally:Run.Tally.t -> step -> Run.t
(** A run with no step budget that continues the run [tally] records:
    [tally] was restored ({!Run.Tally.save}) right after one of its
    executed steps (or is fresh), [step] drives processes restored to
    that same point (a machine form and its store back at a savepoint
    taken there), and [source] yields the entries after that step. The
    loop's skip and stall accounting starts afresh, exactly as it does
    after any executed step, so the run is step for step the one a
    replay of the whole schedule would make. No substrate: a
    substrate's hidden state is not part of the savepoint. *)

val replay :
  n:int ->
  schedule:Setsync_schedule.Schedule.t ->
  ?fault:Fault.plan ->
  ?tally:Run.Tally.t ->
  ?substrate:Substrate.t ->
  ?on_step:(global:int -> proc:Setsync_schedule.Proc.t -> unit) ->
  ?stop:(unit -> bool) ->
  ?obs:Setsync_obs.Obs.t ->
  (Setsync_schedule.Proc.t -> unit -> unit) ->
  Run.t
(** Deterministic replay of a fixed finite schedule (steps naming
    crashed or finished processes are skipped). [fault], [tally], [stop]
    and [obs] as in {!run} (the explorer's trajectory probe reads the
    tally to build interim states and uses [stop] to cut a replay
    short).

    Domain safety: a replay touches no global mutable state — fibers
    and the tally are allocated per call (or owned by the caller) — so
    independent replays may run concurrently on separate domains,
    provided each drives its own store/trace/instance (the explorer's
    parallel mode relies on exactly this). *)
