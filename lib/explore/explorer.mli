(** Bounded exploration of schedule prefixes (stateless model checking).

    The explorer enumerates schedule prefixes of a system under test up
    to a depth bound and checks user-supplied {!Property} verdicts:

    - safety properties at every visited state;
    - stabilization properties on maximal prefixes (depth bound
      reached, or every process halted/crashed).

    Three engines materialize the states ({!engine_kind}): [Per_state]
    replays every prefix from scratch through the executor
    ({!Setsync_runtime.Executor.replay_with}); [Path] and [Snapshot]
    are one depth-first walk with two ways to reach a sibling. The walk
    visits a node, then steps a live instance into its first child; to
    reach the other children, [Path] hands them to fresh instances that
    replay their prefixes, and [Snapshot] restores a typed savepoint of
    the node on a machine-form instance ({!minstance}), with no replay
    at all. The default request, [Path], runs on [Snapshot] wherever
    that engine applies. All three share one core: one live instance,
    which steps its machine form when it has one and fibers otherwise,
    and whose run bookkeeping (halts, step counts, budget crashes) is
    the {!Setsync_runtime.Run.Tally} the executor — or the walk's
    single step — advances, so every state is built the same way; one
    footprint measurement, one fingerprint, one visit routine
    (counting, property checks, fingerprint gate), one
    commutation-prune routine and one verdict table. Their verdicts
    therefore agree, and so do their visited/pruned counts in a
    one-domain depth-first search (the cross-check and golden-stats
    tests pin this); their movement accounting differs.

    Two reductions keep the bounded space tractable:

    - {b fingerprint memoization}: a state whose fingerprint was
      already seen at the same or a shallower depth is not expanded.
      On a machine form with a payload ([m_payload]) the fingerprint
      is the payload plus the halted/crashed marks (and the
      per-process step counts under a fault plan): the machine's full
      state, so pruning is exact. On any other sut it is {!digest}:
      the register snapshot, the halted/crashed sets and
      {!sut.obs_fingerprint}, sound exactly when [obs_fingerprint]
      covers all process-local state not reflected in registers (see
      DESIGN.md §8).
    - {b sleep-set-style commutation}: a prefix [σ·a·b] whose last two
      steps belong to different processes, make no conflicting access,
      and are ordered [b < a], is discarded — the swapped prefix
      [σ·b·a] reaches the same state and is generated as a sibling.
      Two steps conflict when one writes a register the other reads or
      writes; two reads of one register commute. A step's accesses are
      the (register id, mode) pairs it reported to its store's access
      hook ({!Setsync_memory.Register.hook}). Sound for state-based
      properties; unsound for schedule-sensitive ones
      ({!Property.set_timely}), which must explore unreduced. Refused
      on a sut with a substrate (see [config.sleep_sets]). *)

type minstance = {
  m_step : Setsync_schedule.Proc.t -> unit;
      (** one step of the given process: the local code since its
          previous shared-memory atomic plus the next atomic — exactly
          the register operations the fiber form's step performs, in
          the same order, so footprints and snapshots coincide. The
          library's algorithms define their step code once and derive
          the fiber from it ({!Setsync_runtime.Machine}), so for them
          this holds by construction. *)
  m_halted : Setsync_schedule.Proc.t -> bool;
      (** mirrors the fiber body returning (process halted) *)
  m_save : unit -> unit -> unit;
      (** capture all machine-local state (PCs, locals); the returned
          thunk restores it. Register state is restored separately via
          {!Setsync_memory.Store.checkpoint}. Callers restore
          savepoints last-in-first-out — the snapshot engine's DFS
          restores a node's savepoint after each child and drops it
          when the node is done; a {!Session} track restores its
          deepest usable savepoint and drops the deeper ones — so an
          implementation may capture into per-depth buffers it reuses
          ({!Setsync_memory.Savestack}), as the library's machines do,
          and raise on a savepoint whose depth a later save reused. Any
          savepoint may be restored several times in a row. *)
  m_payload : (perm:int array -> string) option;
      (** deterministic rendering of the full machine state — the
          registers and every process's PC and locals — under a process
          renaming: the state's fingerprint, under the identity or
          minimised over [m_perms] with [symmetry] ([None] = fingerprint
          by {!digest}, no symmetry support). The library's machines
          derive it from their one declaration of their state
          ({!Setsync_memory.Layout.identity}) and have no renaming but
          the identity, so theirs ignores [perm]. *)
  m_perms : int array list;
      (** admissible process renamings (must contain the identity);
          the engine further restricts them to renamings fixing the
          fault plan. A renaming is admissible only when it maps every
          transition of the system to a transition (renamed state,
          renamed process, renamed successor), not merely when it
          fixes the initial state: a process that scans registers in a
          fixed order or breaks ties by process index tells renamed
          states apart, and merging them prunes states whose futures
          differ. The library's algorithms do both, so their group is
          the identity alone; {!Systems.pause_procs}, which touches no
          register, admits every renaming. *)
}
(** Machine form of a system: explicit-PC step functions over the same
    store. Every engine, {!evaluate}, {!trajectory},
    {!check_schedule} and {!Session} step it where it exists; the
    snapshot engine requires it (fiber continuations are one-shot and
    cannot be copied into savepoints). For the library's systems
    ({!Systems}), [body] is {!Setsync_runtime.Machine.body} of the same
    machine step. *)

type 'obs instance = {
  body : Setsync_schedule.Proc.t -> unit -> unit;  (** process code *)
  observe : unit -> 'obs;
      (** snapshot of the instance's current observation — local
          detector outputs, decision arrays, hidden process-local
          state, … Uses observer reads only; never costs a step. *)
  substrate : Setsync_runtime.Substrate.t option;
      (** communication substrate for this instance's runs, rebuilt by
          [fresh] alongside the registers ([None] = shared memory).
          A substrate must keep any behaviour-relevant hidden state in
          routed-through registers of the same store, or expose it via
          its snapshot, for fingerprints to stay sound. *)
  machine : minstance option;
      (** machine form over the same instance state ([None] = fiber
          only; the snapshot engine then refuses the sut). When
          present, the explorer steps it and never [body]; a given
          instance is driven through one of them, never both. *)
}

type 'obs sut = {
  n : int;  (** number of processes *)
  fresh : store:Setsync_memory.Store.t -> 'obs instance;
      (** build a brand-new instance whose registers all live in
          [store] (the engine owns the store so it can trace register
          footprints and snapshot values) *)
  obs_fingerprint : 'obs -> string;
      (** the observation's contribution to {!digest} (the fingerprint
          of a sut without [m_payload]). Return [""] if the register
          snapshot already determines the full state; include any
          process-local state otherwise, or disable fingerprint
          pruning. {!Session.key} hashes the observation itself, so it
          splits states where [digest] does only when this renders
          every field of the observation. *)
}

type 'obs state = {
  depth : int;  (** number of extension choices = [Schedule.length prefix] *)
  prefix : Setsync_schedule.Schedule.t;  (** the interleaving reaching this state *)
  run : Setsync_runtime.Run.t;  (** replay record (halted, crashed, …) *)
  snapshot : (string * string) list Lazy.t;
      (** printed register values, rendered when first forced, from the
          live instance the state was read from: nothing renders them
          unless a property or a fingerprint asks ({!digest} forces
          them; the engines call it, inside the visit, only as the
          fingerprint of a sut without [m_payload]). Forcing is valid
          only while the state is current — inside the property check
          or [on_state] callback that received it, or on a final state
          whose instance does not move again ({!evaluate}, a
          {!Session}'s final state before its next run) — and raises
          [Invalid_argument] once the instance has moved on: a further
          step, a savepoint restore, or a session's next run. *)
  obs : 'obs;
}

type strategy =
  | Dfs  (** LIFO; children explored in ascending process order *)
  | Bfs  (** FIFO; finds shortest counterexamples first *)

type engine_kind =
  | Per_state
      (** one fresh replay per visited state — the naive baseline
          (bench E11e's comparison point) *)
  | Path
      (** the default request. It runs the [Snapshot] engine when the
          sut has a machine form ({!instance.machine}), the search is
          [Dfs] and no [max_replay_steps] cap is set (the snapshot
          engine replays nothing, so the cap would never bind).
          Otherwise it runs the depth-first walk with path replay: the
          walk visits a node, pushes the node's other children as pool
          items and steps its live instance into the first child, and
          each pool item is one replay — a fresh instance stepping the
          item's prefix — after which the walk goes on from there. So
          replay steps per visited state are amortized O(1) instead of
          O(depth); a walk ends at a leaf, a fingerprint prune or a
          commutation-pruned arrival. [stats.replays] counts pool items
          and [stats.replay_steps] every step, prefix or onward. Verdicts,
          visited/pruned counts and the DFS visit order are identical to
          the per-state engine (the cross-check tests pin this); replay
          accounting is what improves. Under [Bfs], at every domain
          count, it runs the per-state engine instead (a FIFO take order
          defeats the walk's amortization). The report's [engine] names
          the engine that ran. *)
  | Snapshot
      (** replay-free engine: requires a machine-form sut
          ({!instance.machine}); the same depth-first walk as [Path]
          moves down by single machine steps on one live store and back
          up to reach the next sibling by restoring typed savepoints ({!Setsync_memory.Store.checkpoint}, [m_save],
          substrate save, {!Setsync_runtime.Run.Tally.save}) — one per
          expanded node, restored after each of its children —
          [stats.replays] and [stats.replay_steps] stay {e zero}. Depth-first only. Machine movement is
          reported via the [explorer.machine_steps] /
          [explorer.restores] metrics. Verdict/visited/pruned
          equivalent to the other engines on machine-form suts (the
          cross-check tests pin this). *)

type config = {
  depth : int;  (** maximum prefix length *)
  strategy : strategy;
  prune_fingerprints : bool;
  sleep_sets : bool;
      (** the commutation reduction. {!explore} raises
          [Invalid_argument] when it is on and the sut's instances
          have a substrate: a network's clock and its adversary's
          delivery decisions live outside the store, so its footprints
          under-approximate what a step depends on. *)
  engine : engine_kind;
  symmetry : bool;
      (** process-renaming symmetry reduction, on every engine:
          fingerprints are minimised over the sut's admissible renaming
          group ([m_perms] ∩ fault-plan-fixing, computed once per
          exploration) instead of the identity alone, so symmetric
          states merge in the fingerprint table. Needs [m_payload].
          Sound exactly when every renaming in the group maps every
          transition to a transition (see [m_perms]); one that only
          fixes the initial state merges states with different futures
          and can hide a reachable violation. The reachable-class
          cross-check in the tests compares a symmetric run's renaming
          classes with the unreduced run's. *)
  limits : Budget.limits;
  fault : Setsync_runtime.Fault.plan;
      (** crash plan applied to every replay (same schedule-space with
          crashes injected at fixed per-process step counts) *)
  telemetry : bool;
      (** wall-time the snapshot engine's movement (machine steps and
          savepoint restores) into the stats' [machine_seconds] /
          [restore_seconds]. Off by default: timing costs two
          [gettimeofday] calls per machine step, so benchmarked
          explorations keep their pinned cost profile. *)
}

val config :
  ?strategy:strategy ->
  ?prune_fingerprints:bool ->
  ?sleep_sets:bool ->
  ?engine:engine_kind ->
  ?symmetry:bool ->
  ?limits:Budget.limits ->
  ?fault:Setsync_runtime.Fault.plan ->
  ?telemetry:bool ->
  depth:int ->
  unit ->
  config
(** Defaults: DFS, both reductions on, the [Path] request (the snapshot
    engine where it applies, see {!engine_kind}), symmetry off,
    unlimited budget, no faults, telemetry off. [~symmetry:true] is
    checked by {!explore}: it needs a sut with [m_payload]. *)

type verdict =
  | Ok_bounded
      (** no violation within the explored bounded space; exhaustive
          exactly when the report's stats are not truncated *)
  | Violated of { schedule : Setsync_schedule.Schedule.t; reason : string }
      (** first counterexample found, in exploration order *)

type report = {
  verdicts : (string * verdict) list;
  stats : Budget.stats;
  engine : engine_kind;
      (** the engine that produced the stats: [Path] only when the
          walk with path replay ran *)
}
(** One verdict per property, in the order given; plus the exploration
    report. *)

val explore :
  ?domains:int ->
  ?obs:Setsync_obs.Obs.t ->
  ?on_progress:(Budget.stats -> unit) ->
  ?progress_interval:float ->
  sut:'obs sut ->
  properties:'obs state Property.t list ->
  config ->
  report
(** Exploration stops when the frontier empties, a budget limit fires
    (stats.truncated), or every property already has a counterexample.
    A request the explorer cannot serve raises [Invalid_argument]
    before any worker starts: the snapshot engine under [Bfs] or on a
    sut without a machine form, [symmetry] on a sut without
    [m_payload], or [sleep_sets] on a sut with a substrate.

    [obs] opts the exploration into observability. Metrics (recorded
    once at the end of the run, from the stats the report prints, so
    the exported counters match {!Budget.stats} exactly): counters
    [explorer.states], [explorer.safety_checked], [explorer.fp_pruned],
    [explorer.sleep_pruned], [explorer.replays], [explorer.replay_steps],
    [explorer.machine_steps] and [explorer.restores] (snapshot engine
    only), [explorer.steals] (parallel only), gauges
    [explorer.max_depth] and [explorer.frontier_peak]. Workers count in
    their own meters, which {!Budget.sum} merges after they have
    joined. When [obs] carries a recording event sink, per-prefix
    events are emitted (category ["explorer"]): ["replay"], ["expand"],
    ["fp_prune"], ["sleep_prune"], ["steal"], and periodic
    ["heartbeat"] instants whose args are the run's stats so far
    ({!Budget.stats_to_json}, the members of {!search_summary_to_json}).

    [on_progress] receives the run's stats so far, at most once per
    [progress_interval] seconds (default 1.0; <= 0 disables), from
    the loop of whichever worker is due first, never from two at once
    — the CLI prints them with {!Budget.pp_counts}.
    Heartbeat events follow the same clock. The live stats are
    {!Budget.sum} over the worker meters while the workers run: in
    parallel explorations each count is a racy read, for monitoring
    only; the final report is exact.

    [domains] (default 1) is the size of the worker pool that runs
    every exploration: each worker owns a work-stealing deque of
    prefixes, and items are independent (every item drives a fresh
    store/fiber instance). One domain is a pool of one worker in the
    calling domain, taking items in the sequential order: newest first
    under [Dfs], oldest first under [Bfs] (FIFO at every domain count);
    the snapshot engine splits the tree into pool items at depth 2 only
    with more than one worker. More domains are {e verdict-equivalent}
    to one — the same set of properties is violated — and with
    fingerprint pruning off the visited, pruned, safety-checked and
    replay counts are identical; what is {e not} reproducible is which
    counterexample is found first, the visited/pruned split under
    fingerprint pruning (see DESIGN.md §8), the snapshot engine's
    machine steps (each pool item is rebuilt by machine steps), and
    [stats.frontier_peak], the largest frontier one worker saw — the
    pool's items plus its pending snapshot siblings — read while other
    workers push and take. Budget limits are enforced against global
    counters and the wall clock, so [max_seconds] expires after ~1×
    wall time regardless of the domain count; a replay whose steps
    would pass [max_replay_steps] is refused before it starts, and
    under several domains overshoot of the count limits is
    bounded by the number of in-flight items. *)

val evaluate :
  sut:'obs sut ->
  ?fault:Setsync_runtime.Fault.plan ->
  Setsync_schedule.Schedule.t ->
  'obs state
(** Replay one schedule against a fresh instance and return the final
    state (the counterexample-reproduction entry point: the schedule is
    driven through the executor exactly as during exploration, on the
    machine form where there is one). *)

val digest : sut:'obs sut -> 'obs state -> string
(** A digest of the register snapshot, the halted/crashed sets and
    [sut.obs_fingerprint]: the explorer's fingerprint for a sut without
    [m_payload] (a machine form keys on its payload), and what
    {!Session.key} equals up to hash collisions. It determines future
    behaviour only when [obs_fingerprint] covers all process-local
    state. *)

val trajectory :
  sut:'obs sut ->
  ?fault:Setsync_runtime.Fault.plan ->
  ?stride:int ->
  on_state:('obs state -> bool) ->
  Setsync_schedule.Schedule.t ->
  'obs state
(** Replay one schedule against a fresh instance, invoking [on_state]
    on the initial state, after every [stride]-th (default 1) executed
    step, and on the final state — all within a {e single} replay, the
    coverage/safety probe of the fuzzer. [on_state] returning [true]
    stops the replay early. Returns the state at the stop point (or
    the final state, whose [run.reason] is the executor's).

    Interim states are read from the replay's own run tally, so they
    follow the {e executed} step sequence: if the replay skips
    scheduled steps (a schedule naming a crashed or halted process),
    the probed prefixes are prefixes of the executed subsequence —
    itself a replayable schedule reaching the same states — rather
    than of the requested schedule. *)

val check_schedule :
  sut:'obs sut ->
  property:'obs state Property.t ->
  ?fault:Setsync_runtime.Fault.plan ->
  Setsync_schedule.Schedule.t ->
  string option
(** Re-verify a (counterexample) schedule: a safety property is checked
    at every prefix of the schedule (first violation wins), a
    stabilization property at its final state. This is the predicate
    handed to {!Shrink}.

    Safety checking costs a {e single} replay: an on-step probe
    evaluates the property at every prefix boundary against the live
    instance, so ddmin shrinking is O(len) rather than O(len²) replays
    per candidate. The probe is skip-aware: scheduled steps the replay
    skips (a schedule naming a crashed or halted process — routine for
    hand-written, mutated, or shrunk schedules) leave the state
    unchanged, so the probe advances past them, still checking the
    state at every skipped prefix boundary, and stays a single exact
    replay; a per-prefix scan remains only as a defensive fallback.
    Each interim state's [prefix] is the requested schedule's prefix;
    its [run] is the replay's tally at that point (executed steps, and
    crashes at their executed indices), as {!evaluate} and
    {!trajectory} report it. Both are views that share arrays
    ({!Setsync_schedule.Schedule.prefix},
    {!Setsync_runtime.Run.Tally.freeze}), and the register snapshot is
    rendered only on demand, so building an interim state costs O(n)
    words whatever the schedule's length. *)

(** Many runs of one sut on one live instance — the fuzzer's hot loop.

    When the sut has a machine form ({!instance.machine}), {!Session.create}
    builds one instance and takes its initial savepoint
    ({!Setsync_memory.Store.checkpoint}, [m_save], substrate save). Every run
    then restores that savepoint, takes a fresh
    {!Setsync_runtime.Run.Tally} and steps the machine, as
    {!trajectory} and {!check_schedule} do on a fresh instance, so runs
    agree with them state for state (digests and run records).

    Without a machine form each run builds a fresh instance and steps
    fibers, as {!trajectory} and {!check_schedule} do.

    Either way the instance lives in a
    {!Setsync_memory.Store.memoized} store, so {!Session.key} gives
    each state an integer novelty key that re-hashes only the registers
    whose value changed.

    A session is single-domain mutable state: one per domain. *)
module Session : sig
  type 'obs t

  val create : sut:'obs sut -> 'obs t

  val on_machine : 'obs t -> bool
  (** The runs step one live machine instance. *)

  val trajectory :
    'obs t ->
    ?fault:Setsync_runtime.Fault.plan ->
    ?stride:int ->
    on_state:('obs state -> bool) ->
    Setsync_schedule.Schedule.t ->
    'obs state
  (** {!Explorer.trajectory} on the session. *)

  val key : 'obs t -> 'obs state -> int
  (** The novelty key of a state of the session's latest run, read
      while the instance is still at that state: inside [on_state], or
      on a trajectory's final state before the next run. It covers what
      {!digest} reads, hashing values rather than their renderings
      ({!Setsync_memory.Store.hash}): the registers
      ({!Setsync_memory.Store.key}), the substrate snapshot when there
      is one, the halted and crashed sets of the state's [run], and the
      observation. Two states get equal keys iff they get equal
      digests, up to 60-bit hash collisions, when every register's hash
      tells values apart exactly as its printer does and
      [sut.obs_fingerprint] renders the whole observation. Register
      values and the observation must be plain data: no closures and
      no locally defined exceptions, whose hashes differ between
      instances and processes (routed {!Setsync_memory.Register.route}
      payloads carry both, and no fuzzed sut routes). It costs
      O(registers) physical comparisons, a hash per register whose
      value changed, and a hash of the observation — nothing is
      rendered. *)

  val check_schedule :
    'obs t ->
    property:'obs state Property.t ->
    ?fault:Setsync_runtime.Fault.plan ->
    Setsync_schedule.Schedule.t ->
    string option
  (** {!Explorer.check_schedule} on the session, with the same verdict.

      A safety check on a machine form without a substrate resumes
      instead of replaying from step 0. The session keeps savepoints
      (store, [m_save], tally) every few executed steps along the last
      schedule it probed, for the last (fault plan, property) pair it
      checked. Each is taken right after an executed step the probe
      followed, so every earlier state of that schedule probed clean
      and the executor's skip and stall accounting restarts exactly
      there ({!Setsync_runtime.Executor.resume_with}). A later schedule
      restores the deepest savepoint inside its common prefix with the
      last one and probes only the rest — ddmin's candidates share long
      prefixes. The scan fallback is unchanged. *)
end

val pp_verdict : verdict Fmt.t

val pp_report : report Fmt.t

val search_summary_to_json : report -> Setsync_obs.Json.t
(** Machine-readable search-telemetry block (schema
    ["setsync-search-summary/1"]): the engine that ran, then the
    members of {!Budget.stats_to_json} — the counts, engine-appropriate
    movement totals ([replays]/[replay_steps] for the replay engines,
    [machine_steps]/[restores], plus seconds when the run had
    [telemetry], for the snapshot engine) and the per-depth
    visited/fp-pruned/commute-pruned profile. *)
