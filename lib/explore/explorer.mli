(** Bounded exploration of schedule prefixes (stateless model checking).

    The engine enumerates schedule prefixes of a system under test up
    to a depth bound, re-executes each prefix from a fresh instance
    through {!Setsync_runtime.Executor.replay} (processes are effect
    fibers, so global states cannot be snapshotted — each prefix is
    replayed from scratch, the classic stateless-model-checking
    trade), and checks user-supplied {!Property} verdicts:

    - safety properties at every visited state;
    - stabilization properties on maximal prefixes (depth bound
      reached, or every process halted/crashed).

    Two reductions keep the bounded space tractable:

    - {b fingerprint memoization}: a digest of the register snapshot,
      the halted/crashed sets, and the system's own observation
      contribution; a state whose fingerprint was already seen at the
      same or a shallower depth is not expanded. Sound exactly when
      the fingerprint determines future behaviour — i.e. when
      {!sut.obs_fingerprint} covers all process-local state not
      reflected in registers (see DESIGN.md §6).
    - {b sleep-set-style commutation}: a prefix [σ·a·b] whose last two
      steps belong to different processes, touch disjoint register
      sets (recovered from {!Setsync_memory.Trace}), and are ordered
      [b < a], is discarded — the swapped prefix [σ·b·a] reaches the
      same state and is generated as a sibling. Sound for state-based
      properties; unsound for schedule-sensitive ones
      ({!Property.set_timely}), which must explore unreduced. *)

type minstance = {
  m_step : Setsync_schedule.Proc.t -> unit;
      (** one step of the given process: the local code since its
          previous shared-memory atomic plus the next atomic — exactly
          the register operations the fiber form's step performs, in
          the same order, so footprints and snapshots coincide *)
  m_halted : Setsync_schedule.Proc.t -> bool;
      (** mirrors the fiber body returning (process halted) *)
  m_save : unit -> unit -> unit;
      (** capture all machine-local state (PCs, locals); the returned
          thunk restores it. Register state is restored separately via
          {!Setsync_memory.Store.save}. *)
  m_payload : (perm:int array -> string) option;
      (** deterministic rendering of the full machine state under a
          process renaming, for symmetry-canonical fingerprints
          ([None] = no symmetry support) *)
  m_perms : int array list;
      (** admissible process renamings (must contain the identity);
          the engine further restricts them to renamings fixing the
          fault plan *)
}
(** Machine form of a system: explicit-PC step functions over the same
    store, required by the snapshot engine (fiber continuations are
    one-shot and cannot be copied into savepoints). *)

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
          present, drive a given instance through [body] or the
          machine, never both. *)
}

type 'obs sut = {
  n : int;  (** number of processes *)
  fresh : store:Setsync_memory.Store.t -> 'obs instance;
      (** build a brand-new instance whose registers all live in
          [store] (the engine owns the store so it can trace register
          footprints and snapshot values) *)
  obs_fingerprint : 'obs -> string;
      (** the observation's contribution to the state fingerprint.
          Return [""] if the register snapshot already determines the
          full state; include any process-local state otherwise, or
          disable fingerprint pruning. *)
}

type 'obs state = {
  depth : int;  (** number of extension choices = [Schedule.length prefix] *)
  prefix : Setsync_schedule.Schedule.t;  (** the interleaving reaching this state *)
  run : Setsync_runtime.Run.t;  (** replay record (halted, crashed, …) *)
  snapshot : (string * string) list;  (** printed register values *)
  obs : 'obs;
}

type frontier = {
  push : Setsync_schedule.Proc.t list -> unit;
      (** a prefix in reverse step order (deepest choice first) *)
  pop : unit -> Setsync_schedule.Proc.t list option;
  size : unit -> int;
}

type strategy =
  | Dfs  (** LIFO; children explored in ascending process order *)
  | Bfs  (** FIFO; finds shortest counterexamples first *)
  | Custom of (unit -> frontier)
      (** plug your own (priority queues, random restarts, …); must be
          deterministic for the exploration to be *)

type engine_kind =
  | Per_state
      (** one fresh replay per visited state — the naive baseline
          (bench E11e's comparison point) *)
  | Path
      (** amortized path-replay engine (default): one executor run per
          DFS {e descent} visits every interim state from a single
          live replay and continues into the first unpruned child, so
          replay steps per visited state are amortized O(1) instead of
          O(depth). Verdicts, visited/pruned counts and the DFS visit
          order are identical to the per-state engine (the cross-check
          tests pin this); replay accounting
          ([stats.replays]/[replay_steps]) is what improves. Applies
          to [Dfs] sequentially and to every parallel worker; [Bfs]
          and [Custom] frontiers fall back to the per-state engine
          (their pop order defeats descent amortization). *)
  | Snapshot
      (** replay-free engine: requires a machine-form sut
          ({!instance.machine}); the DFS moves down by single machine
          steps on one live store and back up by restoring typed
          savepoints ({!Setsync_memory.Store.save}, [m_save],
          substrate save) — [stats.replays] and [stats.replay_steps]
          stay {e zero}. Depth-first only. Machine movement is
          reported via the [explorer.machine_steps] /
          [explorer.restores] metrics. Verdict/visited/pruned
          equivalent to the other engines on machine-form suts (the
          cross-check tests pin this). *)

type config = {
  depth : int;  (** maximum prefix length *)
  strategy : strategy;
  prune_fingerprints : bool;
  sleep_sets : bool;
  engine : engine_kind;
  symmetry : bool;
      (** process-renaming symmetry reduction (snapshot engine only):
          fingerprints are canonicalized to the lexicographic minimum
          over the sut's admissible renaming group ([m_perms] ∩
          fault-plan-fixing ∩ [m_payload] renderings), so symmetric
          states merge in the fingerprint table. Soundness matches the
          payload's fidelity — validated by the symmetry cross-check
          tests (sym-on/off verdict equality). *)
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
  ?path_replay:bool ->
  ?engine:engine_kind ->
  ?symmetry:bool ->
  ?limits:Budget.limits ->
  ?fault:Setsync_runtime.Fault.plan ->
  ?telemetry:bool ->
  depth:int ->
  unit ->
  config
(** Defaults: DFS, both reductions on, [Path] engine, symmetry off,
    unlimited budget, no faults, telemetry off. [?path_replay] is the
    legacy spelling of the engine choice ([true] = [Path], [false] =
    [Per_state]) and is overridden by [?engine] when both are given.
    [~symmetry:true] without [~engine:Snapshot] raises
    [Invalid_argument]. *)

type verdict =
  | Ok_bounded
      (** no violation within the explored bounded space; exhaustive
          exactly when the report's stats are not truncated *)
  | Violated of { schedule : Setsync_schedule.Schedule.t; reason : string }
      (** first counterexample found, in exploration order *)

type report = {
  verdicts : (string * verdict) list;
  stats : Budget.stats;
  engine : engine_kind;  (** the engine that produced the stats *)
}
(** One verdict per property, in the order given; plus the exploration
    report. *)

type progress = {
  wall : float;  (** seconds since exploration start *)
  states : int;
  replays : int;
  replay_steps : int;
  frontier : int;
  fp_pruned : int;
  sleep_pruned : int;
  max_depth : int;
  machine_steps : int;
      (** snapshot engine's live movement counter; 0 under the replay
          engines (whose movement is [replays]/[replay_steps]) *)
  restores : int;  (** snapshot engine's savepoint restores; 0 elsewhere *)
}
(** Periodic progress snapshot (see [?on_progress] below). In parallel
    explorations the counts are racy sums over the live worker meters —
    monitoring only, never exact until the run ends. *)

val explore :
  ?domains:int ->
  ?obs:Setsync_obs.Obs.t ->
  ?on_progress:(progress -> unit) ->
  ?progress_interval:float ->
  sut:'obs sut ->
  properties:'obs state Property.t list ->
  config ->
  report
(** Exploration stops when the frontier empties, a budget limit fires
    (stats.truncated), or every property already has a counterexample.

    [obs] opts the exploration into observability. Metrics (recorded at
    the end of the run, from the same meters the report prints, so the
    exported counters match {!Budget.stats} exactly): counters
    [explorer.states], [explorer.safety_checked], [explorer.fp_pruned],
    [explorer.sleep_pruned], [explorer.replays], [explorer.replay_steps],
    [explorer.steals] (parallel only), gauges [explorer.max_depth] and
    [explorer.frontier_peak]. In parallel mode each worker's counts land
    in metric shard [wid] — create the registry with
    [~shards:domains] to keep per-worker counts separable. When [obs]
    carries a recording event sink, per-prefix events are emitted
    (category ["explorer"]): ["replay"], ["expand"], ["fp_prune"],
    ["sleep_prune"], ["steal"], and periodic ["heartbeat"] instants.

    [on_progress] is called at most once per [progress_interval]
    seconds (default 1.0; <= 0 disables) from the exploration loop
    (worker 0 in parallel mode) — the CLI uses it to print a progress
    line. Heartbeat events follow the same clock.

    [domains] (default 1) > 1 runs the exploration on a pool of OCaml
    domains: each worker owns a work-stealing deque of prefixes,
    replays are independent (every prefix drives a fresh
    store/trace/fiber instance), and the fingerprint table is
    lock-striped. The parallel run is {e verdict-equivalent} to the
    sequential one — the same set of properties is violated — and with
    fingerprint pruning off its visited/pruned/safety-checked counts
    are identical; what is {e not} reproducible across parallel runs is
    which counterexample is found first and, under fingerprint pruning,
    the exact visited/pruned split (see DESIGN.md §8). Replay
    accounting ([stats.replays]/[replay_steps]) is mode-specific under
    [path_replay]: sequential descents synthesize commutation prunes
    from sibling footprints without replaying them, while parallel
    workers discover prunes on arrival with the replay already paid —
    both are deterministic per mode, but they are not equal across
    modes (with [sleep_sets] off the difference vanishes).
    [config.strategy]
    must be {!Dfs} or {!Bfs} (both are treated as hints; each worker
    drains its own deque depth-first) — [Custom] frontiers raise
    [Invalid_argument]. Budget limits are enforced against global
    counters and the wall clock, so [max_seconds] expires after ~1×
    wall time regardless of the domain count; overshoot of the count
    limits is bounded by the number of in-flight items. *)

val evaluate :
  sut:'obs sut ->
  ?fault:Setsync_runtime.Fault.plan ->
  Setsync_schedule.Schedule.t ->
  'obs state
(** Replay one schedule against a fresh instance and return the final
    state (the counterexample-reproduction entry point: the schedule is
    driven through [Executor.replay] exactly as during exploration). *)

val digest : sut:'obs sut -> 'obs state -> string
(** The state's fingerprint digest — the same function the explorer's
    fingerprint memoization uses (register snapshot + halted/crashed
    sets + [sut.obs_fingerprint]). Exposed so the fuzzer can rank
    corpus entries by novelty against exploration-equivalent
    fingerprints. Same approximation caveat as pruning: the digest
    determines future behaviour only when [obs_fingerprint] covers all
    process-local state. *)

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
    the final state).

    Interim states are reconstructed from the {e executed} step
    sequence: if the replay skips scheduled steps (a schedule naming a
    crashed or halted process), the probed prefixes are prefixes of
    the executed subsequence — itself a replayable schedule reaching
    the same states — rather than of the requested schedule. *)

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
    replay; a per-prefix scan remains only as a defensive fallback. *)

val pp_verdict : verdict Fmt.t

val pp_report : report Fmt.t

val search_summary_to_json : report -> Setsync_obs.Json.t
(** Machine-readable search-telemetry block (schema
    ["setsync-search-summary/1"]): the engine that ran,
    engine-appropriate movement totals — [replays]/[replay_steps] for
    the replay engines, [machine_steps]/[restores] (plus seconds when
    the run had [telemetry]) for the snapshot engine — and the
    per-depth visited/fp-pruned/commute-pruned profile. *)

val pp_search_summary : report Fmt.t
(** Human rendering of the same block: one header line with the
    engine and its movement counters, then one line per depth. *)
