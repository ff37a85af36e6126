(** Exploration budgets and the exploration report.

    Bounded exploration is only useful when runs are observable and
    reproducible: a budget caps the work an exploration may do (states,
    replayed steps, wall clock), and the meter behind it accumulates
    the statistics the final report prints (states visited, states
    pruned by fingerprint and by commutation, replay effort, depth and
    frontier high-water marks).

    In an exploration ({!Explorer.explore}) each pool worker
    accumulates into its own meter — the meters are plain single-domain
    mutable state — and {!sum} merges them on the parent meter's clocks,
    so the reported times span the whole exploration. The same call
    builds the live progress view and the final report. *)

type limits = {
  max_states : int option;  (** cap on states visited (property-checked) *)
  max_replay_steps : int option;
      (** cap on the total number of executed steps summed over all
          replays (the engine re-executes each prefix from scratch, so
          this is the real work metric) *)
  max_seconds : float option;
      (** cap on elapsed {e wall-clock} seconds. Wall, not CPU: a 1 s
          budget expires after ~1 s of real time no matter how many
          domains are exploring (CPU time accrues N× faster under N
          domains). Unlike the other limits this one is
          machine-dependent: a run truncated by it is reproducible only
          in what it explored first, not in how far it got. [None] (the
          default everywhere) keeps explorations deterministic. *)
}

val unlimited : limits

val limits :
  ?max_states:int -> ?max_replay_steps:int -> ?max_seconds:float -> unit -> limits
(** Raises [Invalid_argument] on a negative limit (or a NaN
    [max_seconds]): a negative budget would visit nothing and read as a
    clean bounded pass. *)

type movement =
  | Replays  (** the replay engines: [replays] and [replay_steps] *)
  | Machine  (** the snapshot engine: [machine_steps] and [restores] *)
(** The work an engine pays to reach a state, which the report prints. *)

type t
(** A running meter. Single-domain: share one meter per worker, never
    one meter across workers. *)

val start : ?movement:movement -> limits -> t
(** Starts both clocks (CPU via [Sys.time], wall via
    [Unix.gettimeofday]). [movement] (default [Replays]) is the clause
    {!pp_stats} prints. *)

val over : t -> bool
(** Some limit has been reached ([max_seconds] against the wall
    clock).

    Boundary contract: a budget of [k] ([max_states = Some k], likewise
    [max_replay_steps]) means {e at most} [k] are spent — [over] flips
    exactly when the meter reaches [k], so callers must consult it
    {e before} paying for the next unit of work, and only after having
    claimed that unit (pop first, then test): a run that completes the
    bounded space using exactly its budget is exhaustive, not
    truncated. [Some 0] therefore visits nothing and is truncated
    whenever any work was pending. *)

val deadline : t -> float option
(** Absolute wall-clock time ([Unix.gettimeofday] scale) at which the
    [max_seconds] limit fires, if one is set. *)

val mark_truncated : t -> unit
(** Record that exploration stopped because a limit fired. *)

(** {2 Accumulation} (called by the explorer) *)

val note_state : t -> unit
val note_safety_check : t -> unit
val note_replay : t -> steps:int -> unit

val note_replay_steps : t -> int -> unit
(** Add executed steps without counting a replay: the walk with path
    replay counts one {!note_replay} [~steps:0] per pool item and each
    step through this as it executes. *)

val note_depth : t -> int -> unit
(** Record a visit at the given prefix depth: raises the [max_depth]
    high-water mark and bumps that depth's row of the per-depth
    visited profile. Call exactly once per visited state, with that
    state's depth. *)

val note_fingerprint_prune : ?depth:int -> t -> unit
(** Pass [~depth] (of the pruned state) to also attribute the prune in
    the per-depth profile; engines that do not track a depth at the
    prune site may omit it, keeping only the total. *)

val note_sleep_prune : ?depth:int -> t -> unit
(** Same [~depth] contract as {!note_fingerprint_prune}. *)

val note_frontier : t -> int -> unit

(** {3 Snapshot-engine movement}

    Machine steps and savepoint restores are the snapshot engine's
    work units — deliberately not folded into [replays]/[replay_steps];
    {!pp_stats} prints them in place of the replays. The [_seconds]
    accumulators are fed only when the caller times the movement
    (telemetry mode); they stay [0.] otherwise. *)

val note_machine_step : t -> unit
val note_restore : t -> unit
val note_machine_seconds : t -> float -> unit
val note_restore_seconds : t -> float -> unit

(** {2 Report} *)

type depth_row = {
  dr_depth : int;  (** prefix depth (0 = the empty prefix) *)
  dr_visited : int;  (** states visited at this depth *)
  dr_fp_pruned : int;
      (** fingerprint prunes attributed to this depth (only engines
          that pass [~depth] to {!note_fingerprint_prune} contribute) *)
  dr_sleep_pruned : int;  (** commutation prunes attributed likewise *)
}

type stats = {
  movement : movement;  (** the meter's, or for {!sum} the clock's *)
  visited : int;
      (** states evaluated and property-checked (commutation-pruned
          replays are not visits) *)
  safety_checked : int;
      (** states checked against at least one pending safety property —
          includes commutation-pruned states, whose replay is already
          paid for and therefore checked before being discarded *)
  pruned_fingerprint : int;
      (** visited states not expanded because their fingerprint was
          already seen at the same or a shallower depth *)
  pruned_sleep : int;
      (** prefixes discarded by the commutation (sleep-set-style)
          reduction: their last two steps commute and the swapped
          order is explored instead *)
  replays : int;  (** prefix re-executions performed *)
  replay_steps : int;  (** total steps executed across all replays *)
  max_depth : int;  (** deepest prefix evaluated *)
  frontier_peak : int;  (** high-water mark of the frontier *)
  truncated : bool;
      (** a budget limit fired before the bounded space was exhausted;
          when [false], every reachable state within the depth bound
          was covered (up to the enabled reductions) *)
  cpu_seconds : float;
      (** CPU time consumed by the whole process during the
          exploration, summed over domains ([Sys.time] delta) *)
  wall_seconds : float;  (** real elapsed time ([Unix.gettimeofday] delta) *)
  depth_profile : depth_row list;
      (** per-depth breakdown, ascending from depth 0; empty when no
          depth was ever noted. Rows are the elementwise sums of the
          worker profiles ({!sum}). *)
  machine_steps : int;  (** snapshot engine: live machine steps taken *)
  restores : int;  (** snapshot engine: savepoint restores performed *)
  machine_seconds : float;
      (** wall time inside machine steps when movement was timed
          (telemetry mode); [0.] otherwise *)
  restore_seconds : float;  (** likewise, wall time inside restores *)
}

val stats : t -> stats
(** Reads the clocks at call time; every other field is a plain copy
    of the meter. *)

val sum : clock:t -> t array -> stats
(** The stats of several meters merged: counts and per-depth rows are
    summed, high-water marks maxed, [truncated] or-ed. The times are
    [clock]'s, read at call time; [clock]'s own counts are not
    included. Safe to call while other domains are still writing the
    meters: each count is then a racy single-word read — good for a
    progress view, exact once the writers have joined. *)

val heartbeat : interval:float -> (unit -> unit) -> unit -> unit
(** [heartbeat ~interval beat] is a tick: calling it runs [beat] when
    at least [interval] wall-clock seconds have passed since the last
    beat (or since the tick was made). An [interval <= 0.] never
    beats. Domains may share a tick: one beat at a time runs, and a
    domain that finds a beat running skips its own. *)

val stats_to_json : stats -> (string * Setsync_obs.Json.t) list
(** Every field but [cpu_seconds], in order, as JSON object members
    named as in the search summary: [pruned_fingerprint] is
    [fp_pruned], [pruned_sleep] is [sleep_pruned]. *)

val pp_counts : stats Fmt.t
(** The counts of {!pp_stats} without its exhaustive/truncated tail,
    e.g. ["visited 4121 (fp-pruned 310, commute-pruned 988, safety-checked 5109) machine 1155 steps, 1155 restores, max depth 7, frontier peak 24"]:
    the line a live progress view prints. *)

val pp_stats : stats Fmt.t
(** One-line report, e.g.
    ["visited 4121 (fp-pruned 310, commute-pruned 988, safety-checked 5109) replays 5109/31880 steps, max depth 7, frontier peak 24, exhaustive"].
    The movement clause is the stats' [movement]: for [Machine] it
    reads ["machine 1155 steps, 1155 restores"] in place of the
    replays, from the first progress line on. Deliberately omits the times so that reports of deterministic
    explorations print identically across runs; print {!pp_times}
    separately when the timing matters. *)

val pp_times : stats Fmt.t
(** ["0.412s wall / 0.409s cpu"]. *)
