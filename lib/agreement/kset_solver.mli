(** (t,k,n)-agreement in [S^k_{t+1,n}] (Theorem 24).

    Composition: each process interleaves one iteration of the Figure 2
    failure detector with one round of agreement work. The detector's
    winnersets converge to a common set [A0 ∈ Π^k_n] containing a
    correct process (Lemma 22); this solver runs [k] parallel
    {!Paxos} instances, where a process acts as proposer of instance
    [r] exactly while it is the [r]-th member of its current local
    winnerset. After stabilization each instance has at most one
    proposer, and the instance led by [A0]'s correct member decides;
    decisions spread through per-process decision registers, which
    every process scans each loop.

    At most [k] instances exist and each decides at most one value, so
    at most [k] distinct values are decided (uniform k-agreement);
    Paxos only ever decides proposers' inputs (uniform validity); see
    DESIGN.md §2(4) for why this construction faithfully replaces the
    paper's citation of Zieliński's generic reduction. *)

type t

val create :
  Setsync_memory.Store.t ->
  problem:Problem.t ->
  inputs:int array ->
  ?initial_timeout:int ->
  unit ->
  t
(** Requires [k <= t] (the non-trivial regime; use {!Trivial} when
    [t < k]) and [inputs] of length [n]. *)

val decisions : t -> int option array
(** Snapshot of per-process decisions (local records, readable at any
    point; index = process). *)

val decided : t -> Setsync_schedule.Proc.t -> bool
(** Whether the process has recorded a decision; allocates nothing,
    so a harness can poll it every step. *)

(** {2 Machine form} — the solver loop's single definition: a
    per-process step that runs the local code since the previous
    shared-memory atomic and performs the next one. Every runner steps
    it: the harness, the explorer and the fuzzer with
    {!Setsync_runtime.Machine.direct} on a plain store, and a run over
    routed registers through its fiber form
    ({!Setsync_runtime.Machine.body}). *)

type machine

val machine : t -> machine
(** The machine form over the solver's state, PCs unset. Build one
    machine per [t]. *)

val machine_step : machine -> Setsync_runtime.Machine.step
(** One step of the given process: the local code since its previous
    shared-memory atomic plus the next atomic. A process records its
    decision in the step that publishes it; decided processes then
    idle (a pause step, with no register operation); no process ever
    halts. *)

val machine_save : machine -> unit -> unit
(** Capture all per-process local state (detector locals, proposer
    ballots and decisions, PCs, decision records, engagement); the
    returned thunk restores it. Register state is the store's job.
    Derived from the machine's one declaration of its state
    ({!Setsync_memory.Layout.save}), like
    {!Setsync_detector.Kanti_omega.save}: restores are
    last-in-first-out, a save allocates only the returned closure, and
    a savepoint whose depth a later save reused raises
    [Invalid_argument] when restored. *)

val identity : ?without:string -> machine -> string
(** The machine's full state — the decision, Paxos and detector
    registers, every local and every PC — encoded from the same
    declaration as {!machine_save}
    ({!Setsync_memory.Layout.identity}); [without] leaves out the
    slots of that name (["pcs"], ["Dec"], ["Heartbeat"] ...), a lossy
    identity for tests. An optional local is a
    presence slot plus value slots, so no input value can pass for an
    absent decision. No process renaming other than the identity maps
    the solver's transitions onto themselves (the detector scans in a
    fixed order, Paxos collects in a fixed order, and rank selection
    reads the winnerset's order), so the state has no renamed
    forms. *)

val fd_iterations : t -> int array
(** Completed detector iterations per process (diagnostics). *)

val fd_winnerset : t -> Setsync_schedule.Proc.t -> Setsync_schedule.Procset.t
(** Current local winnerset of the embedded detector (diagnostics). *)

(** {2 Adversary introspection}

    Impossibility-side schedulers are omniscient: they may inspect
    process state when choosing the next step. This view exposes
    exactly what {!Adaptive} needs. *)

type adversary_view = {
  winnersets : unit -> Setsync_schedule.Procset.t array;
      (** each process's current local winnerset *)
  engaged_instance : int -> int;
      (** the instance of the process's in-flight Paxos attempt, [-1]
          if it is not inside one; polled, nothing allocated *)
  engaged_ballot : int -> int;
      (** that attempt's ballot (meaningful while [engaged_instance]
          is not [-1]) *)
  instance_max_ballot : int -> int;
      (** highest ballot visible in the given instance's blocks *)
  current_argmin : unit -> Setsync_schedule.Procset.t;
      (** the set of [Π^k_n] currently winning the accusation argmin
          (computed from the shared counters exactly as line 4 of
          Figure 2 does) — the set every process's winnerset is
          converging towards, i.e. the adversary's starvation target *)
}

val adversary_view : t -> adversary_view

val empty_adversary_view : n:int -> adversary_view
(** All-empty view (used when the trivial algorithm runs: there is no
    detector or Paxos state to adapt to). *)
