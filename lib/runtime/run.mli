(** Recorded runs.

    A run (§2.3) pairs an initial configuration with a schedule; the
    executor additionally records why execution stopped, who crashed
    and when, and who halted voluntarily. Validators for failure
    detectors and agreement read these records. A run under way is
    kept in a {!Tally}, which {!Tally.freeze} turns into a record. *)

type stop_reason =
  | Source_exhausted  (** the schedule source ran dry *)
  | Step_budget  (** the configured maximum number of steps ran out *)
  | All_halted  (** every process either crashed or finished *)
  | Stopped_early  (** the caller's [stop] predicate fired *)
  | Stalled  (** the source kept naming crashed/finished processes *)

type t = {
  n : int;
  taken : Setsync_schedule.Schedule.t;
      (** the schedule actually executed (crashed processes excluded) *)
  steps_of : int array;  (** per-process step counts *)
  crashes : (Setsync_schedule.Proc.t * int) list;
      (** (process, global step index of its crash), in crash order *)
  halted : Setsync_schedule.Procset.t;
      (** processes whose code ran to completion *)
  reason : stop_reason;
}

val total_steps : t -> int

val crashed : t -> Setsync_schedule.Procset.t

val correct : t -> Setsync_schedule.Procset.t
(** Processes that do not crash. In the infinite-schedule reading,
    processes that halt voluntarily are treated as correct — they are
    processes that have completed their task (e.g. decided); validators
    that need "takes infinitely many steps" instead use
    {!Setsync_schedule.Schedule.last_occurrence} on [taken]. *)

val pp_reason : stop_reason Fmt.t

val pp : t Fmt.t
(** One-line summary. *)

(** The live record of a run under way: per-process step counts and
    budgets, dead and halted flags, crashes with their global positions,
    and the executed steps. It holds the model's one crash rule: a
    process crashes when its own step count reaches its budget from the
    fault plan (budget 0: dead from the start), and the crash is
    recorded at the global index of the step that used up the budget.
    The executor advances a tally as it grants steps; the explorer's
    snapshot engine advances one directly and rewinds it with {!save}. *)
module Tally : sig
  type run := t
  type t

  val create : n:int -> Fault.plan -> t
  (** A tally before any step; validates the plan ({!Fault.validate}). *)

  val n : t -> int

  val total_steps : t -> int
  (** Steps so far: the global index of the next step. *)

  val steps : t -> Setsync_schedule.Proc.t -> int
  (** The process's own step count. *)

  val budget : t -> Setsync_schedule.Proc.t -> int
  (** [max_int] when the plan never crashes the process. *)

  val crashed : t -> Setsync_schedule.Proc.t -> bool
  val halted : t -> Setsync_schedule.Proc.t -> bool

  val live : t -> Setsync_schedule.Proc.t -> bool
  (** Neither crashed nor halted: the process may take another step. *)

  val note_step : t -> Setsync_schedule.Proc.t -> bool
  (** Record one executed step of the process; [true] iff this step
      used up its budget (it is crashed from now on). *)

  val halt : t -> Setsync_schedule.Proc.t -> unit
  (** Record that the process's code ran to completion. *)

  val save : t -> unit -> unit
  (** Capture the tally; the returned thunk restores it. Restores are
      last-in-first-out ({!Setsync_memory.Savestack}): the capture goes
      to a per-depth buffer the tally reuses, so a save allocates only
      the returned closure. A savepoint may be restored any number of
      times until a later save reuses its depth — the next save after
      restoring a shallower savepoint does — and raises
      [Invalid_argument] after that. The executed steps are not copied:
      a restore rewinds the total, and the next {!note_step} overwrites
      the entries past it. *)

  val freeze : t -> stop_reason -> run
  (** The run recorded so far, as an immutable record, in O(n) words:
      its [taken] shares the tally's executed-steps buffer
      ({!Setsync_schedule.Schedule.share}) rather than copying it. The
      run never changes afterwards: once a {!save} restore rewinds the
      tally below a step some frozen run shows, the next {!note_step}
      first moves the live steps to a fresh buffer (copy-on-rewind, one
      copy of the live prefix per rewind), and growth always moves to
      a fresh buffer. *)
end
