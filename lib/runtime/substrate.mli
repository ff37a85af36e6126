(** The step substrate: what happens around each granted step.

    {!Executor.run} is parametric in the medium processes communicate
    through. A substrate supplies the three hooks the executor and the
    explorer need beyond the fibers themselves:

    - [live p] — may [p] be granted a step at all? The shared-memory
      substrate never vetoes; a message-passing substrate could refuse
      steps to a partitioned process, say. Vetoed steps are skipped
      exactly like crashed-process steps (they consume a schedule entry
      but no step budget).
    - [pre_step ~global ~proc] — runs immediately before the granted
      process's atomic action, with the global step index about to be
      executed. The net substrate uses it to advance its clock, deliver
      due messages, and record which process is stepping (the basis of
      authenticated sends).
    - [snapshot] — the substrate's state {e beyond the store}, in the
      same [(name, printed value)] shape as
      {!Setsync_memory.Store.snapshot}. The explorer appends this to
      the store snapshot when building a state, so a substrate whose
      behaviour depends on hidden state (the net substrate's per-edge
      send sequence numbers, its GST latch) must expose that state here
      or bounded exploration conflates distinct states. Store-backed
      state must {e not} be repeated here — it is already covered.
    - [save] — capture the same beyond-the-store state and return a
      restore thunk, the substrate half of a snapshot-engine savepoint
      (the store half is {!Setsync_memory.Store.checkpoint}).

    The default substrate is {!shm}: shared memory straight out of the
    store, no veto, no pre-step work, nothing beyond the store. *)

module type STEP_SUBSTRATE = sig
  type t

  val name : t -> string
  (** Short tag used in reports and obs events, e.g. ["shm"]/["net"]. *)

  val live : t -> Setsync_schedule.Proc.t -> bool

  val pre_step : t -> global:int -> proc:Setsync_schedule.Proc.t -> unit

  val snapshot : t -> (string * string) list

  val save : t -> unit -> unit
end

type t = S : (module STEP_SUBSTRATE with type t = 'a) * 'a -> t
(** A substrate packed with its state, so runs over different
    substrates share one executor code path. *)

val name : t -> string

val live : t -> Setsync_schedule.Proc.t -> bool

val pre_step : t -> global:int -> proc:Setsync_schedule.Proc.t -> unit

val snapshot : t -> (string * string) list

val save : t -> unit -> unit

val shm : store:Setsync_memory.Store.t -> t
(** The shared-memory substrate: [live] is always true, [pre_step] does
    nothing, [snapshot] and [save] are empty — every bit of
    shared-memory state already lives in the store. Passing it to
    {!Executor.run} is equivalent to passing no substrate at all. *)
