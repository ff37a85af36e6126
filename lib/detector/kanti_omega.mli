(** The paper's core algorithm (Figure 2): t-resilient k-anti-Ω in
    [S^k_{t+1,n}].

    Every process maintains, for each set [A ∈ Π^k_n], a timer fed by
    the heartbeats of [A]'s members and a shared "badness" counter
    [Counter[A, p]] it bumps whenever the timer expires; the accusation
    counter of [A] is the [(t+1)]-st smallest column of [Counter[A, *]].
    Each iteration the process picks the set with the least accusation
    counter (ties by the canonical order on sets) as [winnerset] and
    outputs its complement.

    If some [P ∈ Π^k_n] is timely with respect to a [Q] of size [t+1]
    (i.e. the run lies in [S^k_{t+1,n}]) and at most [t] processes
    crash, then all correct processes converge to a common winner [A0]
    containing at least one correct process (Lemma 22 / Theorem 23), so
    the complement output satisfies t-resilient k-anti-Ω. *)

type params = { n : int; t : int; k : int }
(** Requires [1 <= k <= t <= n - 1] (§4.2). *)

val check_params : params -> unit
(** Raises [Invalid_argument] on out-of-range parameters. *)

type shared
(** The algorithm's shared registers: [Heartbeat[p]] for each process
    and [Counter[A, q]] for each [A ∈ Π^k_n], [q ∈ Πn]. *)

val create_shared : Setsync_memory.Store.t -> params -> shared

val sets : shared -> Setsync_schedule.Procset.t array
(** [Π^k_n] in canonical order; index [a] of this array is the row of
    [Counter] used for that set. *)

val peek_counter : shared -> set_index:int -> proc:Setsync_schedule.Proc.t -> int
(** Observer read of [Counter[A, q]] (for validators/tests). *)

val peek_heartbeat : shared -> proc:Setsync_schedule.Proc.t -> int

val accusation_counter : shared -> params -> row:int array -> set_index:int -> int
(** Observer computation of the pseudo-variable [counter(A)]
    (Definition 13): the [(t+1)]-st smallest entry of the current
    [Counter[A, *]]. [row], of length [n], is the caller's scratch: the
    row is read into it and sorted there, so a poll allocates nothing.
    Raises [Invalid_argument] if [row]'s length is not [n]. *)

type process
(** Per-process instance (local state of Figure 2). *)

val make_process :
  ?initial_timeout:int -> shared -> params -> proc:Setsync_schedule.Proc.t -> process
(** Local variables initialized as in Figure 2 ([initial_timeout],
    default 1, is the paper's [timeout[A] = 1]; experiments may start
    higher to shorten warm-up without changing the algorithm's
    self-adjusting behaviour). *)

(** {2 Observer accessors} — peek at local state between steps; used by
    harnesses and tests. *)

val fd_output : process -> Setsync_schedule.Procset.t
(** Current [fdOutput] (line 5): [Πn − winnerset], of size [n − k]. *)

val winnerset : process -> Setsync_schedule.Procset.t

val iterations : process -> int
(** Completed loop iterations. *)

(** {2 Machine form} — Figure 2's single definition, one shared-memory
    atomic per step. {!machine} packages it for every runner: the
    harness, the explorer and the fuzzer step it with
    {!Setsync_runtime.Machine.direct}, and a run over routed registers
    takes its fiber form from {!Setsync_runtime.Machine.body}. The
    iteration's parts stay exported for the k-set solver, which
    interleaves them with its own atomics. *)

type mpc
(** Program counter: the shared-memory atomic just performed, with its
    pending result. *)

val iterate_start : Setsync_runtime.Machine.access -> process -> mpc
(** Begin an iteration: performs its first atomic (the [Counter[0][0]]
    read of line 2). *)

val iterate_resume : Setsync_runtime.Machine.access -> process -> mpc -> mpc option
(** Run the local code following [pc]'s atomic, then perform the next
    atomic of the iteration. [None] means the iteration's trailing
    local code ran and {e no} atomic was performed — the caller owns
    the step's atomic (start the next iteration, or move on, within
    the same step), as a fiber step spans the code between two
    atomics. *)

(** {2 Declared state} — Figure 2's locals are int arrays, declared
    once in an owner's {!Setsync_memory.Layout}: the machine's below,
    or the k-set solver's, which embeds these processes. Savepoints and
    the state's identity are derived from that declaration. *)

val declare : Setsync_memory.Layout.t -> process -> unit
(** Declare every local variable of the process. *)

val declare_shared : Setsync_memory.Layout.t -> shared -> unit
(** Declare the [Heartbeat] and [Counter] registers (identity only;
    the store saves them). *)

val encode_pc : Setsync_memory.Layout.sink -> mpc -> unit
(** The PC's int encoding (injective and prefix-free). *)

type machine
(** Figure 2 as a whole: one process per id over one [shared], with
    their PCs. *)

val machine : ?initial_timeout:int -> shared -> params -> machine
(** {!make_process} for every id, no PC set yet. *)

val processes : machine -> process array
(** The machine's processes, index = id, for the observer accessors. *)

val step : machine -> Setsync_runtime.Machine.step
(** One step of [repeat forever] (lines 2–19): resume the process's PC
    and, when an iteration ends without an atomic, start the next one
    within the same step. *)

val save : machine -> unit -> unit
(** Capture every process's locals and PC; the returned thunk restores
    them. Register state is the store's job. Derived from the
    machine's declaration ({!Setsync_memory.Layout.save}): restores
    are last-in-first-out, a save allocates only the returned closure,
    and a savepoint whose depth a later save reused raises
    [Invalid_argument] when restored. *)

val identity : machine -> string
(** The machine's full state — registers, every process's locals and
    PC — encoded from the same declaration as {!save}
    ({!Setsync_memory.Layout.identity}): equal exactly when every
    declared slot is. The processes scan registers in a fixed order and
    break ties by the canonical set order (lines 2–4), so no process
    renaming other than the identity maps the machine's transitions
    onto themselves: the state has no renamed forms. *)
