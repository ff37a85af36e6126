(** Single-decree consensus over read/write registers (Disk Paxos with
    one reliable "disk", Gafni & Lamport).

    This is the leader-driven consensus substrate under the k-set
    solver: one instance per winnerset rank. Shared state is one block
    register per process holding [(mbal, bal, inp)]; a proposer [p]
    with a fresh ballot writes its block (prepare), collects all
    blocks, adopts the value of the highest accepted ballot (or its own
    input), writes its block again (accept), collects again, and
    decides if nothing with a higher ballot interfered.

    Safety (all decisions within an instance are equal, and every
    decision is some proposer's input) holds under any schedule and any
    crashes. Liveness needs an eventually unique, correct, sufficiently
    scheduled proposer — exactly what the stabilized winnerset of
    {!Setsync_detector.Kanti_omega} provides.

    Ballots of distinct processes never collide: proposer [p] uses
    ballots [{r·n + p + 1 | r ≥ 0}]. *)

type shared
(** One instance's shared registers. *)

val create_shared : Setsync_memory.Store.t -> n:int -> name:string -> shared

type proposer
(** Local proposer state of one process in one instance. *)

val make_proposer : shared -> proc:Setsync_schedule.Proc.t -> input:int -> proposer

val current_ballot : proposer -> int
(** The ballot the proposer's next (or in-flight) attempt uses.
    Observer accessor used by the adaptive adversary. *)

val peek_decision : shared -> int option
(** Observer view (for validators): a value some process has decided
    or is about to decide — specifically the accepted value of the
    highest fully accepted ballot, if any. Note: this is a debugging
    aid; agreement validation uses the processes' actual decisions. *)

val peek_max_ballot : shared -> int

(** {2 Machine form} — the protocol's single definition, one register
    atomic per step, which {!Consensus} and {!Kset_solver} embed in
    their machine steps. An attempt is one full round (prepare,
    collect, accept, collect): [2·(n+1)] steps when uncontended. It is
    safe to start attempts repeatedly and to abandon one between
    steps. *)

type mpc
(** An in-flight attempt: the atomic just performed plus the
    attempt's accumulated locals. *)

type mres =
  | M_more of mpc  (** an atomic was performed; the attempt continues *)
  | M_decided of int
      (** resolved, value decided; {e no} atomic was performed in this
          resolution — the caller owns the step's atomic *)
  | M_interfered
      (** resolved by interference, ballot already raised; no atomic
          was performed — the caller owns the step's atomic *)

val attempt_start : Setsync_runtime.Machine.access -> proposer -> mres
(** Begin an attempt: performs its first atomic (the own-block read),
    or resolves immediately (already decided) without an atomic.
    Never returns [M_interfered]. *)

val attempt_resume : Setsync_runtime.Machine.access -> proposer -> mpc -> mres
(** Run the local code following [pc]'s atomic, then perform the next
    atomic or resolve the attempt. *)

(** {2 Declared state} — a proposer's locals (its ballot and its
    decision, as a presence slot and a value slot) are one int array,
    declared in the owner's {!Setsync_memory.Layout}, which derives the
    savepoints and the identity (the k-set solver's machine). *)

val declare : Setsync_memory.Layout.t -> proposer -> unit
(** Declare the proposer's locals. *)

val declare_shared : Setsync_memory.Layout.t -> shared -> unit
(** Declare the instance's block registers (identity only; the store
    saves them). *)

val encode_pc : Setsync_memory.Layout.sink -> mpc -> unit
(** The PC's int encoding (injective and prefix-free). *)
