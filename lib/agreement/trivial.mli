(** The trivial algorithm for [t < k] (Corollary 25's easy case).

    When fewer processes may crash than values may be decided,
    asynchrony suffices: processes [0 … t] write their inputs to
    dedicated registers and decide their own inputs; everyone else
    spins until one of those [t+1] registers is filled and adopts it.
    At most [t+1 <= k] distinct values are decided, all of them inputs,
    and since at most [t] of the first [t+1] processes crash, some
    register is eventually filled. *)

type t

val create : Setsync_memory.Store.t -> problem:Problem.t -> inputs:int array -> t
(** Requires [t < k]. *)

val step : t -> Setsync_runtime.Machine.step
(** The machine form: a writer ([p <= t]) writes its slot and decides
    its input in its next step; everyone else scans the slots in turn
    and decides in the step after the read that finds one filled. A
    decided process takes pause steps until the harness stops the
    run. *)

val decisions : t -> int option array

val decided : t -> Setsync_schedule.Proc.t -> bool
(** Whether the process has recorded a decision; allocates nothing,
    so a harness can poll it every step. *)
