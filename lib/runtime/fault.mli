(** Crash-fault injection.

    A plan allots each process a budget of its own steps; once the
    budget is exhausted the process crashes (it is never scheduled
    again), modelling the crash faults of the paper. A budget of 0
    crashes the process before it takes any step (initially dead).
    This module only describes and checks plans; {!Run.Tally} applies
    them as a run goes. *)

type plan = (Setsync_schedule.Proc.t * int) list
(** [(p, s)]: process [p] crashes after taking [s] steps. Processes not
    mentioned never crash. *)

val no_faults : plan

val validate : n:int -> plan -> unit
(** Raises [Invalid_argument] on out-of-range processes, negative
    budgets, or duplicate entries. *)
