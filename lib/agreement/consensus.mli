(** End-to-end consensus: one {!Paxos} instance driven to a decision.

    A fixed designated proposer runs Paxos attempts until one commits;
    every process (proposer included) scans the per-process decision
    registers between attempts, adopts the first published value,
    publishes its own decision and idles. Uncontended this is exactly
    one attempt — [2·(n+1)] register ops — plus the gossip scans.

    The point of this module is backend-agnosticism: the machine
    touches shared state only through its {!Setsync_runtime.Machine.access}
    on the store it was created with, so the same step drives plain
    shared memory (stepped directly) and routed registers over the net
    ({!Setsync_net.Netmem}, through the fiber form
    {!Setsync_runtime.Machine.body}), making shm-vs-net verdict
    comparisons meaningful. Safety is Paxos safety (any schedule, any
    crashes); termination needs the proposer correct and scheduled. *)

type t

val create :
  Setsync_memory.Store.t -> n:int -> inputs:int array -> ?proposer:int -> unit -> t
(** Allocate the instance's registers ([Cons*], [CDec]) in the store.
    [proposer] defaults to process 0. Raises [Invalid_argument] if
    [inputs] has length other than [n] or [proposer] is out of
    range. *)

val step : t -> Setsync_runtime.Machine.step
(** The machine form: one step of the given process, built on
    {!Paxos.attempt_start}/{!Paxos.attempt_resume} and a scan PC over
    the decision registers. A process records its decision in the step
    that publishes it, then takes pause steps until the harness stops
    the run. *)

val decisions : t -> int option array
(** Snapshot of per-process decisions (local records, readable at any
    point of the run). *)

val decided : t -> Setsync_schedule.Proc.t -> bool
(** Whether the process has recorded a decision; allocates nothing,
    so a harness can poll it every step. *)
