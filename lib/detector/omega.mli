(** Ω, the eventual-leader failure detector, as the [k = 1] special
    case of k-anti-Ω.

    Footnote 2 of the paper: (n−1)-resilient 1-anti-Ω is equivalent to
    the failure detector Ω of Chandra–Hadzilacos–Toueg — the weakest
    detector for consensus. When [k = 1] the Figure 2 winnerset is a
    singleton, i.e. a leader, and Theorem 23 instantiates to: a common
    correct leader eventually emerges in [S^1_{t+1,n}]. This module is
    a thin convenience facade over {!Kanti_omega} exposing the leader
    view directly; it is what a consensus protocol (e.g. {!Paxos} in
    the agreement library) would consume. *)

type process = Kanti_omega.process

val machine :
  ?initial_timeout:int -> Setsync_memory.Store.t -> n:int -> t:int -> Kanti_omega.machine
(** {!Kanti_omega.machine} at [k = 1], its registers allocated in the
    store. *)

val leader : process -> Setsync_schedule.Proc.t
(** The process's current leader estimate: the unique member of its
    winnerset (the canonical first process before the first
    iteration). If at most [t] processes crash and the run lies in
    [S^1_{t+1,n}], all correct processes' leaders eventually agree on
    one correct process forever. *)

val iterations : process -> int
