(** Machine forms: the one way a shared-memory algorithm is written.

    The paper's processes are automata: each scheduled step runs local
    code and then performs one read or write (§2). Each shared-memory
    algorithm is that automaton written out once, as a {!step} over an
    explicit program counter, and every runner steps it. On a plain
    store the caller grants each step itself with {!direct}: the
    harnesses through {!Executor.run_with}, the explorer and the fuzzer
    likewise (one-shot fiber continuations could not be copied into the
    snapshot engine's savepoints). Over routed registers one access
    spans several scheduled steps, so the step must suspend mid-access:
    there {!body} runs it as a fiber. The two agree step for step when a
    step's code after its atomic only sets the PC: a fiber runs that
    code at the start of its next granted step. *)

val read : 'a Setsync_memory.Register.t -> 'a
(** Counted, hooked, route-respecting read — {!Shm.read} without the
    fiber suspension. *)

val write : 'a Setsync_memory.Register.t -> 'a -> unit
(** Counted, hooked, route-respecting write — {!Shm.write} without the
    fiber suspension. *)

type access = {
  read : 'a. 'a Setsync_memory.Register.t -> 'a;
  write : 'a. 'a Setsync_memory.Register.t -> 'a -> unit;
  pause : unit -> unit;  (** a step with no register access *)
}
(** How a machine step performs its atomic. *)

val direct : access
(** {!read}, {!write} and a no-op [pause]: the step returns after its
    atomic, so each call is one granted step. *)

val fiber : access
(** {!Shm.read}, {!Shm.write} and {!Shm.pause}: each atomic suspends
    the executor fiber until its next step (registers with a route
    forward through it, as {!Shm} does). *)

type step = access -> Setsync_schedule.Proc.t -> unit
(** [step acc p]: process [p]'s local code since its previous atomic,
    then its next atomic through [acc]; advances [p]'s PC. The
    library's machines never halt. *)

val body : step -> Setsync_schedule.Proc.t -> unit -> unit
(** The fiber form: process [p] runs [step fiber p] forever. The one
    derivation of process code from a machine. *)
