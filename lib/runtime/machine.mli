(** Register access for explicit-PC machine forms of algorithm bodies.

    The snapshot exploration engine cannot use fibers: effect
    continuations are one-shot, so a parked fiber cannot be copied into
    a savepoint and resumed twice. Algorithms therefore define their
    step code once, as a defunctionalized {e machine}: an explicit
    program counter plus a step function that runs the local code since
    the previous atomic and performs the next one through an {!access}.

    The same step code serves both engines. Given {!direct}, a step
    returns after its atomic; the machine's own step function is the
    atomicity boundary. Given {!fiber}, the atomic suspends the calling
    fiber until its next granted step, so the step function looped
    over it is the fiber form. Footprints and snapshots coincide
    across the two by construction. *)

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
(** {!read}, {!write} and a no-op [pause]: for the snapshot engine,
    which calls the step function once per granted step. *)

val fiber : access
(** {!Shm.read}, {!Shm.write} and {!Shm.pause}: each atomic suspends
    the executor fiber until its next step (registers with a route
    forward through it, as {!Shm} does). *)
