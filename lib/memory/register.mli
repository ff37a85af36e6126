(** Atomic read/write shared registers.

    The paper's processes communicate through a (possibly infinite) set
    [Ξ] of shared registers, each read or written atomically in a single
    step. In the simulator a register is a plain mutable cell — the
    executor runs exactly one step at a time, so atomicity holds by
    construction. Access must go through the runtime's step discipline
    ({!Setsync_runtime.Shm}); direct {!read}/{!write} here is for the
    runtime itself and for tests.

    Registers are allocated through {!Store}, which assigns each a
    store-unique integer id and wires the store's optional access
    hook. *)

type 'a t

type mode = Read | Write  (** The kind of a counted access. *)

type hook = int -> mode -> unit
(** Access callback: receives the register's {!id} and the access's
    mode on every counted {!read} ([Read]) and {!write} ([Write]),
    never on {!peek} or {!poke}. It is how the explorer measures which
    registers a step touched and whether it wrote them: two steps that
    only read a register commute. *)

type 'a route = { route_read : unit -> 'a; route_write : 'a -> unit }
(** An access route that replaces the local cell as the target of the
    runtime's step-disciplined operations ({!Setsync_runtime.Shm}):
    when set, [Shm.read]/[Shm.write] call [route_read]/[route_write]
    instead of touching the cell directly. A message-passing backend
    installs routes that forward each operation to the register's
    owner process, which applies the {e authoritative} {!read}/{!write}
    on the cell — so the cell, its counters, and its access hook stay
    the single source of truth while the route decides {e who} performs
    the access and at what step cost. Validators ({!peek}/{!poke}) and
    {!Store.snapshot} always see the cell and bypass routes. *)

val make : ?pp:'a Fmt.t -> ?hook:hook -> name:string -> id:int -> 'a -> 'a t
(** [make ~name ~id init] creates a register holding [init]. [pp] is
    used by {!render} (defaults to an opaque placeholder); [hook] is
    called with [id] and the mode on every counted access. *)

val name : 'a t -> string

val id : 'a t -> int

val read : 'a t -> 'a
(** Atomic read (counted, reported to the hook). *)

val write : 'a t -> 'a -> unit
(** Atomic write (counted, reported to the hook). *)

val peek : 'a t -> 'a
(** Observer read: does not count as a step, not hooked. For run
    validators and tests only — never from process code. *)

val poke : 'a t -> 'a -> unit
(** Observer write, for test setup only. *)

val reads : 'a t -> int
(** Number of counted reads so far. *)

val writes : 'a t -> int
(** Number of counted writes so far. *)

val set_route : 'a t -> 'a route -> unit
(** Install an access route (normally via {!Store.set_router}, which
    wires every subsequently created register). *)

val route : 'a t -> 'a route option

val printer : 'a t -> 'a Fmt.t option
(** The printer the register was made with, if any. *)

val render : 'a t -> 'a -> string
(** Print a value with the register's own printer (the placeholder
    [<value>] when none was supplied). *)
