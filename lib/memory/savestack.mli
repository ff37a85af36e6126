(** Last-in-first-out savepoints over per-depth capture buffers.

    A depth-first search saves a state on the way down and restores it
    on the way back up, so its savepoints form a stack. A component
    that keeps its captures in buffers indexed by depth can then reuse
    the same slots at every node, instead of allocating a fresh copy of
    its state per savepoint. This module keeps the depth and the
    staleness check; the component keeps the buffers.

    A save takes the slot just above the latest restored or saved one.
    A restore makes its own slot the top again, so the next save goes
    to the slot above it and the deeper slots are free for reuse. A
    savepoint therefore stays valid, and can be restored any number of
    times, until a later save reuses its depth; restoring it after that
    raises [Invalid_argument]. Nothing else frees a depth: a caller
    that saves and restores over and over without ever restoring an
    older savepoint goes one depth deeper each time, and its buffers
    grow with it. A depth-first search restores the parent's savepoint
    after each child, so its depths never exceed its depth bound. *)

type t

val create : unit -> t
(** An empty stack: the first save takes depth 0. *)

val save : t -> string -> ('a -> int -> unit) -> ('a -> int -> unit) -> 'a -> unit -> unit
(** [save t who capture restore x] calls [capture x depth] for the next
    free depth and returns the restore: it checks that no later save
    reused [depth] (raising [Invalid_argument] naming [who] if one
    did), makes [depth] the top again and calls [restore x depth]. The
    returned closure is the only allocation, besides the stamp table's
    growth. *)

val grow : 'a array -> int -> 'a -> 'a array
(** [grow buf len fill] is a copy of [buf] that holds at least [len]
    elements and at least twice as many as [buf], whose new elements
    are [fill]: how a component grows a per-depth buffer that is too
    short. Components test the length first, because storing the
    buffer back into a mutable field costs a write barrier on every
    save. *)
