(** Register allocation and accounting.

    A store is the concrete [Ξ] of one system instance: every register
    of a run is allocated here, under an id unique within the store, so
    the register count, snapshots, savepoints and the optional access
    hook cover the whole shared memory. *)

type t

val create : ?hook:Register.hook -> unit -> t
(** A fresh, empty shared memory. When [hook] is given, every counted
    access to a register allocated here calls it with the register's
    id and whether the access reads or writes (see {!Register.hook}). *)

type router = { route_for : 'a. 'a Register.t -> 'a Register.route option }
(** Decides, per register, whether step-disciplined access should be
    forwarded somewhere else (see {!Register.route}); [None] keeps the
    register local. *)

val set_router : t -> router -> unit
(** Install a router. Applies to registers created {e after} this call
    — a message-passing backend installs it right after allocating its
    own channel state, so algorithm registers get proxied while the
    substrate's do not. *)

val routed : t -> bool
(** Whether a router is installed. *)

val register : t -> ?pp:'a Fmt.t -> ?hash:('a -> int) -> name:string -> 'a -> 'a Register.t
(** Allocate one named register with an initial value. [hash]
    (default {!hash}) is the value hash {!key} folds for it: give one
    when [pp] prints less than the whole value, so keys split values
    exactly where snapshots do. *)

val array :
  t ->
  ?pp:'a Fmt.t ->
  ?hash:('a -> int) ->
  name:string ->
  int ->
  (int -> 'a) ->
  'a Register.t array
(** [array t ~name len init] allocates registers [name[0]] …
    [name[len-1]] with [init idx] as initial values. Each name is
    byte for byte [name ^ "[" ^ string_of_int idx ^ "]"] (what
    routed-register owners, {!Layout} and snapshots key on), written
    straight into one string of its exact length. *)

val matrix :
  t ->
  ?pp:'a Fmt.t ->
  ?hash:('a -> int) ->
  name:string ->
  rows:int ->
  cols:int ->
  (int -> int -> 'a) ->
  'a Register.t array array
(** Two-dimensional bank, [name[r][c]], each name written as
    {!array} writes its own (byte-identical to the concatenation). *)

val register_count : t -> int

val snapshot : t -> (string * string) list
(** Current [(name, printed value)] of every register allocated here,
    in allocation order, via observer reads (not counted, not hooked).
    Snapshots are total: registers allocated without a [pp] render as a
    structural digest of the stored value (marshaled bytes, with a
    full-width [Hashtbl.hash_param] fallback for unmarshalable values),
    so two distinct pp-less states never collapse to one placeholder
    string and fingerprints built on snapshots stay discriminating. *)

val memoized : ?hook:Register.hook -> unit -> t
(** A fresh store, as {!create} makes, that keeps per register the
    value it last hashed and that value's {!hash}, for {!key}. Sound
    under the invariant {!save} relies on — stored values are
    immutable, so a physically equal value hashes the same. The cells
    live as long as the store: meant for an instance keyed at many
    states — a fuzzing session's live instance, or one run's fresh
    instance — not for stores built per state. *)

val key : t -> int
(** The store's novelty key: a polynomial fold of the memoized cells'
    hashes, after re-hashing the registers whose value is not
    {e physically} the one last hashed — so O(registers) physical
    comparisons plus O(changed registers) hashes, and no rendering.
    Equal values in one store (or in two stores whose registers were
    allocated alike) give equal keys; distinct values give distinct
    keys unless 60-bit hashes collide. Values must be plain data
    (see {!hash}). Raises [Invalid_argument] on a store made by
    {!create}. *)

val hash : 'a -> int
(** The full-width (60-bit) structural hash {!key} takes of a register's
    value, for callers extending a key with values of their own: two
    seeded [Hashtbl.seeded_hash_param] calls, each reaching 256 words
    of the value (meaningful = total = 256): an eight-message net
    inbox takes about 75. Structurally equal values hash equally in every
    process only when they are plain data: the hash of a closure mixes
    its code pointer, which moves between processes, and that of a
    locally defined exception mixes its run-time id. Values reaching
    past 256 words hash on their first 256 only. *)

val save : t -> unit -> unit
(** [save t] captures the current value of every register allocated
    here and returns a restore thunk that pokes them all back
    (observer writes: not counted, not hooked, routes bypassed). The
    savepoints of one store may be restored in any order, any number
    of times; each costs a fresh copy of the register values (a few
    words per register). Register values are captured by reference,
    which is a deep copy exactly when stored values are immutable
    data — true for every in-tree system; a register holding mutable
    state would need its own copying discipline. Read/write counters
    are cumulative instrumentation and are deliberately not
    restored. *)

val checkpoint : t -> unit -> unit
(** A {!save} whose restores must come last-in-first-out
    ({!Savestack}): the values go to per-depth buffers kept beside each
    register, and the store reuses a depth once every savepoint above
    it is gone, so a depth-first search that saves at every node
    allocates only the returned closure per save. A checkpoint stays
    valid, and may be restored any number of times, until a later
    checkpoint of this store reuses its depth — the next checkpoint
    after restoring a shallower one does; restoring it after that
    raises [Invalid_argument]. Its values are referenced by the
    buffers until their depth is reused. *)
