(** Register allocation and accounting.

    A store is the concrete [Ξ] of one system instance: every register
    of a run is allocated here, under an id unique within the store, so
    the register count, snapshots, savepoints and the optional access
    hook cover the whole shared memory. *)

type t

val create : ?hook:Register.hook -> unit -> t
(** A fresh, empty shared memory. When [hook] is given, every counted
    access to a register allocated here calls it with the register's
    id (see {!Register.hook}). *)

type router = { route_for : 'a. 'a Register.t -> 'a Register.route option }
(** Decides, per register, whether step-disciplined access should be
    forwarded somewhere else (see {!Register.route}); [None] keeps the
    register local. *)

val set_router : t -> router -> unit
(** Install a router. Applies to registers created {e after} this call
    — a message-passing backend installs it right after allocating its
    own channel state, so algorithm registers get proxied while the
    substrate's do not. *)

val register : t -> ?pp:'a Fmt.t -> name:string -> 'a -> 'a Register.t
(** Allocate one named register with an initial value. *)

val array :
  t -> ?pp:'a Fmt.t -> name:string -> int -> (int -> 'a) -> 'a Register.t array
(** [array t ~name len init] allocates registers [name[0]] …
    [name[len-1]] with [init idx] as initial values. *)

val matrix :
  t ->
  ?pp:'a Fmt.t ->
  name:string ->
  rows:int ->
  cols:int ->
  (int -> int -> 'a) ->
  'a Register.t array array
(** Two-dimensional bank, [name[r][c]]. *)

val register_count : t -> int

val snapshot : t -> (string * string) list
(** Current [(name, printed value)] of every register allocated here,
    in allocation order, via observer reads (not counted, not hooked).
    Snapshots are total: registers allocated without a [pp] render as a
    structural digest of the stored value (marshaled bytes, with a
    full-width [Hashtbl.hash_param] fallback for unmarshalable values),
    so two distinct pp-less states never collapse to one placeholder
    string and fingerprints built on snapshots stay discriminating. *)

val memoized : ?hook:Register.hook -> unit -> t * (unit -> (string * string) list)
(** A fresh store, as {!create} makes, plus a memoizing renderer of its
    {!snapshot}: the store keeps, per register, the value it last
    rendered, the entry rendered from it and that entry's
    {!entry_hash}, and a call re-renders (and re-hashes) only the
    registers whose value is not {e physically} the one last rendered.
    It returns the same list as {!snapshot} would, registers allocated
    after the renderer included. Sound under the invariant {!save}
    relies on — stored values are immutable, so a physically equal
    value prints the same. The cells live as long as the store: meant
    for an instance rendered at many states — a fuzzing session's live
    instance, or one run's fresh instance — not for stores built per
    state. *)

val key : t -> int
(** The store's novelty key: a polynomial fold of the memoized cells'
    entry hashes, after re-rendering the registers whose value
    changed — so O(registers) physical comparisons plus O(changed
    registers) renders. Equal snapshots of one store (or of two stores
    whose registers were allocated alike) give equal keys; distinct
    snapshots give distinct keys unless 60-bit entry hashes collide.
    Raises [Invalid_argument] on a store made by {!create}. *)

val entry_hash : string * string -> int
(** The full-width (60-bit) hash of one rendered [(name, value)] entry
    that {!key} folds, for callers extending a key with entries of
    their own. *)

val save : t -> unit -> unit
(** [save t] captures the current value of every register allocated
    here and returns a restore thunk that pokes them all back
    (observer writes: not counted, not hooked, routes bypassed).
    Register values are captured by reference, which is a deep copy
    exactly when stored values are immutable data — true for every
    in-tree system; a register holding mutable state would need its
    own copying discipline. Read/write counters are cumulative
    instrumentation and are deliberately not restored. *)
