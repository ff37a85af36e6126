(** One declaration of a machine's state, from which its savepoints and
    its identity are derived.

    A machine form keeps its local variables in int arrays (a set of
    processes as its bitset, an optional value as a presence slot plus
    a value slot) and its program counters in one array of PC values,
    and lists them here once, together with the shared registers its
    state reads. The declaration then gives:

    - {!save}: the savepoint capture and restore of every local slot,
      into per-depth buffers ({!Savestack}); registers are the store's
      to save ({!Store.checkpoint});
    - {!identity}: one string that encodes every declared slot, locals
      and registers alike, injectively — two states have the same
      identity exactly when every declared slot holds the same values.

    Both read the same list, so an identity cannot leave out a local
    that a savepoint restores. A slot must be declared with the very
    array the machine mutates: the declaration keeps the array, not a
    copy. *)

type t

type sink
(** Where an encoding writes its ints. *)

val create : string -> t
(** An empty declaration. The string names the owner in the error a
    saved-over savepoint raises. *)

val ints : t -> int array -> unit
(** Declare an int slot array: saved, restored and part of the
    identity. *)

val values : t -> name:string -> 'a array -> (sink -> 'a -> unit) -> unit
(** Declare an array of immutable values, such as PCs: saved and
    restored by value, and part of the identity through the given
    encoding. An encoding must be injective and prefix-free — write a
    tag first and then a fixed number of ints for that tag — so that
    the identity's concatenation decodes uniquely. [name] names the
    array for {!identity}'s [without]. *)

val registers : t -> 'a Register.t array -> (sink -> 'a -> unit) -> unit
(** Declare shared registers: part of the identity (their values, read
    without counting), never saved here. The row is named by its
    registers' name less the last index ([Counter[2]] for
    [Counter[2][0]] ...). *)

val put : sink -> int -> unit
(** Write one int (any int: a zigzag varint, so small values stay
    short). *)

val option : (sink -> 'a -> unit) -> sink -> 'a option -> unit
(** The encoding of an optional value: a presence int, then the value
    when present. *)

val save : t -> unit -> unit
(** Capture every declared local slot; the returned thunk restores
    them. Savepoints are last-in-first-out ({!Savestack}): the capture
    goes to per-depth buffers the declaration reuses, so a save
    allocates only the returned closure, and restoring a savepoint
    whose depth a later save reused raises [Invalid_argument]. *)

val identity : ?without:string -> t -> string
(** Every declared slot, encoded in declaration order. [without] leaves
    out the register rows and value arrays of that name: a deliberately
    lossy identity, which the tests use to show that the explorer's
    reachable-state cross-check catches a fingerprint that forgets a
    slot. *)
