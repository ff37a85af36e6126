(** Sets of processes, the [P], [Q], [A] of the paper.

    Backed by an integer bitset: membership, union, intersection are
    O(1), which matters because the Figure 2 algorithm manipulates every
    set in [Π^k_n] (all k-subsets of [Πn]) on every loop iteration.

    The type carries a canonical total order ({!compare}) used as the
    paper's arbitrary tie-breaking order on [Π^k_n] (line 4 of Figure 2
    and Definition 18). *)

type t [@@immediate]
(** An immutable set of processes. An immediate value, so storing one
    costs no write barrier. *)

val empty : t

val is_empty : t -> bool

val singleton : Proc.t -> t

val full : n:int -> t
(** [full ~n] is [Πn]. *)

val mem : Proc.t -> t -> bool

val add : Proc.t -> t -> t

val remove : Proc.t -> t -> t

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool
(** [subset a b] is true iff [a ⊆ b]. *)

val disjoint : t -> t -> bool

val cardinal : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int
(** Canonical total order (numeric order of the underlying bitset). *)

val to_bits : t -> int
(** The underlying bitset: bit [p] is set iff [p] is a member. How a
    machine keeps a set in an int slot
    ([Setsync_memory.Layout]). *)

val of_bits : int -> t
(** The inverse of {!to_bits} (unchecked). *)

val elements : t -> Proc.t list
(** Ascending list of members. *)

val of_list : Proc.t list -> t

val iter : (Proc.t -> unit) -> t -> unit

val fold : (Proc.t -> 'a -> 'a) -> t -> 'a -> 'a

val for_all : (Proc.t -> bool) -> t -> bool

val exists : (Proc.t -> bool) -> t -> bool

val filter : (Proc.t -> bool) -> t -> t

val min_elt : t -> Proc.t
(** Smallest member. Raises [Not_found] on the empty set. *)

val nth : t -> int -> Proc.t
(** [nth s r] is the [r]-th smallest member (0-based). Raises
    [Invalid_argument] if [r >= cardinal s]. *)

val choose_rng : Rng.t -> t -> Proc.t
(** Uniform random member. Raises [Invalid_argument] on the empty
    set. *)

val subsets_of_size : n:int -> int -> t list
(** [subsets_of_size ~n k] enumerates [Π^k_n], all subsets of [Πn] of
    size [k], in the canonical order ({!compare}-ascending). Raises
    [Invalid_argument] unless [0 <= k <= n]. *)

val count_subsets : n:int -> int -> int
(** [count_subsets ~n k] is [C(n, k)], the length of
    [subsets_of_size ~n k]. *)

val random_subset : Rng.t -> n:int -> size:int -> t
(** Uniformly random subset of [Πn] of the given size. *)

val pp : t Fmt.t
(** Renders as "{p1,p3}". *)

val to_string : t -> string
