(** Order statistics.

    The accusation counter of a set [A] (Definition 13) is the
    [(t+1)]-st smallest entry of [Counter[A, *]]; this module provides
    that selection. *)

val kth_smallest : int array -> int -> int
(** [kth_smallest a k] is the [k]-th smallest element of [a], 1-based:
    [kth_smallest a 1] is the minimum. Does not mutate [a]. Raises
    [Invalid_argument] unless [1 <= k <= Array.length a]. *)

val select_in_place : int array -> int -> int
(** [select_in_place a k] is [kth_smallest a k] computed by sorting [a]
    in place: it allocates nothing and leaves [a] sorted. For callers
    that poll the selection often and own a scratch array. *)

val smallest : int array -> int
(** Minimum. Raises [Invalid_argument] on the empty array. *)
