(** Process identifiers.

    The paper's process universe is [Πn = {1, ..., n}]. Internally we use
    0-based identifiers [{0, ..., n-1}]; pretty-printers render them
    1-based ("p1", "p2", ...) to match the paper's notation. *)

type t = int
(** A process identifier. Valid identifiers for a system of [n]
    processes are [0 .. n-1]. *)

val max_universe : int
(** Largest supported system size (limited by the bitset representation
    of {!Procset.t}). *)

val check : n:int -> t -> unit
(** [check ~n p] raises [Invalid_argument] unless [0 <= p < n <=
    max_universe]. *)

val check_n : int -> unit
(** [check_n n] raises [Invalid_argument] unless
    [1 <= n <= max_universe]. *)

val all : n:int -> t list
(** [all ~n] is [Πn] as the list [0; ...; n-1]. *)

val equal : t -> t -> bool

val pp : t Fmt.t
(** Renders as the paper's "p<i+1>". *)

val to_string : t -> string
