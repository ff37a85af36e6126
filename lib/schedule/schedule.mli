(** Finite schedules.

    A schedule (§2 of the paper) is a sequence of processes; a step is
    one element of the sequence. The paper works with finite and
    infinite schedules; this module is the finite half, used for
    analysis and for recorded runs. Unbounded schedules are represented
    as {!Source.t} streams and analyzed through finite prefixes.

    A schedule is a view: a length and a backing array that may hold
    more entries than that. No operation reads past the length, so
    {!prefix} and [sub ~pos:0] share their argument's array and copy
    nothing; the executor's runs share their tally's buffer the same
    way ({!Setsync_runtime.Run.Tally.freeze}). Two equal schedules may
    therefore differ in their slack: compare them with {!equal} only,
    never with polymorphic [=], [compare] or [Hashtbl.hash]. *)

type t
(** An immutable finite schedule over [Πn]. *)

val of_array : n:int -> Proc.t array -> t
(** Takes ownership conceptually: callers must not mutate the array
    afterwards. Raises [Invalid_argument] on out-of-range processes. *)

val share : n:int -> Proc.t array -> len:int -> t
(** The first [len] entries of the array as a schedule, sharing it.
    Unlike {!of_array} it does not check the entries: the caller
    guarantees they are processes of [Πn] and never changes them while
    the schedule lives (entries past [len] it may keep writing). Raises
    [Invalid_argument] unless [0 <= len <= Array.length steps]. *)

val of_list : n:int -> Proc.t list -> t

val empty : n:int -> t

val n : t -> int
(** Universe size. *)

val length : t -> int
(** Number of steps. *)

val get : t -> int -> Proc.t
(** [get s idx] is the process taking step [idx] (0-based). Raises
    [Invalid_argument] unless [0 <= idx < length s]. *)

val append : t -> t -> t
(** Concatenation [S · S']. Universes must agree. *)

val concat : n:int -> t list -> t

val repeat : t -> int -> t
(** [repeat s m] is [S^m] ([m >= 0]). *)

val sub : t -> pos:int -> len:int -> t
(** Contiguous sub-schedule (a window of consecutive steps). O(1) and
    sharing [s]'s array when [pos = 0], a copy of the window otherwise.
    Raises [Invalid_argument] unless the window lies inside [s]. *)

val prefix : t -> int -> t
(** [prefix s l] is the first [min l (length s)] steps, sharing [s]'s
    array (O(1)). Raises [Invalid_argument] if [l < 0]. *)

val iteri : (int -> Proc.t -> unit) -> t -> unit

val fold : ('a -> Proc.t -> 'a) -> 'a -> t -> 'a

val occurrences : t -> Proc.t -> int
(** Number of steps taken by the given process. *)

val occurrences_in : t -> Procset.t -> int
(** Number of steps taken by members of the given set. *)

val support : t -> Procset.t
(** Processes that take at least one step. *)

val last_occurrence : t -> Proc.t -> int option
(** Index of the process's final step, if any. *)

val steps_per_process : t -> int array
(** Array of length [n t] with per-process step counts. *)

val to_list : t -> Proc.t list

val equal : t -> t -> bool
(** Same universe and the same steps. The only equality on schedules:
    polymorphic comparison would also read a view's slack. *)

val pp : t Fmt.t
(** Renders as "p1·p3·p2·…" (truncated for long schedules). *)

val pp_full : t Fmt.t
(** Untruncated rendering. *)
