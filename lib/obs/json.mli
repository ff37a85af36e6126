(** Minimal JSON values: emitter and parser, no dependencies.

    Carries everything the observability layer serializes (metrics
    snapshots, trace events, bench tables) and everything the CI
    validator reads back. Not a general-purpose JSON library: numbers
    are [int] or [float], strings are byte sequences with standard
    escapes, [\uXXXX] escapes are UTF-8 encoded on input and never
    produced on output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization. Floats keep a ["."] or
    exponent marker so they parse back as floats; NaN serializes as
    [null], infinities clamp to ±1e308. *)

val pp : t Fmt.t

(** {2 Writers} — the pieces {!to_string} is built from, for
    serializers that write straight into a [Buffer.t] without building
    a [t] first. Each appends exactly the bytes {!to_string} would. *)

val escaped : string -> string
(** The quoted, escaped string literal. *)

val add_int : Buffer.t -> int -> unit
val add_float : Buffer.t -> float -> unit

val of_string : string -> (t, string) result
(** Strict parse of one JSON value (trailing whitespace allowed,
    trailing garbage is an error). *)

(** {2 Accessors} (shallow, total) *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on anything else. *)

val to_int : t -> int option
(** [Int], or an integral [Float]. *)

val to_float : t -> float option
(** [Float], or any [Int] widened. *)

val to_list : t -> t list option
val to_str : t -> string option
