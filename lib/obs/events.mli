(** Structured event tracing.

    Typed events — a name, a category (the emitting layer), an
    [Instant]/[Begin]/[End] phase, optional process and worker ids,
    and JSON args — stamped with the emitter's logical clock, an int
    the caller passes as [ts]: the executor's global step for runtime,
    net, detector and agreement events, the visited-state count for
    explorer events, the exec index for fuzz events. No emission reads
    a clock; a run samples wall time itself (the [wall_s] arg of
    [runtime.run], from {!elapsed}). [Begin]/[End] pairs form spans
    that Chrome's trace viewer renders as nested bars per worker.

    The {!nop} sink is the universal default: {!enabled} is [false],
    {!emit} returns immediately. Instrumented code guards each emission
    site with {!enabled} so an un-traced run pays one branch and zero
    allocation per potential event — the overhead discipline the P9
    bench enforces.

    The {!memory} sink is a bounded mutex-protected ring safe to share
    across domains; once it holds [capacity] events the oldest are
    dropped and counted ({!dropped}). It stores no event records:
    {!emit} encodes each event into two rings of unboxed words owned by
    the sink, an [int array] and a [Float.Array.t], and keeps no
    reference to the caller's args list or option boxes. Per event the
    int ring gets three header words (interned name and phase, interned
    category and which of [proc]/[worker]/[id] are present, arg count),
    the timestamp, one word per optional field present, and per arg a
    tag word (interned key and value kind) plus one payload word for an
    [Int] or an (interned) [String]; [List]/[Obj] args add a length
    word and nest. The float ring gets every [Float] arg. Names,
    categories, keys and string values are interned once per sink.

    The per-step events are declared once each as a {!shape}, and
    {!emit_shape} writes them from plain ints: no [Json.t] list, no
    option box, no per-key interning. The ring keeps only what varies:
    a word naming the shape, the timestamp, the fields and one word per
    key; the header and tag words are the shape's, kept once per sink,
    and every reader takes them from there, so a shaped event reads
    back exactly as the {!emit} call of {!shape_event} does. A
    [runtime.step] is 5 int words shaped, 9 through {!emit}; a
    [net.deliver] with its 12 args 15 and 28 — against 30–110 heap
    words as a record, which the GC had to promote and mark.

    Both rings start empty and grow on demand, never beyond what
    [capacity] events need, so a fresh sink costs O(1) words. The int
    ring is a table of fixed 4,096-word chunks, each allocated when the
    ring first reaches it; growing doubles the table of chunk pointers
    and copies no words (bar one shared chunk when the oldest record
    starts mid-chunk), so the ring holds its live words plus at most
    one partly filled chunk. The float ring doubles. {!events} decodes
    the retained events back into {!event} records. {!save_jsonl} and
    {!save_chrome} stream straight from the rings through one reused
    buffer: per write they build one literal for each (name, category,
    phase) record head and one ["key":] literal for each arg key, and
    write digits straight into the buffer. They write exactly the bytes
    of {!event_to_json} / {!event_to_chrome} applied to {!events}. *)

type phase = Instant | Begin | End | Async_begin | Async_end
(** [Async_begin]/[Async_end] pairs are spans that may overlap freely
    (message lifetimes, in-flight intervals); unlike [Begin]/[End]
    they are correlated by an explicit [id], not by nesting, and map
    to Chrome phases ["b"]/["e"]. *)

type event = {
  ts : int;  (** the emitter's logical clock (see above) *)
  name : string;  (** event kind, e.g. ["step"], ["expand"], ["steal"] *)
  cat : string;  (** emitting layer: ["runtime"], ["detector"], ["explorer"], … *)
  phase : phase;
  proc : int option;
  worker : int option;
  id : int option;  (** correlates [Async_begin]/[Async_end] pairs *)
  args : (string * Json.t) list;
}

type t

val nop : t
(** Discards everything; [enabled nop = false]. *)

val memory : ?capacity:int -> unit -> t
(** Ring sink keeping the last [capacity] events (default [2^20]). Its
    storage is allocated as events arrive, a 4,096-word chunk at a
    time: creating a sink allocates O(1) words, and a sink holds about
    the words its retained events encode, plus one chunk. Raises
    [Invalid_argument] on a non-positive capacity. *)

val enabled : t -> bool

val elapsed : t -> float
(** Seconds since the sink was created ([0.] for {!nop}): one wall-clock
    read, for a caller that samples wall time into an arg. *)

val emit :
  t ->
  ?proc:int ->
  ?worker:int ->
  ?id:int ->
  ?args:(string * Json.t) list ->
  ?phase:phase ->
  ts:int ->
  cat:string ->
  string ->
  unit

(** {2 Shapes} *)

type key_kind = Int_key | Bool_key

type shape
(** An event kind declared once: name, category, phase, whether it
    carries an [id], and its keys with their kinds. Every shaped event
    carries a [proc]. *)

val shape :
  ?phase:phase -> ?id:bool -> cat:string -> string -> (string * key_kind) list -> shape
(** Declare a shape (default phase [Instant], no [id]) and add it to
    {!shapes}. Declare shapes at module initialisation, not per run. *)

val shapes : unit -> shape list
(** Every shape declared so far, in declaration order. *)

val arity : shape -> int
(** The number of ints {!emit_shape} takes: the [proc], the [id] if
    the shape has one, then one per key. *)

val emit_shape : t -> shape -> ts:int -> int array -> unit
(** [emit_shape t s ~ts vals] records [shape_event s ~ts vals] with no
    allocation: {!events} and the writers give what they give for the
    {!emit} of that event, which it replaces. A [Bool_key]
    value is [false] iff it is [0]. Values past the first {!arity} are
    ignored, so one buffer can serve several shapes. Raises
    [Invalid_argument] if [vals] has fewer than {!arity} elements. *)

val shape_event : shape -> ts:int -> int array -> event
(** The event {!emit_shape} records. *)

val recorded : t -> int
(** Total events accepted since creation (not capped). *)

val dropped : t -> int
(** Events evicted by the ring. *)

val events : t -> event list
(** Retained events, oldest first, decoded from the ring: fields and
    args equal what was emitted, floats bit for bit. *)

(** {2 Serialization} *)

val event_to_json : event -> Json.t

val event_of_json : Json.t -> (event, string) result
(** Inverse of {!event_to_json} — the JSONL reader used by
    {!Analyze} and the round-trip tests. Unknown fields are ignored;
    a missing or malformed [ts]/[name]/[cat]/[ph] is an error. *)

val event_to_chrome : event -> Json.t
(** One Chrome trace-event object; [ts] in microseconds, [tid] is the
    worker id (else the process id), [pid] fixed at 1. *)

val save_jsonl : t -> string -> unit
(** Write the file: one event per line, oldest first, the
    concatenation of [Json.to_string (event_to_json e) ^ "\n"] over
    {!events}. *)

val save_chrome : t -> string -> unit
(** Write the file: a complete JSON array loadable by
    chrome://tracing / Perfetto, ["["], then
    [Json.to_string (event_to_chrome e)] over {!events} separated by
    [",\n"], then ["]\n"]. *)
