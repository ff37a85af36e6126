(** Structured event tracing.

    Typed events — a name, a category (the emitting layer), an
    [Instant]/[Begin]/[End] phase, optional process and worker ids,
    and JSON args — timestamped against the sink's creation time.
    [Begin]/[End] pairs form spans that Chrome's trace viewer renders
    as nested bars per worker.

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
    one word per optional field present, and per arg a tag word (interned
    key and value kind) plus one payload word for an [Int] or an
    (interned) [String]; [List]/[Obj] args add a length word and nest.
    The float ring gets the timestamp and every [Float] arg. A
    [runtime.step] event is 8 int words and 1 float; a [net.deliver]
    with its 12 args is 27 and 1 — against 30–110 heap words as a
    record, which the GC had to promote and mark. Names, categories,
    keys and string values are interned once per sink.

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
  ts : float;  (** seconds since the sink was created *)
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

val emit :
  t ->
  ?proc:int ->
  ?worker:int ->
  ?id:int ->
  ?args:(string * Json.t) list ->
  ?phase:phase ->
  cat:string ->
  string ->
  unit

val span :
  t ->
  ?proc:int ->
  ?worker:int ->
  ?args:(string * Json.t) list ->
  cat:string ->
  string ->
  (unit -> 'a) ->
  'a
(** [span t ~cat name f] brackets [f ()] in a [Begin]/[End] pair
    (exception-safe); [args] go on the [Begin] event. *)

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
