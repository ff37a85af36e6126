(* Structured event tracing: typed events stamped with the emitter's
   logical clock, process and worker ids, and span begin/end pairs,
   collected by a sink and serialized to JSONL or to the Chrome
   trace-event format (chrome://tracing / Perfetto). No emission reads
   a clock: the caller passes its own step count as [ts].

   The [Nop] sink is the default everywhere: call sites guard emission
   with [enabled], so an un-traced run pays one branch per potential
   event and allocates nothing. The [Mem] sink is a mutex-protected
   ring — events from any domain, bounded memory, oldest events
   dropped (and counted) on overflow.

   The ring keeps no event records. [emit] encodes each event into two
   rings of unboxed words — an int ring and a [Float.Array] — so a
   recorded event is invisible to the GC: nothing to promote out of
   the minor heap, nothing to mark. Names, categories, arg keys and
   string values are interned once per sink. A [shape] declares an
   event's name, category, phase, fields and int/bool keys once, and
   [emit_shape] records it from the caller's ints with no interning
   or allocation. [events] decodes the records back; the writers
   stream straight from the rings.

   The int ring is a table of fixed [chunk_words]-word chunks indexed
   by absolute position: word [pos] is at [pos land chunk_mask] in the
   chunk of slot [(pos asr chunk_bits) land (slots - 1)]. A chunk is
   allocated when the tail first enters its slot; growth doubles the
   table and moves chunk pointers, never words — except when the head
   and the tail share a chunk, whose tail part is copied once. The
   float ring (the [Float] args, none on the per-step paths) simply
   doubles.

   Encoding of one event, in the int ring:
     (name_id lsl 3) lor phase
     (cat_id lsl 3) lor presence      presence bits: 1 proc, 2 worker, 4 id
     nargs
     ts
     proc? worker? id?                only the present ones
     nargs keyed values
   and in the float ring every [Float] arg, in encoding order. A value
   is a tag word [(key_id lsl 3) lor tag]
   (key 0 inside lists, unused) followed by its payload: nothing for
   [Null]/[Bool] (the tag carries the boolean), one word for [Int] and
   for [String] (its interned id), a float-ring slot for [Float], and
   for [List]/[Obj] a length word then that many values.

   A shaped event ([emit_shape]) keeps in the ring only what varies:
     (shape_index lsl 3) lor shaped
     ts
     proc id?
     one word per key: the Int, or 0/1 for a Bool
   Its other words (the two header words, the arg count and one tag
   word per key) are the shape's template, built once per sink in
   [shaped]. Readers take them from there, so a shaped record reads
   back as the record [emit] writes for the same event, in about half
   the words ([net.deliver]: 15 against 28). *)

type phase = Instant | Begin | End | Async_begin | Async_end

type event = {
  ts : int;  (* the emitter's logical clock *)
  name : string;
  cat : string;
  phase : phase;
  proc : int option;
  worker : int option;
  id : int option;  (* correlates Async_begin/Async_end pairs *)
  args : (string * Json.t) list;
}

(* Interned strings: id -> the string, and its JSON literal escaped
   once. Names and keys are almost always literals, the same physical
   string at every call, so a small 2-way cache compared with [==]
   answers most lookups before the hash table is consulted. *)
type names = {
  ids : (string, int) Hashtbl.t;
  mutable strs : string array;
  mutable lits : string array;
  seen : string array;  (* cache slot -> a string interned as [seen_id] *)
  seen_id : int array;
}

let cache_slots = 64

(* fills the cache's empty slots; private, so no caller can pass it *)
let unset = String.make 1 '\000'

(* A read position in both rings, advanced as a record is consumed *)
type cursor = { mutable wp : int; mutable fp : int }

(* A declared event shape: every shaped event carries a [proc], then
   an [id] if [s_id], then one Int or Bool arg per key *)
type key_kind = Int_key | Bool_key

type shape = {
  s_index : int;  (* declaration order: its encoding's slot in a sink *)
  s_name : string;
  s_cat : string;
  s_phase : phase;
  s_id : bool;
  s_keys : (string * key_kind) array;
}

type mem = {
  capacity : int;
  epoch : float;  (* creation time, for [elapsed] only *)
  mu : Mutex.t;
  names : names;
  mutable shaped : int array array;
      (* shape index -> its header and tag words in this sink; [||]
         until the shape is first emitted here *)
  mutable next : int;  (* total events accepted; the ring keeps the last [capacity] *)
  (* Both rings are indexed by absolute position; the live words are
     [head.wp, w_tail), the live floats [head.fp, f_tail). *)
  mutable chunks : int array array;  (* power-of-two slot table; [no_chunk] until entered *)
  mutable w_chunk : int array;  (* the chunk holding position [w_tail] *)
  mutable w_stop : int;  (* the next tail position [enter_words] must see *)
  mutable floats : Float.Array.t;  (* power-of-two length, indexed [land] (length - 1) *)
  head : cursor;  (* the oldest retained record *)
  mutable w_tail : int;
  mutable f_tail : int;
}

type t = Nop | Mem of mem

let nop = Nop

let default_capacity = 1 lsl 20

let chunk_bits = 12

let chunk_words = 1 lsl chunk_bits

let chunk_mask = chunk_words - 1

let no_chunk : int array = [||]

let memory ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Events.memory: capacity must be positive";
  Mem
    {
      capacity;
      epoch = Unix.gettimeofday ();
      mu = Mutex.create ();
      names =
        {
          ids = Hashtbl.create 16;
          strs = [||];
          lits = [||];
          seen = Array.make cache_slots unset;
          seen_id = Array.make cache_slots 0;
        };
      shaped = [||];
      next = 0;
      chunks = [| no_chunk |];
      w_chunk = no_chunk;
      w_stop = 0;
      floats = Float.Array.create 0;
      head = { wp = 0; fp = 0 };
      w_tail = 0;
      f_tail = 0;
    }

let enabled = function Nop -> false | Mem _ -> true

let elapsed = function Nop -> 0. | Mem m -> Unix.gettimeofday () -. m.epoch

(* ------------------------------------------------------- encoding *)

let intern_slow tab s =
  match Hashtbl.find tab.ids s with
  | id -> id
  | exception Not_found ->
      let id = Hashtbl.length tab.ids in
      if id = Array.length tab.strs then begin
        let grow a = Array.init (max 16 (2 * id)) (fun i -> if i < id then a.(i) else "") in
        tab.strs <- grow tab.strs;
        tab.lits <- grow tab.lits
      end;
      tab.strs.(id) <- s;
      tab.lits.(id) <- Json.escaped s;
      Hashtbl.add tab.ids s id;
      id

(* 2-way: the cache's slots pair up, and a string is looked for in both
   slots of its pair. A miss moves the pair's first string to the
   second slot and takes the first, so the two most recently missed
   strings of a pair stay cached: ["mid"] and ["forced"], ["dst"] and
   ["pre_gst"], and ["step"] and ["pidx"] each share a pair. Shaped
   events intern their strings once per sink, not per emission. *)
let intern tab s =
  let len = String.length s in
  let pair =
    if len = 0 then 0
    else
      ((len * 7) + (Char.code (String.unsafe_get s 0) * 3)
      + Char.code (String.unsafe_get s (len - 1)))
      land (cache_slots - 2)
  in
  if Array.unsafe_get tab.seen pair == s then Array.unsafe_get tab.seen_id pair
  else if Array.unsafe_get tab.seen (pair + 1) == s then Array.unsafe_get tab.seen_id (pair + 1)
  else begin
    let id = intern_slow tab s in
    Array.unsafe_set tab.seen (pair + 1) (Array.unsafe_get tab.seen pair);
    Array.unsafe_set tab.seen_id (pair + 1) (Array.unsafe_get tab.seen_id pair);
    Array.unsafe_set tab.seen pair s;
    Array.unsafe_set tab.seen_id pair id;
    id
  end

(* Double the slot table. Every live chunk index moves to its slot in
   the new table with its words in place. A full ring whose head is
   not chunk-aligned spans [slots + 1] chunk indices, the first and the
   last sharing one chunk; the last gets a fresh chunk holding the
   tail's part. *)
let grow_words m =
  let old = m.chunks in
  let slots = Array.length old in
  let table = Array.make (2 * slots) no_chunk in
  let first = m.head.wp asr chunk_bits and last = (m.w_tail - 1) asr chunk_bits in
  for k = first to last do
    table.(k land ((2 * slots) - 1)) <- old.(k land (slots - 1))
  done;
  if last - first = slots then begin
    let fresh = Array.make chunk_words 0 in
    Array.blit old.(last land (slots - 1)) 0 fresh 0 (m.w_tail - (last lsl chunk_bits));
    table.(last land ((2 * slots) - 1)) <- fresh
  end;
  m.chunks <- table

(* The tail reached [w_stop]: grow a full ring, allocate the chunk the
   tail enters unless its slot already holds one (evicted, or the
   head's), and set the next stop: the end of the tail's chunk, or
   where the tail would catch up with the head. The head only moves
   forward, so a stop computed from an older head is early, never
   late. *)
let enter_words m =
  let p = m.w_tail in
  if p - m.head.wp = Array.length m.chunks lsl chunk_bits then grow_words m;
  let slots = Array.length m.chunks in
  let slot = (p asr chunk_bits) land (slots - 1) in
  if Array.length m.chunks.(slot) = 0 then m.chunks.(slot) <- Array.make chunk_words 0;
  m.w_chunk <- m.chunks.(slot);
  m.w_stop <- min ((p lor chunk_mask) + 1) (m.head.wp + (slots lsl chunk_bits))

let min_floats = 64

(* Doubling keeps absolute positions valid: each live slot moves to
   its position modulo the new length. *)
let grow_floats m =
  let len = Float.Array.length m.floats in
  let nlen = max min_floats (2 * len) in
  let nf = Float.Array.create nlen in
  for i = m.head.fp to m.f_tail - 1 do
    Float.Array.unsafe_set nf (i land (nlen - 1)) (Float.Array.unsafe_get m.floats (i land (len - 1)))
  done;
  m.floats <- nf

let[@inline] push_word m v =
  let p = m.w_tail in
  if p = m.w_stop then enter_words m;
  Array.unsafe_set m.w_chunk (p land chunk_mask) v;
  m.w_tail <- p + 1

let[@inline] push_float m f =
  if m.f_tail - m.head.fp = Float.Array.length m.floats then grow_floats m;
  let fl = m.floats in
  Float.Array.unsafe_set fl (m.f_tail land (Float.Array.length fl - 1)) f;
  m.f_tail <- m.f_tail + 1

let t_null = 0
and t_false = 1
and t_true = 2
and t_int = 3
and t_float = 4
and t_string = 5
and t_list = 6
and t_obj = 7

let rec push_value m key v =
  let k = key lsl 3 in
  match v with
  | Json.Null -> push_word m (k lor t_null)
  | Json.Bool b -> push_word m (k lor if b then t_true else t_false)
  | Json.Int i ->
      push_word m (k lor t_int);
      push_word m i
  | Json.Float f ->
      push_word m (k lor t_float);
      push_float m f
  | Json.String s ->
      push_word m (k lor t_string);
      push_word m (intern m.names s)
  | Json.List xs ->
      push_word m (k lor t_list);
      push_word m (List.length xs);
      List.iter (push_value m 0) xs
  | Json.Obj kvs ->
      push_word m (k lor t_obj);
      push_word m (List.length kvs);
      push_fields m kvs

and push_fields m = function
  | [] -> ()
  | (key, v) :: rest ->
      push_value m (intern m.names key) v;
      push_fields m rest

let phase_code = function
  | Instant -> 0
  | Begin -> 1
  | End -> 2
  | Async_begin -> 3
  | Async_end -> 4

let phase_of_code = function
  | 0 -> Instant
  | 1 -> Begin
  | 2 -> End
  | 3 -> Async_begin
  | _ -> Async_end

let has_proc = 1
and has_worker = 2
and has_id = 4

let next_word m c =
  let p = c.wp in
  c.wp <- p + 1;
  Array.unsafe_get
    (Array.unsafe_get m.chunks ((p asr chunk_bits) land (Array.length m.chunks - 1)))
    (p land chunk_mask)

let next_float m c =
  let f = Float.Array.unsafe_get m.floats (c.fp land (Float.Array.length m.floats - 1)) in
  c.fp <- c.fp + 1;
  f

(* the low bits of a shaped record's first word; phases use 0..4 *)
let shaped = 7

(* the template of a generic record, whose tags are in the ring *)
let generic : int array = [||]

(* The template of the record whose first word is [w0] *)
let template m w0 = if w0 land 7 = shaped then Array.unsafe_get m.shaped (w0 lsr 3) else generic

(* A record's [k]-th arg tag: the next ring word, or the template's tag
   with a Bool's 0/1 added ([t_false] + 1 = [t_true]) *)
let next_tag m c tpl k =
  if tpl == generic then next_word m c
  else
    let tag = Array.unsafe_get tpl (3 + k) in
    if tag land 7 = t_int then tag else tag + next_word m c

let field_words presence = (presence land 1) + ((presence lsr 1) land 1) + (presence lsr 2)

let rec skip_value m c =
  let tag = next_word m c land 7 in
  if tag = t_int || tag = t_string then c.wp <- c.wp + 1
  else if tag = t_float then c.fp <- c.fp + 1
  else if tag = t_list || tag = t_obj then
    for _ = 1 to next_word m c do
      skip_value m c
    done

(* Evict the oldest record by moving [head] past it *)
let drop_oldest m =
  let c = m.head in
  let tpl = template m (next_word m c) in
  if tpl == generic then begin
    let presence = next_word m c land 7 in
    let nargs = next_word m c in
    (* the timestamp, and one word per optional field present *)
    c.wp <- c.wp + 1 + field_words presence;
    for _ = 1 to nargs do
      skip_value m c
    done
  end
  else c.wp <- c.wp + 1 + field_words (tpl.(1) land 7) + tpl.(2)

let emit t ?proc ?worker ?id ?(args = []) ?(phase = Instant) ~ts ~cat name =
  match t with
  | Nop -> ()
  | Mem m ->
      Mutex.lock m.mu;
      if m.next >= m.capacity then drop_oldest m;
      let presence =
        (match proc with Some _ -> has_proc | None -> 0)
        lor (match worker with Some _ -> has_worker | None -> 0)
        lor match id with Some _ -> has_id | None -> 0
      in
      push_word m ((intern m.names name lsl 3) lor phase_code phase);
      push_word m ((intern m.names cat lsl 3) lor presence);
      push_word m (List.length args);
      push_word m ts;
      (match proc with Some p -> push_word m p | None -> ());
      (match worker with Some w -> push_word m w | None -> ());
      (match id with Some i -> push_word m i | None -> ());
      push_fields m args;
      m.next <- m.next + 1;
      Mutex.unlock m.mu

(* ------------------------------------------------------ shapes *)

let declared = ref []

let shape ?(phase = Instant) ?(id = false) ~cat name keys =
  let s =
    {
      s_index = List.length !declared;
      s_name = name;
      s_cat = cat;
      s_phase = phase;
      s_id = id;
      s_keys = Array.of_list keys;
    }
  in
  declared := s :: !declared;
  s

let shapes () = List.rev !declared

let fields s = if s.s_id then 2 else 1

let arity s = fields s + Array.length s.s_keys

(* The shape's template in this sink: the words [emit] would write for
   its name, category and phase, its fields and arg count, then one tag
   word per key ([t_int], or [t_false] that a true value turns into
   [t_true]) *)
let shape_words m s =
  let i = s.s_index in
  if i < Array.length m.shaped && Array.length m.shaped.(i) > 0 then m.shaped.(i)
  else begin
    let nkeys = Array.length s.s_keys in
    let words = Array.make (3 + nkeys) 0 in
    words.(0) <- (intern m.names s.s_name lsl 3) lor phase_code s.s_phase;
    words.(1) <- (intern m.names s.s_cat lsl 3) lor has_proc lor if s.s_id then has_id else 0;
    words.(2) <- nkeys;
    Array.iteri
      (fun k (key, kind) ->
        words.(3 + k) <-
          (intern m.names key lsl 3) lor match kind with Int_key -> t_int | Bool_key -> t_false)
      s.s_keys;
    let known = m.shaped in
    if i >= Array.length known then
      m.shaped <- Array.init (i + 1) (fun j -> if j < Array.length known then known.(j) else [||]);
    m.shaped.(i) <- words;
    words
  end

let check_arity s vals =
  if Array.length vals < arity s then
    invalid_arg
      (Printf.sprintf "Events.emit_shape: %s.%s takes %d values, got %d" s.s_cat s.s_name
         (arity s) (Array.length vals))

let emit_shape t s ~ts vals =
  match t with
  | Nop -> ()
  | Mem m ->
      check_arity s vals;
      Mutex.lock m.mu;
      let tpl = shape_words m s in
      if m.next >= m.capacity then drop_oldest m;
      push_word m ((s.s_index lsl 3) lor shaped);
      push_word m ts;
      let fields = fields s in
      for i = 0 to fields - 1 do
        push_word m (Array.unsafe_get vals i)
      done;
      for k = 0 to Array.length s.s_keys - 1 do
        let v = Array.unsafe_get vals (fields + k) in
        push_word m (if Array.unsafe_get tpl (3 + k) land 7 = t_int || v = 0 then v else 1)
      done;
      m.next <- m.next + 1;
      Mutex.unlock m.mu

let shape_event s ~ts vals =
  check_arity s vals;
  let fields = fields s in
  {
    ts;
    name = s.s_name;
    cat = s.s_cat;
    phase = s.s_phase;
    proc = Some vals.(0);
    worker = None;
    id = (if s.s_id then Some vals.(1) else None);
    args =
      List.mapi
        (fun k (key, kind) ->
          let v = vals.(fields + k) in
          (key, match kind with Int_key -> Json.Int v | Bool_key -> Json.Bool (v <> 0)))
        (Array.to_list s.s_keys);
  }

let recorded = function Nop -> 0 | Mem m -> m.next

let dropped = function Nop -> 0 | Mem m -> max 0 (m.next - m.capacity)

(* ------------------------------------------------------- decoding *)

let rec read_value m c tagword =
  let tag = tagword land 7 in
  if tag = t_null then Json.Null
  else if tag = t_false then Json.Bool false
  else if tag = t_true then Json.Bool true
  else if tag = t_int then Json.Int (next_word m c)
  else if tag = t_float then Json.Float (next_float m c)
  else if tag = t_string then Json.String m.names.strs.(next_word m c)
  else if tag = t_list then begin
    let acc = ref [] in
    for _ = 1 to next_word m c do
      acc := read_value m c (next_word m c) :: !acc
    done;
    Json.List (List.rev !acc)
  end
  else Json.Obj (read_fields m c (next_word m c))

and read_fields ?(tpl = generic) m c n =
  let acc = ref [] in
  for k = 0 to n - 1 do
    let tagword = next_tag m c tpl k in
    let key = m.names.strs.(tagword lsr 3) in
    acc := (key, read_value m c tagword) :: !acc
  done;
  List.rev !acc

(* [f m c n]: a cursor [c] at the oldest of the [n] retained records,
   under the sink's lock *)
let with_records t f ~nop =
  match t with
  | Nop -> nop
  | Mem m ->
      Mutex.protect m.mu (fun () ->
          f m { wp = m.head.wp; fp = m.head.fp } (min m.next m.capacity))

let events t =
  with_records t ~nop:[] (fun m c n ->
      let acc = ref [] in
      for _ = 1 to n do
        let w0 = next_word m c in
        let tpl = template m w0 in
        let is_shaped = tpl != generic in
        let w0 = if is_shaped then tpl.(0) else w0 in
        let w1 = if is_shaped then tpl.(1) else next_word m c in
        let nargs = if is_shaped then tpl.(2) else next_word m c in
        let ts = next_word m c in
        let opt bit = if w1 land bit <> 0 then Some (next_word m c) else None in
        let proc = opt has_proc in
        let worker = opt has_worker in
        let id = opt has_id in
        let args = read_fields ~tpl m c nargs in
        acc :=
          {
            ts;
            name = m.names.strs.(w0 lsr 3);
            cat = m.names.strs.(w1 lsr 3);
            phase = phase_of_code (w0 land 7);
            proc;
            worker;
            id;
            args;
          }
          :: !acc
      done;
      List.rev !acc)

(* ---------------------------------------------------- serialization *)

let phase_string = function
  | Instant -> "i"
  | Begin -> "B"
  | End -> "E"
  | Async_begin -> "b"
  | Async_end -> "e"

let phase_of_string = function
  | "i" -> Some Instant
  | "B" -> Some Begin
  | "E" -> Some End
  | "b" -> Some Async_begin
  | "e" -> Some Async_end
  | _ -> None

let event_to_json e =
  Json.Obj
    (("ts", Json.Int e.ts)
     :: ("name", Json.String e.name)
     :: ("cat", Json.String e.cat)
     :: ("ph", Json.String (phase_string e.phase))
     :: ((match e.proc with Some p -> [ ("proc", Json.Int p) ] | None -> [])
        @ (match e.worker with Some w -> [ ("worker", Json.Int w) ] | None -> [])
        @ (match e.id with Some i -> [ ("id", Json.Int i) ] | None -> [])
        @ match e.args with [] -> [] | args -> [ ("args", Json.Obj args) ]))

let event_of_json j =
  let str field = Option.bind (Json.member field j) Json.to_str in
  let int field = Option.bind (Json.member field j) Json.to_int in
  let ts = match Json.member "ts" j with Some (Json.Int ts) -> Some ts | _ -> None in
  match (ts, str "name", str "cat", str "ph") with
  | Some ts, Some name, Some cat, Some ph -> (
      match phase_of_string ph with
      | None -> Error (Printf.sprintf "unknown event phase %S" ph)
      | Some phase ->
          let args =
            match Json.member "args" j with Some (Json.Obj kvs) -> kvs | _ -> []
          in
          Ok
            {
              ts;
              name;
              cat;
              phase;
              proc = int "proc";
              worker = int "worker";
              id = int "id";
              args;
            })
  | _ -> Error "event missing one of ts (an int)/name/cat/ph"

(* Chrome trace-event format: an array of {name, cat, ph, ts, pid, tid,
   args}, the logical step written as Chrome's µs [ts]. We map the
   worker id (else the process id) to the Chrome thread id, so
   chrome://tracing lays spans out one row per worker/process.
   Instants carry scope "t" (thread-local). *)
let event_to_chrome e =
  let tid = match (e.worker, e.proc) with Some w, _ -> w | None, Some p -> p | None, None -> 0 in
  let args =
    (match e.proc with Some p -> [ ("proc", Json.Int p) ] | None -> [])
    @ (match e.worker with Some w -> [ ("worker", Json.Int w) ] | None -> [])
    @ e.args
  in
  Json.Obj
    (("name", Json.String e.name)
     :: ("cat", Json.String e.cat)
     :: ("ph", Json.String (phase_string e.phase))
     :: ("ts", Json.Int e.ts)
     :: ("pid", Json.Int 1)
     :: ("tid", Json.Int tid)
     :: ((match e.phase with
         | Instant -> [ ("s", Json.String "t") ]
         | Begin | End -> []
         | Async_begin | Async_end ->
             (* async pairs are matched by (cat, id); default id 0 keeps
                the output well-formed even for a stray unpaired event *)
             [ ("id", Json.Int (Option.value e.id ~default:0)) ])
        @ match args with [] -> [] | args -> [ ("args", Json.Obj args) ]))

(* ------------------------------------------- writing from the ring *)

(* One write: a cursor over the ring, the output buffer, and the
   literals built so far — per (name, category, phase) the record's
   constant head, per key id its [,"key":] member prefix. A record then
   costs a few [Buffer.add_string]s plus its numbers, and its bytes are
   [Json.to_string] of [event_to_json] / [event_to_chrome] applied to
   the decoded event (pinned by the golden tests), without building
   either. *)
type writer = {
  m : mem;
  c : cursor;
  buf : Buffer.t;
  chrome : bool;
  heads : (int * string) list array;  (* name id -> ((cat_id lsl 3) lor phase, literal) *)
  keys : string array;  (* key id -> [,"key":]; "" until first used *)
}

(* JSONL: [,"name":N,"cat":C,"ph":"P"], written after the [ts] member.
   Chrome: [{"name":N,"cat":C,"ph":"P","ts":], before the [ts] value. *)
let head_literal w w0 w1 =
  let name = w0 lsr 3 and key = w1 land lnot 7 lor (w0 land 7) in
  let rec find = function
    | (k, lit) :: rest -> if k = key then lit else find rest
    | [] ->
        let lits = w.m.names.lits in
        let ph = phase_string (phase_of_code (w0 land 7)) in
        let fields = [ "\"name\":"; lits.(name); ",\"cat\":"; lits.(w1 lsr 3); ",\"ph\":\""; ph ] in
        let lit =
          if w.chrome then String.concat "" (("{" :: fields) @ [ "\",\"ts\":" ])
          else String.concat "" (("," :: fields) @ [ "\"" ])
        in
        w.heads.(name) <- (key, lit) :: w.heads.(name);
        lit
  in
  find w.heads.(name)

let key_literal w id =
  let k = w.keys.(id) in
  if String.length k > 0 then k
  else begin
    let k = "," ^ w.m.names.lits.(id) ^ ":" in
    w.keys.(id) <- k;
    k
  end

let rec write_value w tagword =
  let buf = w.buf in
  let tag = tagword land 7 in
  if tag = t_null then Buffer.add_string buf "null"
  else if tag = t_false then Buffer.add_string buf "false"
  else if tag = t_true then Buffer.add_string buf "true"
  else if tag = t_int then Json.add_int buf (next_word w.m w.c)
  else if tag = t_float then Json.add_float buf (next_float w.m w.c)
  else if tag = t_string then Buffer.add_string buf w.m.names.lits.(next_word w.m w.c)
  else if tag = t_list then begin
    Buffer.add_char buf '[';
    for i = 1 to next_word w.m w.c do
      if i > 1 then Buffer.add_char buf ',';
      write_value w (next_word w.m w.c)
    done;
    Buffer.add_char buf ']'
  end
  else begin
    Buffer.add_char buf '{';
    write_fields w ~tpl:generic ~first:true (next_word w.m w.c);
    Buffer.add_char buf '}'
  end

(* [n] keyed values as object members, comma-separated, their tags
   from [tpl]; [first]: no member precedes them *)
and write_fields w ~tpl ~first n =
  for k = 0 to n - 1 do
    let tagword = next_tag w.m w.c tpl k in
    let key = key_literal w (tagword lsr 3) in
    if first && k = 0 then Buffer.add_substring w.buf key 1 (String.length key - 1)
    else Buffer.add_string w.buf key;
    write_value w tagword
  done

let[@inline] has presence bit = presence land bit <> 0

let add_member buf key v =
  Buffer.add_string buf key;
  Json.add_int buf v

let write_record w =
  let m = w.m and c = w.c and buf = w.buf in
  let w0 = next_word m c in
  let tpl = template m w0 in
  let is_shaped = tpl != generic in
  let w0 = if is_shaped then tpl.(0) else w0 in
  let w1 = if is_shaped then tpl.(1) else next_word m c in
  let nargs = if is_shaped then tpl.(2) else next_word m c in
  let ts = next_word m c in
  let head = head_literal w w0 w1 in
  if not w.chrome then begin
    Buffer.add_string buf "{\"ts\":";
    Json.add_int buf ts;
    Buffer.add_string buf head;
    if has w1 has_proc then add_member buf ",\"proc\":" (next_word m c);
    if has w1 has_worker then add_member buf ",\"worker\":" (next_word m c);
    if has w1 has_id then add_member buf ",\"id\":" (next_word m c);
    if nargs > 0 then begin
      Buffer.add_string buf ",\"args\":{";
      write_fields w ~tpl ~first:true nargs;
      Buffer.add_char buf '}'
    end;
    Buffer.add_string buf "}\n"
  end
  else begin
    let proc = if has w1 has_proc then next_word m c else 0 in
    let worker = if has w1 has_worker then next_word m c else 0 in
    let id = if has w1 has_id then next_word m c else 0 in
    Buffer.add_string buf head;
    Json.add_int buf ts;
    add_member buf ",\"pid\":1,\"tid\":" (if has w1 has_worker then worker else proc);
    (match phase_of_code (w0 land 7) with
    | Instant -> Buffer.add_string buf ",\"s\":\"t\""
    | Begin | End -> ()
    | Async_begin | Async_end -> add_member buf ",\"id\":" id);
    let ids = w1 land (has_proc lor has_worker) in
    if ids <> 0 || nargs > 0 then begin
      Buffer.add_string buf ",\"args\":{";
      if has w1 has_proc then add_member buf "\"proc\":" proc;
      if has w1 has_worker then
        add_member buf (if has w1 has_proc then ",\"worker\":" else "\"worker\":") worker;
      write_fields w ~tpl ~first:(ids = 0) nargs;
      Buffer.add_char buf '}'
    end;
    Buffer.add_char buf '}'
  end

(* The buffer is handed to the channel whenever it passes [flush_bytes] *)
let flush_bytes = 1 lsl 16

let write t oc ~chrome =
  with_records t ~nop:() (fun m c n ->
      let ids = Hashtbl.length m.names.ids in
      let w =
        {
          m;
          c;
          buf = Buffer.create flush_bytes;
          chrome;
          heads = Array.make ids [];
          keys = Array.make ids "";
        }
      in
      for i = 1 to n do
        if chrome && i > 1 then Buffer.add_string w.buf ",\n";
        write_record w;
        if Buffer.length w.buf >= flush_bytes then begin
          Buffer.output_buffer oc w.buf;
          Buffer.clear w.buf
        end
      done;
      Buffer.output_buffer oc w.buf)

let write_jsonl t oc = write t oc ~chrome:false

let write_chrome t oc =
  output_string oc "[";
  write t oc ~chrome:true;
  output_string oc "]\n"

let save_jsonl t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_jsonl t oc)

let save_chrome t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_chrome t oc)
