(* Tests for setsync_obs: histogram bucketing, the JSON emitter/parser,
   the event ring, and the end-to-end instrumentation contracts —
   executor step counters, detector stabilization histograms, agreement
   decision latencies, and explorer metrics matching Budget.stats. *)

module Json = Setsync_obs.Json
module Metrics = Setsync_obs.Metrics
module Events = Setsync_obs.Events
module Obs = Setsync_obs.Obs
open Setsync

(* ------------------------------------------------------- histograms *)

let test_bucket_boundaries () =
  let check v expect =
    Alcotest.(check int) (Fmt.str "bucket_of %g" v) expect (Metrics.bucket_of v)
  in
  check 0. 0;
  check (-3.) 0;
  check 0.5 0;
  check 0.999999 0;
  (* bucket i holds [2^(i-1), 2^i): boundaries land in the upper bucket *)
  check 1.0 1;
  check 1.999 1;
  check 2.0 2;
  check 3.999 2;
  check 4.0 3;
  check 8.0 4;
  check 1e300 (Metrics.bucket_count - 1);
  (* lower/upper bounds are consistent with bucket_of at every edge *)
  for i = 1 to Metrics.bucket_count - 2 do
    let lo = Metrics.bucket_lower_bound i in
    Alcotest.(check int) (Fmt.str "lower bound of %d" i) i (Metrics.bucket_of lo);
    Alcotest.(check int)
      (Fmt.str "just below upper bound of %d" i)
      i
      (Metrics.bucket_of (Float.pred (Metrics.bucket_upper_bound i)))
  done

let test_histogram_observe () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1.0; 1.5; 2.0; 100.; 0.25 ];
  let s = Metrics.histogram_snapshot h in
  Alcotest.(check int) "count" 5 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 104.75 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 0.25 s.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 100. s.Metrics.max;
  Alcotest.(check int) "bucket 0 (v < 1)" 1 s.Metrics.buckets.(0);
  Alcotest.(check int) "bucket 1 ([1,2))" 2 s.Metrics.buckets.(1);
  Alcotest.(check int) "bucket 2 ([2,4))" 1 s.Metrics.buckets.(2);
  Alcotest.(check int) "bucket 7 ([64,128))" 1 s.Metrics.buckets.(7)

let test_metric_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.(check bool) "same name same counter" true
    (Metrics.counter m "x" == Metrics.counter m "x");
  match Metrics.gauge m "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gauge on a counter name should raise"

(* ------------------------------------------------------------- json *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t\xe2\x82\xac");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]);
      ]
  in
  match Json.of_string (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Fmt.str "accepted malformed %S" s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_metrics_json_parses () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter m "c");
  Metrics.set (Metrics.gauge m "g") 2.5;
  Metrics.observe (Metrics.histogram m "h") 5.0;
  match Json.of_string (Json.to_string (Metrics.to_json m)) with
  | Error e -> Alcotest.fail ("metrics JSON did not parse: " ^ e)
  | Ok j -> (
      (match Json.member "counters" j with
      | Some (Json.Obj [ ("c", Json.Int 3) ]) -> ()
      | _ -> Alcotest.fail "counters object wrong");
      match Json.member "histograms" j with
      | Some (Json.Obj [ ("h", hj) ]) ->
          Alcotest.(check bool) "hist count present" true
            (Json.member "count" hj = Some (Json.Int 1))
      | _ -> Alcotest.fail "histograms object wrong")

(* ----------------------------------------------------------- events *)

let test_event_ring () =
  let t = Events.memory ~capacity:4 () in
  Alcotest.(check bool) "enabled" true (Events.enabled t);
  Alcotest.(check bool) "nop disabled" false (Events.enabled Events.nop);
  for i = 1 to 10 do
    Events.emit t ~args:[ ("i", Json.Int i) ] ~ts:i ~cat:"test" "e"
  done;
  Alcotest.(check int) "recorded uncapped" 10 (Events.recorded t);
  Alcotest.(check int) "dropped" 6 (Events.dropped t);
  let evs = Events.events t in
  Alcotest.(check int) "retained" 4 (List.length evs);
  Alcotest.(check (list string)) "oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map
       (fun e ->
         match e.Events.args with [ ("i", Json.Int i) ] -> string_of_int i | _ -> "?")
       evs);
  Alcotest.(check (list int)) "timestamps as emitted" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Events.ts) evs)

let test_event_span_and_chrome () =
  let t = Events.memory () in
  Events.emit t ~worker:3 ~phase:Events.Begin ~ts:5 ~cat:"test" "work";
  Events.emit t ~worker:3 ~phase:Events.End ~ts:17 ~cat:"test" "work";
  (match Events.events t with
  | [ b; e ] ->
      Alcotest.(check bool) "begin/end phases" true
        (b.Events.phase = Events.Begin && e.Events.phase = Events.End)
  | _ -> Alcotest.fail "expected exactly a begin/end pair");
  let chrome = List.map Events.event_to_chrome (Events.events t) in
  List.iter
    (fun cj ->
      Alcotest.(check bool) "chrome fields" true
        (Json.member "ph" cj <> None
        && Json.member "pid" cj = Some (Json.Int 1)
        && Json.member "tid" cj = Some (Json.Int 3)))
    chrome;
  match chrome with
  | [ b; e ] ->
      Alcotest.(check bool) "B phase" true (Json.member "ph" b = Some (Json.String "B"));
      (* one logical step is one Chrome microsecond *)
      Alcotest.(check bool) "step as the µs ts" true
        (Json.member "ts" b = Some (Json.Int 5) && Json.member "ts" e = Some (Json.Int 17))
  | _ -> Alcotest.fail "two chrome events"

let test_jsonl_lines_parse () =
  let t = Events.memory () in
  Events.emit t ~proc:1 ~args:[ ("x", Json.Float 0.5) ] ~ts:0 ~cat:"c" "a";
  Events.emit t ~ts:1 ~cat:"c" "b";
  let file = Filename.temp_file "setsync_obs" ".jsonl" in
  Events.save_jsonl t file;
  let lines =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Sys.remove file;
  Alcotest.(check int) "two lines" 2 (List.length lines);
  List.iter
    (fun l ->
      match Json.of_string l with
      | Ok j -> Alcotest.(check bool) "has name" true (Json.member "name" j <> None)
      | Error e -> Alcotest.fail ("line did not parse: " ^ e))
    lines

(* The writers and the Json printer share [Json.add_int]/[add_float];
   pin both against the stdlib formatting they replace. *)
let test_json_number_writers () =
  let via f v =
    let b = Buffer.create 32 in
    f b v;
    Buffer.contents b
  in
  let ints = [ 0; 1; 9; 10; -1; -9; -10; 99; 100; -100; 123456789; max_int; min_int; min_int + 1 ] in
  let rng = Random.State.make [| 13 |] in
  let ints = ints @ List.init 2000 (fun _ -> Random.State.bits rng - Random.State.bits rng) in
  List.iter
    (fun i -> Alcotest.(check string) "add_int = string_of_int" (string_of_int i) (via Json.add_int i))
    (ints @ List.map (fun i -> i * 1_000_003) ints);
  let reference f =
    if Float.is_nan f then "null"
    else if f = Float.infinity then "1e308"
    else if f = Float.neg_infinity then "-1e308"
    else
      let s = Printf.sprintf "%.12g" f in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"
  in
  let floats =
    [ 0.; -0.; 1.; -1.; 3.0; 0.5; 1e-7; 1e21; 123456789012345.; 1.5e-300; 4.9e-324;
      Float.max_float; Float.nan; Float.infinity; Float.neg_infinity ]
    @ List.init 20_000 (fun _ -> Int64.float_of_bits (Random.State.int64 rng Int64.max_int))
    @ List.init 20_000 (fun _ -> Random.State.float rng 10.)
    (* magnitudes across the digit path's range [1e-4, 1e12) and past
       both ends, either sign *)
    @ List.init 20_000 (fun i ->
          let f = 10. ** (Random.State.float rng 20. -. 6.) in
          if i mod 2 = 0 then f else -.f)
    (* decimal near-ties: a 12-digit mantissa followed by a 5 *)
    @ List.init 20_000 (fun _ ->
          float_of_string
            (Printf.sprintf "%d%011d5e%d" (1 + Random.State.int rng 9)
               (Random.State.full_int rng 100_000_000_000)
               (Random.State.int rng 20 - 18)))
  in
  List.iter
    (fun f -> Alcotest.(check string) (Fmt.str "add_float %h" f) (reference f) (via Json.add_float f))
    floats

(* Structural equality that tells 0.0 from -0.0 and NaN payloads apart:
   the ring must hand back the exact bits it was given. *)
let rec json_identical a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal json_identical xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && json_identical v v') xs ys
  | _ -> a = b

let file_contents write t =
  let file = Filename.temp_file "setsync_obs" ".out" in
  write t file;
  let s = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  s

(* Every shape the encoder distinguishes, on a ring that has wrapped. *)
let test_writers_byte_identical () =
  let nested =
    Json.Obj
      [
        ("l", Json.List [ Json.Int 1; Json.Null; Json.List []; Json.Obj []; Json.Float 2.5 ]);
        ("o", Json.Obj [ ("k\"ey", Json.String "v\\al"); ("b", Json.Bool false) ]);
      ]
  in
  let specimens =
    [
      (None, None, None, Events.Instant, []);
      (Some 0, None, None, Events.Begin, [ ("n", Json.Int 3) ]);
      (None, Some 2, None, Events.End, [ ("neg", Json.Int (-17)); ("min", Json.Int min_int) ]);
      (Some 4, Some 5, None, Events.Instant, [ ("max", Json.Int max_int); ("t", Json.Bool true) ]);
      (Some 1, None, Some 77, Events.Async_begin, [ ("due", Json.Int 12) ]);
      (Some 1, None, Some 77, Events.Async_end, []);
      (None, None, None, Events.Async_begin, []);
      (None, Some 3, Some (-8), Events.Async_end, [ ("z", Json.Float (-0.)) ]);
      ( None,
        None,
        None,
        Events.Instant,
        [
          ("integral", Json.Float 3.0);
          ("nan", Json.Float Float.nan);
          ("inf", Json.Float Float.infinity);
          ("-inf", Json.Float Float.neg_infinity);
          ("tiny", Json.Float 1.5e-300);
          ("frac", Json.Float 0.1);
        ] );
      ( Some 2,
        Some 2,
        Some 2,
        Events.Instant,
        [
          ("q\"uote", Json.String "say \"hi\"");
          ("back\\slash", Json.String "a\\b");
          ("ctl", Json.String "\x00\x01\x1f\n\r\t\x7f\xe2\x82\xac");
          ("null", Json.Null);
          ("nested", nested);
          ("empty", Json.String "");
        ] );
      (None, None, None, Events.Instant, [ ("dup", Json.Int 1); ("dup", Json.Int 2) ]);
    ]
  in
  let nspec = List.length specimens in
  let capacity = 7 in
  let t = Events.memory ~capacity () in
  let total = (2 * nspec) + 3 in
  let emitted =
    List.init total (fun i ->
        let proc, worker, id, phase, args = List.nth specimens (i mod nspec) in
        let name = Fmt.str "ev%d" (i mod 5) and cat = if i mod 2 = 0 then "c\\at" else "cat" in
        (* the emitter's clock: any int, written as given *)
        let ts = if i = total - 1 then max_int else (i * 1_000_003) - 5 in
        Events.emit t ?proc ?worker ?id ~args ~phase ~ts ~cat name;
        (name, cat, phase, proc, worker, id, args, ts))
  in
  Alcotest.(check int) "recorded" total (Events.recorded t);
  Alcotest.(check int) "dropped" (total - capacity) (Events.dropped t);
  let kept = List.filteri (fun i _ -> i >= total - capacity) emitted in
  let decoded = Events.events t in
  Alcotest.(check int) "retained" capacity (List.length decoded);
  List.iter2
    (fun e (name, cat, phase, proc, worker, id, args, ts) ->
      Alcotest.(check string) "name" name e.Events.name;
      Alcotest.(check string) "cat" cat e.Events.cat;
      Alcotest.(check bool) "phase" true (e.Events.phase = phase);
      Alcotest.(check (option int)) "proc" proc e.Events.proc;
      Alcotest.(check (option int)) "worker" worker e.Events.worker;
      Alcotest.(check (option int)) "id" id e.Events.id;
      Alcotest.(check bool) "args bit-identical" true (json_identical (Json.Obj args) (Json.Obj e.Events.args));
      Alcotest.(check int) "ts is the emitter's logical clock" ts e.Events.ts)
    decoded kept;
  let jsonl =
    String.concat "" (List.map (fun e -> Json.to_string (Events.event_to_json e) ^ "\n") decoded)
  in
  Alcotest.(check string) "jsonl bytes" jsonl (file_contents Events.save_jsonl t);
  let chrome =
    "["
    ^ String.concat ",\n" (List.map (fun e -> Json.to_string (Events.event_to_chrome e)) decoded)
    ^ "]\n"
  in
  Alcotest.(check string) "chrome bytes" chrome (file_contents Events.save_chrome t);
  (* the empty ring and the nop sink write what the record-based
     writers wrote: nothing, and an empty array *)
  List.iter
    (fun t ->
      Alcotest.(check string) "empty jsonl" "" (file_contents Events.save_jsonl t);
      Alcotest.(check string) "empty chrome" "[]\n" (file_contents Events.save_chrome t))
    [ Events.memory (); Events.nop ]

(* The ring starts empty and grows on demand: 2,500 events of mixed
   sizes through a 1,000-event ring cross several word chunks and
   double the float ring several times, then wrap. *)
let test_ring_growth () =
  let t = Events.memory ~capacity:1000 () in
  let args i =
    match i mod 3 with
    | 0 -> [ ("i", Json.Int i) ]
    | 1 -> [ ("i", Json.Int i); ("f", Json.Float (float_of_int i /. 8.)); ("s", Json.String (string_of_int (i mod 10))) ]
    | _ -> [ ("i", Json.Int i); ("l", Json.List [ Json.Float 0.25; Json.Int (-i) ]) ]
  in
  for i = 1 to 2500 do
    Events.emit t ?proc:(if i mod 2 = 0 then Some (i mod 7) else None) ~args:(args i) ~ts:i
      ~cat:"g" "e"
  done;
  Alcotest.(check int) "recorded" 2500 (Events.recorded t);
  Alcotest.(check int) "dropped" 1500 (Events.dropped t);
  let evs = Events.events t in
  Alcotest.(check int) "retained" 1000 (List.length evs);
  List.iteri
    (fun k e ->
      let i = 1501 + k in
      Alcotest.(check bool) (Fmt.str "event %d args" i) true
        (json_identical (Json.Obj (args i)) (Json.Obj e.Events.args));
      Alcotest.(check (option int)) "proc" (if i mod 2 = 0 then Some (i mod 7) else None) e.Events.proc)
    evs;
  (* creating a default-capacity sink allocates O(1) words, not a
     2^20-slot ring. [Gc.quick_stat] counts minor-heap words only as of
     the last minor collection, so collect before each reading. *)
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  let sink = Events.memory () in
  let allocated = words () -. w0 in
  Alcotest.(check bool) (Fmt.str "memory () allocated %.0f words" allocated) true (allocated < 1024.);
  Alcotest.(check int) "nothing recorded" 0 (Events.recorded sink)

(* Words one event takes in the int ring: three header words, the
   timestamp, one per optional field present, and per arg a tag word
   plus its payload (Events' encoding; a float's payload is in the
   float ring). *)
let rec value_words = function
  | Json.Null | Json.Bool _ | Json.Float _ -> 1
  | Json.Int _ | Json.String _ -> 2
  | Json.List xs -> 2 + List.fold_left (fun a x -> a + value_words x) 0 xs
  | Json.Obj kvs -> 2 + List.fold_left (fun a (_, v) -> a + value_words v) 0 kvs

(* After 100k events the sink holds the encoded words, at most one
   partly filled chunk and the chunk table, and what a one-event sink
   holds besides (names, bookkeeping, its first chunk) — no slack from
   doubling the word ring, and no float ring: the events have no float
   arg, and timestamps are ints. *)
let test_ring_footprint () =
  let emit t i =
    Events.emit t ~proc:(i land 7)
      ~args:[ ("global", Json.Int i); ("pidx", Json.Int (i / 8)) ]
      ~ts:i ~cat:"runtime" "step"
  in
  let footprint t = Obj.reachable_words (Obj.repr t) in
  let one = Events.memory () in
  emit one 0;
  let n = 100_000 in
  let t = Events.memory () in
  for i = 1 to n do
    emit t i
  done;
  let encoded = n * (3 + 1 + 1 + value_words (Json.Int 0) + value_words (Json.Int 0)) in
  let chunks = (encoded + 4095) / 4096 in
  (* a power-of-two table, at most twice the chunks *)
  let table = (2 * chunks) + 1 in
  let bound = footprint one + encoded + table in
  let words = footprint t in
  Alcotest.(check bool)
    (Fmt.str "%d words held, bound %d" words bound)
    true (words <= bound)

(* Random event streams through sinks whose word ring crosses many
   4,096-word chunks, wraps, and grows while wrapped: a run of small
   events fills the capacity and starts evicting, then larger events
   (15+ args) make the retained window several times bigger, growing
   the ring with the head wherever the last eviction left it. Streams
   are drawn from a seed (QCheck's own generators build a shrink tree
   per value, too slow for streams of thousands of events). *)
let random_stream rs ~capacity =
  let pick xs = List.nth xs (Random.State.int rs (List.length xs)) in
  let str () =
    if Random.State.bool rs then pick [ "a"; ""; "q\"u\\o\n"; "\xe2\x82\xac" ]
    else String.init (Random.State.int rs 7) (fun _ -> Char.chr (Random.State.int rs 256))
  in
  let key () =
    if Random.State.bool rs then pick [ "mid"; "forced"; "dst"; "pre_gst"; "k\"ey" ] else str ()
  in
  let leaf () =
    match Random.State.int rs 5 with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Random.State.bool rs)
    | 2 ->
        Json.Int
          (if Random.State.bool rs then Random.State.int rs 200 - 100
           else Random.State.bits rs - Random.State.bits rs)
    | 3 ->
        Json.Float
          (match Random.State.int rs 3 with
          | 0 -> Int64.float_of_bits (Random.State.int64 rs Int64.max_int)
          | 1 -> Random.State.float rs 2e4 -. 1e4
          | _ -> pick [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 4.9e-324; 3.0 ])
    | _ -> Json.String (str ())
  in
  let rec value budget =
    if budget <= 1 || Random.State.int rs 5 < 3 then leaf ()
    else
      let items () = List.init (Random.State.int rs 5) (fun _ -> value (budget / 3)) in
      if Random.State.bool rs then Json.List (items ())
      else Json.Obj (List.map (fun v -> (key (), v)) (items ()))
  in
  let opt f = if Random.State.bool rs then Some (f ()) else None in
  let event ~nargs ~budget =
    ( Random.State.bits rs - Random.State.bits rs,
      (if Random.State.bool rs then pick [ "step"; "deliver"; "e\"v" ] else str ()),
      pick [ "runtime"; "net"; "c\\at" ],
      pick Events.[ Instant; Begin; End; Async_begin; Async_end ],
      opt (fun () -> Random.State.int rs 20 - 2),
      opt (fun () -> Random.State.int rs 8),
      opt (fun () -> Random.State.bits rs - Random.State.bits rs),
      List.init nargs (fun _ -> (key (), value budget)) )
  in
  let small =
    List.init (capacity + 1 + Random.State.int rs capacity) (fun _ ->
        event ~nargs:(Random.State.int rs 4) ~budget:3)
  in
  let large =
    List.init (capacity + Random.State.int rs capacity) (fun _ ->
        event ~nargs:(15 + Random.State.int rs 11) ~budget:9)
  in
  small @ large

let prop_chunked_ring =
  QCheck2.Test.make ~name:"chunked ring: events and writers over wrap and growth" ~count:20
    ~print:(fun (capacity, seed) -> Fmt.str "capacity %d, seed %d" capacity seed)
    QCheck2.Gen.(pair (int_range 200 1000) nat)
    (fun (capacity, seed) ->
      let evs = random_stream (Random.State.make [| seed |]) ~capacity in
      let t = Events.memory ~capacity () in
      List.iter
        (fun (ts, name, cat, phase, proc, worker, id, args) ->
          Events.emit t ?proc ?worker ?id ~args ~phase ~ts ~cat name)
        evs;
      let total = List.length evs in
      let kept = List.filteri (fun i _ -> i >= total - capacity) evs in
      let decoded = Events.events t in
      List.length decoded = capacity
      && Events.dropped t = total - capacity
      && List.for_all2
           (fun e (ts, name, cat, phase, proc, worker, id, args) ->
             e.Events.ts = ts && e.Events.name = name && e.Events.cat = cat && e.Events.phase = phase
             && e.Events.proc = proc && e.Events.worker = worker && e.Events.id = id
             && json_identical (Json.Obj args) (Json.Obj e.Events.args))
           decoded kept
      && file_contents Events.save_jsonl t
         = String.concat ""
             (List.map (fun e -> Json.to_string (Events.event_to_json e) ^ "\n") decoded)
      && file_contents Events.save_chrome t
         = "["
           ^ String.concat ",\n"
               (List.map (fun e -> Json.to_string (Events.event_to_chrome e)) decoded)
           ^ "]\n")

(* Every shape the library declares: a shaped emission and the same
   event sent through [emit ~args] decode to equal events and write the
   same JSONL and Chrome bytes, on rings small enough to evict. A
   generic event with a float arg follows every shaped one, so eviction
   walks records of both kinds. *)
let test_shapes_match_emit () =
  let shapes = Events.shapes () in
  let kind s =
    let e = Events.shape_event s ~ts:0 (Array.make (Events.arity s) 0) in
    let ph =
      match e.Events.phase with
      | Events.Instant -> "i"
      | Events.Async_begin -> "b"
      | Events.Async_end -> "e"
      | Events.Begin | Events.End -> "?"
    in
    Fmt.str "%s.%s/%s" e.Events.cat e.Events.name ph
  in
  Alcotest.(check (list string))
    "the per-step shapes"
    [ "net.deliver/i"; "net.drop/i"; "net.inflight/b"; "net.inflight/e"; "net.send/i"; "runtime.step/i" ]
    (List.sort compare (List.map kind shapes));
  let rs = Random.State.make [| 41 |] in
  let value () =
    match Random.State.int rs 4 with
    | 0 -> 0
    | 1 -> 1
    | 2 -> -1
    | _ -> Random.State.bits rs - Random.State.bits rs
  in
  List.iter
    (fun capacity ->
      let shaped = Events.memory ~capacity () and generic = Events.memory ~capacity () in
      let expected = ref [] in
      for i = 0 to (5 * List.length shapes) - 1 do
        let s = List.nth shapes (i mod List.length shapes) in
        (* one spare slot: values past the arity are ignored *)
        let vals = Array.init (Events.arity s + 1) (fun _ -> value ()) in
        let e = Events.shape_event s ~ts:i vals in
        Events.emit_shape shaped s ~ts:i vals;
        Events.emit generic ?proc:e.Events.proc ?worker:e.Events.worker ?id:e.Events.id
          ~args:e.Events.args ~phase:e.Events.phase ~ts:e.Events.ts ~cat:e.Events.cat
          e.Events.name;
        let filler = [ ("x", Json.Float (float_of_int i /. 3.)) ] in
        List.iter
          (fun t -> Events.emit t ~worker:1 ~args:filler ~ts:i ~cat:"test" "filler")
          [ shaped; generic ];
        expected := e :: !expected
      done;
      let label = Fmt.str "capacity %d" capacity in
      let decoded = Events.events shaped in
      Alcotest.(check bool) (label ^ ": equal events") true (decoded = Events.events generic);
      Alcotest.(check int) (label ^ ": retained") (min capacity (10 * List.length shapes))
        (List.length decoded);
      let kept = List.rev (List.filteri (fun i _ -> i < capacity / 2) !expected) in
      Alcotest.(check bool) (label ^ ": the shaped events as declared") true
        (List.filter (fun e -> e.Events.name <> "filler") decoded = kept);
      Alcotest.(check string) (label ^ ": jsonl bytes")
        (file_contents Events.save_jsonl generic)
        (file_contents Events.save_jsonl shaped);
      Alcotest.(check string) (label ^ ": chrome bytes")
        (file_contents Events.save_chrome generic)
        (file_contents Events.save_chrome shaped))
    [ 6; 7; 1000 ];
  (* once a sink has seen a shape, emitting it allocates nothing *)
  let t = Events.memory () in
  let s = List.hd shapes in
  let vals = Array.make (Events.arity s) 3 in
  Events.emit_shape t s ~ts:0 vals;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    Events.emit_shape t s ~ts:i vals
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Fmt.str "1000 shaped emissions allocated %.0f minor words" words) true
    (words < 64.);
  Alcotest.check_raises "short values refused"
    (Invalid_argument
       (Fmt.str "Events.emit_shape: %s takes %d values, got 0"
          (let e = Events.shape_event s ~ts:0 vals in
           e.Events.cat ^ "." ^ e.Events.name)
          (Events.arity s)))
    (fun () -> Events.emit_shape t s ~ts:0 [||])

(* ------------------------------------------- instrumentation contracts *)

let test_executor_step_counter () =
  let obs = Obs.create ~events:(Events.memory ()) () in
  let body _ () =
    while true do
      Shm.pause ()
    done
  in
  let source ~live = Generators.round_robin ~live ~n:3 () in
  let run = Executor.run ~n:3 ~source ~max_steps:500 ~obs body in
  Alcotest.(check int) "runtime.steps = total steps" (Run.total_steps run)
    (Metrics.counter_value (Metrics.counter obs.Obs.metrics "runtime.steps"));
  let names = List.map (fun e -> e.Events.name) (Events.events obs.Obs.events) in
  Alcotest.(check bool) "step events emitted" true (List.mem "step" names);
  Alcotest.(check bool) "run span emitted" true (List.mem "run" names)

(* A traced net run stamps every event with the executor's global step:
   [ts] never decreases, equals [global] on a step and [step] on a
   message event, and the run's span samples wall time once per end. *)
let test_logical_timestamps () =
  let events = Events.memory () in
  let obs = Obs.create ~events () in
  let adversary = Adversary.gst_drop ~delta:1 ~gst:4 in
  let r = Net_systems.run_ct ~obs ~clients:2 ~adversary ~max_steps:60 () in
  let evs = Events.events events in
  let arg k (e : Events.event) = List.assoc_opt k e.Events.args in
  ignore
    (List.fold_left
       (fun prev (e : Events.event) ->
         let what = Fmt.str "%s.%s at %d" e.Events.cat e.Events.name e.Events.ts in
         if e.Events.ts < prev then Alcotest.failf "%s: ts decreased from %d" what prev;
         (match (e.Events.cat, e.Events.name) with
         | "runtime", "step" ->
             Alcotest.(check bool) (what ^ ": ts = global") true
               (arg "global" e = Some (Json.Int e.Events.ts))
         | "net", ("send" | "drop" | "deliver") ->
             Alcotest.(check bool) (what ^ ": ts = step") true
               (arg "step" e = Some (Json.Int e.Events.ts))
         | "runtime", "run" ->
             Alcotest.(check bool) (what ^ ": wall_s sampled") true
               (match arg "wall_s" e with Some (Json.Float w) -> w >= 0. | _ -> false)
         | _ -> ());
         e.Events.ts)
       0 evs);
  match List.rev evs with
  | last :: _ ->
      Alcotest.(check int) "the run ends at its step count" r.Net_systems.steps last.Events.ts
  | [] -> Alcotest.fail "no events"

let test_detector_stabilization_histogram () =
  let obs = Obs.create ~events:(Events.memory ()) () in
  let params = { Kanti_omega.n = 3; t = 1; k = 1 } in
  let source ~live = Generators.round_robin ~live ~n:3 () in
  let result = Fd_harness.run ~params ~source ~max_steps:50_000 ~obs () in
  let stable =
    match result.Fd_harness.winner_verdict with
    | Anti_omega.Winner_stable _ -> 1
    | _ -> 0
  in
  Alcotest.(check int) "one run counted" stable
    (Metrics.counter_value (Metrics.counter obs.Obs.metrics "detector.runs"));
  let h = Metrics.histogram_snapshot (Metrics.histogram obs.Obs.metrics "detector.stabilization_steps") in
  Alcotest.(check int) "stabilization sample" stable h.Metrics.count;
  if stable = 1 then
    Alcotest.(check bool) "stabilization event" true
      (List.exists
         (fun e -> e.Events.name = "stabilization_detected")
         (Events.events obs.Obs.events))

let test_agreement_decision_latency () =
  let obs = Obs.create () in
  let problem = Problem.make ~t:1 ~k:1 ~n:3 in
  let inputs = Problem.distinct_inputs problem in
  let source ~live = Generators.round_robin ~live ~n:3 () in
  let o = Ag_harness.solve ~problem ~inputs ~source ~max_steps:2_000_000 ~obs () in
  let decided =
    Array.fold_left (fun acc d -> if d <> None then acc + 1 else acc) 0 o.Ag_harness.decide_steps
  in
  Alcotest.(check bool) "someone decided" true (decided > 0);
  Alcotest.(check int) "decided counter" decided
    (Metrics.counter_value (Metrics.counter obs.Obs.metrics "agreement.decided"));
  let h =
    Metrics.histogram_snapshot
      (Metrics.histogram obs.Obs.metrics "agreement.decision_latency_steps")
  in
  Alcotest.(check int) "latency samples" decided h.Metrics.count

(* The acceptance contract of the explorer metrics: exported counters
   are numerically the printed Budget.stats, sequential and parallel. *)
let explorer_metrics_match domains () =
  let obs = Obs.create ~events:(Events.memory ()) () in
  let sut = Explore_systems.kanti_detector ~params:{ Kanti_omega.n = 2; t = 1; k = 1 } () in
  let properties =
    [
      Property.anti_omega_stabilized ~k:1
        ~outputs:(fun st -> st.Explorer.obs.Explore_systems.fd_outputs)
        ~correct:(fun st -> Run.correct st.Explorer.run);
    ]
  in
  let report =
    Explorer.explore ~domains ~obs ~sut ~properties
      (* fingerprints off: the exact-reduction configuration the CLI
         uses for this check, which makes counts domain-independent
         and guarantees sleep prunes occur at this depth; the
         per-state engine, because the default runs on snapshot here
         and would emit no replay events *)
      (Explorer.config ~prune_fingerprints:false ~engine:Explorer.Per_state ~depth:6 ())
  in
  let stats = report.Explorer.stats in
  let counter name = Metrics.counter_value (Metrics.counter obs.Obs.metrics name) in
  Alcotest.(check int) "states" stats.Budget.visited (counter "explorer.states");
  Alcotest.(check int) "safety" stats.Budget.safety_checked (counter "explorer.safety_checked");
  Alcotest.(check int) "fp pruned" stats.Budget.pruned_fingerprint (counter "explorer.fp_pruned");
  Alcotest.(check int) "sleep pruned" stats.Budget.pruned_sleep (counter "explorer.sleep_pruned");
  Alcotest.(check int) "replays" stats.Budget.replays (counter "explorer.replays");
  Alcotest.(check int) "replay steps" stats.Budget.replay_steps (counter "explorer.replay_steps");
  (match Metrics.gauge_value (Metrics.gauge obs.Obs.metrics "explorer.max_depth") with
  | Some d -> Alcotest.(check (float 0.)) "max depth" (float_of_int stats.Budget.max_depth) d
  | None -> Alcotest.fail "max depth gauge unset");
  let names = List.map (fun e -> e.Events.name) (Events.events obs.Obs.events) in
  List.iter
    (fun kind -> Alcotest.(check bool) (kind ^ " events") true (List.mem kind names))
    [ "replay"; "expand"; "sleep_prune" ]

let test_explore_without_obs_unchanged () =
  (* ?obs:None must not perturb the exploration itself *)
  let sut = Explore_systems.kanti_detector ~params:{ Kanti_omega.n = 2; t = 1; k = 1 } () in
  let properties =
    [
      Property.anti_omega_stabilized ~k:1
        ~outputs:(fun st -> st.Explorer.obs.Explore_systems.fd_outputs)
        ~correct:(fun st -> Run.correct st.Explorer.run);
    ]
  in
  let run obs =
    let report = Explorer.explore ?obs ~sut ~properties (Explorer.config ~depth:6 ()) in
    ( report.Explorer.stats.Budget.visited,
      report.Explorer.stats.Budget.replay_steps,
      report.Explorer.stats.Budget.machine_steps,
      List.map fst report.Explorer.verdicts )
  in
  Alcotest.(check bool) "same exploration" true
    (run None = run (Some (Obs.create ~events:(Events.memory ()) ())))

let () =
  Alcotest.run "setsync_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
          Alcotest.test_case "kind clash / interning" `Quick test_metric_kind_clash;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed inputs rejected" `Quick test_json_parse_errors;
          Alcotest.test_case "metrics dump parses" `Quick test_metrics_json_parses;
          Alcotest.test_case "number writers = stdlib" `Quick test_json_number_writers;
        ] );
      ( "events",
        [
          Alcotest.test_case "ring drop + order" `Quick test_event_ring;
          Alcotest.test_case "span + chrome format" `Quick test_event_span_and_chrome;
          Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
          Alcotest.test_case "writers byte-identical (wrapped ring)" `Quick
            test_writers_byte_identical;
          Alcotest.test_case "ring grows on demand, then wraps" `Quick test_ring_growth;
          Alcotest.test_case "ring footprint: no doubling slack" `Quick test_ring_footprint;
          QCheck_alcotest.to_alcotest prop_chunked_ring;
          Alcotest.test_case "shaped emission = emit ~args" `Quick test_shapes_match_emit;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "executor step counter" `Quick test_executor_step_counter;
          Alcotest.test_case "ts is the logical step" `Quick test_logical_timestamps;
          Alcotest.test_case "detector stabilization histogram" `Quick
            test_detector_stabilization_histogram;
          Alcotest.test_case "agreement decision latency" `Quick
            test_agreement_decision_latency;
          Alcotest.test_case "explorer metrics = stats (seq)" `Quick
            (explorer_metrics_match 1);
          Alcotest.test_case "explorer metrics = stats (2 domains)" `Quick
            (explorer_metrics_match 2);
          Alcotest.test_case "no-obs exploration unchanged" `Quick
            test_explore_without_obs_unchanged;
        ] );
    ]
