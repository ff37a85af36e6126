(* Edge-case tests for the zero-dependency JSON layer and the event
   codec on top of it: deep nesting, escape handling (including \uXXXX
   and lone surrogates), truncated and trailing-garbage inputs,
   unknown-field tolerance of event_of_json, and seeded round-trip
   fuzzing of both values and events. The parser is what the CI
   validator and trace-report run on, so its failure mode must always
   be [Error], never an exception or a silent misparse. *)

module Json = Setsync_obs.Json
module Events = Setsync_obs.Events
open Setsync

let ok s =
  match Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%S should parse: %s" s e

let fails s =
  match Json.of_string s with
  | Ok v -> Alcotest.failf "%S should not parse, got %s" s (Json.to_string v)
  | Error _ -> ()

let check_roundtrip v =
  let s = Json.to_string v in
  match Json.of_string s with
  | Ok v' ->
      Alcotest.(check string) (Fmt.str "roundtrip %s" s) s (Json.to_string v')
  | Error e -> Alcotest.failf "emitted %s does not parse back: %s" s e

(* ----------------------------------------------------- deep nesting *)

let test_deep_lists () =
  let depth = 400 in
  let rec build d = if d = 0 then Json.Int 7 else Json.List [ build (d - 1) ] in
  let v = build depth in
  check_roundtrip v;
  (* hand-built input, not just our own emission *)
  let s = String.make depth '[' ^ "7" ^ String.make depth ']' in
  Alcotest.(check string) "hand-built deep list" (Json.to_string v) (Json.to_string (ok s))

let test_deep_objects () =
  let depth = 300 in
  let rec build d = if d = 0 then Json.Null else Json.Obj [ ("a", build (d - 1)) ] in
  check_roundtrip (build depth)

let test_unbalanced_nesting () =
  fails (String.make 50 '[');
  fails (String.make 50 '[' ^ "1");
  fails ("[" ^ String.make 50 ']')

(* ---------------------------------------------------------- escapes *)

let test_escapes_decode () =
  let str s =
    match ok s with Json.String v -> v | v -> Alcotest.failf "expected string, got %s" (Json.to_string v)
  in
  Alcotest.(check string) "simple escapes" "a\"b\\c/d\b\012\n\r\t"
    (str {|"a\"b\\c\/d\b\f\n\r\t"|});
  Alcotest.(check string) "\\u ascii" "A" (str {|"A"|});
  Alcotest.(check string) "\\u 2-byte utf8" "\xc3\xa9" (str {|"é"|});
  Alcotest.(check string) "\\u 3-byte utf8" "\xe2\x82\xac" (str {|"€"|});
  (* lone surrogates are encoded as-is, not recombined — documented
     behavior, must stay deterministic *)
  Alcotest.(check string) "lone surrogate" "\xed\xa0\xbd" (str {|"\ud83d"|});
  (* control characters emitted as \u00XX parse back byte-identically *)
  let ctl = String.init 32 Char.chr in
  check_roundtrip (Json.String ctl)

let test_escapes_reject () =
  fails {|"\q"|};
  fails {|"\u00"|};
  fails {|"\u00g1"|};
  fails {|"\u"|};
  fails "\"\\";
  fails "\"unterminated"

let test_escape_emit () =
  Alcotest.(check string) "quote/backslash emitted escaped" {|"a\"\\b"|}
    (Json.to_string (Json.String "a\"\\b"));
  Alcotest.(check string) "newline emitted escaped" {|"x\ny"|}
    (Json.to_string (Json.String "x\ny"));
  Alcotest.(check string) "nul emitted as \\u0000" {|"\u0000"|}
    (Json.to_string (Json.String "\000"))

(* ------------------------------------------------- truncated inputs *)

let test_truncated () =
  List.iter fails
    [
      ""; " "; "{"; "["; "\""; "{\"a\""; "{\"a\":"; "{\"a\":1"; "{\"a\":1,";
      "[1"; "[1,"; "[1,2"; "tru"; "fals"; "nul"; "-"; "1e"; "{,}"; "[,]";
      "{\"a\" 1}"; "{1:2}";
    ]

let test_trailing_garbage () =
  List.iter fails [ "1 2"; "{} x"; "[] []"; "null," ];
  (* trailing whitespace is fine *)
  Alcotest.(check string) "trailing ws" "1" (Json.to_string (ok "1 \n\t "))

let test_numbers () =
  Alcotest.(check string) "negative" "-42" (Json.to_string (ok "-42"));
  Alcotest.(check string) "exponent is float" "1000.0" (Json.to_string (ok "1e3"));
  Alcotest.(check string) "fraction" "1.5" (Json.to_string (ok "1.5"));
  Alcotest.(check string) "max_int survives" (string_of_int max_int)
    (Json.to_string (ok (string_of_int max_int)));
  fails "1.2.3";
  fails "--1"

(* ---------------------------------------------------- event codec *)

let test_event_unknown_fields () =
  let j =
    ok
      {|{"ts":3,"name":"step","cat":"runtime","ph":"i","proc":3,
         "future_field":{"deeply":["ignored"]},"another":null}|}
  in
  match Events.event_of_json j with
  | Ok e ->
      Alcotest.(check string) "name" "step" e.Events.name;
      Alcotest.(check (option int)) "proc" (Some 3) e.Events.proc;
      Alcotest.(check (option int)) "worker absent" None e.Events.worker
  | Error e -> Alcotest.failf "unknown fields must be tolerated: %s" e

let test_event_missing_fields () =
  let err s =
    match Events.event_of_json (ok s) with
    | Ok _ -> Alcotest.failf "%s should not decode" s
    | Error _ -> ()
  in
  err {|{"name":"step","cat":"runtime","ph":"i"}|};
  err {|{"ts":1,"cat":"runtime","ph":"i"}|};
  err {|{"ts":1,"name":"step","ph":"i"}|};
  err {|{"ts":1,"name":"step","cat":"runtime"}|};
  err {|{"ts":1,"name":"step","cat":"runtime","ph":"Z"}|};
  (* [ts] is a logical step: an int, never a float *)
  err {|{"ts":1.5,"name":"step","cat":"runtime","ph":"i"}|};
  err {|{"ts":1.0,"name":"step","cat":"runtime","ph":"i"}|};
  (* wrong-typed args degrade to no args, not an error *)
  match Events.event_of_json (ok {|{"ts":1,"name":"s","cat":"c","ph":"i","args":7}|}) with
  | Ok e -> Alcotest.(check int) "args dropped" 0 (List.length e.Events.args)
  | Error e -> Alcotest.failf "wrong-typed args must be tolerated: %s" e

(* ------------------------------------------------------- fuzz loops *)

(* precision-bounded floats so %.12g round-trips exactly *)
let gen_float rng = float_of_int (Rng.int rng 2_000_000 - 1_000_000) /. 1024.

let gen_string rng =
  String.init (Rng.int rng 12) (fun _ ->
      match Rng.int rng 10 with
      | 0 -> Char.chr (Rng.int rng 32)  (* control chars *)
      | 1 -> '"'
      | 2 -> '\\'
      | _ -> Char.chr (32 + Rng.int rng 95))

let rec gen_value rng depth =
  match if depth = 0 then Rng.int rng 5 else Rng.int rng 7 with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Rng.bool rng)
  | 2 -> Json.Int (Rng.int rng 1_000_000 - 500_000)
  | 3 -> Json.Float (gen_float rng)
  | 4 -> Json.String (gen_string rng)
  | 5 -> Json.List (List.init (Rng.int rng 4) (fun _ -> gen_value rng (depth - 1)))
  | _ ->
      Json.Obj
        (List.init (Rng.int rng 4) (fun i ->
             (Fmt.str "k%d_%s" i (gen_string rng), gen_value rng (depth - 1))))

let test_value_roundtrip_fuzz seed () =
  let rng = Rng.create ~seed in
  for _ = 1 to 300 do
    check_roundtrip (gen_value rng 5)
  done

let gen_event rng =
  let opt f = if Rng.bool rng then Some (f ()) else None in
  {
    Events.ts = Rng.int rng 1_000_000;
    name = (match gen_string rng with "" -> "e" | s -> s);
    cat = "fuzz";
    phase =
      Rng.pick rng
        [ Events.Instant; Events.Begin; Events.End; Events.Async_begin; Events.Async_end ];
    proc = opt (fun () -> Rng.int rng 64);
    worker = opt (fun () -> Rng.int rng 8);
    id = opt (fun () -> Rng.int rng 1_000);
    args = List.init (Rng.int rng 3) (fun i -> (Fmt.str "a%d" i, gen_value rng 2));
  }

let test_event_roundtrip_fuzz seed () =
  let rng = Rng.create ~seed in
  for _ = 1 to 300 do
    let e = gen_event rng in
    let line = Json.to_string (Events.event_to_json e) in
    match Json.of_string line with
    | Error err -> Alcotest.failf "event line %s does not parse: %s" line err
    | Ok j -> (
        match Events.event_of_json j with
        | Error err -> Alcotest.failf "event %s does not decode: %s" line err
        | Ok e' ->
            Alcotest.(check string) "event roundtrip" line
              (Json.to_string (Events.event_to_json e')))
  done

(* random byte soup must produce Error or a value that re-emits
   parseably — never an exception *)
let test_parser_never_raises seed () =
  let rng = Rng.create ~seed in
  for _ = 1 to 500 do
    let s =
      String.init (Rng.int rng 24) (fun _ ->
          Rng.pick rng [ '{'; '}'; '['; ']'; '"'; ':'; ','; '0'; '9'; '-'; '.';
                         'e'; 't'; 'f'; 'n'; 'u'; '\\'; ' '; 'x' ])
    in
    match Json.of_string s with
    | Error _ -> ()
    | Ok v -> check_roundtrip v
  done

let () =
  Alcotest.run "json"
    [
      ( "nesting",
        [
          Alcotest.test_case "deep lists" `Quick test_deep_lists;
          Alcotest.test_case "deep objects" `Quick test_deep_objects;
          Alcotest.test_case "unbalanced" `Quick test_unbalanced_nesting;
        ] );
      ( "escapes",
        [
          Alcotest.test_case "decode" `Quick test_escapes_decode;
          Alcotest.test_case "reject" `Quick test_escapes_reject;
          Alcotest.test_case "emit" `Quick test_escape_emit;
        ] );
      ( "malformed",
        [
          Alcotest.test_case "truncated" `Quick test_truncated;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "numbers" `Quick test_numbers;
        ] );
      ( "events",
        [
          Alcotest.test_case "unknown fields tolerated" `Quick test_event_unknown_fields;
          Alcotest.test_case "missing/bad fields rejected" `Quick
            test_event_missing_fields;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "value roundtrip (seed 3)" `Quick (test_value_roundtrip_fuzz 3);
          Alcotest.test_case "value roundtrip (seed 17)" `Quick
            (test_value_roundtrip_fuzz 17);
          Alcotest.test_case "event roundtrip (seed 5)" `Quick (test_event_roundtrip_fuzz 5);
          Alcotest.test_case "parser never raises (seed 9)" `Quick
            (test_parser_never_raises 9);
        ] );
    ]
