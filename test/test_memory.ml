(* Tests for the shared-memory substrate: registers, stores, traces. *)

module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Trace = Setsync_memory.Trace

let test_register_read_write () =
  let r = Register.make ~name:"r" ~id:0 5 in
  Alcotest.(check int) "initial" 5 (Register.read r);
  Register.write r 9;
  Alcotest.(check int) "after write" 9 (Register.read r);
  Alcotest.(check int) "reads counted" 2 (Register.reads r);
  Alcotest.(check int) "writes counted" 1 (Register.writes r)

let test_register_peek_poke_uncounted () =
  let r = Register.make ~name:"r" ~id:0 1 in
  Register.poke r 7;
  Alcotest.(check int) "poked" 7 (Register.peek r);
  Alcotest.(check int) "no reads" 0 (Register.reads r);
  Alcotest.(check int) "no writes" 0 (Register.writes r)

let test_register_polymorphic () =
  let r = Register.make ~name:"opt" ~id:1 (None : (int * string) option) in
  Register.write r (Some (3, "x"));
  Alcotest.(check bool) "holds structured value" true (Register.read r = Some (3, "x"))

let test_store_allocation () =
  let store = Store.create () in
  let a = Store.register store ~name:"a" 0 in
  let b = Store.register store ~name:"b" 0 in
  Alcotest.(check int) "ids distinct" 1 (Register.id b - Register.id a);
  Alcotest.(check int) "count" 2 (Store.register_count store);
  ignore (Register.read a);
  Register.write b 1;
  Alcotest.(check int) "total reads" 1 (Store.total_reads store);
  Alcotest.(check int) "total writes" 1 (Store.total_writes store)

let test_store_array_matrix () =
  let store = Store.create () in
  let arr = Store.array store ~name:"v" 4 (fun i -> i * 10) in
  Alcotest.(check int) "array size" 4 (Array.length arr);
  Alcotest.(check int) "init by index" 30 (Register.peek arr.(3));
  Alcotest.(check string) "named" "v[2]" (Register.name arr.(2));
  let m = Store.matrix store ~name:"m" ~rows:2 ~cols:3 (fun r c -> (r * 10) + c) in
  Alcotest.(check int) "matrix value" 12 (Register.peek m.(1).(2));
  Alcotest.(check string) "matrix name" "m[1][2]" (Register.name m.(1).(2));
  Alcotest.(check int) "register count" 10 (Store.register_count store)

let test_trace_records () =
  let trace = Trace.create ~capacity:16 in
  let store = Store.create ~trace () in
  let r = Store.register store ~pp:Fmt.int ~name:"r" 0 in
  Register.write r 42;
  ignore (Register.read r);
  let entries = Trace.entries trace in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  (match entries with
  | [ w; rd ] ->
      Alcotest.(check string) "write value printed" "42" w.Trace.value;
      Alcotest.(check bool) "kinds" true (w.Trace.kind = Trace.Write && rd.Trace.kind = Trace.Read)
  | _ -> Alcotest.fail "expected two entries");
  Alcotest.(check int) "recorded total" 2 (Trace.recorded trace)

let test_trace_ring_capacity () =
  let trace = Trace.create ~capacity:4 in
  for i = 1 to 10 do
    Trace.record trace ~register:"r" ~kind:Trace.Write ~value:(string_of_int i)
  done;
  let entries = Trace.entries trace in
  Alcotest.(check int) "capped" 4 (List.length entries);
  Alcotest.(check (list string)) "keeps most recent, oldest first" [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Trace.value) entries);
  Alcotest.(check int) "recorded total uncapped" 10 (Trace.recorded trace);
  Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.entries trace))

let test_trace_disabled_by_default () =
  let store = Store.create () in
  Alcotest.(check bool) "no trace" true (Store.trace store = None)

let test_trace_invalid_capacity () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Trace.create: capacity must be positive")
    (fun () -> ignore (Trace.create ~capacity:0))

(* Pin last/recent/clear across wraparound: entries is oldest first,
   recent is newest first, and clear makes the trace behave exactly as
   freshly created (recorded resets, sequence numbers restart). *)
let test_trace_last_recent_wraparound () =
  let trace = Trace.create ~capacity:4 in
  Alcotest.(check bool) "last on empty" true (Trace.last trace = None);
  Alcotest.(check int) "recent on empty" 0 (List.length (Trace.recent trace 3));
  for i = 1 to 10 do
    Trace.record trace ~register:"r" ~kind:Trace.Write ~value:(string_of_int i)
  done;
  (match Trace.last trace with
  | Some e ->
      Alcotest.(check string) "last is newest" "10" e.Trace.value;
      Alcotest.(check int) "last seq" 9 e.Trace.seq
  | None -> Alcotest.fail "last after records");
  Alcotest.(check (list string)) "recent newest first" [ "10"; "9"; "8" ]
    (List.map (fun e -> e.Trace.value) (Trace.recent trace 3));
  Alcotest.(check (list string)) "recent capped at retention" [ "10"; "9"; "8"; "7" ]
    (List.map (fun e -> e.Trace.value) (Trace.recent trace 100));
  Alcotest.(check (list string)) "entries oldest first = reversed recent"
    (List.rev (List.map (fun e -> e.Trace.value) (Trace.recent trace 4)))
    (List.map (fun e -> e.Trace.value) (Trace.entries trace))

let test_trace_clear_resets () =
  let trace = Trace.create ~capacity:4 in
  for i = 1 to 6 do
    Trace.record trace ~register:"r" ~kind:Trace.Read ~value:(string_of_int i)
  done;
  Trace.clear trace;
  Alcotest.(check int) "recorded reset" 0 (Trace.recorded trace);
  Alcotest.(check bool) "last cleared" true (Trace.last trace = None);
  Alcotest.(check int) "recent cleared" 0 (List.length (Trace.recent trace 4));
  (* records after clear start a fresh sequence, exactly as after create *)
  Trace.record trace ~register:"r" ~kind:Trace.Write ~value:"fresh";
  Alcotest.(check int) "recorded restarts" 1 (Trace.recorded trace);
  match Trace.last trace with
  | Some e ->
      Alcotest.(check int) "seq restarts at 0" 0 e.Trace.seq;
      Alcotest.(check string) "value" "fresh" e.Trace.value
  | None -> Alcotest.fail "last after clear+record"

let test_trace_unprintable_value () =
  let trace = Trace.create ~capacity:4 in
  let store = Store.create ~trace () in
  let r = Store.register store ~name:"r" 0 in
  (* no pp provided *)
  Register.write r 3;
  match Trace.entries trace with
  | [ e ] -> Alcotest.(check string) "placeholder" "<value>" e.Trace.value
  | _ -> Alcotest.fail "expected one entry"

(* The memoizing renderer returns exactly [Store.snapshot]'s list after
   any sequence of writes — printed, pp-less (opaque) and boxed values,
   physically new but equal values, and registers allocated after the
   first render — and re-renders only what changed. *)
let test_store_memoized () =
  let s, memo = Store.memoized () in
  let ints = Store.array s ~pp:Fmt.int ~name:"i" 4 (fun i -> i) in
  let opaque = Store.register s ~name:"o" (Some [ 1; 2 ]) in
  let pair = Store.register s ~pp:Fmt.(pair ~sep:comma int string) ~name:"p" (0, "a") in
  let same label =
    Alcotest.(check (list (pair string string))) label (Store.snapshot s) (memo ())
  in
  same "initial";
  let rng = Random.State.make [| 7 |] in
  for step = 1 to 200 do
    (match Random.State.int rng 4 with
    | 0 -> Register.write ints.(Random.State.int rng 4) (Random.State.int rng 5)
    | 1 -> Register.write opaque (if Random.State.bool rng then None else Some [ step ])
    | 2 -> Register.write pair (Random.State.int rng 3, String.make 1 'b')
    | _ -> Register.poke ints.(0) (Register.peek ints.(0)));
    same (Printf.sprintf "after write %d" step)
  done;
  let late = Store.register s ~pp:Fmt.string ~name:"late" "x" in
  same "late register picked up";
  Register.write late "y";
  same "late register re-rendered";
  (* an unchanged register keeps its entry: the same physical pair *)
  let entry name l = List.find (fun (n, _) -> n = name) l in
  Alcotest.(check bool) "unchanged entry is reused" true
    (entry "i[1]" (memo ()) == entry "i[1]" (memo ()))

let () =
  Alcotest.run "setsync_memory"
    [
      ( "register",
        [
          Alcotest.test_case "read/write" `Quick test_register_read_write;
          Alcotest.test_case "peek/poke uncounted" `Quick test_register_peek_poke_uncounted;
          Alcotest.test_case "polymorphic values" `Quick test_register_polymorphic;
        ] );
      ( "store",
        [
          Alcotest.test_case "allocation" `Quick test_store_allocation;
          Alcotest.test_case "array/matrix" `Quick test_store_array_matrix;
          Alcotest.test_case "memoizing snapshot renderer" `Quick test_store_memoized;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records operations" `Quick test_trace_records;
          Alcotest.test_case "ring capacity" `Quick test_trace_ring_capacity;
          Alcotest.test_case "last/recent across wraparound" `Quick
            test_trace_last_recent_wraparound;
          Alcotest.test_case "clear resets to fresh" `Quick test_trace_clear_resets;
          Alcotest.test_case "disabled by default" `Quick test_trace_disabled_by_default;
          Alcotest.test_case "invalid capacity" `Quick test_trace_invalid_capacity;
          Alcotest.test_case "value without printer" `Quick test_trace_unprintable_value;
        ] );
    ]
