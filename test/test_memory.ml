(* Tests for the shared-memory substrate: registers and stores. *)

module Register = Setsync_memory.Register
module Store = Setsync_memory.Store

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
  Alcotest.(check int) "count" 2 (Store.register_count store)

let test_store_array_matrix () =
  let store = Store.create () in
  let arr = Store.array store ~name:"v" 4 (fun i -> i * 10) in
  Alcotest.(check int) "array size" 4 (Array.length arr);
  Alcotest.(check int) "init by index" 30 (Register.peek arr.(3));
  Alcotest.(check string) "named" "v[2]" (Register.name arr.(2));
  let m = Store.matrix store ~name:"m" ~rows:2 ~cols:3 (fun r c -> (r * 10) + c) in
  Alcotest.(check int) "matrix value" 12 (Register.peek m.(1).(2));
  Alcotest.(check string) "matrix name" "m[1][2]" (Register.name m.(1).(2));
  Alcotest.(check int) "register count" 10 (Store.register_count store);
  (* names are written digit by digit into one string: multi-digit
     indices, in either position, byte for byte *)
  let wide = Store.array store ~name:"v" 11 (fun _ -> 0) in
  Alcotest.(check string) "two-digit index" "v[10]" (Register.name wide.(10));
  let big = Store.matrix store ~name:"m" ~rows:13 ~cols:11 (fun _ _ -> 0) in
  Alcotest.(check string) "two-digit row" "m[12][3]" (Register.name big.(12).(3));
  Alcotest.(check string) "last one-digit column" "m[0][9]" (Register.name big.(0).(9));
  Alcotest.(check string) "two-digit row and column" "m[10][10]"
    (Register.name big.(10).(10))

(* The store's hook sees the id and mode of every counted access, and
   nothing of observer reads and writes or savepoint restores. *)
let test_store_access_hook () =
  let seen = ref [] in
  let store = Store.create ~hook:(fun id mode -> seen := (id, mode) :: !seen) () in
  let a = Store.register store ~name:"a" 0 in
  let b = Store.register store ~name:"b" 0 in
  let restore = Store.save store in
  Register.write b 1;
  ignore (Register.read a);
  ignore (Register.read b);
  ignore (Register.peek a);
  Register.poke a 5;
  restore ();
  ignore (Store.snapshot store);
  Alcotest.(check (list int)) "counted accesses, in order"
    [ Register.id b; Register.id a; Register.id b ]
    (List.rev_map fst !seen);
  Alcotest.(check (list bool)) "their modes: write b, read a, read b"
    [ true; false; false ]
    (List.rev_map (fun (_, mode) -> mode = Register.Write) !seen)

(* Checkpoints are a stack over per-depth buffers: one restores any
   number of times, including a float register and a register
   allocated before the first checkpoint only; a shallower restore
   frees the depths above it and a saved-over checkpoint raises.
   [Store.save] restores in any order. *)
let test_store_checkpoints () =
  let store = Store.create () in
  let a = Store.register store ~pp:Fmt.int ~name:"a" 1 in
  let f = Store.register store ~pp:Fmt.float ~name:"f" 0.5 in
  let values () = (Register.peek a, Register.peek f) in
  let set x =
    Register.poke a x;
    Register.poke f (float_of_int x)
  in
  let outer = Store.checkpoint store in
  List.iter
    (fun x ->
      set x;
      outer ();
      Alcotest.(check (pair int (float 0.))) "outer restored" (1, 0.5) (values ()))
    [ 2; 3; 4 ];
  set 5;
  let inner = Store.checkpoint store in
  set 6;
  inner ();
  Alcotest.(check (pair int (float 0.))) "inner restored" (5, 5.) (values ());
  outer ();
  set 7;
  let _reused = Store.checkpoint store in
  (match inner () with
  | () -> Alcotest.fail "a saved-over checkpoint restored"
  | exception Invalid_argument _ -> ());
  outer ();
  Alcotest.(check (pair int (float 0.))) "outer still restores" (1, 0.5) (values ());
  let saves =
    List.map
      (fun x ->
        set x;
        (x, Store.save store))
      [ 10; 11; 12 ]
  in
  List.iter
    (fun x ->
      (List.assoc x saves) ();
      Alcotest.(check int) "any-order save" x (Register.peek a))
    [ 11; 10; 12; 10 ]

let test_register_render () =
  let r = Register.make ~pp:Fmt.int ~name:"r" ~id:0 0 in
  let bare = Register.make ~name:"s" ~id:1 0 in
  Alcotest.(check string) "printed" "42" (Register.render r 42);
  Alcotest.(check string) "placeholder" "<value>" (Register.render bare 3)

(* A memoized store's key after any sequence of writes — printed,
   pp-less and boxed values, physically new but equal values, and
   registers allocated after the first key — equals the key of a fresh
   store allocated alike with the same values, and changes with them. *)
let test_store_key () =
  let alloc ints opaque pair late =
    let s = Store.memoized () in
    let i = Store.array s ~pp:Fmt.int ~name:"i" 4 (Array.get ints) in
    let o = Store.register s ~name:"o" opaque in
    let p = Store.register s ~pp:Fmt.(pair ~sep:comma int string) ~name:"p" pair in
    let l = Option.map (fun v -> Store.register s ~pp:Fmt.string ~name:"late" v) late in
    (s, i, o, p, l)
  in
  let s, ints, opaque, pair, _ = alloc [| 0; 1; 2; 3 |] (Some [ 1; 2 ]) (0, "a") None in
  let late = ref None in
  let fresh () =
    let f, _, _, _, _ =
      alloc (Array.map Register.peek ints) (Register.peek opaque) (Register.peek pair)
        (Option.map Register.peek !late)
    in
    Store.key f
  in
  let keys = Hashtbl.create 64 in
  let same label =
    let k = Store.key s in
    Alcotest.(check int) label (fresh ()) k;
    match Hashtbl.find_opt keys (Store.snapshot s) with
    | Some seen -> Alcotest.(check int) (label ^ ": snapshot seen before") seen k
    | None -> Hashtbl.add keys (Store.snapshot s) k
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
  late := Some (Store.register s ~pp:Fmt.string ~name:"late" "x");
  same "late register picked up";
  Register.write (Option.get !late) "y";
  same "late register re-hashed";
  (* distinct snapshots got distinct keys *)
  let distinct = Hashtbl.fold (fun _ k acc -> k :: acc) keys [] in
  Alcotest.(check int) "one key per snapshot" (Hashtbl.length keys)
    (List.length (List.sort_uniq Int.compare distinct))

let () =
  Alcotest.run "setsync_memory"
    [
      ( "register",
        [
          Alcotest.test_case "read/write" `Quick test_register_read_write;
          Alcotest.test_case "peek/poke uncounted" `Quick test_register_peek_poke_uncounted;
          Alcotest.test_case "polymorphic values" `Quick test_register_polymorphic;
          Alcotest.test_case "value without printer" `Quick test_register_render;
        ] );
      ( "store",
        [
          Alcotest.test_case "allocation" `Quick test_store_allocation;
          Alcotest.test_case "array/matrix" `Quick test_store_array_matrix;
          Alcotest.test_case "access hook sees counted ids only" `Quick test_store_access_hook;
          Alcotest.test_case "checkpoints are a stack" `Quick test_store_checkpoints;
          Alcotest.test_case "memoized key tracks values" `Quick test_store_key;
        ] );
    ]
