(* Tests for the schedule substrate: process sets, schedules, set
   timeliness (Definition 1), systems S^i_{j,n} (Observations 2-5) and
   the generator contracts. *)

open Setsync_schedule

let procset = Alcotest.testable Procset.pp Procset.equal

let schedule = Alcotest.testable Schedule.pp Schedule.equal

(* ------------------------------------------------------------------ *)
(* Procset *)

let test_procset_basics () =
  let s = Procset.of_list [ 0; 2; 4 ] in
  Alcotest.(check int) "cardinal" 3 (Procset.cardinal s);
  Alcotest.(check bool) "mem 0" true (Procset.mem 0 s);
  Alcotest.(check bool) "mem 1" false (Procset.mem 1 s);
  Alcotest.(check int) "min_elt" 0 (Procset.min_elt s);
  Alcotest.(check (list int)) "elements" [ 0; 2; 4 ] (Procset.elements s);
  Alcotest.(check int) "nth 1" 2 (Procset.nth s 1);
  Alcotest.(check int) "nth 2" 4 (Procset.nth s 2)

let test_procset_algebra () =
  let a = Procset.of_list [ 0; 1 ] and b = Procset.of_list [ 1; 2 ] in
  Alcotest.check procset "union" (Procset.of_list [ 0; 1; 2 ]) (Procset.union a b);
  Alcotest.check procset "inter" (Procset.singleton 1) (Procset.inter a b);
  Alcotest.check procset "diff" (Procset.singleton 0) (Procset.diff a b);
  Alcotest.(check bool) "subset yes" true (Procset.subset a (Procset.of_list [ 0; 1; 2 ]));
  Alcotest.(check bool) "subset no" false (Procset.subset a b);
  Alcotest.(check bool) "disjoint no" false (Procset.disjoint a b);
  Alcotest.(check bool)
    "disjoint yes" true
    (Procset.disjoint a (Procset.of_list [ 2; 3 ]));
  Alcotest.check procset "empty diff" Procset.empty (Procset.diff a a)

let test_procset_full_remove () =
  let full = Procset.full ~n:5 in
  Alcotest.(check int) "full cardinal" 5 (Procset.cardinal full);
  let without = Procset.remove 2 full in
  Alcotest.(check int) "remove cardinal" 4 (Procset.cardinal without);
  Alcotest.(check bool) "removed" false (Procset.mem 2 without);
  Alcotest.check procset "add back" full (Procset.add 2 without)

let test_subsets_of_size () =
  let subsets = Procset.subsets_of_size ~n:4 2 in
  Alcotest.(check int) "C(4,2)" 6 (List.length subsets);
  Alcotest.(check int) "count matches" (Procset.count_subsets ~n:4 2) (List.length subsets);
  List.iter
    (fun s -> Alcotest.(check int) "each size 2" 2 (Procset.cardinal s))
    subsets;
  (* canonical order is strictly increasing *)
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "ascending" true (Procset.compare a b < 0);
        ascending rest
    | [ _ ] | [] -> ()
  in
  ascending subsets;
  (* all distinct *)
  Alcotest.(check int) "distinct" 6
    (List.length (List.sort_uniq Procset.compare subsets))

let test_subsets_edge_sizes () =
  Alcotest.(check int) "k=0" 1 (List.length (Procset.subsets_of_size ~n:4 0));
  Alcotest.(check int) "k=n" 1 (List.length (Procset.subsets_of_size ~n:4 4));
  Alcotest.check procset "k=n is full" (Procset.full ~n:4)
    (List.hd (Procset.subsets_of_size ~n:4 4));
  Alcotest.(check int) "C(6,3)" 20 (List.length (Procset.subsets_of_size ~n:6 3));
  Alcotest.(check int) "C(10,5)" 252 (Procset.count_subsets ~n:10 5)

let test_procset_invalid () =
  Alcotest.check_raises "negative proc" (Invalid_argument "Procset: process -1 out of range")
    (fun () -> ignore (Procset.singleton (-1)));
  Alcotest.check_raises "nth out of range"
    (Invalid_argument "Procset.nth: rank 1 out of range") (fun () ->
      ignore (Procset.nth (Procset.singleton 0) 1))

(* ------------------------------------------------------------------ *)
(* Schedule *)

let test_schedule_basics () =
  let s = Schedule.of_list ~n:3 [ 0; 1; 2; 1; 0 ] in
  Alcotest.(check int) "length" 5 (Schedule.length s);
  Alcotest.(check int) "get 0" 0 (Schedule.get s 0);
  Alcotest.(check int) "get 3" 1 (Schedule.get s 3);
  Alcotest.(check int) "occurrences p1" 2 (Schedule.occurrences s 0);
  Alcotest.(check int) "occurrences p2" 2 (Schedule.occurrences s 1);
  Alcotest.(check int) "occurrences p3" 1 (Schedule.occurrences s 2);
  Alcotest.check procset "support" (Procset.full ~n:3) (Schedule.support s);
  Alcotest.(check (option int)) "last p1" (Some 4) (Schedule.last_occurrence s 0);
  Alcotest.(check (option int)) "last p3" (Some 2) (Schedule.last_occurrence s 2)

let test_schedule_concat_repeat () =
  let a = Schedule.of_list ~n:2 [ 0; 1 ] in
  let twice = Schedule.repeat a 2 in
  Alcotest.check schedule "repeat" (Schedule.of_list ~n:2 [ 0; 1; 0; 1 ]) twice;
  Alcotest.check schedule "append" twice (Schedule.append a a);
  Alcotest.check schedule "concat" (Schedule.repeat a 3) (Schedule.concat ~n:2 [ a; a; a ]);
  Alcotest.check schedule "repeat 0" (Schedule.empty ~n:2) (Schedule.repeat a 0);
  Alcotest.check schedule "prefix" a (Schedule.prefix twice 2);
  Alcotest.check schedule "prefix beyond" twice (Schedule.prefix twice 99);
  Alcotest.check schedule "sub" (Schedule.of_list ~n:2 [ 1; 0 ]) (Schedule.sub twice ~pos:1 ~len:2)

let test_schedule_occurrences_in () =
  let s = Schedule.of_list ~n:4 [ 0; 1; 2; 3; 0; 1 ] in
  Alcotest.(check int) "in {0,1}" 4 (Schedule.occurrences_in s (Procset.of_list [ 0; 1 ]));
  Alcotest.(check int) "in empty" 0 (Schedule.occurrences_in s Procset.empty);
  Alcotest.(check int) "in full" 6 (Schedule.occurrences_in s (Procset.full ~n:4));
  Alcotest.(check (list int)) "steps per process" [ 2; 2; 1; 1 ]
    (Array.to_list (Schedule.steps_per_process s))

let test_schedule_universe_mismatch () =
  let a = Schedule.of_list ~n:2 [ 0 ] and b = Schedule.of_list ~n:3 [ 0 ] in
  Alcotest.check_raises "append mismatch"
    (Invalid_argument "Schedule.append: universe mismatch") (fun () ->
      ignore (Schedule.append a b))

(* ------------------------------------------------------------------ *)
(* Source *)

let test_source_of_schedule () =
  let s = Schedule.of_list ~n:2 [ 0; 1; 1 ] in
  let src = Source.of_schedule s in
  Alcotest.check schedule "take all" s (Source.take src 10);
  Alcotest.(check (option int)) "exhausted" None (Source.next src)

let test_source_cycle () =
  let s = Schedule.of_list ~n:2 [ 0; 1 ] in
  let src = Source.cycle s in
  Alcotest.check schedule "cycled" (Schedule.repeat s 3) (Source.take src 6)

let test_source_append_filtered () =
  let a = Source.of_schedule (Schedule.of_list ~n:3 [ 0; 0 ]) in
  let b = Source.of_schedule (Schedule.of_list ~n:3 [ 1; 2 ]) in
  let joined = Source.append a b in
  Alcotest.check schedule "append drains both" (Schedule.of_list ~n:3 [ 0; 0; 1; 2 ])
    (Source.take joined 10);
  let src = Source.of_schedule (Schedule.of_list ~n:3 [ 0; 1; 2; 1; 0 ]) in
  let filtered = Source.filtered src ~keep:(fun p -> p <> 1) ~max_skip:5 in
  Alcotest.check schedule "filtered" (Schedule.of_list ~n:3 [ 0; 2; 0 ])
    (Source.take filtered 10)

(* ------------------------------------------------------------------ *)
(* Timeliness: Definition 1 *)

let fig1_prefix len = Source.take (Generators.figure1 ()) len

let test_figure1_shape () =
  (* (p1 q) (p2 q) (p1 q)^2 (p2 q)^2 (p1 q)^3 ... *)
  let s = fig1_prefix 12 in
  Alcotest.check schedule "first blocks"
    (Schedule.of_list ~n:3 [ 0; 2; 1; 2; 0; 2; 0; 2; 1; 2; 1; 2 ])
    s

let test_figure1_timeliness () =
  (* the paper's Figure 1: neither {p1} nor {p2} is timely w.r.t. {q},
     but {p1, p2} is (with bound 2) *)
  let s = fig1_prefix 10_000 in
  let p1 = Procset.singleton 0 and p2 = Procset.singleton 1 and q = Procset.singleton 2 in
  let pair = Procset.union p1 p2 in
  Alcotest.(check int) "pair bound = 2" 2 (Timeliness.observed_bound ~p:pair ~q s);
  Alcotest.(check bool) "pair holds at 2" true (Timeliness.holds ~bound:2 ~p:pair ~q s);
  Alcotest.(check bool) "pair fails at 1" false (Timeliness.holds ~bound:1 ~p:pair ~q s);
  (* singleton bounds grow with the prefix *)
  let b1 = Timeliness.observed_bound ~p:p1 ~q s in
  let b2 = Timeliness.observed_bound ~p:p2 ~q s in
  Alcotest.(check bool) "p1 bound large" true (b1 > 20);
  Alcotest.(check bool) "p2 bound large" true (b2 > 20);
  let longer = fig1_prefix 40_000 in
  Alcotest.(check bool) "p1 bound grows" true
    (Timeliness.observed_bound ~p:p1 ~q longer > b1)

let test_timeliness_bound_exact () =
  (* q q p q q q p: max P-free gap has 3 q-steps -> bound 4 *)
  let s = Schedule.of_list ~n:2 [ 1; 1; 0; 1; 1; 1; 0 ] in
  let p = Procset.singleton 0 and q = Procset.singleton 1 in
  Alcotest.(check int) "bound" 4 (Timeliness.observed_bound ~p ~q s);
  Alcotest.(check bool) "holds at 4" true (Timeliness.holds ~bound:4 ~p ~q s);
  Alcotest.(check bool) "fails at 3" false (Timeliness.holds ~bound:3 ~p ~q s)

let test_timeliness_trailing_gap () =
  (* the gap after the last P step counts too *)
  let s = Schedule.of_list ~n:2 [ 0; 1; 1; 1; 1; 1 ] in
  let p = Procset.singleton 0 and q = Procset.singleton 1 in
  Alcotest.(check int) "trailing gap" 6 (Timeliness.observed_bound ~p ~q s)

let test_timeliness_vacuous () =
  (* q never steps: timely at bound 1 *)
  let s = Schedule.of_list ~n:3 [ 0; 1; 0; 1 ] in
  let p = Procset.singleton 0 and q = Procset.singleton 2 in
  Alcotest.(check int) "vacuous bound" 1 (Timeliness.observed_bound ~p ~q s);
  (* self-timeliness: P = Q *)
  Alcotest.(check int) "self" 1 (Timeliness.observed_bound ~p ~q:p s);
  Alcotest.(check int) "self bound constant" 1 (Timeliness.self_timely_bound ())

let test_timeliness_overlap () =
  (* steps of P ∩ Q reset the gap (they are P-steps) *)
  let p = Procset.of_list [ 0; 1 ] and q = Procset.of_list [ 1; 2 ] in
  let s = Schedule.of_list ~n:3 [ 2; 2; 1; 2; 2; 0 ] in
  Alcotest.(check int) "overlap" 3 (Timeliness.observed_bound ~p ~q s)

(* Edge cases of Definition 1: empty witness sets, full overlap, and
   the boundary agreement [holds ~bound <-> observed_bound <= bound]
   that every caller of the pair implicitly assumes. *)
let test_timeliness_edges () =
  let p = Procset.singleton 0 and q = Procset.singleton 1 in
  (* empty q: no window contains a Q-step, so timeliness is vacuous at
     the least possible bound, whatever p is *)
  let s = Schedule.of_list ~n:2 [ 0; 1; 1; 0 ] in
  Alcotest.(check int) "empty q is vacuous" 1
    (Timeliness.observed_bound ~p ~q:Procset.empty s);
  Alcotest.(check int) "empty q, empty p still vacuous" 1
    (Timeliness.observed_bound ~p:Procset.empty ~q:Procset.empty s);
  Alcotest.(check bool) "empty q holds at 1" true
    (Timeliness.holds ~bound:1 ~p ~q:Procset.empty s);
  (* empty p: the whole schedule is one P-free gap *)
  Alcotest.(check int) "empty p counts every q step" 3
    (Timeliness.observed_bound ~p:Procset.empty ~q s);
  (* empty schedule: no window at all *)
  let nil = Schedule.of_list ~n:2 [] in
  Alcotest.(check int) "empty schedule" 1 (Timeliness.observed_bound ~p ~q nil);
  (* q a subset of p: every Q-step is itself a P-step — P wins on
     every overlap, bound collapses to self-timeliness *)
  let big_p = Procset.of_list [ 0; 1 ] in
  let s = Schedule.of_list ~n:3 [ 1; 1; 2; 1; 2; 2; 1 ] in
  Alcotest.(check int) "q within p is self-timely" 1
    (Timeliness.observed_bound ~p:big_p ~q s);
  (* partial overlap: only the q-steps outside p accumulate (the
     longest p-free run of [s] has two 2-steps -> bound 3) *)
  let q2 = Procset.of_list [ 1; 2 ] in
  Alcotest.(check int) "only q-steps outside p count" 3
    (Timeliness.observed_bound ~p:big_p ~q:q2 s);
  (* boundary agreement, swept across the pivot on several shapes *)
  let shapes =
    [
      Schedule.of_list ~n:3 [ 1; 1; 0; 1; 1; 1; 0 ];
      Schedule.of_list ~n:3 [ 0; 1; 1; 1; 1; 1 ];
      Schedule.of_list ~n:3 [ 2; 2; 1; 2; 2; 0 ];
      nil;
    ]
  in
  List.iter
    (fun s ->
      let b = Timeliness.observed_bound ~p ~q:q2 s in
      for bound = 1 to b + 2 do
        Alcotest.(check bool)
          (Fmt.str "holds at %d agrees with observed %d" bound b)
          (bound >= b)
          (Timeliness.holds ~bound ~p ~q:q2 s)
      done)
    shapes;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Timeliness.holds: bound must be >= 1") (fun () ->
      ignore (Timeliness.holds ~bound:0 ~p ~q nil))

let test_process_timely () =
  let s = fig1_prefix 1000 in
  Alcotest.(check bool) "p1 not timely wrt q at 5" false
    (Timeliness.process_timely ~bound:5 ~p:0 ~q:2 s);
  Alcotest.(check bool) "q timely wrt p1 at 2" true
    (Timeliness.process_timely ~bound:2 ~p:2 ~q:0 s)

(* Observation 2, quantitatively *)
let test_union_bound () =
  Alcotest.(check int) "1+1" 1 (Timeliness.union_bound 1 1);
  Alcotest.(check int) "3+4" 6 (Timeliness.union_bound 3 4);
  Alcotest.check_raises "invalid" (Invalid_argument "Timeliness.union_bound") (fun () ->
      ignore (Timeliness.union_bound 0 1))

(* ------------------------------------------------------------------ *)
(* Property tests: Observations 2 and 3 on random schedules *)

let rng_state seed = Setsync_schedule.Rng.create ~seed

let random_schedule rng ~n ~len =
  Schedule.of_list ~n (List.init len (fun _ -> Rng.int rng n))

let random_set rng ~n =
  let size = 1 + Rng.int rng n in
  Procset.random_subset rng ~n ~size

let prop_observation2 =
  QCheck2.Test.make ~name:"Observation 2: union of timely pairs is timely (bound arithmetic)"
    ~count:300 QCheck2.Gen.(pair (int_bound 10_000) (int_range 4 8))
    (fun (seed, n) ->
      let rng = rng_state (seed + 1) in
      let s = random_schedule rng ~n ~len:400 in
      let p = random_set rng ~n and p' = random_set rng ~n in
      let q = random_set rng ~n and q' = random_set rng ~n in
      let b1 = Timeliness.observed_bound ~p ~q s in
      let b2 = Timeliness.observed_bound ~p:p' ~q:q' s in
      Timeliness.holds
        ~bound:(Timeliness.union_bound b1 b2)
        ~p:(Procset.union p p') ~q:(Procset.union q q') s)

let prop_observation3 =
  QCheck2.Test.make
    ~name:"Observation 3: superset of P / subset of Q preserves timeliness" ~count:300
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 4 8))
    (fun (seed, n) ->
      let rng = rng_state (seed + 2) in
      let s = random_schedule rng ~n ~len:400 in
      let p = random_set rng ~n and q = random_set rng ~n in
      let p' = Procset.union p (random_set rng ~n) in
      let q' = Procset.inter q (random_set rng ~n) in
      Timeliness.monotone ~p ~p' ~q ~q'
      &&
      let b = Timeliness.observed_bound ~p ~q s in
      Timeliness.holds ~bound:b ~p:p' ~q:q' s)

let prop_observed_bound_least =
  QCheck2.Test.make ~name:"observed_bound is the least valid bound" ~count:300
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 3 6))
    (fun (seed, n) ->
      let rng = rng_state (seed + 3) in
      let s = random_schedule rng ~n ~len:200 in
      let p = random_set rng ~n and q = random_set rng ~n in
      let b = Timeliness.observed_bound ~p ~q s in
      Timeliness.holds ~bound:b ~p ~q s
      && (b = 1 || not (Timeliness.holds ~bound:(b - 1) ~p ~q s)))

let prop_prefix_monotone =
  QCheck2.Test.make ~name:"observed_bound is monotone in the prefix" ~count:200
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 3 6))
    (fun (seed, n) ->
      let rng = rng_state (seed + 4) in
      let s = random_schedule rng ~n ~len:300 in
      let p = random_set rng ~n and q = random_set rng ~n in
      let b_half = Timeliness.observed_bound ~p ~q (Schedule.prefix s 150) in
      let b_full = Timeliness.observed_bound ~p ~q s in
      b_half <= b_full)

(* Definition 1 from scratch, kept apart from the library's gap rule:
   the most Q-steps in any window free of P-steps (brute force over
   window starts), and the open gap by the backward scan the fuzzer's
   splice used before it read the monitor. *)
let reference_max_gap ~p ~q steps =
  let a = Array.of_list steps in
  let len = Array.length a in
  let worst = ref 0 in
  for start = 0 to len - 1 do
    let stop = ref start and count = ref 0 in
    while !stop < len && not (Procset.mem a.(!stop) p) do
      if Procset.mem a.(!stop) q then incr count;
      incr stop
    done;
    worst := max !worst !count
  done;
  !worst

let reference_open_gap ~p ~q steps =
  let rec scan acc = function
    | [] -> acc
    | x :: rest ->
        if Procset.mem x p then acc else scan (acc + if Procset.mem x q then 1 else 0) rest
  in
  scan 0 (List.rev steps)

(* Schedules lean towards processes outside P so that gaps get long,
   and a start gap stands for that many Q∖P steps before them. *)
let prop_monitor_matches_definition =
  QCheck2.Test.make ~name:"monitor = Definition 1 (worst gap, open gap, critical)"
    ~count:500
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 2 6))
    (fun (seed, n) ->
      let rng = rng_state (seed + 6) in
      let p = random_set rng ~n and q = random_set rng ~n in
      let outside = List.filter (fun x -> not (Procset.mem x p)) (Proc.all ~n) in
      let steps =
        List.init (Rng.int rng 60) (fun _ ->
            if outside <> [] && Rng.int rng 4 > 0 then Rng.pick rng outside else Rng.int rng n)
      in
      let q_only = Procset.elements (Procset.diff q p) in
      let gap = if q_only = [] then 0 else Rng.int rng 4 in
      let seeded = List.init gap (fun _ -> List.hd q_only) @ steps in
      let monitor = Timeliness.Monitor.of_schedule ~gap ~p ~q (Schedule.of_list ~n steps) in
      let holds ~bound steps = Timeliness.holds ~bound ~p ~q (Schedule.of_list ~n steps) in
      Timeliness.Monitor.worst_gap monitor = reference_max_gap ~p ~q seeded
      && Timeliness.max_gap ~p ~q (Schedule.of_list ~n seeded) = reference_max_gap ~p ~q seeded
      && Timeliness.Monitor.open_gap monitor = reference_open_gap ~p ~q seeded
      && List.for_all
           (fun bound ->
             q_only = []
             || (not (holds ~bound seeded))
             || Timeliness.Monitor.critical monitor ~bound
                = not (holds ~bound (seeded @ [ List.hd q_only ])))
           [ 1; 2; 3; 4; 5; 6 ])

(* ------------------------------------------------------------------ *)
(* System S^i_{j,n} *)

let test_system_make () =
  let d = System.make ~i:2 ~j:3 ~n:5 in
  Alcotest.(check string) "pp" "S^2_{3,5}" (System.to_string d);
  Alcotest.(check bool) "async no" false (System.is_asynchronous d);
  Alcotest.(check bool) "async yes" true
    (System.is_asynchronous (System.asynchronous ~n:5));
  Alcotest.check_raises "bad params"
    (Invalid_argument "System.make: need 1 <= i(3) <= j(2) <= n(5)") (fun () ->
      ignore (System.make ~i:3 ~j:2 ~n:5))

let test_system_member () =
  let s = fig1_prefix 5_000 in
  (* {p1,p2} timely wrt {q}: member of S^2_{1,3}... j >= i required, so
     check S^2_{3,3} via supersets: {p1,p2} wrt {p1,p2,q} *)
  let d = System.make ~i:2 ~j:3 ~n:3 in
  Alcotest.(check bool) "member at bound 4" true (System.member ~bound:4 d s);
  let d1 = System.make ~i:1 ~j:3 ~n:3 in
  (* the only singleton witness at small bound is {q} itself: q takes
     every other step; p1 and p2 are not timely *)
  let singleton_witnesses = System.witnesses ~bound:4 d1 s in
  Alcotest.(check (list (pair procset procset)))
    "only q is a singleton witness"
    [ (Procset.singleton 2, Procset.full ~n:3) ]
    singleton_witnesses;
  (* q is timely wrt {p1}: S^1_{1,3} is asynchronous anyway *)
  let witnesses = System.witnesses ~bound:4 d s in
  Alcotest.(check bool) "some witness" true (witnesses <> [])

let test_system_best_witness () =
  let s = fig1_prefix 5_000 in
  let d = System.make ~i:2 ~j:3 ~n:3 in
  let p, q, bound = System.best_witness d s in
  Alcotest.(check bool) "valid" true (Timeliness.holds ~bound ~p ~q s);
  Alcotest.(check int) "sizes" 2 (Procset.cardinal p);
  Alcotest.(check int) "sizes q" 3 (Procset.cardinal q)

let test_system_containment () =
  let d_strong = System.make ~i:1 ~j:5 ~n:5 in
  let d_weak = System.make ~i:2 ~j:3 ~n:5 in
  Alcotest.(check bool) "strong in weak" true (System.contained d_strong d_weak);
  Alcotest.(check bool) "weak not in strong" false (System.contained d_weak d_strong);
  (* everything is contained in the asynchronous system *)
  Alcotest.(check bool) "in async" true
    (System.contained d_weak (System.asynchronous ~n:5));
  Alcotest.(check bool) "async top only" false
    (System.contained (System.asynchronous ~n:5) d_weak)

let prop_observation4 =
  (* semantic containment: if d ⊆ d' syntactically then every schedule
     with a d-witness has a d'-witness at the same bound *)
  QCheck2.Test.make ~name:"Observation 4: containment is semantic" ~count:150
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let rng = rng_state (seed + 5) in
      let n = 4 + Rng.int rng 3 in
      let s = random_schedule rng ~n ~len:300 in
      let i = 1 + Rng.int rng n in
      let j = i + Rng.int rng (n - i + 1) in
      let i' = 1 + Rng.int rng n in
      let j' = i' + Rng.int rng (n - i' + 1) in
      let d = System.make ~i ~j ~n and d' = System.make ~i:i' ~j:j' ~n in
      (not (System.contained d d'))
      || (not (System.member ~bound:8 d s))
      || System.member ~bound:8 d' s)

let test_observation5 () =
  (* S^i_{i,n} admits every schedule: any set is timely wrt itself *)
  let rng = rng_state 99 in
  for _ = 1 to 20 do
    let n = 3 + Rng.int rng 4 in
    let s = random_schedule rng ~n ~len:200 in
    let i = 1 + Rng.int rng n in
    let d = System.make ~i ~j:i ~n in
    Alcotest.(check bool) "asynchronous admits all" true (System.member ~bound:1 d s)
  done

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_round_robin () =
  let src = Generators.round_robin ~n:3 () in
  Alcotest.check schedule "rr" (Schedule.of_list ~n:3 [ 0; 1; 2; 0; 1; 2 ]) (Source.take src 6)

let test_round_robin_liveness () =
  let dead = ref false in
  let live p = not (!dead && p = 1) in
  let src = Generators.round_robin ~live ~n:3 () in
  let first = Source.take src 3 in
  dead := true;
  let rest = Source.take src 4 in
  Alcotest.check schedule "before" (Schedule.of_list ~n:3 [ 0; 1; 2 ]) first;
  Alcotest.check schedule "after skips dead" (Schedule.of_list ~n:3 [ 0; 2; 0; 2 ]) rest

let test_timely_contract_holds () =
  let rng = rng_state 7 in
  let contract =
    { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 2; 3; 4 ]; bound = 3 }
  in
  let src = Generators.timely ~n:5 ~contract ~rng () in
  let s = Source.take src 30_000 in
  Alcotest.(check bool) "contract" true
    (Timeliness.holds ~bound:3 ~p:contract.Generators.p ~q:contract.Generators.q s);
  (* individual members are not timely at the contract bound *)
  Alcotest.(check bool) "singleton 0 not timely" false
    (Timeliness.holds ~bound:3 ~p:(Procset.singleton 0) ~q:contract.Generators.q s);
  (* fairness: everyone keeps taking steps *)
  Array.iter
    (fun c -> Alcotest.(check bool) "all scheduled" true (c > 100))
    (Schedule.steps_per_process s)

let test_timely_fairness_cap () =
  let rng = rng_state 8 in
  let contract =
    { Generators.p = Procset.singleton 0; q = Procset.of_list [ 1; 2 ]; bound = 2 }
  in
  let fairness = 64 in
  let src = Generators.timely ~fairness ~n:4 ~contract ~rng () in
  let s = Source.take src 20_000 in
  (* no process waits more than [fairness] steps between consecutive
     occurrences *)
  let last = Array.make 4 (-1) in
  let worst = ref 0 in
  Schedule.iteri
    (fun idx p ->
      if last.(p) >= 0 then worst := max !worst (idx - last.(p));
      last.(p) <- idx)
    s;
  Alcotest.(check bool)
    (Printf.sprintf "gap %d <= %d" !worst fairness)
    true (!worst <= fairness)

let test_timely_with_crashes () =
  let rng = rng_state 9 in
  let contract =
    { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 2; 3 ]; bound = 4 }
  in
  let live, observe = Generators.crash_after ~n:4 [ (1, 50); (3, 80) ] in
  let src = Generators.timely ~live ~n:4 ~contract ~rng () in
  let own = Array.make 4 0 in
  let steps = ref [] in
  let exhausted = ref false in
  for _ = 1 to 20_000 do
    if not !exhausted then
      match Source.next src with
      | None -> exhausted := true
      | Some p ->
          steps := p :: !steps;
          own.(p) <- own.(p) + 1;
          ignore (observe p own.(p))
  done;
  let s = Schedule.of_list ~n:4 (List.rev !steps) in
  Alcotest.(check bool) "contract survives crashes" true
    (Timeliness.holds ~bound:4 ~p:contract.Generators.p ~q:contract.Generators.q s);
  Alcotest.(check int) "p2 stopped at budget" 50 (Schedule.occurrences s 1);
  Alcotest.(check int) "p4 stopped at budget" 80 (Schedule.occurrences s 3)

let test_exclusive_timely_contract () =
  let contract =
    { Generators.p = Procset.singleton 0; q = Procset.of_list [ 0; 1 ]; bound = 3 }
  in
  let src = Generators.exclusive_timely ~n:5 ~contract ~defeat:2 () in
  let s = Source.take src 200_000 in
  Alcotest.(check bool) "contract" true
    (Timeliness.holds ~bound:3 ~p:contract.Generators.p ~q:contract.Generators.q s);
  (* nothing stronger: no 2-set is timely w.r.t. any 3-set at a
     moderate bound over a long prefix... except pairs inheriting from
     the contract; check a pair that cannot inherit *)
  Alcotest.(check bool) "{p2,p3} not timely wrt {p1,p4,p5}" false
    (Timeliness.holds ~bound:64
       ~p:(Procset.of_list [ 1; 2 ])
       ~q:(Procset.of_list [ 0; 3; 4 ])
       s);
  Array.iter
    (fun c -> Alcotest.(check bool) "everyone keeps stepping" true (c > 1000))
    (Schedule.steps_per_process s)

let test_starvation_adversary () =
  let src = Generators.starvation_adversary ~n:4 ~i:1 () in
  let s = Source.take src 150_000 in
  (* no singleton is timely w.r.t. any pair at bound 40 *)
  let d = System.make ~i:1 ~j:2 ~n:4 in
  Alcotest.(check bool) "defeats S^1_{2,4}" false (System.member ~bound:40 d s);
  Array.iter
    (fun c -> Alcotest.(check bool) "fair in the large" true (c > 10_000))
    (Schedule.steps_per_process s)

(* The three starvation adversaries share one phase clock, which
   rejects phases that would collapse to a step each. *)
let test_phase_parameters_invalid () =
  let contract =
    { Generators.p = Procset.singleton 0; q = Procset.of_list [ 0; 1 ]; bound = 3 }
  in
  List.iter
    (fun (phase0, growth) ->
      Alcotest.check_raises "starvation adversary"
        (Invalid_argument "Generators.starvation_adversary: bad phase parameters") (fun () ->
          ignore (Generators.starvation_adversary ~phase0 ~growth ~n:4 ~i:1 ()));
      Alcotest.check_raises "exclusive timely"
        (Invalid_argument "Generators.exclusive_timely: bad phase parameters") (fun () ->
          ignore (Generators.exclusive_timely ~phase0 ~growth ~n:5 ~contract ~defeat:2 ())))
    [ (0, 16); (32, -1) ]

let test_figure1_defaults_invalid () =
  Alcotest.check_raises "bad proc" (Invalid_argument "Proc.check: process 5 not in [0, 3)")
    (fun () -> ignore (Generators.figure1 ~p1:5 ()))

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_analyzer_incremental_matches_batch () =
  let rng = rng_state 11 in
  for _ = 1 to 20 do
    let n = 3 + Rng.int rng 3 in
    let s = random_schedule rng ~n ~len:300 in
    let p = random_set rng ~n and q = random_set rng ~n in
    let monitor = Timeliness.Monitor.create ~p ~q () in
    Schedule.iteri (fun _ proc -> Timeliness.Monitor.feed monitor proc) s;
    Alcotest.(check int) "matches batch"
      (Timeliness.observed_bound ~p ~q s)
      (Timeliness.Monitor.worst_gap monitor + 1)
  done

let test_bound_curve () =
  let source = Generators.figure1 () in
  let curve =
    Analysis.bound_curve ~p:(Procset.singleton 0) ~q:(Procset.singleton 2) ~source
      ~lengths:[ 100; 1000; 10_000 ]
  in
  Alcotest.(check int) "three samples" 3 (Array.length curve.Analysis.lengths);
  Alcotest.(check bool) "bounds grow" true
    (curve.Analysis.bounds.(2) > curve.Analysis.bounds.(0))

let test_bound_curve_exhaustion () =
  let source = Source.of_schedule (Schedule.of_list ~n:2 [ 0; 1; 0; 1 ]) in
  let curve =
    Analysis.bound_curve ~p:(Procset.singleton 0) ~q:(Procset.singleton 1) ~source
      ~lengths:[ 2; 4; 100 ]
  in
  Alcotest.(check int) "stops at exhaustion" 2 (Array.length curve.Analysis.lengths)

let test_singleton_matrix () =
  let s = fig1_prefix 2_000 in
  let m = Analysis.singleton_matrix s in
  Alcotest.(check int) "square" 3 (Array.length m);
  (* diagonal is 1 (self-timeliness) *)
  for a = 0 to 2 do
    Alcotest.(check int) "diag" 1 m.(a).(a)
  done;
  (* q is timely w.r.t. p1 (bound 2: p1 steps alternate with q) *)
  Alcotest.(check int) "q wrt p1" 2 m.(2).(0)

(* ------------------------------------------------------------------ *)
(* Rng determinism *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* Golden pins for the seeded hot paths that moved from List.nth-under-
   cursor scans to array-backed pools: the streams below were recorded
   against the list implementation, so any change in draw order or
   indexing arithmetic trips them. *)

let test_rng_pick_golden () =
  let rng = Rng.create ~seed:42 in
  let picks =
    List.init 12 (fun i ->
        Rng.pick rng (List.init ((i mod 5) + 1) (fun j -> (10 * i) + j)))
  in
  Alcotest.(check (list int)) "pick stream"
    [ 0; 11; 22; 30; 40; 50; 61; 72; 81; 91; 100; 110 ]
    picks

let test_timely_golden () =
  let rng = rng_state 13 in
  let contract =
    { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 2; 3 ]; bound = 3 }
  in
  let s = Source.take (Generators.timely ~n:5 ~contract ~rng ()) 48 in
  Alcotest.(check (list int)) "seeded schedule"
    [
      2; 2; 0; 0; 0; 1; 1; 4; 4; 0; 0; 0; 0; 0; 0; 0; 3; 3; 1; 1; 1; 1; 3; 3; 0; 1; 1;
      1; 1; 1; 1; 1; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 0; 1; 1;
    ]
    (Schedule.to_list s)

let test_exclusive_timely_golden () =
  let contract =
    { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 2; 3 ]; bound = 2 }
  in
  let s =
    Source.take (Generators.exclusive_timely ~phase0:8 ~growth:4 ~n:4 ~contract ~defeat:1 ()) 60
  in
  Alcotest.(check (list int)) "deterministic schedule"
    [
      0; 1; 2; 0; 3; 0; 0; 1; 2; 0; 3; 0; 0; 1; 2; 0; 3; 1; 1; 2; 1; 3; 1; 1; 2; 1; 3;
      1; 0; 1; 2; 1; 3; 1; 0; 1; 2; 1; 3; 1; 0; 2; 0; 3; 0; 0; 2; 0; 3; 0; 0; 2; 0; 3;
      0; 0; 1; 2; 0; 3;
    ]
    (Schedule.to_list s)

(* Goldens recorded before the phase clock, the cursor scan and the gap
   monitor were shared: each stream runs through phase and recovery
   boundaries and loses a process mid-stream. *)

let take_with_death src ~before ~after kill =
  let first = Source.take src before in
  kill ();
  Schedule.to_list first @ Schedule.to_list (Source.take src after)

let test_starvation_golden () =
  let dead = ref false in
  let live p = not (!dead && p = 1) in
  let src = Generators.starvation_adversary ~live ~n:4 ~i:2 () in
  Alcotest.(check (list int)) "deterministic schedule"
    [
      2; 3; 2; 3; 2; 3; 2; 3; 0; 1; 2; 3; 0; 1; 2; 3; 1; 3; 1; 3; 1; 3; 1; 3; 1; 3; 1;
      3; 1; 3; 1; 3; 0; 1; 2; 3; 0; 1; 2; 3; 0; 3; 0; 3; 0; 3; 0; 3; 0; 3; 0; 3; 0; 3;
      0; 3; 0; 3; 0; 3; 0; 3; 0; 3; 0; 1; 2; 3; 0; 1; 2; 3; 2; 2; 2; 2; 2; 2; 2; 2; 2;
      2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 3; 0; 2; 3;
      0; 2; 3; 0; 2; 0; 2; 0; 2; 0; 2; 0; 2; 0; 2; 0; 2; 0; 2; 0; 2; 0; 2; 0; 2; 0; 2;
      0; 2; 0; 2; 0; 2; 0; 2; 0; 2; 0; 2; 0; 2; 0;
    ]
    (take_with_death src ~before:70 ~after:80 (fun () -> dead := true))

let test_exclusive_timely_death_golden () =
  let dead = ref false in
  let live p = not (!dead && p = 0) in
  let contract =
    { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 0; 1; 2; 3 ]; bound = 2 }
  in
  let src = Generators.exclusive_timely ~live ~n:5 ~contract ~defeat:2 () in
  Alcotest.(check (list int)) "deterministic schedule"
    [
      0; 1; 2; 0; 3; 0; 4; 0; 1; 2; 0; 3; 0; 4; 0; 1; 2; 0; 3; 0; 4; 4; 4; 4; 4; 4; 4;
      4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 0; 1;
      2; 1; 3; 1; 4; 0; 1; 2; 1; 3; 1; 4; 0; 1; 2; 1; 3; 1; 4; 1; 3; 1; 4; 1; 3; 1; 4;
      1; 3; 1; 4; 1; 3; 1; 4; 1; 3; 1; 4; 1; 3; 1; 4; 1; 3; 1; 4; 1; 3; 1; 4; 1; 3; 1;
      4; 1; 3; 1; 4; 1; 3; 1; 4; 1; 3; 1; 4; 1; 2; 1; 3; 1; 4; 1; 2; 1; 3; 1; 4; 1; 2;
      1; 3; 1; 4; 1; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3;
      1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3;
      1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 3; 1; 4; 1; 2; 1; 3; 1; 4; 1; 2; 1; 3;
      1; 4; 1; 2; 1; 3; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1;
      4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2;
      1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1; 2; 1; 4; 1;
      2; 1; 4;
    ]
    (take_with_death src ~before:120 ~after:180 (fun () -> dead := true))

let test_timely_gap_live_golden () =
  let dead = ref false in
  let live p = not (!dead && p = 0) in
  let contract =
    { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 2; 3 ]; bound = 3 }
  in
  let src = Generators.timely ~live ~gap:2 ~n:5 ~contract ~rng:(rng_state 17) () in
  Alcotest.(check (list int)) "seeded schedule"
    [
      0; 0; 0; 1; 1; 1; 1; 1; 1; 1; 3; 4; 4; 4; 1; 1; 2; 2; 1; 1; 2; 2; 1; 1; 1; 1; 4;
      4; 3; 4; 4; 4; 4; 4; 1; 1; 4; 4; 1; 3; 3; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1;
      1; 1; 2; 2; 1; 4; 4; 4; 4; 4; 2; 1; 2; 4; 4; 4; 4; 4; 1; 2; 3; 1; 1; 3; 2; 1; 1;
      1; 1; 1; 1; 1; 1; 1; 3; 3; 1; 1; 2; 2; 1; 1; 1; 1; 3; 3; 1; 1; 1; 1; 1; 1; 1; 1;
      1; 3; 3; 1; 1; 1; 1; 1; 4; 4; 4; 4;
    ]
    (take_with_death src ~before:40 ~after:80 (fun () -> dead := true))

(* Schedules are views: a length over a backing array that may hold
   slack past it. Every operation on a view with slack must agree with
   the same operation on a plain list. *)
let prop_views_match_lists =
  QCheck2.Test.make ~name:"views with slack behave as their lists" ~count:300
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 5))
    (fun (seed, n) ->
      let rng = rng_state (seed + 1) in
      let draw len = List.init len (fun _ -> Rng.int rng n) in
      (* a view of [model] over an array with random slack, built either
         by [share] or as a prefix of a longer schedule *)
      let view model =
        let slack = draw (Rng.int rng 20) in
        let arr = Array.of_list (model @ slack) in
        if Rng.bool rng then Schedule.share ~n arr ~len:(List.length model)
        else Schedule.prefix (Schedule.of_array ~n arr) (List.length model)
      in
      let la = draw (Rng.int rng 45) and lb = draw (Rng.int rng 12) in
      let a = view la and b = view lb in
      let len = List.length la in
      let rec take k = function x :: r when k > 0 -> x :: take (k - 1) r | _ -> [] in
      let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
      let is model s = Schedule.length s = List.length model && Schedule.to_list s = model in
      let render model = String.concat "\xc2\xb7" (List.map (Fmt.str "%a" Proc.pp) model) in
      let count p model = List.length (List.filter (Int.equal p) model) in
      let last p model =
        List.fold_left (fun acc (i, q) -> if q = p then Some i else acc) None
          (List.mapi (fun i q -> (i, q)) model)
      in
      let raises_schedule f =
        match f () with
        | _ -> false
        | exception Invalid_argument msg -> String.starts_with ~prefix:"Schedule." msg
      in
      let l = Rng.int rng (len + 4) in
      let pos = if len = 0 then 0 else 1 + Rng.int rng len in
      let pos = min pos len in
      let w = Rng.int rng (len - pos + 1) in
      let m = Rng.int rng 4 in
      let acc = ref [] in
      Schedule.iteri (fun i p -> acc := (i, p) :: !acc) a;
      is la a
      && is (take l la) (Schedule.prefix a l)
      && is (take w la) (Schedule.sub a ~pos:0 ~len:w)
      && is (take w (drop pos la)) (Schedule.sub a ~pos ~len:w)
      && is (la @ lb) (Schedule.append a b)
      && is (lb @ la @ lb) (Schedule.concat ~n [ b; a; b ])
      && is (List.concat (List.init m (fun _ -> la))) (Schedule.repeat a m)
      && Schedule.equal a (Schedule.of_list ~n la)
      && Schedule.equal a (view la)
      && Schedule.equal a b = (la = lb)
      && Schedule.equal (Schedule.prefix a l) (Schedule.of_list ~n (take l la))
      && Schedule.fold (fun acc p -> p :: acc) [] a = List.rev la
      && List.rev !acc = List.mapi (fun i p -> (i, p)) la
      && Fmt.str "%a" Schedule.pp_full a = render la
      && Fmt.str "%a" Schedule.pp a
         = (if len <= 32 then render la
            else render (take 32 la) ^ Printf.sprintf "\xc2\xb7\xe2\x80\xa6(%d steps)" len)
      && List.for_all
           (fun p -> Schedule.occurrences a p = count p la && Schedule.last_occurrence a p = last p la)
           (Proc.all ~n)
      && Array.to_list (Schedule.steps_per_process a) = List.map (fun p -> count p la) (Proc.all ~n)
      && raises_schedule (fun () -> Schedule.get a len)
      && raises_schedule (fun () -> Schedule.get a (-1))
      && raises_schedule (fun () -> Schedule.sub a ~pos:len ~len:1)
      && raises_schedule (fun () -> Schedule.sub a ~pos:(-1) ~len:1)
      && raises_schedule (fun () -> Schedule.prefix a (-1)))

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_observation2; prop_observation3; prop_observed_bound_least; prop_prefix_monotone;
      prop_observation4; prop_monitor_matches_definition; prop_views_match_lists ]

let () =
  Alcotest.run "setsync_schedule"
    [
      ( "procset",
        [
          Alcotest.test_case "basics" `Quick test_procset_basics;
          Alcotest.test_case "algebra" `Quick test_procset_algebra;
          Alcotest.test_case "full/remove" `Quick test_procset_full_remove;
          Alcotest.test_case "subsets of size" `Quick test_subsets_of_size;
          Alcotest.test_case "subset edge sizes" `Quick test_subsets_edge_sizes;
          Alcotest.test_case "invalid arguments" `Quick test_procset_invalid;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "basics" `Quick test_schedule_basics;
          Alcotest.test_case "concat/repeat" `Quick test_schedule_concat_repeat;
          Alcotest.test_case "occurrences in sets" `Quick test_schedule_occurrences_in;
          Alcotest.test_case "universe mismatch" `Quick test_schedule_universe_mismatch;
        ] );
      ( "source",
        [
          Alcotest.test_case "of_schedule" `Quick test_source_of_schedule;
          Alcotest.test_case "cycle" `Quick test_source_cycle;
          Alcotest.test_case "append/filtered" `Quick test_source_append_filtered;
        ] );
      ( "timeliness",
        [
          Alcotest.test_case "figure 1 shape" `Quick test_figure1_shape;
          Alcotest.test_case "figure 1 timeliness" `Quick test_figure1_timeliness;
          Alcotest.test_case "exact bound" `Quick test_timeliness_bound_exact;
          Alcotest.test_case "trailing gap" `Quick test_timeliness_trailing_gap;
          Alcotest.test_case "vacuous / self" `Quick test_timeliness_vacuous;
          Alcotest.test_case "P/Q overlap" `Quick test_timeliness_overlap;
          Alcotest.test_case "edge cases and boundary agreement" `Quick
            test_timeliness_edges;
          Alcotest.test_case "process timeliness" `Quick test_process_timely;
          Alcotest.test_case "union bound (Obs 2)" `Quick test_union_bound;
        ] );
      ( "system",
        [
          Alcotest.test_case "make/pp" `Quick test_system_make;
          Alcotest.test_case "membership" `Quick test_system_member;
          Alcotest.test_case "best witness" `Quick test_system_best_witness;
          Alcotest.test_case "containment (Obs 4/5)" `Quick test_system_containment;
          Alcotest.test_case "Obs 5 asynchronous" `Quick test_observation5;
        ] );
      ( "generators",
        [
          Alcotest.test_case "round robin" `Quick test_round_robin;
          Alcotest.test_case "round robin liveness" `Quick test_round_robin_liveness;
          Alcotest.test_case "timely contract" `Quick test_timely_contract_holds;
          Alcotest.test_case "timely fairness cap" `Quick test_timely_fairness_cap;
          Alcotest.test_case "timely with crashes" `Quick test_timely_with_crashes;
          Alcotest.test_case "exclusive timely" `Quick test_exclusive_timely_contract;
          Alcotest.test_case "starvation adversary" `Quick test_starvation_adversary;
          Alcotest.test_case "figure1 validation" `Quick test_figure1_defaults_invalid;
          Alcotest.test_case "phase parameter validation" `Quick test_phase_parameters_invalid;
          Alcotest.test_case "starvation adversary golden" `Quick test_starvation_golden;
          Alcotest.test_case "exclusive timely death golden" `Quick
            test_exclusive_timely_death_golden;
          Alcotest.test_case "timely gap+live golden" `Quick test_timely_gap_live_golden;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "incremental = batch" `Quick test_analyzer_incremental_matches_batch;
          Alcotest.test_case "bound curve" `Quick test_bound_curve;
          Alcotest.test_case "curve exhaustion" `Quick test_bound_curve_exhaustion;
          Alcotest.test_case "singleton matrix" `Quick test_singleton_matrix;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "pick golden" `Quick test_rng_pick_golden;
          Alcotest.test_case "timely golden" `Quick test_timely_golden;
          Alcotest.test_case "exclusive timely golden" `Quick test_exclusive_timely_golden;
        ] );
      ("properties", qsuite);
    ]
