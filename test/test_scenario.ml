(* Integration tests for the high-level scenario runner: the Theorem 27
   sweep at both the detector and the agreement level, the separation
   triple, and scenario plumbing (determinism, validation, crash
   budgets). *)

open Setsync
module Ag = Setsync_agreement.Ag_harness
module Chk = Setsync_agreement.Checker

let spec ?(t = 2) ?(k = 2) ?(n = 5) ?(bound = 3) ?(crashes = 0)
    ?(adversary = Scenario.Fair) ?(max_steps = 500_000) ~i ~j ~seed () =
  { Scenario.t; k; n; i; j; bound; seed; crashes; adversary; max_steps }

let test_validation () =
  Alcotest.check_raises "crashes > t" (Invalid_argument "Scenario: need 0 <= crashes <= t")
    (fun () -> Scenario.validate (spec ~i:1 ~j:2 ~seed:1 ~crashes:3 ()));
  Alcotest.check_raises "bad system"
    (Invalid_argument "System.make: need 1 <= i(3) <= j(2) <= n(5)") (fun () ->
      Scenario.validate (spec ~i:3 ~j:2 ~seed:1 ()));
  List.iter
    (fun (adversary, name) ->
      Alcotest.check_raises (name ^ " k >= n")
        (Invalid_argument (Printf.sprintf "Scenario: %s adversary needs k < n" name))
        (fun () -> Scenario.validate (spec ~k:5 ~i:1 ~j:2 ~seed:1 ~adversary ()));
      Alcotest.check_raises (name ^ " starves everyone")
        (Invalid_argument
           (Printf.sprintf "Scenario: %s adversary would starve everyone in some phase" name))
        (fun () -> Scenario.validate (spec ~i:1 ~j:4 ~seed:1 ~adversary ())))
    [ (Scenario.Exclusive, "Exclusive"); (Scenario.Adaptive, "Adaptive") ];
  (* the adaptive adversary starves k-sets within a budget of t: on a
     cell with t < k it is refused before the run, not inside it *)
  Alcotest.check_raises "Adaptive t < k"
    (Invalid_argument
       "Scenario: Adaptive adversary needs k <= t (it starves k-sets within a budget of t)")
    (fun () ->
      Scenario.validate (spec ~t:1 ~k:2 ~n:4 ~i:1 ~j:2 ~seed:6 ~adversary:Scenario.Adaptive ()));
  Scenario.validate (spec ~t:1 ~k:2 ~n:4 ~i:1 ~j:2 ~seed:6 ~adversary:Scenario.Exclusive ())

let test_determinism () =
  let run () = Scenario.run_agreement (spec ~i:2 ~j:3 ~seed:42 ~crashes:1 ()) in
  let a = run () and b = run () in
  Alcotest.(check bool) "same witnesses" true
    (Procset.equal a.Scenario.witness_p b.Scenario.witness_p
    && Procset.equal a.Scenario.witness_q b.Scenario.witness_q);
  Alcotest.(check bool) "same decisions" true
    (a.Scenario.outcome.Ag.decisions = b.Scenario.outcome.Ag.decisions);
  Alcotest.(check int) "same length" (Run.total_steps a.Scenario.outcome.Ag.run)
    (Run.total_steps b.Scenario.outcome.Ag.run)

let test_witness_shapes () =
  let r = Scenario.run_agreement (spec ~i:2 ~j:4 ~seed:9 ()) in
  Alcotest.(check int) "p size" 2 (Procset.cardinal r.Scenario.witness_p);
  Alcotest.(check int) "q size" 4 (Procset.cardinal r.Scenario.witness_q);
  Alcotest.(check bool) "nested" true (Procset.subset r.Scenario.witness_p r.Scenario.witness_q)

let test_crash_plan_respects_budget () =
  let r = Scenario.run_agreement (spec ~i:2 ~j:3 ~seed:10 ~crashes:2 ()) in
  Alcotest.(check int) "plan size" 2 (List.length r.Scenario.fault);
  (* the designated survivor of P is never crashed *)
  let crashed = List.map fst r.Scenario.fault in
  Alcotest.(check bool) "some P member survives" true
    (Procset.exists (fun p -> not (List.mem p crashed)) r.Scenario.witness_p)

(* the fair adversary solves every predicted-solvable cell, including
   the promotion cells (j < t+1) and the trivial regime *)
let test_fair_solvable_cells () =
  List.iter
    (fun (t, k, i, j, crashes, seed) ->
      let r =
        Scenario.run_agreement
          (spec ~t ~k ~i ~j ~crashes ~seed ~max_steps:3_000_000 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d,5) in S^%d_%d" t k i j)
        true
        (r.Scenario.predicted && r.Scenario.solved))
    [
      (2, 2, 1, 2, 0, 11) (* promotion cell: j = 2 < t+1 = 3 *);
      (2, 2, 2, 3, 1, 12) (* the closely matching system *);
      (2, 2, 2, 4, 2, 13);
      (3, 3, 2, 3, 1, 14) (* k = t, promotion cell *);
      (1, 2, 1, 2, 1, 15) (* trivial regime *);
      (2, 1, 1, 4, 1, 16) (* consensus, j - i = 3 = t + 1 - k *);
    ]

(* the full agreement-level boundary for (2,2,5) under the adaptive
   adversary: every cell matches the formula *)
let test_adaptive_full_boundary () =
  let t = 2 and k = 2 and n = 5 in
  List.iter
    (fun { Characterization.i; j; predicted } ->
      (* cells whose starvation phases would cover the whole universe
         cannot host the adaptive adversary; they are all
         predicted-solvable and get the fair adversary instead *)
      let adversary = if k + j - i >= n then Scenario.Fair else Scenario.Adaptive in
      let r =
        Scenario.run_agreement
          (spec ~t ~k ~n ~i ~j ~seed:(300 + (10 * i) + j) ~adversary ~max_steps:400_000 ())
      in
      Alcotest.(check bool) (Printf.sprintf "S^%d_{%d,5}" i j) predicted r.Scenario.solved)
    (Characterization.grid ~t ~k ~n)

(* detector-level sweep: convergence iff predicted (exclusive
   adversary) *)
let test_detector_boundary_sweep () =
  let t = 2 and k = 2 and n = 5 in
  List.iter
    (fun (i, j) ->
      let s =
        spec ~t ~k ~n ~i ~j ~seed:(400 + (10 * i) + j) ~adversary:Scenario.Exclusive
          ~max_steps:400_000 ()
      in
      let result, predicted = Scenario.run_detector s in
      let converged =
        match result.Fd_harness.winner_verdict with
        | Anti_omega.Winner_stable _ -> true
        | Anti_omega.Winner_vacuous _ | Anti_omega.Winner_unstable _ -> false
      in
      Alcotest.(check bool) (Printf.sprintf "S^%d_{%d,5} detector" i j) predicted converged)
    [ (1, 1); (1, 2); (2, 2); (2, 3); (1, 3) ]

(* the separation triple, executed: S^k_{t+1,n} solves (t,k,n) but the
   adaptive adversary defeats both strengthened problems in it *)
let test_separation_executed () =
  let t = 2 and k = 2 and n = 5 in
  let i = k and j = t + 1 in
  let base =
    Scenario.run_agreement
      (spec ~t ~k ~n ~i ~j ~seed:501 ~adversary:Scenario.Adaptive ~max_steps:600_000 ())
  in
  Alcotest.(check bool) "(t,k,n) solvable" true base.Scenario.solved;
  let stronger_res =
    Scenario.run_agreement
      (spec ~t:(t + 1) ~k ~n ~i ~j ~seed:502 ~adversary:Scenario.Adaptive
         ~max_steps:600_000 ())
  in
  Alcotest.(check bool) "(t+1,k,n) defeated" false stronger_res.Scenario.solved;
  let stronger_agr =
    Scenario.run_agreement
      (spec ~t ~k:(k - 1) ~n ~i ~j ~seed:503 ~adversary:Scenario.Adaptive
         ~max_steps:600_000 ())
  in
  Alcotest.(check bool) "(t,k-1,n) defeated" false stronger_agr.Scenario.solved;
  (* but safety never fails *)
  Alcotest.(check bool) "safety anyway" true
    (Chk.safe stronger_res.Scenario.outcome.Ag.report
    && Chk.safe stronger_agr.Scenario.outcome.Ag.report)

let () =
  Alcotest.run "setsync_scenario"
    [
      ( "plumbing",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "witness shapes" `Quick test_witness_shapes;
          Alcotest.test_case "crash plan" `Quick test_crash_plan_respects_budget;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "fair solvable cells" `Slow test_fair_solvable_cells;
          Alcotest.test_case "adaptive full boundary" `Slow test_adaptive_full_boundary;
          Alcotest.test_case "detector sweep" `Slow test_detector_boundary_sweep;
          Alcotest.test_case "separation executed" `Slow test_separation_executed;
        ] );
    ]
