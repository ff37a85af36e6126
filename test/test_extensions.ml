(* Extension tests beyond the core reproduction:

   - wait-free instances (t = n-1): k-anti-Ω proper and anti-Ω
     (k = n-1), the detectors of Zieliński's paper that §4.1 builds on;
   - the Ω facade (k = 1 leader election);
   - binary-input agreement;
   - additional property tests: Paxos safety under random replay,
     executor determinism, generator contracts over random parameters,
     checker soundness on synthetic decision patterns. *)

open Setsync_schedule
module Kanti_omega = Setsync_detector.Kanti_omega
module Anti_omega = Setsync_detector.Anti_omega
module Omega = Setsync_detector.Omega
module Fd_harness = Setsync_detector.Fd_harness
module Problem = Setsync_agreement.Problem
module Checker = Setsync_agreement.Checker
module Ag_harness = Setsync_agreement.Ag_harness
module Store = Setsync_memory.Store
module Shm = Setsync_runtime.Shm
module Executor = Setsync_runtime.Executor
module Run = Setsync_runtime.Run

(* Paxos plus one whole attempt run from fiber code, for tests that
   call the protocol as a subroutine: its machine form over
   [Machine.fiber]. *)
module Paxos = struct
  include Setsync_agreement.Paxos

  type attempt_result = Decided of int | Interfered

  let attempt p =
    let fiber = Setsync_runtime.Machine.fiber in
    let rec go = function
      | M_more pc -> go (attempt_resume fiber p pc)
      | M_decided v -> Decided v
      | M_interfered -> Interfered
    in
    go (attempt_start fiber p)
end

(* ------------------------------------------------------------------ *)
(* Wait-free instances: t = n - 1 *)

let run_fd ~n ~t ~k ~seed ~fault ~p ~q ~bound =
  let rng = Rng.create ~seed in
  let contract = { Generators.p = Procset.of_list p; q = Procset.of_list q; bound } in
  let source ~live = Generators.timely ~live ~n ~contract ~rng () in
  Fd_harness.run ~params:{ Kanti_omega.n; t; k } ~source ~max_steps:4_000_000 ~fault
    ~stop_after_stable:20_000 ()

(* anti-Ω proper: k = t = n-1; output is a single process that is
   eventually never a specific correct process *)
let test_wait_free_anti_omega () =
  let n = 4 in
  let res =
    run_fd ~n ~t:(n - 1) ~k:(n - 1) ~seed:901 ~fault:[ (0, 200); (1, 700) ]
      ~p:[ 1; 2; 3 ] ~q:[ 0; 1; 2; 3 ] ~bound:3
  in
  (match res.Fd_harness.verdict with
  | Anti_omega.Satisfied _ -> ()
  | v -> Alcotest.failf "anti-omega: %a" Anti_omega.pp_verdict v);
  (* outputs are singletons: n - k = 1 *)
  for proc = 0 to n - 1 do
    List.iter
      (fun (_, out) -> Alcotest.(check int) "singleton output" 1 (Procset.cardinal out))
      (Setsync_detector.History.timeline res.Fd_harness.outputs ~proc)
  done

(* wait-free consensus detector: k = 1, t = n-1 *)
let test_wait_free_omega () =
  let n = 3 in
  let res =
    run_fd ~n ~t:(n - 1) ~k:1 ~seed:902 ~fault:[ (0, 150); (2, 400) ] ~p:[ 1 ]
      ~q:[ 0; 2 ] ~bound:3
  in
  match res.Fd_harness.winner_verdict with
  | Anti_omega.Winner_stable { winner; _ } ->
      Alcotest.(check bool) "leader is the survivor" true (Procset.equal winner (Procset.singleton 1))
  | v -> Alcotest.failf "omega: %a" Anti_omega.pp_winner_verdict v

(* wait-free set agreement end-to-end: (n-1, n-1, n) *)
let test_wait_free_set_agreement () =
  let n = 4 in
  let problem = Problem.wait_free ~k:(n - 1) ~n in
  let inputs = Problem.distinct_inputs problem in
  let rng = Rng.create ~seed:903 in
  let contract =
    { Generators.p = Procset.of_list [ 2; 3; 1 ]; q = Procset.full ~n; bound = 3 }
  in
  let source ~live = Generators.timely ~live ~n ~contract ~rng () in
  let outcome =
    Ag_harness.solve ~problem ~inputs ~source ~max_steps:6_000_000
      ~fault:[ (0, 100); (1, 500); (2, 1500) ]
      ()
  in
  Alcotest.(check bool) "wait-free solved" true (Ag_harness.ok outcome);
  Alcotest.(check bool) "within n-1 values" true
    (outcome.Ag_harness.report.Checker.distinct_values <= n - 1)

(* ------------------------------------------------------------------ *)
(* The Omega facade *)

let test_omega_facade () =
  let n = 3 and t = 1 in
  let store = Store.create () in
  let machine = Omega.machine store ~n ~t in
  let processes = Kanti_omega.processes machine in
  let body = Setsync_runtime.Machine.body (Kanti_omega.step machine) in
  let rng = Rng.create ~seed:904 in
  let contract =
    { Generators.p = Procset.singleton 2; q = Procset.of_list [ 0; 1 ]; bound = 3 }
  in
  let source ~live = Generators.timely ~live ~n ~contract ~rng () in
  ignore (Executor.run ~n ~source ~max_steps:200_000 body);
  (* all leaders converged to the contract's timely process *)
  Array.iteri
    (fun proc p ->
      Alcotest.(check int) (Printf.sprintf "leader of p%d" (proc + 1)) 2 (Omega.leader p);
      Alcotest.(check bool) "iterated" true (Omega.iterations p > 0))
    processes

(* ------------------------------------------------------------------ *)
(* Binary agreement *)

let test_binary_agreement () =
  let problem = Problem.make ~t:2 ~k:2 ~n:5 in
  let rng = Rng.create ~seed:905 in
  let inputs = Problem.binary_inputs problem ~rng in
  let contract =
    { Generators.p = Procset.of_list [ 0; 4 ]; q = Procset.of_list [ 1; 2; 0 ]; bound = 3 }
  in
  let source ~live = Generators.timely ~live ~n:5 ~contract ~rng () in
  let outcome = Ag_harness.solve ~problem ~inputs ~source ~max_steps:4_000_000 () in
  Alcotest.(check bool) "solved" true (Ag_harness.ok outcome);
  Array.iter
    (function
      | Some v -> Alcotest.(check bool) "binary decision" true (v = 0 || v = 1)
      | None -> Alcotest.fail "undecided")
    outcome.Ag_harness.decisions

(* ------------------------------------------------------------------ *)
(* Property tests *)

(* Paxos safety under fully random replay schedules including noise *)
let prop_paxos_replay_safety =
  QCheck2.Test.make ~name:"paxos: replay agreement+validity on random schedules" ~count:60
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create ~seed:(seed + 7_000) in
      let store = Store.create () in
      let shared = Paxos.create_shared store ~n ~name:"b" in
      let decisions = Array.make n None in
      let body p () =
        let proposer = Paxos.make_proposer shared ~proc:p ~input:(300 + p) in
        for _ = 1 to 20 do
          if decisions.(p) = None then
            match Paxos.attempt proposer with
            | Paxos.Decided v -> decisions.(p) <- Some v
            | Paxos.Interfered -> ()
        done
      in
      let source ~live = Generators.random_fair ~live ~n ~rng () in
      let fault = if Rng.bool rng then [ (Rng.int rng n, Rng.int rng 30) ] else [] in
      ignore (Executor.run ~n ~source ~max_steps:50_000 ~fault body);
      let values =
        Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq Int.compare
      in
      List.length values <= 1
      && List.for_all (fun v -> v >= 300 && v < 300 + n) values)

(* the executor is a deterministic function of (bodies, schedule, fault) *)
let prop_executor_deterministic =
  QCheck2.Test.make ~name:"executor: runs are deterministic" ~count:60
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 5))
    (fun (seed, n) ->
      let execute () =
        let store = Store.create () in
        let reg = Store.register store ~name:"r" 0 in
        let body p () =
          while true do
            Shm.write reg (Setsync_memory.Register.peek reg + p + 1)
          done
        in
        let rng = Rng.create ~seed:(seed + 8_000) in
        let source ~live = Generators.random_fair ~live ~n ~rng () in
        let run = Executor.run ~n ~source ~max_steps:500 body in
        (Setsync_memory.Register.peek reg, Schedule.to_list run.Run.taken)
      in
      execute () = execute ())

(* the timely generator's contract holds for random parameters *)
let prop_timely_contract =
  QCheck2.Test.make ~name:"timely generator: contract holds for random parameters" ~count:60
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 3 8))
    (fun (seed, n) ->
      let rng = Rng.create ~seed:(seed + 9_000) in
      let psize = 1 + Rng.int rng (n - 1) in
      let qsize = 1 + Rng.int rng n in
      let p = Procset.random_subset rng ~n ~size:psize in
      let q = Procset.random_subset rng ~n ~size:qsize in
      let bound = 2 + Rng.int rng 4 in
      let contract = { Generators.p; q; bound } in
      let src = Generators.timely ~n ~contract ~rng () in
      let s = Source.take src 5_000 in
      Timeliness.holds ~bound ~p ~q s)

(* checker soundness: agreement flag = (distinct decided <= k) on
   synthetic decision patterns *)
let prop_checker_agreement_flag =
  QCheck2.Test.make ~name:"checker: agreement flag matches distinct count" ~count:200
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 7))
    (fun (seed, n) ->
      let rng = Rng.create ~seed:(seed + 10_000) in
      let t = 1 + Rng.int rng (n - 1) in
      let k = 1 + Rng.int rng n in
      let problem = Problem.make ~t ~k ~n in
      let inputs = Array.init n (fun i -> i) in
      let decisions =
        Array.init n (fun _ -> if Rng.bool rng then Some (Rng.int rng n) else None)
      in
      let report = Checker.check ~problem ~inputs ~decisions ~crashed:Procset.empty () in
      let distinct =
        Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq Int.compare
        |> List.length
      in
      report.Checker.agreement = (distinct <= k) && report.Checker.validity)

(* exclusive generator: the contract pair holds and individual members
   of p are not individually timely (for multi-member p) *)
let prop_exclusive_no_subset_leak =
  QCheck2.Test.make ~name:"exclusive generator: no subset timeliness leak" ~count:30
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 11_000) in
      let n = 5 + Rng.int rng 2 in
      let p = Procset.of_list [ 0; 1 ] in
      let q = Procset.of_list [ 0; 1; 2 ] in
      let bound = 3 in
      let src = Generators.exclusive_timely ~n ~contract:{ Generators.p; q; bound } ~defeat:2 () in
      let s = Source.take src 120_000 in
      Timeliness.holds ~bound ~p ~q s
      && (not (Timeliness.holds ~bound:40 ~p:(Procset.singleton 0) ~q s))
      && not (Timeliness.holds ~bound:40 ~p:(Procset.singleton 1) ~q s))

(* the adaptive adversary, despite all its machinery, must emit
   schedules that honour the contract exactly (the recorded run's
   schedule satisfies the bound) *)
let prop_adaptive_contract =
  QCheck2.Test.make ~name:"adaptive adversary: emitted schedule honours the contract" ~count:25
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed:(seed + 12_000) in
      let n = 5 and t = 2 and k = 2 in
      let i = 1 + Rng.int rng 2 in
      let j = i + Rng.int rng (min (t + 1) (n - k + i) - i) in
      let j = max i j in
      let order = Array.init n (fun p -> p) in
      Rng.shuffle rng order;
      let p = Procset.of_list (Array.to_list (Array.sub order 0 i)) in
      let q = Procset.of_list (Array.to_list (Array.sub order 0 (max i j))) in
      let bound = 2 + Rng.int rng 3 in
      let problem = Problem.make ~t ~k ~n in
      let inputs = Problem.distinct_inputs problem in
      let contract = { Generators.p; q; bound } in
      let make_source ~view ~live =
        Setsync_agreement.Adaptive.source ~live ~n ~contract ~fault_budget:t ~defeat:k ~view ()
      in
      let outcome =
        Ag_harness.solve_adaptive ~problem ~inputs ~make_source ~max_steps:60_000 ()
      in
      Timeliness.holds ~bound ~p ~q outcome.Ag_harness.run.Run.taken)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_paxos_replay_safety;
      prop_executor_deterministic;
      prop_timely_contract;
      prop_checker_agreement_flag;
      prop_exclusive_no_subset_leak;
      prop_adaptive_contract;
    ]

let () =
  Alcotest.run "setsync_extensions"
    [
      ( "wait_free",
        [
          Alcotest.test_case "anti-omega proper (k=t=n-1)" `Quick test_wait_free_anti_omega;
          Alcotest.test_case "omega (k=1, t=n-1)" `Quick test_wait_free_omega;
          Alcotest.test_case "wait-free set agreement" `Quick test_wait_free_set_agreement;
        ] );
      ("omega", [ Alcotest.test_case "leader facade" `Quick test_omega_facade ]);
      ("binary", [ Alcotest.test_case "binary inputs" `Quick test_binary_agreement ]);
      ("properties", qsuite);
    ]
