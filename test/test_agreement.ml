(* Tests for the agreement layer: problem definitions, the run checker,
   shared-memory Paxos (safety under random schedules and crashes,
   liveness under a unique proposer), the trivial t<k algorithm, the
   Theorem 24 k-set solver, and the adaptive adversary's boundary. *)

open Setsync_schedule
module Problem = Setsync_agreement.Problem
module Checker = Setsync_agreement.Checker
module Trivial = Setsync_agreement.Trivial
module Kset_solver = Setsync_agreement.Kset_solver
module Ag_harness = Setsync_agreement.Ag_harness
module Adaptive = Setsync_agreement.Adaptive
module Store = Setsync_memory.Store
module Shm = Setsync_runtime.Shm
module Executor = Setsync_runtime.Executor
module Run = Setsync_runtime.Run
module Adversary = Setsync_net.Adversary
module Net = Setsync_net.Net
module Netmem = Setsync_net.Netmem
module Net_agreement = Setsync_net.Net_agreement

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
(* Problem *)

let test_problem_make () =
  let p = Problem.make ~t:2 ~k:3 ~n:5 in
  Alcotest.(check string) "pp" "(2,3,5)-agreement" (Problem.to_string p);
  Alcotest.(check bool) "trivially solvable" true (Problem.is_trivially_solvable p);
  Alcotest.(check bool) "consensus not trivial" false
    (Problem.is_trivially_solvable (Problem.consensus ~t:1 ~n:3));
  let wf = Problem.wait_free ~k:2 ~n:4 in
  Alcotest.(check bool) "wait-free t" true (Problem.equal wf (Problem.make ~t:3 ~k:2 ~n:4));
  Alcotest.check_raises "t out of range"
    (Invalid_argument "Problem.make: need 1 <= t(4) <= n-1(3)") (fun () ->
      ignore (Problem.make ~t:4 ~k:1 ~n:4))

let test_problem_strengthen () =
  let p = Problem.make ~t:2 ~k:2 ~n:5 in
  (match Problem.strengthen_resilience p with
  | Some p' -> Alcotest.(check bool) "t+1" true (Problem.equal p' (Problem.make ~t:3 ~k:2 ~n:5))
  | None -> Alcotest.fail "should exist");
  (match Problem.strengthen_agreement p with
  | Some p' -> Alcotest.(check bool) "k-1" true (Problem.equal p' (Problem.make ~t:2 ~k:1 ~n:5))
  | None -> Alcotest.fail "should exist");
  Alcotest.(check bool) "no k=0" true
    (Problem.strengthen_agreement (Problem.consensus ~t:1 ~n:3) = None);
  Alcotest.(check bool) "no t=n" true
    (Problem.strengthen_resilience (Problem.wait_free ~k:1 ~n:3) = None)

let test_problem_inputs () =
  let p = Problem.make ~t:1 ~k:1 ~n:4 in
  Alcotest.(check (array int)) "distinct" [| 100; 101; 102; 103 |] (Problem.distinct_inputs p);
  let rng = Rng.create ~seed:1 in
  Array.iter
    (fun v -> Alcotest.(check bool) "binary" true (v = 0 || v = 1))
    (Problem.binary_inputs p ~rng);
  Array.iter
    (fun v -> Alcotest.(check bool) "spread" true (v >= 0 && v < 7))
    (Problem.random_inputs p ~rng ~spread:7)

(* ------------------------------------------------------------------ *)
(* Checker *)

let problem223 = Problem.make ~t:2 ~k:2 ~n:3

let test_checker_all_good () =
  let r =
    Checker.check ~problem:problem223 ~inputs:[| 1; 2; 3 |]
      ~decisions:[| Some 1; Some 1; Some 2 |] ~crashed:Procset.empty ()
  in
  Alcotest.(check bool) "ok" true (Checker.ok r);
  Alcotest.(check int) "distinct" 2 r.Checker.distinct_values;
  Alcotest.(check int) "decided" 3 r.Checker.decided_count

let test_checker_validity_violation () =
  let r =
    Checker.check ~problem:problem223 ~inputs:[| 1; 2; 3 |]
      ~decisions:[| Some 9; None; None |] ~crashed:Procset.empty ()
  in
  Alcotest.(check bool) "invalid" false r.Checker.validity;
  Alcotest.(check bool) "not ok" false (Checker.ok r)

let test_checker_agreement_violation () =
  let r =
    Checker.check ~problem:problem223 ~inputs:[| 1; 2; 3 |]
      ~decisions:[| Some 1; Some 2; Some 3 |] ~crashed:Procset.empty ()
  in
  Alcotest.(check bool) "3 > k = 2" false r.Checker.agreement;
  Alcotest.(check bool) "safe reflects both" false (Checker.safe r)

let test_checker_uniformity () =
  (* a crashed process's decision still counts against k *)
  let r =
    Checker.check ~problem:(Problem.make ~t:2 ~k:1 ~n:3) ~inputs:[| 1; 2; 3 |]
      ~decisions:[| Some 1; Some 2; None |] ~crashed:(Procset.singleton 0) ()
  in
  Alcotest.(check bool) "uniform agreement violated" false r.Checker.agreement

let test_checker_termination () =
  let r =
    Checker.check ~problem:problem223 ~inputs:[| 1; 2; 3 |]
      ~decisions:[| Some 1; None; Some 1 |] ~crashed:Procset.empty ()
  in
  (match r.Checker.termination with
  | Checker.Undecided s -> Alcotest.(check bool) "p2 undecided" true (Procset.mem 1 s)
  | _ -> Alcotest.fail "expected undecided");
  (* crashed undecided is fine *)
  let r2 =
    Checker.check ~problem:problem223 ~inputs:[| 1; 2; 3 |]
      ~decisions:[| Some 1; None; Some 1 |] ~crashed:(Procset.singleton 1) ()
  in
  Alcotest.(check bool) "crashed excused" true (Checker.ok r2);
  (* more than t crashes: vacuous *)
  let r3 =
    Checker.check ~problem:problem223 ~inputs:[| 1; 2; 3 |] ~decisions:[| None; None; None |]
      ~crashed:(Procset.full ~n:3) ()
  in
  match r3.Checker.termination with
  | Checker.Vacuous 3 -> ()
  | _ -> Alcotest.fail "expected vacuous"

let test_checker_starvation () =
  (* a starved process counts as faulty: within budget it is excused,
     beyond budget the promise is vacuous *)
  let r =
    Checker.check ~problem:(Problem.make ~t:1 ~k:2 ~n:3) ~inputs:[| 1; 2; 3 |]
      ~decisions:[| Some 1; None; Some 1 |] ~crashed:Procset.empty
      ~starved:(Procset.singleton 1) ()
  in
  Alcotest.(check bool) "starved excused" true (Checker.ok r);
  let r2 =
    Checker.check ~problem:(Problem.make ~t:1 ~k:2 ~n:3) ~inputs:[| 1; 2; 3 |]
      ~decisions:[| None; None; Some 1 |] ~crashed:Procset.empty
      ~starved:(Procset.of_list [ 0; 1 ]) ()
  in
  match r2.Checker.termination with
  | Checker.Vacuous 2 -> ()
  | _ -> Alcotest.fail "expected vacuous beyond budget"

(* ------------------------------------------------------------------ *)
(* Paxos *)

(* liveness: a single proposer running alone decides its own input *)
let test_paxos_solo_decides () =
  let store = Store.create () in
  let shared = Paxos.create_shared store ~n:3 ~name:"paxos" in
  let decided = ref None in
  let body p () =
    if p = 0 then begin
      let proposer = Paxos.make_proposer shared ~proc:0 ~input:77 in
      match Paxos.attempt proposer with
      | Paxos.Decided v -> decided := Some v
      | Paxos.Interfered -> Alcotest.fail "solo proposer interfered"
    end
    else while true do Shm.pause () done
  in
  let source ~live = Generators.round_robin ~live ~n:3 () in
  ignore (Executor.run ~n:3 ~source ~max_steps:100 body);
  Alcotest.(check (option int)) "decides own input" (Some 77) !decided;
  Alcotest.(check (option int)) "visible in shared state" (Some 77)
    (Paxos.peek_decision shared)

(* safety: under random schedules, several concurrent proposers
   retrying forever never decide two different values *)
let test_paxos_safety_random () =
  for seed = 1 to 30 do
    let n = 3 + (seed mod 3) in
    let store = Store.create () in
    let shared = Paxos.create_shared store ~n ~name:"paxos" in
    let decisions = Array.make n None in
    let body p () =
      let proposer = Paxos.make_proposer shared ~proc:p ~input:(100 + p) in
      let rec go attempts =
        if attempts > 0 && decisions.(p) = None then begin
          (match Paxos.attempt proposer with
          | Paxos.Decided v -> decisions.(p) <- Some v
          | Paxos.Interfered -> ());
          go (attempts - 1)
        end
      in
      go 50
    in
    let rng = Rng.create ~seed in
    let source ~live = Generators.random_fair ~live ~n ~rng () in
    ignore (Executor.run ~n ~source ~max_steps:100_000 body);
    let values =
      Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq Int.compare
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: at most one decided value" seed)
      true
      (List.length values <= 1);
    (* validity: the value is someone's input *)
    List.iter
      (fun v -> Alcotest.(check bool) "valid" true (v >= 100 && v < 100 + n))
      values
  done

(* safety under crashes at adversarial points *)
let test_paxos_safety_with_crashes () =
  for seed = 1 to 20 do
    let n = 4 in
    let store = Store.create () in
    let shared = Paxos.create_shared store ~n ~name:"paxos" in
    let decisions = Array.make n None in
    let body p () =
      let proposer = Paxos.make_proposer shared ~proc:p ~input:(200 + p) in
      let rec go attempts =
        if attempts > 0 && decisions.(p) = None then begin
          (match Paxos.attempt proposer with
          | Paxos.Decided v -> decisions.(p) <- Some v
          | Paxos.Interfered -> ());
          go (attempts - 1)
        end
      in
      go 50
    in
    let rng = Rng.create ~seed:(seed * 31) in
    let source ~live = Generators.random_fair ~live ~n ~rng () in
    (* crash two processes mid-protocol at varying points *)
    let fault = [ (0, 3 + seed); (1, 9 + (2 * seed)) ] in
    ignore (Executor.run ~n ~source ~max_steps:100_000 ~fault body);
    let values =
      Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq Int.compare
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: agreement under crashes" seed)
      true
      (List.length values <= 1)
  done

(* ballots of distinct processes never collide *)
let test_paxos_ballot_classes () =
  let store = Store.create () in
  let shared = Paxos.create_shared store ~n:3 ~name:"paxos" in
  let a = Paxos.make_proposer shared ~proc:0 ~input:1 in
  let b = Paxos.make_proposer shared ~proc:1 ~input:2 in
  Alcotest.(check bool) "distinct initial ballots" true
    (Paxos.current_ballot a <> Paxos.current_ballot b);
  Alcotest.(check int) "p1 class" 1 (Paxos.current_ballot a mod 3);
  Alcotest.(check int) "p2 class" 2 (Paxos.current_ballot b mod 3)

(* ------------------------------------------------------------------ *)
(* Trivial algorithm (t < k) *)

let test_trivial_solves () =
  let problem = Problem.make ~t:1 ~k:2 ~n:4 in
  let inputs = [| 10; 20; 30; 40 |] in
  let source ~live = Generators.round_robin ~live ~n:4 () in
  let outcome = Ag_harness.solve ~problem ~inputs ~source ~max_steps:10_000 () in
  Alcotest.(check bool) "ok" true (Ag_harness.ok outcome);
  Alcotest.(check bool) "used trivial" true outcome.Ag_harness.used_trivial;
  (* only the first t+1 inputs can be decided *)
  Array.iter
    (function
      | Some v -> Alcotest.(check bool) "from first t+1" true (v = 10 || v = 20)
      | None -> Alcotest.fail "undecided")
    outcome.Ag_harness.decisions

let test_trivial_with_crash () =
  let problem = Problem.make ~t:1 ~k:3 ~n:4 in
  let inputs = [| 10; 20; 30; 40 |] in
  let source ~live = Generators.round_robin ~live ~n:4 () in
  (* crash one of the designated writers before it writes *)
  let outcome =
    Ag_harness.solve ~problem ~inputs ~source ~max_steps:10_000 ~fault:[ (0, 0) ] ()
  in
  Alcotest.(check bool) "ok despite writer crash" true (Ag_harness.ok outcome);
  Array.iteri
    (fun p d ->
      if p <> 0 then Alcotest.(check (option int)) "adopt survivor" (Some 20) d)
    outcome.Ag_harness.decisions

(* ------------------------------------------------------- consensus *)

(* The designated-proposer consensus wrapper: uncontended round-robin
   run decides the proposer's input everywhere; a crashed non-proposer
   does not block the rest; create validates its arguments. The same
   body drives the net backend (see test_net.ml's agreement-over-net
   suite), so this pins the shm half of that comparison. *)
let test_consensus_decides () =
  let problem = Problem.consensus ~t:1 ~n:4 in
  let inputs = Problem.distinct_inputs problem in
  let source ~live = Generators.round_robin ~live ~n:4 () in
  let outcome =
    Ag_harness.solve ~problem ~inputs ~source ~solver:`Paxos ~max_steps:100_000 ()
  in
  Alcotest.(check bool) "ok" true (Ag_harness.ok outcome);
  Array.iter
    (fun d ->
      Alcotest.(check (option int)) "everyone decides the proposer's input"
        (Some inputs.(0)) d)
    outcome.Ag_harness.decisions

let test_consensus_crash_nonproposer () =
  let problem = Problem.consensus ~t:1 ~n:4 in
  let inputs = Problem.distinct_inputs problem in
  let source ~live = Generators.round_robin ~live ~n:4 () in
  let outcome =
    Ag_harness.solve ~problem ~inputs ~source ~solver:`Paxos ~max_steps:100_000
      ~fault:[ (2, 3) ] ()
  in
  Alcotest.(check bool) "ok despite the crash" true (Ag_harness.ok outcome);
  Array.iteri
    (fun p d ->
      if p <> 2 then
        Alcotest.(check (option int)) "survivors decide the proposer's input"
          (Some inputs.(0)) d)
    outcome.Ag_harness.decisions

let test_consensus_create_validation () =
  let store = Store.create () in
  Alcotest.check_raises "inputs length"
    (Invalid_argument "Consensus.create: inputs must have length n") (fun () ->
      ignore (Setsync_agreement.Consensus.create store ~n:3 ~inputs:[| 1 |] ()));
  Alcotest.check_raises "proposer range"
    (Invalid_argument "Consensus.create: proposer out of range") (fun () ->
      ignore
        (Setsync_agreement.Consensus.create store ~n:3 ~inputs:[| 1; 2; 3 |] ~proposer:3 ()))

let test_trivial_create_validation () =
  let store = Store.create () in
  Alcotest.check_raises "t >= k" (Invalid_argument "Trivial.create: requires t < k") (fun () ->
      ignore
        (Trivial.create store ~problem:(Problem.make ~t:2 ~k:2 ~n:3) ~inputs:[| 1; 2; 3 |]))

(* ------------------------------------------------------------------ *)
(* K-set solver (Theorem 24) *)

let solve_kset ~t ~k ~n ~seed ~fault ~p ~q ~bound =
  let problem = Problem.make ~t ~k ~n in
  let inputs = Problem.distinct_inputs problem in
  let rng = Rng.create ~seed in
  let contract = { Generators.p = Procset.of_list p; q = Procset.of_list q; bound } in
  let source ~live = Generators.timely ~live ~n ~contract ~rng () in
  Ag_harness.solve ~problem ~inputs ~source ~max_steps:5_000_000 ~fault ()

(* Theorem 24 across a grid, with crashes, in S^k_{t+1,n} *)
let test_theorem24_grid () =
  let cases =
    [
      (1, 1, 3, [ 0 ], [ 1; 2 ], [ (1, 300) ]);
      (2, 1, 3, [ 2 ], [ 0; 1; 2 ], [ (0, 150); (1, 400) ]);
      (2, 2, 4, [ 2; 3 ], [ 0; 1; 2 ], []);
      (2, 2, 4, [ 2; 3 ], [ 0; 1; 2 ], [ (0, 30); (1, 30) ]);
      (3, 2, 5, [ 2; 3 ], [ 0; 1; 4; 3 ], [ (0, 300); (1, 900); (4, 2000) ]);
      (3, 3, 5, [ 1; 2; 4 ], [ 0; 1; 2; 3 ], [ (0, 500) ]);
      (4, 2, 6, [ 4; 5 ], [ 0; 1; 2; 3; 4 ], [ (0, 100); (1, 200); (2, 400); (3, 800) ]);
    ]
  in
  List.iteri
    (fun idx (t, k, n, p, q, fault) ->
      let outcome = solve_kset ~t ~k ~n ~seed:(2000 + idx) ~fault ~p ~q ~bound:3 in
      if not (Ag_harness.ok outcome) then
        Alcotest.failf "case %d (t=%d k=%d n=%d): %a" idx t k n Ag_harness.pp outcome;
      Alcotest.(check bool) "within k values" true
        (outcome.Ag_harness.report.Checker.distinct_values <= k))
    cases

(* leaders of the initial canonical winnerset crash: the solver must
   re-elect and still decide *)
let test_kset_leader_crash_reelection () =
  let outcome =
    solve_kset ~t:2 ~k:2 ~n:4 ~seed:77 ~fault:[ (0, 5); (1, 60) ] ~p:[ 2; 3 ]
      ~q:[ 0; 1; 2 ] ~bound:2
  in
  Alcotest.(check bool) "solved after re-election" true (Ag_harness.ok outcome);
  (* survivors decided a survivor's value *)
  Array.iteri
    (fun proc d ->
      if proc >= 2 then
        match d with
        | Some v -> Alcotest.(check bool) "survivor value" true (v = 102 || v = 103)
        | None -> Alcotest.fail "survivor undecided")
    outcome.Ag_harness.decisions

let test_kset_create_validation () =
  let store = Store.create () in
  Alcotest.check_raises "t < k rejected"
    (Invalid_argument "Kset_solver.create: requires k <= t (use Trivial when t < k)")
    (fun () ->
      ignore
        (Kset_solver.create store ~problem:(Problem.make ~t:1 ~k:2 ~n:3)
           ~inputs:[| 1; 2; 3 |] ()))

(* consensus via the solver: k = 1 always yields a single value *)
let test_kset_consensus () =
  let outcome =
    solve_kset ~t:1 ~k:1 ~n:3 ~seed:78 ~fault:[ (0, 40) ] ~p:[ 1 ] ~q:[ 0; 2 ] ~bound:4
  in
  Alcotest.(check bool) "ok" true (Ag_harness.ok outcome);
  Alcotest.(check int) "single value" 1 outcome.Ag_harness.report.Checker.distinct_values

(* decide steps are recorded and bounded by the run length *)
let test_decide_steps_recorded () =
  let outcome = solve_kset ~t:2 ~k:2 ~n:4 ~seed:79 ~fault:[] ~p:[ 0; 1 ] ~q:[ 2; 3 ] ~bound:3 in
  let total = Run.total_steps outcome.Ag_harness.run in
  (match Ag_harness.last_decide_step outcome with
  | Some s -> Alcotest.(check bool) "within run" true (s < total)
  | None -> Alcotest.fail "no decisions recorded");
  Array.iteri
    (fun p d ->
      match (d, outcome.Ag_harness.decisions.(p)) with
      | Some _, Some _ | None, None -> ()
      | _ -> Alcotest.fail "decide step iff decision")
    outcome.Ag_harness.decide_steps

(* Golden decide steps: seeded runs through every solver the harness
   dispatches to, on shm and over batched Netmem, pinning each
   process's first-visible decide step, the run length and why it
   stopped, as recorded before the harness polled decisions per
   process instead of snapshotting them every step. A poll that sees a
   decision one step late, or a stop test that fires one step early,
   moves these. *)
let test_decide_step_goldens () =
  let adaptive () =
    let problem = Problem.make ~t:2 ~k:2 ~n:5 in
    let contract =
      { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 0; 1; 2; 3 ]; bound = 3 }
    in
    let make_source ~view ~live =
      Adaptive.source ~live ~n:5 ~contract ~fault_budget:2 ~defeat:2 ~view ()
    in
    Ag_harness.solve_adaptive ~problem ~inputs:(Problem.distinct_inputs problem) ~make_source
      ~max_steps:400_000 ~fault:[ (0, 60) ] ()
  in
  let shm ?solver problem ~seed ~fault =
    let n = problem.Problem.n in
    let rng = Rng.create ~seed in
    let source ~live = Generators.random_fair ~live ~n ~rng () in
    Ag_harness.solve ~problem ~inputs:(Problem.distinct_inputs problem) ~source
      ~max_steps:100_000 ~fault ?solver ()
  in
  let net ?solver problem ~crashes =
    let combined =
      Adversary.crash_brs ~delta:2 ~gst:60 ~total:(problem.Problem.n + 1) ~k:problem.Problem.k
        ~crashes
    in
    (Net_agreement.solve ?solver ~resend_after:8 ~problem
       ~inputs:(Problem.distinct_inputs problem) ~combined ~max_steps:200_000 ())
      .Net_agreement.outcome
  in
  List.iter
    (fun (label, solve, decide_steps, total, reason) ->
      let o = solve () in
      Alcotest.(check (array (option int))) (label ^ ": decide steps") decide_steps
        o.Ag_harness.decide_steps;
      Alcotest.(check int) (label ^ ": total steps") total (Run.total_steps o.Ag_harness.run);
      Alcotest.(check string) (label ^ ": stop reason") reason
        (Fmt.str "%a" Run.pp_reason o.Ag_harness.run.Run.reason);
      Alcotest.(check bool) (label ^ ": ok") true (Ag_harness.ok o))
    [
      ( "shm kset",
        (fun () -> solve_kset ~t:2 ~k:2 ~n:4 ~seed:79 ~fault:[] ~p:[ 0; 1 ] ~q:[ 2; 3 ] ~bound:3),
        [| Some 239; Some 85; Some 330; Some 250 |],
        331,
        "stopped-early" );
      ( "shm kset with crashes",
        (fun () ->
          solve_kset ~t:2 ~k:2 ~n:5 ~seed:81 ~fault:[ (1, 60); (4, 200) ] ~p:[ 2; 3 ]
            ~q:[ 0; 2; 3 ] ~bound:3),
        [| Some 768; None; Some 778; Some 806; None |],
        807,
        "stopped-early" );
      ( "shm paxos",
        (fun () -> shm ~solver:`Paxos (Problem.consensus ~t:1 ~n:4) ~seed:5 ~fault:[ (3, 7) ]),
        [| Some 39; Some 56; Some 65; None |],
        66,
        "stopped-early" );
      ( "trivial",
        (fun () -> shm (Problem.make ~t:1 ~k:2 ~n:4) ~seed:6 ~fault:[ (0, 0) ]),
        [| None; Some 2; Some 9; Some 10 |],
        11,
        "stopped-early" );
      ( "adaptive",
        adaptive,
        [| None; Some 462; Some 556; Some 557; Some 559 |],
        560,
        "stopped-early" );
      ( "net kset",
        (fun () -> net (Problem.make ~t:2 ~k:2 ~n:5) ~crashes:[ (4, 5) ]),
        [| Some 617; Some 618; Some 829; Some 890; None |],
        891,
        "stopped-early" );
      ( "net paxos",
        (fun () -> net ~solver:`Paxos (Problem.consensus ~t:2 ~n:5) ~crashes:[ (3, 2) ]),
        [| Some 163; Some 193; Some 194; None; Some 191 |],
        195,
        "stopped-early" );
    ]

(* ------------------------------------------------------------------ *)
(* Ag_harness.solve ?on_step: an observer, not a participant *)

(* [solve on_step] runs one fixed instance, with or without the hook.
   The hook must fire exactly once per executed step, with consecutive
   global step numbers, and leave the outcome as it was without it. *)
let check_on_step_inert solve =
  let plain = solve None in
  let seen = ref [] in
  let hooked = solve (Some (fun ~global ~proc:_ -> seen := global :: !seen)) in
  let steps = Run.total_steps hooked.Ag_harness.run in
  Alcotest.(check bool) "instance decides" true (Ag_harness.ok plain);
  Alcotest.(check (list int)) "one call per executed step" (List.init steps Fun.id)
    (List.rev !seen);
  Alcotest.(check int) "same run length" (Run.total_steps plain.Ag_harness.run) steps;
  Alcotest.(check (array (option int))) "same decisions" plain.Ag_harness.decisions
    hooked.Ag_harness.decisions;
  Alcotest.(check (array (option int))) "same decide steps" plain.Ag_harness.decide_steps
    hooked.Ag_harness.decide_steps;
  Alcotest.(check bool) "same verdict" true (plain.Ag_harness.report = hooked.Ag_harness.report)

let test_on_step_shm () =
  check_on_step_inert (fun on_step ->
      let problem = Problem.make ~t:2 ~k:2 ~n:4 in
      let inputs = Problem.distinct_inputs problem in
      let rng = Rng.create ~seed:79 in
      let contract =
        { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 2; 3 ]; bound = 3 }
      in
      let source ~live = Generators.timely ~live ~n:4 ~contract ~rng () in
      Ag_harness.solve ~problem ~inputs ~source ~max_steps:5_000_000 ~fault:[ (3, 40) ]
        ?on_step ())

(* The Theorem 24 solver over batched Netmem under combined crash + BRS
   loss: n = 5 clients and one register owner, clients-only round robin
   with owner turns granted by the round policy. *)
let test_on_step_net () =
  check_on_step_inert (fun on_step ->
      let n = 5 and total = 6 in
      let problem = Problem.make ~t:2 ~k:2 ~n in
      let inputs = Problem.distinct_inputs problem in
      let combined =
        Adversary.crash_brs ~delta:2 ~gst:60 ~total ~k:2 ~crashes:[ (n - 1, 5) ]
      in
      let store = Store.create () in
      let net = Net.create ~store ~n:total ~adversary:combined.Adversary.adversary () in
      let nm =
        Netmem.install ~mode:Netmem.Batched ~resend_after:8 ~net ~store ~clients:n ~owners:1
          ()
      in
      let source ~live =
        let cursor = ref 0 in
        Source.make ~n:total (fun () ->
            let rec scan tries =
              let p = !cursor in
              cursor := (p + 1) mod n;
              if live p || tries >= n then Some p else scan (tries + 1)
            in
            scan 0)
      in
      Ag_harness.solve ~problem ~inputs ~source ~max_steps:200_000
        ~fault:combined.Adversary.fault ~store ~total
        ~extra_body:(fun p -> Netmem.owner_body nm p)
        ~boost:(Netmem.round_policy nm) ~substrate:(Net.substrate net) ?on_step ())

(* ------------------------------------------------------------------ *)
(* Adaptive adversary: the agreement-level Theorem 27 boundary *)

let adaptive_cell ~i ~j ~seed =
  let spec =
    {
      Setsync.Scenario.t = 2;
      k = 2;
      n = 5;
      i;
      j;
      bound = 3;
      seed;
      crashes = 0;
      adversary = Setsync.Scenario.Adaptive;
      max_steps = 400_000;
    }
  in
  let r = Setsync.Scenario.run_agreement spec in
  ( r.Setsync.Scenario.predicted,
    r.Setsync.Scenario.solved,
    r.Setsync.Scenario.outcome.Ag_harness.report.Checker.decided_count )

let test_adaptive_boundary () =
  List.iter
    (fun (i, j, seed) ->
      let predicted, solved, decided = adaptive_cell ~i ~j ~seed in
      Alcotest.(check bool) (Printf.sprintf "S^%d_%d matches prediction" i j) predicted solved;
      (* On solvable cells with i = k the adversary cannot afford its
         endgame and real decisions are forced; with i < k it may spend
         its whole fault budget stalling the run into vacuity (which is
         not a termination violation — the promise binds only runs with
         at most t faults; see EXPERIMENTS.md). Unsolvable cells must
         show no decisions at all. *)
      if predicted then begin
        if i = 2 (* = k *) then
          Alcotest.(check bool) (Printf.sprintf "S^%d_%d decided > 0" i j) true (decided > 0)
      end
      else Alcotest.(check int) (Printf.sprintf "S^%d_%d no decisions" i j) 0 decided)
    [ (1, 1, 101); (1, 2, 102); (2, 2, 103); (2, 3, 104); (3, 4, 105); (2, 4, 106) ]

(* Golden pin for the adversary's deterministic step stream (empty
   view, so no solver feedback): recorded against the List.nth pool
   scans, proving the array-backed pools preserve the emitted
   schedule exactly. *)
let test_adaptive_golden () =
  let contract =
    { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 2; 3 ]; bound = 3 }
  in
  let view = Kset_solver.empty_adversary_view ~n:5 in
  let src =
    Adaptive.source ~phase0:8 ~growth:4 ~n:5 ~contract ~fault_budget:2 ~defeat:2 ~view ()
  in
  Alcotest.(check (list int)) "deterministic prefix"
    [ 2; 3; 0; 4; 2; 3; 0; 4; 0; 1; 2; 3; 1; 4; 0; 1; 2; 3; 1; 4; 0; 1; 2; 3; 1;
      4; 0; 1; 2; 3; 1; 4; 2; 3; 1; 4; 2; 3; 1; 4; 0; 1; 2; 3; 0; 4; 0; 1; 2; 3;
      0; 4; 0; 1; 2; 3; 0; 4; 0; 1; 2; 3; 0; 4; 2; 3; 0; 4; 2; 3; 0; 4; 2; 3; 0;
      4; 0; 1; 2; 3; ]
    (Schedule.to_list (Source.take src 80))

(* Golden pins for the adversary driven by a live solver view: short
   adaptive runs on a solvable and an unsolvable cell, pinning the run
   length, every decision step, the first 200 executed steps and a
   fold over the whole executed schedule. *)
let test_adaptive_live_golden () =
  let fold s =
    let h = ref 0 in
    Schedule.iteri (fun _ p -> h := ((!h * 31) + p + 1) land 0x3fffffff) s;
    !h
  in
  List.iter
    (fun (i, j, seed, total, decide_steps, prefix, hash) ->
      let spec =
        {
          Setsync.Scenario.t = 2;
          k = 2;
          n = 5;
          i;
          j;
          bound = 3;
          seed;
          crashes = 1;
          adversary = Setsync.Scenario.Adaptive;
          max_steps = 20_000;
        }
      in
      let o = (Setsync.Scenario.run_agreement spec).Setsync.Scenario.outcome in
      let cell = Printf.sprintf "S^%d_%d" i j in
      let taken = o.Ag_harness.run.Run.taken in
      Alcotest.(check int) (cell ^ " total steps") total (Run.total_steps o.Ag_harness.run);
      Alcotest.(check (array (option int))) (cell ^ " decide steps") decide_steps
        o.Ag_harness.decide_steps;
      Alcotest.(check (list int)) (cell ^ " first 200 steps") prefix
        (Schedule.to_list (Schedule.prefix taken 200));
      Alcotest.(check int) (cell ^ " schedule fold") hash (fold taken))
    [
      ( 2,
        3,
        61,
        20000,
        [| Some 5849; Some 5857; Some 5711; Some 5855; None |],
        [
          2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3;
          4; 2; 3; 4; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3;
          4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2;
          3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 0; 1; 2;
          3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4;
          2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3;
          4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2;
          3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0;
        ],
        495871730 );
      ( 2,
        2,
        62,
        20000,
        [| None; None; None; None; None |],
        [
          2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3;
          4; 2; 3; 4; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3;
          4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2;
          3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 0; 1; 2;
          3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4;
          2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3;
          4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2; 3; 4; 2;
          3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0;
        ],
        769233922 );
    ]

let test_adaptive_phase_parameters_invalid () =
  let contract =
    { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 2; 3 ]; bound = 3 }
  in
  let view = Kset_solver.empty_adversary_view ~n:5 in
  List.iter
    (fun (phase0, growth) ->
      Alcotest.check_raises "bad phase parameters"
        (Invalid_argument "Adaptive.source: bad phase parameters") (fun () ->
          ignore
            (Adaptive.source ~phase0 ~growth ~n:5 ~contract ~fault_budget:2 ~defeat:2 ~view ())))
    [ (0, 16); (32, -1) ]

(* safety is never lost, even on unsolvable cells under the adversary *)
let test_adaptive_safety_everywhere () =
  List.iter
    (fun (i, j, seed) ->
      let spec =
        {
          Setsync.Scenario.t = 2;
          k = 2;
          n = 5;
          i;
          j;
          bound = 3;
          seed;
          crashes = 1;
          adversary = Setsync.Scenario.Adaptive;
          max_steps = 200_000;
        }
      in
      let r = Setsync.Scenario.run_agreement spec in
      Alcotest.(check bool)
        (Printf.sprintf "S^%d_%d safe" i j)
        true
        (Checker.safe r.Setsync.Scenario.outcome.Ag_harness.report))
    [ (1, 1, 201); (2, 2, 202); (2, 3, 203); (3, 3, 204) ]

let () =
  Alcotest.run "setsync_agreement"
    [
      ( "problem",
        [
          Alcotest.test_case "make/pp" `Quick test_problem_make;
          Alcotest.test_case "strengthen" `Quick test_problem_strengthen;
          Alcotest.test_case "inputs" `Quick test_problem_inputs;
        ] );
      ( "checker",
        [
          Alcotest.test_case "all good" `Quick test_checker_all_good;
          Alcotest.test_case "validity violation" `Quick test_checker_validity_violation;
          Alcotest.test_case "agreement violation" `Quick test_checker_agreement_violation;
          Alcotest.test_case "uniformity" `Quick test_checker_uniformity;
          Alcotest.test_case "termination" `Quick test_checker_termination;
          Alcotest.test_case "starvation-aware" `Quick test_checker_starvation;
        ] );
      ( "paxos",
        [
          Alcotest.test_case "solo decides" `Quick test_paxos_solo_decides;
          Alcotest.test_case "safety random schedules" `Quick test_paxos_safety_random;
          Alcotest.test_case "safety with crashes" `Quick test_paxos_safety_with_crashes;
          Alcotest.test_case "ballot classes" `Quick test_paxos_ballot_classes;
        ] );
      ( "trivial",
        [
          Alcotest.test_case "solves t<k" `Quick test_trivial_solves;
          Alcotest.test_case "writer crash" `Quick test_trivial_with_crash;
          Alcotest.test_case "validation" `Quick test_trivial_create_validation;
        ] );
      ( "consensus",
        [
          Alcotest.test_case "round robin decides proposer input" `Quick
            test_consensus_decides;
          Alcotest.test_case "non-proposer crash tolerated" `Quick
            test_consensus_crash_nonproposer;
          Alcotest.test_case "validation" `Quick test_consensus_create_validation;
        ] );
      ( "kset_solver",
        [
          Alcotest.test_case "Theorem 24 grid" `Slow test_theorem24_grid;
          Alcotest.test_case "leader crash re-election" `Quick test_kset_leader_crash_reelection;
          Alcotest.test_case "validation" `Quick test_kset_create_validation;
          Alcotest.test_case "consensus (k=1)" `Quick test_kset_consensus;
          Alcotest.test_case "decide steps" `Quick test_decide_steps_recorded;
          Alcotest.test_case "decide-step goldens" `Quick test_decide_step_goldens;
        ] );
      ( "harness on_step",
        [
          Alcotest.test_case "inert on shm" `Quick test_on_step_shm;
          Alcotest.test_case "inert on batched net" `Quick test_on_step_net;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "Theorem 27 boundary" `Slow test_adaptive_boundary;
          Alcotest.test_case "empty-view stream golden" `Quick test_adaptive_golden;
          Alcotest.test_case "live-view run golden" `Quick test_adaptive_live_golden;
          Alcotest.test_case "phase parameter validation" `Quick
            test_adaptive_phase_parameters_invalid;
          Alcotest.test_case "safety everywhere" `Slow test_adaptive_safety_everywhere;
        ] );
    ]
