module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Rng = Setsync_schedule.Rng
module Generators = Setsync_schedule.Generators
module Fault = Setsync_runtime.Fault
module Problem = Setsync_agreement.Problem
module Ag_harness = Setsync_agreement.Ag_harness
module Fd_harness = Setsync_detector.Fd_harness
module Kanti_omega = Setsync_detector.Kanti_omega
module Characterization = Setsync_solvability.Characterization

type adversary = Fair | Exclusive | Adaptive

type spec = {
  t : int;
  k : int;
  n : int;
  i : int;
  j : int;
  bound : int;
  seed : int;
  crashes : int;
  adversary : adversary;
  max_steps : int;
}

let validate spec =
  let { t; k; n; i; j; bound; crashes; max_steps; adversary; seed = _ } = spec in
  ignore (Problem.make ~t ~k ~n);
  ignore (Setsync_schedule.System.make ~i ~j ~n);
  if bound < 1 then invalid_arg "Scenario: bound must be >= 1";
  if crashes < 0 || crashes > t then invalid_arg "Scenario: need 0 <= crashes <= t";
  if max_steps < 1 then invalid_arg "Scenario: need a positive step budget";
  match adversary with
  | Exclusive ->
      if k >= n then invalid_arg "Scenario: Exclusive adversary needs k < n";
      (* worst-case phase victim is A ∪ Q with A ⊇ P disjoint from Q∖P *)
      if k + j - i >= n then
        invalid_arg "Scenario: Exclusive adversary would starve everyone in some phase"
  | Adaptive ->
      if k >= n then invalid_arg "Scenario: Adaptive adversary needs k < n";
      if k + j - i >= n then
        invalid_arg "Scenario: Adaptive adversary would starve everyone in some phase"
  | Fair -> ()

type report = {
  spec : spec;
  predicted : bool;
  witness_p : Procset.t;
  witness_q : Procset.t;
  fault : Fault.plan;
  outcome : Ag_harness.outcome;
  solved : bool;
}

(* Seed-deterministic scenario ingredients: nested witness sets
   P ⊆ Q of sizes i ⊆ j, and a crash plan avoiding P's designated
   survivor. *)
let ingredients spec =
  let { n; i; j; seed; crashes; _ } = spec in
  let rng = Rng.create ~seed in
  let order = Array.init n (fun p -> p) in
  Rng.shuffle rng order;
  let witness_p = Procset.of_list (Array.to_list (Array.sub order 0 i)) in
  let witness_q = Procset.of_list (Array.to_list (Array.sub order 0 j)) in
  let survivor = order.(0) in
  let victims =
    Array.to_list order
    |> List.filter (fun p -> p <> survivor)
    |> List.filteri (fun idx _ -> idx < crashes)
  in
  let fault = List.map (fun p -> (p, 1 + Rng.int rng 2000)) victims in
  (rng, witness_p, witness_q, fault)

let source_factory spec rng ~contract =
  match spec.adversary with
  | Fair -> fun ~live -> Generators.timely ~live ~n:spec.n ~contract ~rng ()
  | Exclusive ->
      fun ~live -> Generators.exclusive_timely ~live ~n:spec.n ~contract ~defeat:spec.k ()
  | Adaptive ->
      (* meaningful only through run_agreement, which routes winnerset
         peeking; for detector-only runs fall back to Exclusive *)
      fun ~live -> Generators.exclusive_timely ~live ~n:spec.n ~contract ~defeat:spec.k ()

let run_agreement ?obs spec =
  validate spec;
  let { t; k; n; i; j; max_steps; _ } = spec in
  let rng, witness_p, witness_q, fault = ingredients spec in
  let contract = { Generators.p = witness_p; q = witness_q; bound = spec.bound } in
  let problem = Problem.make ~t ~k ~n in
  let inputs = Problem.distinct_inputs problem in
  let outcome =
    match spec.adversary with
    | Adaptive ->
        let make_source ~view ~live =
          Setsync_agreement.Adaptive.source ~live ~n ~contract ~fault_budget:t ~defeat:k
            ~view ()
        in
        Ag_harness.solve_adaptive ~problem ~inputs ~make_source ~max_steps ~fault ?obs ()
    | Fair | Exclusive ->
        let source = source_factory spec rng ~contract in
        Ag_harness.solve ~problem ~inputs ~source ~max_steps ~fault ?obs ()
  in
  {
    spec;
    predicted = Characterization.solvable ~t ~k ~n ~i ~j;
    witness_p;
    witness_q;
    fault;
    outcome;
    solved = Ag_harness.ok outcome;
  }

let run_detector ?obs spec =
  validate spec;
  let { t; k; n; i; j; max_steps; _ } = spec in
  let rng, witness_p, witness_q, fault = ingredients spec in
  let contract = { Generators.p = witness_p; q = witness_q; bound = spec.bound } in
  let params = { Kanti_omega.n; t; k } in
  let source = source_factory spec rng ~contract in
  (* No early stop here: boundary experiments must distinguish genuine
     stabilization from a transiently quiet stretch of a growing
     starvation phase, so the run always uses its full budget and the
     verdict requires stability through the final tenth. *)
  let result =
    Fd_harness.run ~params ~source ~max_steps ~fault ~margin:(max_steps / 10) ?obs ()
  in
  (result, Characterization.solvable ~t ~k ~n ~i ~j)

let pp_adversary ppf = function
  | Fair -> Fmt.string ppf "fair"
  | Exclusive -> Fmt.string ppf "exclusive"
  | Adaptive -> Fmt.string ppf "adaptive"

let pp_report ppf r =
  Fmt.pf ppf "(%d,%d,%d) in S^%d_{%d,%d} [%a, b=%d, %d crashes]: predicted=%b solved=%b %a"
    r.spec.t r.spec.k r.spec.n r.spec.i r.spec.j r.spec.n pp_adversary r.spec.adversary
    r.spec.bound (List.length r.fault) r.predicted r.solved Setsync_agreement.Checker.pp
    r.outcome.Ag_harness.report
