(* Workload fuzz-hunt: seeded-bug hunts for the argmin off-by-one in
   Fuzz_systems.counter_core (n=3, t=2, k=1, schedules of length 96),
   as `setsync fuzz --sut seeded-bug` runs them. Each hunt is capped in
   execs and ends with a ddmin-shrunk counterexample. The fuzz loop
   and Executor.replay on shared memory do the work; Net and Netmem are
   absent. *)

module Rng = Setsync_schedule.Rng
module Schedule = Setsync_schedule.Schedule
module Kanti_omega = Setsync_detector.Kanti_omega
module Explorer = Setsync_explore.Explorer
module Budget = Setsync_explore.Budget
module Fuzz = Setsync_fuzz.Fuzz
module Fuzz_systems = Setsync_fuzz.Fuzz_systems

let params = { Kanti_omega.n = 3; t = 2; k = 1 }

let len = 96

let cap = 2_000

let hunts = 12

(* The hunt suite: fuzz seeds 1..12, run in an order the workload seed
   shuffles. Execs-to-find is heavy-tailed across fuzz seeds (2 to ~400
   here), so a suite drawn afresh per workload seed would move its
   percentiles by tens of percent between seeds; a pinned suite keeps
   execs_to_find a deterministic count that only the fuzzer can
   change. *)
let suite ~seed =
  let order = Array.init hunts (fun i -> i + 1) in
  Rng.shuffle (Rng.create ~seed) order;
  order

type result = {
  found : int;  (** 1-based exec that found the violation, or -1 *)
  execs : int;
  shrunk : int;
  shrink_tests : int;
  replay_steps : int;
  spurious : int;
  adds : int;
}

let result_of (r : Fuzz.report) =
  let found, shrunk, shrink_tests =
    match r.Fuzz.outcome with
    | Fuzz.Violation v -> (v.Fuzz.exec, Schedule.length v.Fuzz.shrunk, v.Fuzz.shrink_tests)
    | Fuzz.Passed -> (-1, 0, 0)
  in
  {
    found;
    execs = r.Fuzz.execs;
    shrunk;
    shrink_tests;
    replay_steps = r.Fuzz.stats.Budget.replay_steps;
    spurious = r.Fuzz.spurious;
    adds = r.Fuzz.corpus + r.Fuzz.corpus_evictions;
  }

let hunt ~sut ~property fuzz_seed =
  Fuzz.run ~len ~limits:(Budget.limits ~max_states:cap ()) ~sut ~properties:[ property ]
    ~seed:fuzz_seed ()

(* The hunt found the bug, and its shrunk schedule still violates. *)
let verified ~sut ~property (r : Fuzz.report) =
  match r.Fuzz.outcome with
  | Fuzz.Passed -> false
  | Fuzz.Violation v ->
      Explorer.check_schedule ~sut ~property ~fault:v.Fuzz.fault v.Fuzz.shrunk <> None

type setup = {
  sut : Fuzz_systems.obs Explorer.sut;
  property : Fuzz_systems.obs Explorer.state Setsync_explore.Property.t;
  seeds : int array;
}

let make ~seed =
  {
    sut = Fuzz_systems.counter_core ~params ();
    property = Fuzz_systems.winner_argmin ();
    seeds = suite ~seed;
  }

let pass s = Measure.time (fun () -> Array.map (hunt ~sut:s.sut ~property:s.property) s.seeds)

let warmup s = ignore (hunt ~sut:s.sut ~property:s.property 5)

let run ~seed ~seconds =
  let s, setup_s =
    Measure.setup (fun () ->
        let s = make ~seed in
        warmup s;
        s)
  in
  let p =
    Measure.passes ~seconds
      ~same:(fun a b -> result_of a = result_of b)
      s.seeds
      (hunt ~sut:s.sut ~property:s.property)
  in
  let failed =
    Array.fold_left
      (fun bad r -> if verified ~sut:s.sut ~property:s.property r then bad else bad + 1)
      p.Measure.differ p.Measure.first
  in
  Measure.summarize ~setup_s ~passes:p ~failed ~pass_label:"pass_s" ~task_label:"hunt_s"
    ~task_unit:"s" ~task_scale:1e-3 ~work_label:"execs_to_find"
    ~work:(Array.map (fun r -> float_of_int (result_of r).found) p.Measure.first)
    ~tail:0.75

let run_traced ~seed =
  let s = make ~seed in
  warmup s;
  let a =
    Report.alternate
      ~untraced:(fun () -> pass s)
      ~traced:(fun sp c fs ->
        Hooks.engine sp c (fun () ->
            hunt ~sut:(Hooks.sut sp c s.sut) ~property:(Hooks.property sp c s.property) fs))
      s.seeds
  in
  let base = a.Report.base and base_wall = a.Report.least_base_wall in
  let sp = a.Report.spans and c = a.Report.counters and traced = a.Report.results in
  let wall = a.Report.least_wall in
  let mismatches = ref 0 in
  Array.iteri (fun i a -> if result_of a <> result_of traced.(i) then incr mismatches) base;
  let mismatches = !mismatches in
  let failed =
    Array.fold_left
      (fun bad r -> if verified ~sut:s.sut ~property:s.property r then bad else bad + 1)
      0 base
  in
  let sum f = Array.fold_left (fun a r -> a + f (result_of r)) 0 base in
  let execs = sum (fun r -> r.execs) in
  let metrics =
    [
      ("runtime.steps", float_of_int c.Hooks.steps);
      ("runtime.steps_per_s", Measure.ratio (float_of_int c.Hooks.steps) base_wall);
      ("fuzz.execs", float_of_int execs);
      ("fuzz.execs_per_s", Measure.ratio (float_of_int execs) base_wall);
      ("fuzz.replay_steps", float_of_int (sum (fun r -> r.replay_steps)));
      ("fuzz.novel_ratio", Measure.iratio (sum (fun r -> r.adds)) execs);
      ("fuzz.spurious", float_of_int (sum (fun r -> r.spurious)));
      ("fuzz.shrink_tests", float_of_int (sum (fun r -> r.shrink_tests)));
      ("fuzz.step_ns", Span.ns_per_call sp Span.step);
      ("fuzz.property_ns", Span.ns_per_call sp Span.property);
      ("fuzz.fingerprint_ns", Span.ns_per_call sp Span.fingerprint);
      ("fuzz.observe_ns", Span.ns_per_call sp Span.observe);
      ("fuzz.self_s", Span.self_s sp Span.engine);
    ]
  in
  Printf.printf "fidelity: %d of %d hunts differ from the untraced run (execs, shrink, steps)\n"
    mismatches (Array.length s.seeds);
  (Array.length s.seeds, failed, mismatches = 0, { Report.sp; wall; base_wall; metrics })
