(* Workload explore: a fixed set of exhaustive bounded checks on one
   domain, as `setsync explore` runs them. The three shared-memory
   checks use the snapshot engine and never touch the executor; the CT
   check over net runs on the default path-replay engine and reaches
   the Net layer through replays. The seed draws only input values,
   which leave the explored state spaces unchanged. *)

module Rng = Setsync_schedule.Rng
module Run = Setsync_runtime.Run
module Problem = Setsync_agreement.Problem
module Kanti_omega = Setsync_detector.Kanti_omega
module Explorer = Setsync_explore.Explorer
module Property = Setsync_explore.Property
module Systems = Setsync_explore.Systems
module Budget = Setsync_explore.Budget
module Net = Setsync_net.Net
module Adversary = Setsync_net.Adversary
module Ct_detector = Setsync_net.Ct_detector
module Net_systems = Setsync_net.Net_systems

type net_tally = { mutable sent : int; mutable dropped : int; mutable last : Net.t option }

let tally () = { sent = 0; dropped = 0; last = None }

let settle t =
  Option.iter
    (fun net ->
      let s = Net.stats net in
      t.sent <- t.sent + s.Net.sent;
      t.dropped <- t.dropped + s.Net.dropped)
    t.last;
  t.last <- None

type check = {
  name : string;
  plain : unit -> Explorer.report;
  traced : Span.t -> Hooks.counters -> net_tally -> Explorer.report;
}

let kset ~name ~inputs ~symmetry ~depth =
  let problem = Problem.make ~t:1 ~k:1 ~n:3 in
  let sut = Systems.kset_agreement ~problem ~inputs () in
  let decisions st = st.Explorer.obs.Systems.decisions in
  let properties =
    [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
  in
  let config =
    Explorer.config ~prune_fingerprints:symmetry ~engine:Explorer.Snapshot ~symmetry ~depth ()
  in
  {
    name;
    plain = (fun () -> Explorer.explore ~sut ~properties config);
    traced =
      (fun sp c _ ->
        Hooks.engine sp c (fun () ->
            Explorer.explore ~sut:(Hooks.sut sp c sut)
              ~properties:(List.map (Hooks.property sp c) properties)
              config));
  }

let detector ~depth =
  let params = { Kanti_omega.n = 3; t = 1; k = 1 } in
  let sut = Systems.kanti_detector ~params () in
  let properties =
    [
      Property.anti_omega_stabilized ~k:1
        ~outputs:(fun st -> st.Explorer.obs.Systems.fd_outputs)
        ~correct:(fun st -> Run.correct st.Explorer.run);
    ]
  in
  let config = Explorer.config ~prune_fingerprints:false ~engine:Explorer.Snapshot ~depth () in
  {
    name = "detector-n3";
    plain = (fun () -> Explorer.explore ~sut ~properties config);
    traced =
      (fun sp c _ ->
        Hooks.engine sp c (fun () ->
            Explorer.explore ~sut:(Hooks.sut sp c sut)
              ~properties:(List.map (Hooks.property sp c) properties)
              config));
  }

(* Net_systems.ct_leader rebuilt from Net.create and Ct_detector, so
   the traced run can read each instance's Net.stats. *)
let ct_leader ~tally ~clients ~adversary =
  let gst_hint = adversary.Adversary.gst in
  {
    Explorer.n = clients;
    fresh =
      (fun ~store ->
        settle tally;
        let net = Net.create ~store ~n:clients ~adversary () in
        tally.last <- Some net;
        let dets =
          Array.init clients (fun me -> Ct_detector.create ~net ~clients ~me ~gst_hint ())
        in
        {
          Explorer.body = (fun p () -> Ct_detector.body dets.(p) ());
          observe =
            (fun () ->
              {
                Net_systems.leaders = Array.map Ct_detector.leader dets;
                ct_rounds = Array.map Ct_detector.rounds dets;
                completed_start = Array.map Ct_detector.completed_start dets;
                post_gst_end = Array.map Ct_detector.post_gst_end dets;
              });
          substrate = Some (Net.substrate net);
          machine = None;
        });
    obs_fingerprint =
      (fun o ->
        Fmt.str "%a|%a|%a|%a"
          Fmt.(array ~sep:semi int)
          o.Net_systems.leaders
          Fmt.(array ~sep:semi int)
          o.Net_systems.ct_rounds
          Fmt.(array ~sep:semi int)
          o.Net_systems.completed_start
          Fmt.(array ~sep:semi (option ~none:(any "-") int))
          o.Net_systems.post_gst_end);
  }

let ct_net ~depth =
  let adversary = Adversary.gst_drop ~delta:1 ~gst:4 in
  let properties = [ Net_systems.ct_stabilized ~delta:1 ] in
  let config =
    Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~engine:Explorer.Path ~depth ()
  in
  {
    name = "ct-net-n3";
    plain =
      (fun () ->
        Explorer.explore ~sut:(Net_systems.ct_leader ~clients:3 ~adversary ()) ~properties config);
    traced =
      (fun sp c tally ->
        let sut = Hooks.sut sp c (ct_leader ~tally ~clients:3 ~adversary) in
        let r =
          Hooks.engine sp c (fun () ->
              Explorer.explore ~sut ~properties:(List.map (Hooks.property sp c) properties) config)
        in
        settle tally;
        r);
  }

let checks ~seed =
  let rng = Rng.create ~seed in
  let base = Rng.int rng 1000 in
  let distinct = [| base; base + 1 + Rng.int rng 10; base + 20 + Rng.int rng 10 |] in
  Rng.shuffle rng distinct;
  let v = Rng.int rng 1000 in
  [|
    kset ~name:"kset-distinct" ~inputs:distinct ~symmetry:false ~depth:12;
    detector ~depth:13;
    kset ~name:"kset-equal-sym" ~inputs:[| v; v; v |] ~symmetry:true ~depth:14;
    ct_net ~depth:9;
  |]

let ok (r : Explorer.report) =
  (not r.Explorer.stats.Budget.truncated)
  && List.for_all (fun (_, v) -> v = Explorer.Ok_bounded) r.Explorer.verdicts

(* the deterministic counts two runs of one check must agree on *)
let counts (r : Explorer.report) =
  let s = r.Explorer.stats in
  Budget.(s.visited, s.pruned_fingerprint, s.pruned_sleep, s.replay_steps, s.machine_steps, s.restores)

let pass checks = Measure.time (fun () -> Array.map (fun ch -> ch.plain ()) checks)

let warmup = kset ~name:"warmup" ~inputs:[| 1; 2; 3 |] ~symmetry:false ~depth:8

let run ~seed ~seconds =
  let checks, setup_s =
    Measure.setup (fun () ->
        let checks = checks ~seed in
        ignore (warmup.plain ());
        checks)
  in
  let p =
    Measure.passes ~seconds ~same:(fun a b -> counts a = counts b) checks (fun ch -> ch.plain ())
  in
  let first = p.Measure.first in
  let failed = Array.fold_left (fun bad r -> if ok r then bad else bad + 1) p.Measure.differ first in
  Array.iteri
    (fun i ch ->
      Printf.printf "  %-16s visited %7d  %s  median %.1f ms\n" ch.name
        first.(i).Explorer.stats.Budget.visited
        (if ok first.(i) then "exhaustive, ok" else "NOT OK")
        p.Measure.task_ms.(i))
    checks;
  Measure.summarize ~setup_s ~passes:p ~failed ~pass_label:"explore_s" ~task_label:"check_ms"
    ~task_unit:"ms" ~task_scale:1. ~work_label:"visited"
    ~work:(Array.map (fun r -> float_of_int r.Explorer.stats.Budget.visited) first)
    ~tail:0.9

let run_traced ~seed =
  let checks = checks ~seed in
  ignore (warmup.plain ());
  let a =
    Report.alternate
      ~untraced:(fun () -> pass checks)
      ~traced:(fun sp c ch ->
        let tally = tally () in
        let r = ch.traced sp c tally in
        (r, tally))
      checks
  in
  let base = a.Report.base and base_wall = a.Report.least_base_wall in
  let sp = a.Report.spans and c = a.Report.counters and wall = a.Report.least_wall in
  let traced = Array.map fst a.Report.results in
  let net f = Array.fold_left (fun acc (_, t) -> acc + f t) 0 a.Report.results in
  let mismatches = ref 0 in
  Array.iteri (fun i a -> if counts a <> counts traced.(i) then incr mismatches) base;
  let mismatches = !mismatches in
  let failed = Array.fold_left (fun bad r -> if ok r then bad else bad + 1) 0 base in
  let sum f = Array.fold_left (fun a r -> a + f r.Explorer.stats) 0 base in
  let visited = sum (fun s -> s.Budget.visited) in
  let replay_steps = sum (fun s -> s.Budget.replay_steps) in
  let metrics =
    [
      ("runtime.steps", float_of_int c.Hooks.steps);
      ("runtime.steps_per_s", Measure.ratio (float_of_int c.Hooks.steps) base_wall);
      ("net.pre_step_ns_per_step", Span.ns_per_call sp Span.pre_step);
      ("net.msgs_sent", float_of_int (net (fun t -> t.sent)));
      ("net.msgs_dropped", float_of_int (net (fun t -> t.dropped)));
      ("explore.visited", float_of_int visited);
      ("explore.pruned", float_of_int (sum (fun s -> s.Budget.pruned_fingerprint + s.Budget.pruned_sleep)));
      ("explore.states_per_s", Measure.ratio (float_of_int visited) base_wall);
      ("explore.machine_steps", float_of_int (sum (fun s -> s.Budget.machine_steps)));
      ("explore.restores", float_of_int (sum (fun s -> s.Budget.restores)));
      ("explore.step_ns", Span.ns_per_call sp Span.step);
      ("explore.save_ns", Span.ns_per_call sp Span.save);
      ("explore.restore_ns", Span.ns_per_call sp Span.restore);
      ("explore.fingerprint_ns", Span.ns_per_call sp Span.fingerprint);
      ("explore.property_ns", Span.ns_per_call sp Span.property);
      ("explore.observe_ns", Span.ns_per_call sp Span.observe);
      ("explore.engine_self_s", Span.self_s sp Span.engine);
      ("explore.replay_steps_per_state", Measure.iratio replay_steps visited);
      ("net.self_s", Span.self_s sp Span.pre_step);
    ]
  in
  Printf.printf "fidelity: %d of %d checks differ from the untraced run (visited, pruned, steps)\n"
    mismatches (Array.length checks);
  Printf.printf "executor steps seen by the substrate hook: %d (replay steps reported: %d)\n"
    c.Hooks.steps replay_steps;
  (Array.length checks, failed, mismatches = 0, { Report.sp; wall; base_wall; metrics })
