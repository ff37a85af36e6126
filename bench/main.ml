(* The reproduction harness: regenerates every figure and result
   statement of the paper (sections E1-E11, see DESIGN.md §5 and
   EXPERIMENTS.md), then the harness's own profile: fuzz and net
   throughput (F1, N1, N2), detector convergence (P7), ablations (P8)
   and the observability-overhead check (P9).

   Everything is seeded and deterministic; the experiment sections are
   the "tables and figures" of this reproduction. *)

open Setsync

let section title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

let subsection title = Fmt.pr "@.-- %s@." title

(* ------------------------------------------------ machine-readable *)

(* Sections push rows here as they print their tables; the driver
   writes everything to BENCH_results.json (full run) or
   BENCH_quick.json (--quick) so downstream tooling reads structured
   data instead of scraping the text. *)
module Results = struct
  let rows : (string * (string * Json.t) list) list ref = ref []

  let add sec fields = rows := (sec, fields) :: !rows

  let write file =
    let obj =
      Json.Obj
        [
          ("schema", Json.String "setsync-bench/1");
          ( "rows",
            Json.List
              (List.rev_map
                 (fun (s, fields) -> Json.Obj (("section", Json.String s) :: fields))
                 !rows) );
        ]
    in
    let oc = open_out file in
    output_string oc (Json.to_string obj);
    output_char oc '\n';
    close_out oc;
    Fmt.pr "@.machine-readable results written to %s@." file
end

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — set timeliness versus process timeliness *)

let e1_figure1 () =
  section "E1. Figure 1: the schedule [(p1*q)^i (p2*q)^i], i = 1, 2, ...";
  Fmt.pr "observed least timeliness bound per prefix length:@.";
  let lengths = [ 100; 1_000; 10_000; 100_000 ] in
  let q = Procset.singleton 2 in
  let curve p =
    Analysis.bound_curve ~p ~q ~source:(Generators.figure1 ()) ~lengths
  in
  let rows =
    [
      ("{p1} wrt {q}", curve (Procset.singleton 0));
      ("{p2} wrt {q}", curve (Procset.singleton 1));
      ("{p1,p2} wrt {q}", curve (Procset.of_list [ 0; 1 ]));
    ]
  in
  Fmt.pr "  %-18s" "set pair";
  List.iter (fun l -> Fmt.pr "%10d" l) lengths;
  Fmt.pr "@.";
  List.iter
    (fun (label, c) ->
      Fmt.pr "  %-18s" label;
      Array.iter (fun b -> Fmt.pr "%10d" b) c.Analysis.bounds;
      Fmt.pr "@.")
    rows;
  Fmt.pr
    "  paper's point: the singletons' bounds diverge with the prefix (neither@.\
    \  p1 nor p2 is timely w.r.t. q) while the pair's bound is the constant 2@.\
    \  (the set {p1,p2} is timely w.r.t. {q}).@."

(* ------------------------------------------------------------------ *)
(* E2: Theorem 23 — Figure 2 implements t-resilient k-anti-Omega *)

let e2_theorem23 () =
  section "E2. Theorem 23: Figure 2 implements t-resilient k-anti-Omega in S^k_{t+1,n}";
  Fmt.pr "  %-22s %-8s %-8s %-10s %-12s %s@." "instance" "bound" "crashes" "verdict"
    "winner" "stable from step";
  let cases =
    [
      (3, 1, 1, 2, 0);
      (3, 2, 1, 4, 1);
      (4, 2, 2, 2, 0);
      (4, 2, 2, 4, 2);
      (4, 3, 2, 4, 1);
      (5, 3, 2, 4, 2);
      (5, 4, 3, 2, 2);
      (5, 4, 4, 4, 1);
      (6, 4, 3, 4, 3);
    ]
  in
  List.iteri
    (fun idx (n, t, k, bound, crashes) ->
      let spec =
        {
          Scenario.t;
          k;
          n;
          i = k;
          j = t + 1;
          bound;
          seed = 9_000 + idx;
          crashes;
          adversary = Scenario.Fair;
          max_steps = 4_000_000;
        }
      in
      let result, _ = Scenario.run_detector spec in
      let verdict, winner, stable =
        match result.Fd_harness.winner_verdict with
        | Anti_omega.Winner_stable { winner; stable_from } ->
            ("ok", Fmt.str "%a" Procset.pp winner, string_of_int stable_from)
        | Anti_omega.Winner_vacuous _ -> ("vacuous", "-", "-")
        | Anti_omega.Winner_unstable why -> ("UNSTABLE: " ^ why, "-", "-")
      in
      Fmt.pr "  (t=%d,k=%d,n=%d) S^%d_%-4d %-8d %-8d %-10s %-12s %s@." t k n k (t + 1) bound
        crashes verdict winner stable)
    cases

(* ------------------------------------------------------------------ *)
(* E4: Theorem 24 / Corollary 25 — solving (t,k,n) in S^k_{t+1,n} *)

let e4_theorem24 () =
  section "E4. Theorem 24 / Cor. 25: (t,k,n)-agreement solved in S^k_{t+1,n}";
  Fmt.pr "  %-14s %-8s %-9s %-8s %-9s %-10s %s@." "problem" "crashes" "solved" "values"
    "decided" "last step" "algorithm";
  let cases =
    [
      (1, 1, 3, 1); (2, 1, 3, 2); (2, 2, 4, 0); (2, 2, 4, 2); (3, 2, 5, 3);
      (3, 3, 5, 1); (4, 2, 6, 4); (1, 2, 4, 1) (* trivial regime *);
      (1, 3, 5, 1) (* trivial regime *);
    ]
  in
  List.iteri
    (fun idx (t, k, n, crashes) ->
      let j = min (t + 1) n in
      let i = min k j in
      let spec =
        {
          Scenario.t;
          k;
          n;
          i;
          j;
          bound = 3;
          seed = 9_100 + idx;
          crashes;
          adversary = Scenario.Fair;
          max_steps = 6_000_000;
        }
      in
      let r = Scenario.run_agreement spec in
      let o = r.Scenario.outcome in
      Fmt.pr "  (%d,%d,%d)%6s %-8d %-9b %-8d %-9d %-10s %s@." t k n "" crashes
        r.Scenario.solved o.Ag_harness.report.Checker.distinct_values
        o.Ag_harness.report.Checker.decided_count
        (match Ag_harness.last_decide_step o with Some s -> string_of_int s | None -> "-")
        (if o.Ag_harness.used_trivial then "trivial" else "kanti-omega+paxos"))
    cases

(* ------------------------------------------------------------------ *)
(* E5: Theorem 26(1) — (k,k,n) in S^k_{n,n} *)

let e5_theorem26_possible () =
  section "E5. Theorem 26(1): (k,k,n)-agreement solvable in S^k_{n,n}";
  Fmt.pr "  %-12s %-9s %-8s %s@." "instance" "solved" "values" "last decide step";
  List.iteri
    (fun idx (k, n) ->
      let spec =
        {
          Scenario.t = k;
          k;
          n;
          i = k;
          j = n;
          bound = 3;
          seed = 9_200 + idx;
          crashes = min k 2;
          adversary = Scenario.Fair;
          max_steps = 6_000_000;
        }
      in
      let r = Scenario.run_agreement spec in
      Fmt.pr "  (%d,%d,%d)%4s %-9b %-8d %s@." k k n "" r.Scenario.solved
        r.Scenario.outcome.Ag_harness.report.Checker.distinct_values
        (match Ag_harness.last_decide_step r.Scenario.outcome with
        | Some s -> string_of_int s
        | None -> "-"))
    [ (1, 3); (2, 4); (2, 5); (3, 5); (3, 6) ]

(* ------------------------------------------------------------------ *)
(* E6: Theorem 26(2) machinery — the BG simulation *)

let e6_bg_simulation () =
  section "E6. Theorem 26(2) machinery: BG simulation (k+1 simulators, n threads)";
  Fmt.pr "  %-26s %-9s %-12s %-12s %-14s %s@." "configuration" "crashes" "consistent"
    "crash-bound" "(c+1)-bound" "unfinished/sim";
  List.iteri
    (fun idx (threads, rounds, sims, crashes) ->
      let inputs = Array.init threads (fun i -> 10 * (i + 1)) in
      let protocol = Iis.max_spread ~threads ~rounds ~inputs in
      let rng = Rng.create ~seed:(9_300 + idx) in
      let source ~live = Generators.random_fair ~live ~n:sims ~rng () in
      let fault = List.init crashes (fun c -> (c, 97 + (211 * c))) in
      let r =
        Simulation.simulate ~protocol ~simulators:sims ~source ~max_steps:3_000_000 ~fault ()
      in
      let crash_count = Procset.cardinal r.Simulation.crashed_sims in
      let worst_bound = ref 0 in
      let unfinished = ref [] in
      Array.iteri
        (fun sim _ ->
          if not (Procset.mem sim r.Simulation.crashed_sims) then begin
            worst_bound :=
              max !worst_bound
                (Simulation.simulated_timeliness_bound r ~sim ~set_size:(crash_count + 1));
            unfinished :=
              Procset.cardinal (Simulation.unfinished r ~sim) :: !unfinished
          end)
        r.Simulation.outputs;
      let unfinished_str =
        String.concat "," (List.rev_map string_of_int !unfinished)
      in
      Fmt.pr "  %d threads x %d rounds / %d sims %-7d %-12b %-12b %-14d %s@." threads rounds
        sims crash_count (Simulation.consistent r) (Simulation.check_crash_bound r)
        !worst_bound unfinished_str)
    [ (5, 4, 3, 0); (5, 4, 3, 1); (6, 5, 3, 2); (8, 4, 4, 2); (6, 6, 2, 1) ]

(* ------------------------------------------------------------------ *)
(* E7/E8: Theorem 27 — the full solvability boundary *)

let e7_e8_boundary () =
  section "E7/E8. Theorem 27: (t,k,n)-agreement solvable in S^i_{j,n} iff i<=k and j-i>=t+1-k";
  List.iter
    (fun (t, k, n) ->
      subsection
        (Fmt.str "(t=%d,k=%d,n=%d): predicted grid (■ solvable, · not)" t k n);
      Fmt.pr "%a@." Characterization.pp_grid (Characterization.grid ~t ~k ~n);
      Fmt.pr
        "@.  empirical check per cell (adaptive adversary where constructible,@.\
        \  fair elsewhere): ok = outcome matches the formula@.";
      Fmt.pr "  %-10s %-10s %-11s %-9s %s@." "cell" "predicted" "adversary" "solved" "ok";
      let all_ok = ref true in
      List.iter
        (fun { Characterization.i; j; predicted } ->
          let constructible = k + j - i < n && k < n in
          let adversary = if constructible then Scenario.Adaptive else Scenario.Fair in
          let spec =
            {
              Scenario.t;
              k;
              n;
              i;
              j;
              bound = 3;
              seed = 9_400 + (100 * i) + j;
              crashes = 0;
              adversary;
              max_steps = 500_000;
            }
          in
          let r = Scenario.run_agreement spec in
          let ok = r.Scenario.solved = predicted in
          if not ok then all_ok := false;
          Fmt.pr "  S^%d_{%d,%d}%s %-10b %-11s %-9b %s@." i j n
            (String.make (max 0 (4 - String.length (string_of_int j))) ' ')
            predicted
            (match adversary with
            | Scenario.Adaptive -> "adaptive"
            | Scenario.Fair -> "fair"
            | Scenario.Exclusive -> "exclusive")
            r.Scenario.solved
            (if ok then "ok" else "MISMATCH"))
        (Characterization.grid ~t ~k ~n);
      Fmt.pr "  => all cells match the formula: %b@." !all_ok)
    [ (2, 2, 5); (3, 2, 5) ]

(* ------------------------------------------------------------------ *)
(* E10: the separation headline *)

let e10_separation () =
  section
    "E10. Separation: S^k_{t+1,n} solves (t,k,n) but neither (t+1,k,n) nor (t,k-1,n)";
  Fmt.pr "  %-12s %-16s %-11s %s@." "system" "problem" "predicted" "solved (adaptive)";
  let run ~t ~k ~n ~i ~j ~seed =
    let spec =
      {
        Scenario.t;
        k;
        n;
        i;
        j;
        bound = 3;
        seed;
        crashes = 0;
        adversary = Scenario.Adaptive;
        max_steps = 600_000;
      }
    in
    Scenario.run_agreement spec
  in
  List.iter
    (fun (t, k, n) ->
      let i = k and j = t + 1 in
      let base = run ~t ~k ~n ~i ~j ~seed:9_501 in
      let res = run ~t:(t + 1) ~k ~n ~i ~j ~seed:9_502 in
      let agr = run ~t ~k:(k - 1) ~n ~i ~j ~seed:9_503 in
      let line problem (r : Scenario.report) =
        Fmt.pr "  S^%d_{%d,%d}%4s %-16s %-11b %b@." i j n "" problem r.Scenario.predicted
          r.Scenario.solved
      in
      line (Fmt.str "(%d,%d,%d)" t k n) base;
      line (Fmt.str "(%d,%d,%d)" (t + 1) k n) res;
      line (Fmt.str "(%d,%d,%d)" t (k - 1) n) agr)
    [ (2, 2, 5) ]

(* ------------------------------------------------------------------ *)
(* E11: bounded model checking of small instances *)

(* verdicts compared through [Schedule.equal]: a counterexample
   schedule is a view over a shared array, so polymorphic [=] would
   also compare the array's unused slack *)
let same_verdicts a b =
  List.equal
    (fun (n1, v1) (n2, v2) ->
      String.equal n1 n2
      &&
      match (v1, v2) with
      | Explorer.Ok_bounded, Explorer.Ok_bounded -> true
      | Explorer.Violated x, Explorer.Violated y ->
          Schedule.equal x.schedule y.schedule && String.equal x.reason y.reason
      | Explorer.Ok_bounded, Explorer.Violated _ | Explorer.Violated _, Explorer.Ok_bounded ->
          false)
    a b

let engine_label (r : Explorer.report) =
  match r.Explorer.engine with
  | Explorer.Per_state -> "state"
  | Explorer.Path -> "path"
  | Explorer.Snapshot -> "snapshot"

let e11_explore () =
  section "E11. Bounded exploration: exhaustive small-instance checking (setsync_explore)";
  subsection "a. k-set-agreement safety, every interleaving to depth 7 (t=1,k=1,n=3)";
  let problem = Problem.make ~t:1 ~k:1 ~n:3 in
  let inputs = Problem.distinct_inputs problem in
  let kset_sut = Explore_systems.kset_agreement ~problem ~inputs () in
  let decisions st = st.Explorer.obs.Explore_systems.decisions in
  let kset_report =
    Explorer.explore ~sut:kset_sut
      ~properties:
        [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
      (Explorer.config ~prune_fingerprints:false ~depth:7 ())
  in
  Fmt.pr "%a@." Explorer.pp_report kset_report;
  subsection "b. Theorem 23 stabilization at the horizon, every interleaving to depth 12 (t=1,k=1,n=2)";
  let det_sut = Explore_systems.kanti_detector ~params:{ Kanti_omega.n = 2; t = 1; k = 1 } () in
  let det_report =
    Explorer.explore ~sut:det_sut
      ~properties:
        [
          Property.anti_omega_stabilized ~k:1
            ~outputs:(fun st -> st.Explorer.obs.Explore_systems.fd_outputs)
            ~correct:(fun st -> Run.correct st.Explorer.run);
        ]
      (Explorer.config ~prune_fingerprints:false ~depth:12 ())
  in
  Fmt.pr "%a@." Explorer.pp_report det_report;
  subsection "c. seeded-false: single-process timeliness on the Figure 1 family (n=3, bound 2)";
  let sut = Explore_systems.pause_procs ~n:3 in
  let property =
    Property.set_timely ~p:(Procset.singleton 0) ~q:(Procset.singleton 2) ~bound:2
      ~schedule:(fun st -> st.Explorer.prefix)
  in
  let report =
    Explorer.explore ~sut ~properties:[ property ]
      (Explorer.config ~strategy:Explorer.Bfs ~prune_fingerprints:false ~sleep_sets:false
         ~depth:5 ())
  in
  Fmt.pr "%a@." Explorer.pp_report report;
  (match List.assoc property.Property.name report.Explorer.verdicts with
  | Explorer.Ok_bounded -> Fmt.pr "  UNEXPECTED: no counterexample found@."
  | Explorer.Violated { schedule; _ } ->
      let violates s = Explorer.check_schedule ~sut ~property s <> None in
      let shrunk = Shrink.run ~violates schedule in
      Fmt.pr "  shrunk counterexample (%d ddmin tests): %a   reproduced on replay: %b@."
        shrunk.Shrink.tests Schedule.pp_full shrunk.Shrink.schedule
        (Explorer.check_schedule ~sut ~property shrunk.Shrink.schedule <> None))

let e11_domains ?(depth = 12) () =
  subsection
    (Fmt.str "d. parallel exploration: domains vs. wall time (Figure 2 detector, n=2, depth %d)"
       depth);
  let explore domains =
    let sut = Explore_systems.kanti_detector ~params:{ Kanti_omega.n = 2; t = 1; k = 1 } () in
    Explorer.explore ~domains ~sut
      ~properties:
        [
          Property.anti_omega_stabilized ~k:1
            ~outputs:(fun st -> st.Explorer.obs.Explore_systems.fd_outputs)
            ~correct:(fun st -> Run.correct st.Explorer.run);
        ]
      (Explorer.config ~prune_fingerprints:false ~depth ())
  in
  let verdict_names (r : Explorer.report) =
    List.filter_map
      (fun (name, v) -> match v with Explorer.Violated _ -> Some name | Explorer.Ok_bounded -> None)
      r.Explorer.verdicts
  in
  (* the default engine runs snapshot here: its movement is machine
     steps, not replay steps *)
  Fmt.pr "  %-8s %-26s %-9s %-9s %-9s %s@." "domains" "wall / cpu" "visited" "engine" "moves/v"
    "verdicts";
  let baseline = ref None in
  List.iter
    (fun domains ->
      let r = explore domains in
      let violated = verdict_names r in
      let agrees =
        match !baseline with
        | None ->
            baseline := Some violated;
            "baseline"
        | Some b -> if violated = b then "same as 1 domain" else "VERDICT MISMATCH"
      in
      let s = r.Explorer.stats in
      let moves_per_visited =
        float_of_int (s.Budget.replay_steps + s.Budget.machine_steps)
        /. float_of_int (max 1 s.Budget.visited)
      in
      Fmt.pr "  %-8d %-26s %-9d %-9s %-9s %s@." domains
        (Fmt.str "%a" Budget.pp_times s)
        s.Budget.visited (engine_label r)
        (Fmt.str "%.2f" moves_per_visited)
        agrees;
      Results.add "E11d"
        [
          ("domains", Json.Int domains);
          ("depth", Json.Int depth);
          ("wall_seconds", Json.Float s.Budget.wall_seconds);
          ("cpu_seconds", Json.Float s.Budget.cpu_seconds);
          ("visited", Json.Int s.Budget.visited);
          ("engine", Json.String (engine_label r));
          ("replay_steps", Json.Int s.Budget.replay_steps);
          ("machine_steps", Json.Int s.Budget.machine_steps);
          ("moves_per_visited", Json.Float moves_per_visited);
          ("verdicts_agree", Json.Bool (agrees <> "VERDICT MISMATCH"));
        ])
    [ 1; 2; 4 ]

(* E11e: the replay amortization of path replay, on the system it
   still serves: the CT timeout detector over the net substrate, which
   has no machine form (machine-form systems run on the snapshot
   engine, E11f). The depth-first walk steps one live instance into
   each node's first child and reaches the other children by fresh
   replays of their prefixes, so replay steps per visited state drop
   from O(depth) to amortized O(1). Both engines
   explore the same tree (sleep sets off, which the explorer requires
   on a net sut, and fingerprints off), a pure function of the
   instance, so `make ci` pins every count exactly
   (bin/bench_guard.ml). *)
let e11_engines () =
  subsection "e. replay amortization: path-replay walk vs per-state engine (net CT, fp off)";
  Fmt.pr "  %-18s %-9s %-9s %-9s %-13s %-9s %s@." "instance" "engine" "visited"
    "replays" "replay_steps" "steps/v" "vs state";
  let n = 2 and depth = 12 and delta = 1 and gst = 4 in
  let run engine =
    let sut = Net_systems.ct_leader ~clients:n ~adversary:(Adversary.gst_drop ~delta ~gst) () in
    Explorer.explore ~sut ~properties:[ Net_systems.ct_stabilized ~delta ]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~engine ~depth ())
  in
  let r_state = run Explorer.Per_state in
  let r_path = run Explorer.Path in
  let agree =
    same_verdicts r_state.Explorer.verdicts r_path.Explorer.verdicts
    && r_state.Explorer.stats.Budget.visited = r_path.Explorer.stats.Budget.visited
  in
  let ratio =
    float_of_int r_state.Explorer.stats.Budget.replay_steps
    /. float_of_int (max 1 r_path.Explorer.stats.Budget.replay_steps)
  in
  let instance = Fmt.str "CT n=%d @%d" n depth in
  let row (r : Explorer.report) note =
    let s = r.Explorer.stats in
    let spv = float_of_int s.Budget.replay_steps /. float_of_int (max 1 s.Budget.visited) in
    Fmt.pr "  %-18s %-9s %-9d %-9d %-13d %-9s %s@." instance (engine_label r)
      s.Budget.visited s.Budget.replays s.Budget.replay_steps
      (Fmt.str "%.2f" spv)
      note;
    Results.add "E11e"
      [
        ("engine", Json.String (engine_label r));
        ("system", Json.String "ct");
        ("n", Json.Int n);
        ("depth", Json.Int depth);
        ("visited", Json.Int s.Budget.visited);
        ("replays", Json.Int s.Budget.replays);
        ("replay_steps", Json.Int s.Budget.replay_steps);
        ("steps_per_visited", Json.Float spv);
        ("ratio_vs_state", Json.Float ratio);
        ("equivalent", Json.Bool agree);
      ]
  in
  row r_state "baseline";
  row r_path
    (Fmt.str "%.2fx fewer steps%s" ratio
       (if agree then ", same verdicts+visited" else ", ENGINE MISMATCH"))

(* E11f: the snapshot engine and symmetry reduction. Part one runs the
   k-set instances on the snapshot engine and on the per-state
   reference (fingerprints off, so visited counts are
   engine-independent): replay steps drop to exactly zero — state
   reconstruction is typed copy/restore, accounted separately as
   machine steps and restores. Part two checks the
   equal-inputs instance at depth 20 with fingerprints keyed by the
   machine payload, first under the identity alone and then with
   symmetry reduction on. The solver's only renaming is the identity
   (its scans run in a fixed order and line 4 breaks ties by set
   index, so no other renaming maps transitions to transitions), so
   the symmetric run must visit exactly what plain fingerprints visit.
   Two reads commute, so fingerprints first prune at depth 17: the row
   runs at depth 20, where they prune 9 and plain < fp-off.
   `make ci` pins replay_steps = 0, engine equivalence, exhaustive runs
   with the same verdicts, and sym = plain < fp-off
   (bin/bench_guard.ml). *)
let e11_snapshot () =
  subsection "f. snapshot engine: zero replay steps; symmetry adds nothing on k-set";
  Fmt.pr "  %-20s %-9s %-9s %-13s %-14s %-9s %s@." "instance" "engine" "visited"
    "replay_steps" "machine_steps" "restores" "note";
  let machine_metrics obs =
    let m name = Metrics.counter_value (Metrics.counter obs.Obs.metrics name) in
    (m "explorer.machine_steps", m "explorer.restores")
  in
  List.iter
    (fun (n, depth) ->
      let problem = Problem.make ~t:1 ~k:1 ~n in
      let inputs = Problem.distinct_inputs problem in
      let sut = Explore_systems.kset_agreement ~problem ~inputs () in
      let decisions st = st.Explorer.obs.Explore_systems.decisions in
      let properties =
        [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
      in
      let r_state =
        Explorer.explore ~sut ~properties
          (Explorer.config ~prune_fingerprints:false ~engine:Explorer.Per_state ~depth ())
      in
      let obs = Obs.create () in
      let r_snap =
        Explorer.explore ~obs ~sut ~properties
          (Explorer.config ~prune_fingerprints:false ~engine:Explorer.Snapshot ~depth ())
      in
      let machine_steps, restores = machine_metrics obs in
      let agree =
        same_verdicts r_snap.Explorer.verdicts r_state.Explorer.verdicts
        && r_snap.Explorer.stats.Budget.visited = r_state.Explorer.stats.Budget.visited
        && r_snap.Explorer.stats.Budget.pruned_sleep
           = r_state.Explorer.stats.Budget.pruned_sleep
      in
      let instance = Fmt.str "t=1,k=1,n=%d @%d" n depth in
      Fmt.pr "  %-20s %-9s %-9d %-13d %-14s %-9s %s@." instance (engine_label r_state)
        r_state.Explorer.stats.Budget.visited r_state.Explorer.stats.Budget.replay_steps "-"
        "-" "baseline";
      Fmt.pr "  %-20s %-9s %-9d %-13d %-14d %-9d %s@." instance "snapshot"
        r_snap.Explorer.stats.Budget.visited r_snap.Explorer.stats.Budget.replay_steps
        machine_steps restores
        (if agree then "same verdicts+visited+pruned, 0 replay steps" else "ENGINE MISMATCH");
      Results.add "E11f"
        [
          ("kind", Json.String "engine");
          ("n", Json.Int n);
          ("depth", Json.Int depth);
          ("visited", Json.Int r_snap.Explorer.stats.Budget.visited);
          ("reference", Json.String (engine_label r_state));
          ("reference_replay_steps", Json.Int r_state.Explorer.stats.Budget.replay_steps);
          ("replay_steps", Json.Int r_snap.Explorer.stats.Budget.replay_steps);
          ("machine_steps", Json.Int machine_steps);
          ("restores", Json.Int restores);
          ("equivalent", Json.Bool agree);
        ])
    [ (2, 8); (3, 8) ];
  (* part two: symmetry on the equal-inputs instance *)
  let n = 3 and depth = 20 in
  let problem = Problem.make ~t:1 ~k:1 ~n in
  let inputs = Array.make n 7 in
  let sut = Explore_systems.kset_agreement ~problem ~inputs () in
  let decisions st = st.Explorer.obs.Explore_systems.decisions in
  let properties =
    [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
  in
  let run ~prune ~symmetry =
    Explorer.explore ~sut ~properties
      (Explorer.config ~prune_fingerprints:prune ~engine:Explorer.Snapshot ~symmetry
         ~depth ())
  in
  let r_full = run ~prune:false ~symmetry:false in
  let r_plain = run ~prune:true ~symmetry:false in
  let r_sym = run ~prune:true ~symmetry:true in
  let v_full = r_full.Explorer.stats.Budget.visited in
  let v_plain = r_plain.Explorer.stats.Budget.visited in
  let v_sym = r_sym.Explorer.stats.Budget.visited in
  let reduction = float_of_int v_full /. float_of_int (max 1 v_sym) in
  let agree =
    same_verdicts r_full.Explorer.verdicts r_sym.Explorer.verdicts
    && same_verdicts r_full.Explorer.verdicts r_plain.Explorer.verdicts
  in
  let exhaustive =
    List.for_all
      (fun (r : Explorer.report) -> not r.Explorer.stats.Budget.truncated)
      [ r_full; r_plain; r_sym ]
  in
  let instance = Fmt.str "t=1,k=1,n=%d @%d =in" n depth in
  Fmt.pr "  %-20s %-9s %-9d %-13d %-14s %-9s %s@." instance "snapshot" v_full
    r_full.Explorer.stats.Budget.replay_steps "-" "-" "fp off (exhaustive baseline)";
  Fmt.pr "  %-20s %-9s %-9d %-13d %-14s %-9s %s@." instance "plain fp" v_plain
    r_plain.Explorer.stats.Budget.replay_steps "-" "-" "payload fingerprints, no renaming";
  Fmt.pr "  %-20s %-9s %-9d %-13d %-14s %-9s %s@." instance "sym" v_sym
    r_sym.Explorer.stats.Budget.replay_steps "-" "-"
    (Fmt.str "%.2fx fewer states%s%s" reduction
       (if agree then ", same verdicts" else ", VERDICT MISMATCH")
       (if exhaustive then ", exhaustive" else ", TRUNCATED"));
  Results.add "E11f"
    [
      ("kind", Json.String "symmetry");
      ("n", Json.Int n);
      ("depth", Json.Int depth);
      ("visited_full", Json.Int v_full);
      ("visited_plain", Json.Int v_plain);
      ("visited_sym", Json.Int v_sym);
      ("replay_steps", Json.Int r_sym.Explorer.stats.Budget.replay_steps);
      ("reduction", Json.Float reduction);
      ("equivalent", Json.Bool agree);
      ("exhaustive", Json.Bool exhaustive);
    ]

(* E11h: an explored k-set check that reaches decisions. The
   Theorem-24 solver (t=1, k=1, n=3, distinct inputs) first decides at
   depth 27, so every shallower check meets agreement and validity
   only on states where nobody has decided. With exact fingerprints the
   exhaustive check at depth 30 is cheap (23,134 states); the row
   counts the safety-checked states in which some process had
   decided. `make ci` pins the visited count and requires decisions,
   an exhaustive run and clean verdicts (bin/bench_guard.ml). *)
let e11_decided () =
  let n = 3 and depth = 30 in
  subsection
    (Fmt.str "h. an explored k-set check past the first decision (t=1,k=1,n=%d @%d, fp on)" n
       depth);
  let problem = Problem.make ~t:1 ~k:1 ~n in
  let inputs = Problem.distinct_inputs problem in
  let decisions st = st.Explorer.obs.Explore_systems.decisions in
  let decided = ref 0 in
  let count_decided =
    Property.safety ~name:"count decided" (fun st ->
        if Array.exists Option.is_some (decisions st) then incr decided;
        None)
  in
  let r =
    Explorer.explore
      ~sut:(Explore_systems.kset_agreement ~problem ~inputs ())
      ~properties:
        [
          count_decided;
          Property.kset_agreement ~k:1 ~decisions;
          Property.validity ~inputs ~decisions;
        ]
      (Explorer.config ~depth ())
  in
  let s = r.Explorer.stats in
  let ok = List.for_all (fun (_, v) -> v = Explorer.Ok_bounded) r.Explorer.verdicts in
  Fmt.pr "%a@.  states with a decision: %d (%a)@." Explorer.pp_report r !decided
    Budget.pp_times s;
  Results.add "E11h"
    [
      ("n", Json.Int n);
      ("depth", Json.Int depth);
      ("visited", Json.Int s.Budget.visited);
      ("decided", Json.Int !decided);
      ("verdicts_ok", Json.Bool ok);
      ("exhaustive", Json.Bool (not s.Budget.truncated));
      ("wall_seconds", Json.Float s.Budget.wall_seconds);
    ]

(* E11i (full bench only): the n=4 solver's first decision. Two reads
   commute, so the fingerprint-off tree stays small enough to search
   exhaustively one step past it (936,711 states at @40); a safety
   property that fails once anybody decides yields the shortest such
   prefix, pinned at 39 steps, as tier-1 pins 17 (n=2) and 27 (n=3). *)
let e11_first_decision () =
  let n = 4 and depth = 40 and pinned = 39 in
  subsection
    (Fmt.str "i. the solver's first decision (t=1,k=1,n=%d @%d, fp off, pinned at %d)" n depth
       pinned);
  let problem = Problem.make ~t:1 ~k:1 ~n in
  let inputs = Problem.distinct_inputs problem in
  let decisions st = st.Explorer.obs.Explore_systems.decisions in
  let nobody_decided =
    Property.safety ~name:"nobody decided" (fun st ->
        if Array.exists Option.is_some (decisions st) then Some "a process decided" else None)
  in
  let r =
    Explorer.explore
      ~sut:(Explore_systems.kset_agreement ~problem ~inputs ())
      ~properties:
        [
          nobody_decided;
          Property.kset_agreement ~k:1 ~decisions;
          Property.validity ~inputs ~decisions;
        ]
      (Explorer.config ~prune_fingerprints:false ~depth ())
  in
  let s = r.Explorer.stats in
  let first =
    match List.assoc nobody_decided.Property.name r.Explorer.verdicts with
    | Explorer.Violated { schedule; _ } -> Some (Schedule.length schedule)
    | Explorer.Ok_bounded -> None
  in
  let safe =
    List.for_all
      (fun (name, v) -> name = nobody_decided.Property.name || v = Explorer.Ok_bounded)
      r.Explorer.verdicts
  in
  Fmt.pr "%a@.  first decision at depth %s%s (%a)@." Explorer.pp_report r
    (match first with Some d -> string_of_int d | None -> "none")
    (if first = Some pinned && safe && not s.Budget.truncated then ", as pinned"
     else "  UNEXPECTED")
    Budget.pp_times s;
  Results.add "E11i"
    [
      ("n", Json.Int n);
      ("depth", Json.Int depth);
      ("visited", Json.Int s.Budget.visited);
      ("first_decision", match first with Some d -> Json.Int d | None -> Json.Null);
      ("verdicts_ok", Json.Bool safe);
      ("exhaustive", Json.Bool (not s.Budget.truncated));
      ("wall_seconds", Json.Float s.Budget.wall_seconds);
    ]

(* E11g: what the snapshot engine allocates per visited state, on a
   fingerprint-off k-set check (t=1, k=1, n=3 @26, 10,925 states: at
   @12 two reads commute and only 455 states are left, too few to
   amortize the run's setup).
   Minor words are read after a minor collection, when OCaml 5 brings
   the counter up to date, and a one-domain run allocates the same
   words every time. States render their register snapshot only on
   demand and the spine's savepoints reuse per-depth buffers, so a
   state costs a few hundred words; an eager render costs about 5,000
   more. `make ci` puts a ceiling on the words per state
   (bin/bench_guard.ml). *)
let e11_words () =
  let n = 3 and depth = 26 in
  subsection
    (Fmt.str "g. minor words per visited state (t=1,k=1,n=%d @%d, snapshot, fp off)" n depth);
  let problem = Problem.make ~t:1 ~k:1 ~n in
  let inputs = Problem.distinct_inputs problem in
  let decisions st = st.Explorer.obs.Explore_systems.decisions in
  let sut = Explore_systems.kset_agreement ~problem ~inputs () in
  let properties =
    [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
  in
  let config = Explorer.config ~prune_fingerprints:false ~engine:Explorer.Snapshot ~depth () in
  Gc.minor ();
  let before = Gc.minor_words () in
  let r = Explorer.explore ~sut ~properties config in
  Gc.minor ();
  let words = Gc.minor_words () -. before in
  let visited = r.Explorer.stats.Budget.visited in
  let per_state = words /. float_of_int (max 1 visited) in
  Fmt.pr "  visited %d, %.0f minor words, %.1f words per state@." visited words per_state;
  Results.add "E11g"
    [
      ("n", Json.Int n);
      ("depth", Json.Int depth);
      ("visited", Json.Int visited);
      ("minor_words", Json.Float words);
      ("words_per_state", Json.Float per_state);
    ]

(* ------------------------------------------------------------------ *)
(* P9: observability overhead — the no-sink discipline, enforced *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* [pairs] timed (off, on) run pairs after one warm-up run, with the
   order swapped every pair: host speed drifts by more than the
   overheads measured here between two floors taken seconds apart, but
   it lands on both sides of a pair. The overhead is the median of the
   per-pair ratios. *)
let alternated_pairs ~pairs ~off ~on =
  ignore (off ());
  List.init pairs (fun i ->
      if i mod 2 = 0 then
        let t_off = off () in
        (t_off, on ())
      else
        let t_on = on () in
        (off (), t_on))

let median_overhead timed = median (List.map (fun (off, on) -> 1. -. (off /. on)) timed)

(* The opt-in contract of setsync_obs: an un-instrumented run (?obs
   absent) and a run with a nop-sink context must both keep the
   executor's step throughput — instrumented-off cost is one [match]
   per step. Timed by hand: we want the ratio of whole-run rates, not
   per-call estimates, and the same loop shape
   the explorer drives. The no-obs and nop tiers run as alternated
   pairs; bin/bench_guard.ml pins the quick row. *)
let p9_obs_overhead () =
  section "P9. Observability overhead: executor step throughput (pause-loop bodies, n=4)";
  let steps = 200_000 and pairs = 9 in
  let run_once obs () =
    let body _ () =
      while true do
        Shm.pause ()
      done
    in
    let source ~live = Generators.round_robin ~live ~n:4 () in
    let t0 = Unix.gettimeofday () in
    ignore (Executor.run ~n:4 ~source ~max_steps:steps ?obs body);
    Unix.gettimeofday () -. t0
  in
  let timed =
    alternated_pairs ~pairs ~off:(run_once None) ~on:(run_once (Some (Obs.create ())))
  in
  let traced_obs = Some (Obs.create ~events:(Events.memory ()) ()) in
  let traced_times = List.init 5 (fun _ -> run_once traced_obs ()) in
  let rate label times =
    let r = float_of_int steps /. median times in
    Fmt.pr "  %-36s %12.0f steps/s@." label r;
    r
  in
  let off = rate "no obs (pre-PR path)" (List.map fst timed) in
  let nop = rate "obs ctx, nop event sink" (List.map snd timed) in
  let traced = rate "obs ctx, memory sink (full trace)" traced_times in
  let overhead = median_overhead timed in
  Fmt.pr "  nop-sink overhead vs no obs: %.2f%% (median of %d alternated pairs)@."
    (overhead *. 100.) pairs;
  Results.add "P9"
    [
      ("steps", Json.Int steps);
      ("pairs", Json.Int pairs);
      ("no_obs_steps_per_s", Json.Float off);
      ("nop_obs_steps_per_s", Json.Float nop);
      ("traced_steps_per_s", Json.Float traced);
      ("nop_overhead_fraction", Json.Float overhead);
    ]

(* ------------------------------------------------------------------ *)
(* F1: fuzzing the detector boundary (setsync_fuzz) *)

let f1_fuzz () =
  section "F1. Fuzzing the detector boundary: seeded-bug counter core (n=2, t=1, k=1)";
  let seed = 42 in
  let sut = Fuzz_systems.counter_core ~params:{ Kanti_omega.n = 2; t = 1; k = 1 } () in
  let report =
    Fuzz.run ~len:96 ~limits:(Budget.limits ~max_states:2_000 ()) ~sut
      ~properties:[ Fuzz_systems.winner_argmin () ] ~seed ()
  in
  let found, find_execs, shrunk_len =
    match report.Fuzz.outcome with
    | Fuzz.Passed -> (false, 0, 0)
    | Fuzz.Violation v -> (true, v.Fuzz.exec, Schedule.length v.Fuzz.shrunk)
  in
  let wall = report.Fuzz.stats.Budget.wall_seconds in
  let execs_per_s = if wall > 0. then float_of_int report.Fuzz.execs /. wall else 0. in
  Fmt.pr "  seed %d: %s at exec %d, shrunk to %d steps; %d execs in %a (%.0f execs/s)@."
    seed
    (if found then "violation found" else "NO VIOLATION (expected one)")
    find_execs shrunk_len report.Fuzz.execs Budget.pp_times report.Fuzz.stats execs_per_s;
  Results.add "F1"
    [
      ("seed", Json.Int seed);
      ("execs", Json.Int report.Fuzz.execs);
      ("execs_per_s", Json.Float execs_per_s);
      ("found", Json.Bool found);
      ("find_execs", Json.Int find_execs);
      ("shrunk_len", Json.Int shrunk_len);
      ("replay_steps", Json.Int report.Fuzz.stats.Budget.replay_steps);
      ("wall_seconds", Json.Float wall);
    ]

(* ------------------------------------------------------------------ *)
(* N1: the net backend — Δ/GST partial synchrony over messages *)

(* Round-robin CT-detector runs on the message-passing substrate:
   stabilization step and throughput as Δ and the GST position vary.
   Everything is deterministic (round-robin grants, gst_drop
   adversary), so stabilized_from is machine-independent and
   bin/bench_guard.ml pins a ceiling on the quick row. *)
let n1_net ?(quick = false) () =
  section "N1. Net backend: CT stabilization and throughput vs Delta and GST";
  Fmt.pr "  %-10s %-6s %-6s %-7s %-11s %-7s %-8s %s@." "instance" "delta" "gst" "steps"
    "stable from" "sent" "dropped" "steps/s";
  let cases =
    if quick then [ (2, 1, 4, 400) ]
    else
      [
        (2, 1, 4, 400); (2, 2, 4, 400); (2, 4, 4, 600);
        (2, 1, 16, 600); (2, 2, 16, 600);
        (3, 1, 8, 900); (3, 2, 8, 900); (3, 1, 32, 1_200);
        (4, 2, 16, 1_600);
      ]
  in
  List.iter
    (fun (n, delta, gst, max_steps) ->
      let adversary = Adversary.gst_drop ~delta ~gst in
      let t0 = Unix.gettimeofday () in
      let r = Net_systems.run_ct ~initial_timeout:2 ~clients:n ~adversary ~max_steps () in
      let wall = Unix.gettimeofday () -. t0 in
      let steps_per_s =
        if wall > 0. then float_of_int r.Net_systems.steps /. wall else 0.
      in
      let s = r.Net_systems.net_stats in
      Fmt.pr "  n=%-8d %-6d %-6d %-7d %-11s %-7d %-8d %.0f@." n delta gst
        r.Net_systems.steps
        (match r.Net_systems.stabilized_from with
        | Some v -> string_of_int v
        | None -> "never")
        s.Net.sent s.Net.dropped steps_per_s;
      Results.add "N1"
        [
          ("n", Json.Int n);
          ("delta", Json.Int delta);
          ("gst", Json.Int gst);
          ("steps", Json.Int r.Net_systems.steps);
          ( "stabilized_from",
            match r.Net_systems.stabilized_from with
            | Some v -> Json.Int v
            | None -> Json.Null );
          ("sent", Json.Int s.Net.sent);
          ("delivered", Json.Int s.Net.delivered);
          ("dropped", Json.Int s.Net.dropped);
          ("steps_per_s", Json.Float steps_per_s);
          ("wall_seconds", Json.Float wall);
        ])
    cases

(* N1t: causal-tracing overhead on the net backend. Same discipline as
   P9 but over the whole traced stack: the fast path (?obs absent)
   must not pay for lineage/attribution instrumentation it did not ask
   for. Three tiers: plain, an obs context with a nop event sink
   (metrics + delay attribution live, no event allocation), and a full
   memory-sink trace (send/deliver/inflight events with lineage args).
   Each instrumented tier runs in alternated pairs with the plain one,
   as in P9. bin/bench_guard.ml pins the overhead of both instrumented
   tiers. *)
let n1_trace_overhead ?(quick = false) () =
  section "N1t. Net tracing overhead: CT run, plain vs nop-sink obs vs full trace";
  let n = 2 and delta = 1 and gst = 4 in
  let max_steps = if quick then 200_000 else 400_000 in
  let pairs = if quick then 9 else 15 and traced_pairs = if quick then 5 else 7 in
  let adversary = Adversary.gst_drop ~delta ~gst in
  let run_once obs () =
    let t0 = Unix.gettimeofday () in
    ignore
      (Net_systems.run_ct ?obs ~initial_timeout:2 ~clients:n ~adversary ~max_steps ());
    Unix.gettimeofday () -. t0
  in
  let timed =
    alternated_pairs ~pairs ~off:(run_once None) ~on:(run_once (Some (Obs.create ())))
  in
  let traced_timed =
    alternated_pairs ~pairs:traced_pairs ~off:(run_once None)
      ~on:(run_once (Some (Obs.create ~events:(Events.memory ()) ())))
  in
  let rate label times =
    let r = float_of_int max_steps /. median times in
    Fmt.pr "  %-36s %12.0f steps/s@." label r;
    r
  in
  let plain = rate "no obs (fast path)" (List.map fst timed) in
  let nop = rate "obs ctx, nop event sink" (List.map snd timed) in
  let traced = rate "obs ctx, memory sink (full lineage)" (List.map snd traced_timed) in
  let nop_overhead = median_overhead timed in
  let traced_overhead = median_overhead traced_timed in
  Fmt.pr "  nop-sink overhead vs no obs: %.2f%% (median of %d alternated pairs; guard \
          ceiling 30%%)@."
    (nop_overhead *. 100.) pairs;
  Fmt.pr "  full-trace overhead vs no obs: %.2f%% (median of %d alternated pairs; guard \
          ceiling 82%%)@."
    (traced_overhead *. 100.) traced_pairs;
  Results.add "N1t"
    [
      ("steps", Json.Int max_steps);
      ("pairs", Json.Int pairs);
      ("traced_pairs", Json.Int traced_pairs);
      ("plain_steps_per_s", Json.Float plain);
      ("nop_obs_steps_per_s", Json.Float nop);
      ("traced_steps_per_s", Json.Float traced);
      ("nop_overhead_fraction", Json.Float nop_overhead);
      ("traced_overhead_fraction", Json.Float traced_overhead);
    ]

(* N2: round-batched Netmem — amortized steps per routed register op,
   and agreement end-to-end over the net backend vs shared memory.

   The microbench drives one client against one owner with the
   workload "C writes then 1 read" per iteration. Per-op mode runs
   under the emulation-style [client; owner; client] grant cycle the
   cross-backend tests use (3 steps per op by construction); batched
   mode runs under a clients-only source with the round policy
   supplying owner turns, so its steps/op is the real amortized cost
   including every boosted serve step. bin/bench_guard.ml pins the
   batched rows at <= 1.5 steps/op and the per-op row at >= 2.5. *)
let n2_microbench ~mode ~batch ~iters =
  let store = Store.create () in
  let adversary = Adversary.synchronous ~delta:1 in
  let net = Net.create ~store ~n:2 ~adversary () in
  let nm = Netmem.install ~mode ~net ~store ~clients:1 ~owners:1 () in
  let regs =
    Array.init batch (fun i ->
        Store.register store ~pp:Fmt.int ~name:(Printf.sprintf "R%d" i) 0)
  in
  let finished = ref false in
  let body p () =
    if p = 0 then begin
      for _ = 1 to iters do
        for w = 0 to batch - 1 do
          Shm.write regs.(w) 1
        done;
        ignore (Shm.read regs.(0))
      done;
      finished := true;
      while true do
        Shm.pause ()
      done
    end
    else Netmem.owner_body nm p ()
  in
  let source ~live:_ =
    match mode with
    | Netmem.Batched -> Source.make ~n:2 (fun () -> Some 0)
    | Netmem.Per_op ->
        let pat = [| 0; 1; 0 |] in
        let i = ref 0 in
        Source.make ~n:2 (fun () ->
            let x = pat.(!i mod 3) in
            incr i;
            Some x)
  in
  let run =
    Executor.run ~n:2 ~source
      ~max_steps:((10 * iters * (batch + 1)) + 1_000)
      ~boost:(Netmem.round_policy nm) ~substrate:(Net.substrate net)
      ~stop:(fun () -> !finished)
      body
  in
  (Run.total_steps run, Netmem.ops_completed nm)

let n2_round_batching ?(quick = false) () =
  section "N2. Round-batched Netmem: steps per routed op; agreement over net vs shm";
  subsection "a. microbench: 1 client, 1 owner, C writes + 1 read per iteration";
  Fmt.pr "  %-10s %-4s %-8s %-8s %s@." "mode" "C" "ops" "steps" "steps/op";
  let iters = if quick then 200 else 1_000 in
  List.iter
    (fun (label, mode, batch) ->
      let steps, ops = n2_microbench ~mode ~batch ~iters in
      let per_op = float_of_int steps /. float_of_int (max 1 ops) in
      Fmt.pr "  %-10s %-4d %-8d %-8d %.3f@." label batch ops steps per_op;
      Results.add "N2"
        [
          ("kind", Json.String "microbench");
          ("mode", Json.String label);
          ("batch", Json.Int batch);
          ("ops", Json.Int ops);
          ("steps", Json.Int steps);
          ("steps_per_op", Json.Float per_op);
        ])
    [
      ("per-op", Netmem.Per_op, 1);
      ("batched", Netmem.Batched, 1);
      ("batched", Netmem.Batched, 4);
    ];
  subsection "b. agreement end-to-end over net, verdicts vs shm";
  Fmt.pr "  %-7s %-10s %-3s %-40s %-7s %-7s %s@." "solver" "adversary" "n" "net verdict"
    "equal" "ops" "steps";
  let sizes = if quick then [ 7 ] else [ 5; 7; 9 ] in
  List.iter
    (fun n ->
      (* loss groups k=2 over the full universe (clients + owner);
         client n-1 crashes before it can decide on either backend *)
      let scenarios =
        [
          ( "sync",
            { Adversary.adversary = Adversary.synchronous ~delta:1; fault = [] },
            None );
          ( "crash_brs",
            Adversary.crash_brs ~delta:2 ~gst:60 ~total:(n + 1) ~k:2
              ~crashes:[ (n - 1, 5) ],
            Some 8 );
        ]
      in
      List.iter
        (fun (solver_label, solver, problem, values) ->
          let inputs = Problem.distinct_inputs problem in
          List.iter
            (fun (adv_label, combined, resend_after) ->
              let max_steps = 500_000 in
              let r =
                Net_agreement.solve ~solver ?resend_after ~problem ~inputs ~combined
                  ~max_steps ()
              in
              let shm =
                Net_agreement.solve_shm ~solver ~problem ~inputs
                  ~fault:combined.Adversary.fault ~max_steps ()
              in
              let vn = Net_agreement.verdict ~values r.Net_agreement.outcome in
              let vs = Net_agreement.verdict ~values shm in
              let equal = vn = vs in
              let steps = Run.total_steps r.Net_agreement.outcome.Ag_harness.run in
              Fmt.pr "  %-7s %-10s %-3d %-40s %-7b %-7d %d@." solver_label adv_label n vn
                equal r.Net_agreement.ops steps;
              Results.add "N2"
                [
                  ("kind", Json.String "agreement");
                  ("solver", Json.String solver_label);
                  ("adversary", Json.String adv_label);
                  ("n", Json.Int n);
                  ("net_verdict", Json.String vn);
                  ("shm_verdict", Json.String vs);
                  ("verdict_equal", Json.Bool equal);
                  ("net_ok", Json.Bool (Ag_harness.ok r.Net_agreement.outcome));
                  ("ops", Json.Int r.Net_agreement.ops);
                  ("steps", Json.Int steps);
                ])
            scenarios)
        [
          ("paxos", `Paxos, Problem.consensus ~t:2 ~n, true);
          ("kset", `Auto, Problem.make ~t:2 ~k:2 ~n, false);
        ])
    sizes

(* ------------------------------------------------------------------ *)
(* Convergence profile: how fast the detector stabilizes *)

let convergence_profile () =
  section "P7. Detector convergence step vs n and timeliness bound (fair adversary)";
  Fmt.pr "  %-24s %-8s %s@." "instance" "bound" "winner stable from step";
  List.iteri
    (fun idx (n, t, k, bound) ->
      let spec =
        {
          Scenario.t;
          k;
          n;
          i = k;
          j = t + 1;
          bound;
          seed = 9_600 + idx;
          crashes = 0;
          adversary = Scenario.Fair;
          max_steps = 4_000_000;
        }
      in
      let result, _ = Scenario.run_detector spec in
      let step = Fd_harness.convergence_step result in
      Results.add "P7"
        [
          ("n", Json.Int n); ("t", Json.Int t); ("k", Json.Int k);
          ("bound", Json.Int bound);
          ("stable_from", match step with Some s -> Json.Int s | None -> Json.Null);
        ];
      Fmt.pr "  (t=%d,k=%d,n=%d)%8s %-8d %s@." t k n "" bound
        (match step with
        | Some s -> string_of_int s
        | None -> "no convergence within budget"))
    [
      (3, 2, 1, 2); (4, 2, 2, 2); (4, 2, 2, 4); (5, 3, 2, 2); (5, 3, 2, 4);
      (6, 4, 3, 2); (6, 4, 3, 4); (7, 4, 2, 4);
    ]

(* ------------------------------------------------------------------ *)
(* P8: ablations — design choices of the stack *)

let ablations () =
  section "P8. Ablations";
  subsection "a. initial timeout of Figure 2 (warm-up vs. faithfulness; default 1)";
  Fmt.pr "  %-18s %s@." "initial timeout" "winner stable from step  (n=5, t=3, k=2, bound 4)";
  List.iter
    (fun timeout ->
      let rng = Rng.create ~seed:9_700 in
      let contract =
        { Generators.p = Procset.of_list [ 2; 3 ]; q = Procset.of_list [ 0; 1; 4; 2 ]; bound = 4 }
      in
      let source ~live = Generators.timely ~live ~n:5 ~contract ~rng () in
      let res =
        Fd_harness.run
          ~params:{ Kanti_omega.n = 5; t = 3; k = 2 }
          ~source ~max_steps:4_000_000 ~initial_timeout:timeout ~stop_after_stable:20_000 ()
      in
      Fmt.pr "  %-18d %s@." timeout
        (match Fd_harness.convergence_step res with
        | Some st -> string_of_int st
        | None -> "no convergence"))
    [ 1; 4; 16; 64 ];
  subsection "b. witness timeliness bound (n=4, t=2, k=2, fair adversary)";
  Fmt.pr "  %-18s %s@." "bound" "agreement completed at step";
  List.iter
    (fun bound ->
      let spec =
        {
          Scenario.t = 2; k = 2; n = 4; i = 2; j = 3; bound; seed = 9_710; crashes = 1;
          adversary = Scenario.Fair; max_steps = 6_000_000;
        }
      in
      let r = Scenario.run_agreement spec in
      Fmt.pr "  %-18d %s@." bound
        (match Ag_harness.last_decide_step r.Scenario.outcome with
        | Some st -> string_of_int st
        | None -> "not solved"))
    [ 2; 4; 8; 16 ];
  subsection "c. adversary flavour vs. time-to-decide (2,2,5) in S^2_{3,5}";
  Fmt.pr "  %-18s %s@." "adversary" "agreement completed at step";
  List.iter
    (fun (label, adversary) ->
      let spec =
        {
          Scenario.t = 2; k = 2; n = 5; i = 2; j = 3; bound = 3; seed = 9_720; crashes = 0;
          adversary; max_steps = 2_000_000;
        }
      in
      let r = Scenario.run_agreement spec in
      Fmt.pr "  %-18s %s@." label
        (match Ag_harness.last_decide_step r.Scenario.outcome with
        | Some st -> string_of_int st
        | None -> "not solved within budget"))
    [ ("fair", Scenario.Fair); ("exclusive", Scenario.Exclusive); ("adaptive", Scenario.Adaptive) ];
  subsection "d. solver scale: steps to decide vs. n (k=2, t=2, fair)";
  Fmt.pr "  %-18s %s@." "n" "agreement completed at step   (C(n,2)*n reads per FD loop)";
  List.iter
    (fun n ->
      let spec =
        {
          Scenario.t = 2; k = 2; n; i = 2; j = 3; bound = 3; seed = 9_730; crashes = 0;
          adversary = Scenario.Fair; max_steps = 8_000_000;
        }
      in
      let r = Scenario.run_agreement spec in
      Fmt.pr "  %-18d %s@." n
        (match Ag_harness.last_decide_step r.Scenario.outcome with
        | Some st -> string_of_int st
        | None -> "not solved within budget"))
    [ 4; 5; 6; 7; 8 ]

let quick () =
  (* `bench --quick`: the E11 smoke run used by `make ci` — small depth,
     exploration only — plus the P9 overhead
     check so the no-sink discipline is watched on every CI run. *)
  Fmt.pr "setsync bench --quick: E11 smoke (bounded exploration + domains table)@.";
  section "E11. Bounded exploration smoke";
  e11_domains ~depth:8 ();
  e11_engines ();
  e11_snapshot ();
  e11_words ();
  e11_decided ();
  f1_fuzz ();
  n1_net ~quick:true ();
  n1_trace_overhead ~quick:true ();
  n2_round_batching ~quick:true ();
  p9_obs_overhead ();
  Results.write "BENCH_quick.json";
  Fmt.pr "@.done.@."

let () =
  if Array.exists (fun a -> a = "--quick") Sys.argv then quick ()
  else begin
    Fmt.pr "setsync reproduction harness — Partial Synchrony Based on Set Timeliness@.";
    Fmt.pr "(Aguilera, Delporte-Gallet, Fauconnier, Toueg; PODC 2009)@.";
    e1_figure1 ();
    e2_theorem23 ();
    e4_theorem24 ();
    e5_theorem26_possible ();
    e6_bg_simulation ();
    e7_e8_boundary ();
    e10_separation ();
    e11_explore ();
    e11_domains ();
    e11_engines ();
    e11_snapshot ();
    e11_words ();
    e11_decided ();
    e11_first_decision ();
    f1_fuzz ();
    n1_net ();
    n1_trace_overhead ();
    n2_round_batching ();
    convergence_profile ();
    ablations ();
    p9_obs_overhead ();
    Results.write "BENCH_results.json";
    Fmt.pr "@.done.@."
  end
