(* Tests for the bounded model-checking subsystem: explorer state
   counts against hand-counted spaces, verdict-preservation of the
   reductions, shrinker minimality, budget truncation, determinism. *)

open Setsync_schedule
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Trace = Setsync_memory.Trace
module Fiber = Setsync_runtime.Fiber
module Shm = Setsync_runtime.Shm
module Machine = Setsync_runtime.Machine
module Run = Setsync_runtime.Run
module Budget = Setsync_explore.Budget
module Property = Setsync_explore.Property
module Explorer = Setsync_explore.Explorer
module Shrink = Setsync_explore.Shrink
module Systems = Setsync_explore.Systems
module Parallel = Setsync_explore.Parallel
module Obs = Setsync_obs.Obs
module Metrics = Setsync_obs.Metrics
module Json = Setsync_obs.Json

let schedule = Alcotest.testable Schedule.pp Schedule.equal

(* ------------------------------------------------------------------ *)
(* Systems under test *)

(* Two processes; process p writes 1 into its own register, then
   halts. A returning body occupies one extra step — the fiber
   finishes on the step after its last atomic action — so each process
   here is a 2-step process: write, then halt. Observation-complete:
   registers plus the halted set determine everything. *)
let single_writer_sut () =
  {
    Explorer.n = 2;
    fresh =
      (fun ~store ->
        let r = Store.array store ~pp:Fmt.int ~name:"r" 2 (fun _ -> 0) in
        (* machine form: pc counts steps taken; step 0 is the write,
           step 1 the halting return (same 2-step shape as the fiber) *)
        let pcs = Array.make 2 0 in
        {
          Explorer.body = (fun p () -> Shm.write r.(p) 1);
          observe = (fun () -> (Register.peek r.(0), Register.peek r.(1)));
          substrate = None;
          machine =
            Some
              {
                Explorer.m_step =
                  (fun p ->
                    if pcs.(p) = 0 then Machine.write r.(p) 1;
                    pcs.(p) <- pcs.(p) + 1);
                m_halted = (fun p -> pcs.(p) >= 2);
                m_save =
                  (fun () ->
                    let saved = Array.copy pcs in
                    fun () -> Array.blit saved 0 pcs 0 2);
                m_payload = None;
                m_perms = [ [| 0; 1 |] ];
              };
        });
    obs_fingerprint = (fun (a, b) -> Printf.sprintf "%d,%d" a b);
  }

(* Two processes; process p writes 1 then 2 into its own register,
   then halts (a 3-step process: write, write, halt). Still
   observation-complete, and now interleavings of the same multiset of
   steps collapse to the same state — the global state is exactly the
   pair of per-process step counts — so fingerprint pruning has
   something to do. *)
let double_writer_sut () =
  {
    Explorer.n = 2;
    fresh =
      (fun ~store ->
        let r = Store.array store ~pp:Fmt.int ~name:"r" 2 (fun _ -> 0) in
        let pcs = Array.make 2 0 in
        {
          Explorer.body =
            (fun p () ->
              Shm.write r.(p) 1;
              Shm.write r.(p) 2);
          observe = (fun () -> (Register.peek r.(0), Register.peek r.(1)));
          substrate = None;
          machine =
            Some
              {
                Explorer.m_step =
                  (fun p ->
                    (match pcs.(p) with
                    | 0 -> Machine.write r.(p) 1
                    | 1 -> Machine.write r.(p) 2
                    | _ -> ());
                    pcs.(p) <- pcs.(p) + 1);
                m_halted = (fun p -> pcs.(p) >= 3);
                m_save =
                  (fun () ->
                    let saved = Array.copy pcs in
                    fun () -> Array.blit saved 0 pcs 0 2);
                (* the two writers are role-identical, so the full
                   swap group is admissible; the payload renders each
                   (register, pc) pair at its renamed slot *)
                m_payload =
                  Some
                    (fun ~perm ->
                      let vals = Array.make 2 (0, 0) in
                      for p = 0 to 1 do
                        vals.(perm.(p)) <- (Register.peek r.(p), pcs.(p))
                      done;
                      Printf.sprintf "%d.%d|%d.%d" (fst vals.(0)) (snd vals.(0))
                        (fst vals.(1)) (snd vals.(1)));
                m_perms = [ [| 0; 1 |]; [| 1; 0 |] ];
              };
        });
    obs_fingerprint = (fun (a, b) -> Printf.sprintf "%d,%d" a b);
  }

type pipe_obs = { ping : int; pong : int; v1 : int; phase1 : int }

(* p1 bumps ping forever; p2 copies ping into pong forever. p2's read
   value and loop position are hidden process-local state, so the
   observation exposes them explicitly (v1, phase1). The refs must be
   updated {e inside} the atomic action: [v1 := Shm.read ping] would
   park the read value in the suspended continuation until the next
   step, leaving it invisible to [observe] — and fingerprinting over an
   incomplete observation merges states with different futures. This
   is what an observation-complete sut looks like when process code
   carries local state across steps. *)
let pipe_sut () =
  {
    Explorer.n = 2;
    fresh =
      (fun ~store ->
        let ping = Store.register store ~pp:Fmt.int ~name:"ping" 0 in
        let pong = Store.register store ~pp:Fmt.int ~name:"pong" 0 in
        let v1 = ref 0 and phase1 = ref 0 in
        let i0 = ref 0 in
        {
          Explorer.body =
            (fun p () ->
              if p = 0 then begin
                let i = ref 0 in
                while true do
                  incr i;
                  Shm.write ping !i
                done
              end
              else
                while true do
                  Fiber.atomic (fun () ->
                      v1 := Register.read ping;
                      phase1 := 1);
                  Fiber.atomic (fun () ->
                      Register.write pong !v1;
                      phase1 := 0)
                done);
          observe =
            (fun () ->
              {
                ping = Register.peek ping;
                pong = Register.peek pong;
                v1 = !v1;
                phase1 = !phase1;
              });
          substrate = None;
          machine =
            (* [i0] is the machine's copy of p0's loop counter (the
               fiber body allocates its own); p1's locals are the same
               refs [observe] reads, just as in the fiber form *)
            Some
              {
                Explorer.m_step =
                  (fun p ->
                    if p = 0 then begin
                      incr i0;
                      Machine.write ping !i0
                    end
                    else if !phase1 = 0 then begin
                      v1 := Machine.read ping;
                      phase1 := 1
                    end
                    else begin
                      Machine.write pong !v1;
                      phase1 := 0
                    end);
                m_halted = (fun _ -> false);
                m_save =
                  (fun () ->
                    let si = !i0 and sv = !v1 and sp = !phase1 in
                    fun () ->
                      i0 := si;
                      v1 := sv;
                      phase1 := sp);
                m_payload = None;
                m_perms = [ [| 0; 1 |] ];
              };
        });
    obs_fingerprint =
      (fun o -> Printf.sprintf "%d,%d,%d,%d" o.ping o.pong o.v1 o.phase1);
  }

let pong_below limit =
  Property.safety
    ~name:(Printf.sprintf "pong<%d" limit)
    (fun st -> if st.Explorer.obs.pong < limit then None else Some "pong too large")

let pong_le_ping =
  Property.safety ~name:"pong<=ping" (fun st ->
      if st.Explorer.obs.pong <= st.Explorer.obs.ping then None
      else Some "pong overtook ping")

let stats_of (r : Explorer.report) = r.Explorer.stats

(* ------------------------------------------------------------------ *)
(* (a) hand-counted state spaces *)

(* Single-writer system, depth 4, no reductions. Each process has
   exactly 2 steps, so the state space is every sequence over {p1,p2}
   of length <= 4 with at most 2 steps per process:
   1 + 2 + 4 + 6 + 6 = 19 prefixes, max depth 4. *)
let test_count_brute () =
  let report =
    Explorer.explore ~sut:(single_writer_sut ()) ~properties:[]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~depth:4 ())
  in
  let s = stats_of report in
  Alcotest.(check int) "visited" 19 s.Budget.visited;
  Alcotest.(check int) "max depth" 4 s.Budget.max_depth;
  Alcotest.(check int) "no fp prunes" 0 s.Budget.pruned_fingerprint;
  Alcotest.(check int) "no sleep prunes" 0 s.Budget.pruned_sleep;
  Alcotest.(check bool) "exhaustive" false s.Budget.truncated

(* Same system with the commutation reduction. Write footprints are
   {r[1]} resp. {r[2]}; halt steps touch nothing — so every prefix
   ending p2·p1 (distinct processes, smaller process last, disjoint
   footprints) is discarded, and its subtree never generated. Walking
   the tree by hand: pruned are [2;1], [1;2;1], [2;2;1], [1;2;2;1]
   (4 prunes); visited are [], [1], [2], [1;1], [1;2], [2;2],
   [1;1;2], [1;2;2], [1;1;2;2] (9 states). *)
let test_count_sleep () =
  let report =
    Explorer.explore ~sut:(single_writer_sut ()) ~properties:[]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:true ~depth:4 ())
  in
  let s = stats_of report in
  Alcotest.(check int) "visited" 9 s.Budget.visited;
  Alcotest.(check int) "sleep pruned" 4 s.Budget.pruned_sleep

(* Double-writer system (3-step processes), depth 4, brute force:
   sequences of length <= 4 with at most 3 steps per process,
   1 + 2 + 4 + 8 + 14 = 29. *)
let test_count_double_brute () =
  let report =
    Explorer.explore ~sut:(double_writer_sut ()) ~properties:[]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~depth:4 ())
  in
  let s = stats_of report in
  Alcotest.(check int) "visited" 29 s.Budget.visited;
  Alcotest.(check int) "max depth" 4 s.Budget.max_depth

(* Same with fingerprint memoization. The state is the pair of
   per-process step counts (a,b), a,b <= 3, a+b <= 4 — 13 distinct
   states. Only the first prefix reaching a state is expanded: the 10
   states of depth < 4 contribute 2+4+6+6 = 18 children, so 19 nodes
   are generated and visited. Re-encounters below the depth bound are
   pruned: (1,1) once, (2,1) and (1,2) once each — 3 fingerprint
   prunes (duplicates at depth 4 are cut by the bound instead). *)
let test_count_double_fingerprint () =
  let report =
    Explorer.explore ~sut:(double_writer_sut ()) ~properties:[]
      (Explorer.config ~prune_fingerprints:true ~sleep_sets:false ~depth:4 ())
  in
  let s = stats_of report in
  Alcotest.(check int) "visited" 19 s.Budget.visited;
  Alcotest.(check int) "fp pruned" 3 s.Budget.pruned_fingerprint

(* ------------------------------------------------------------------ *)
(* (b) reductions preserve property verdicts *)

let verdict_of name (r : Explorer.report) = List.assoc name r.Explorer.verdicts

let test_pruning_preserves_verdicts () =
  let properties = [ pong_below 2; pong_le_ping ] in
  let run ~prune_fingerprints ~sleep_sets =
    Explorer.explore ~sut:(pipe_sut ()) ~properties
      (Explorer.config ~prune_fingerprints ~sleep_sets ~depth:6 ())
  in
  let brute = run ~prune_fingerprints:false ~sleep_sets:false in
  let configs =
    [
      ("fp", run ~prune_fingerprints:true ~sleep_sets:false);
      ("sleep", run ~prune_fingerprints:false ~sleep_sets:true);
      ("both", run ~prune_fingerprints:true ~sleep_sets:true);
    ]
  in
  (* the invariant holds everywhere, the bound is violated somewhere *)
  Alcotest.(check bool)
    "brute: pong<=ping holds" true
    (verdict_of "pong<=ping" brute = Explorer.Ok_bounded);
  Alcotest.(check bool)
    "brute: pong<2 violated" true
    (verdict_of "pong<2" brute <> Explorer.Ok_bounded);
  List.iter
    (fun (label, reduced) ->
      List.iter
        (fun (p : _ Property.t) ->
          let same =
            match (verdict_of p.Property.name brute, verdict_of p.Property.name reduced) with
            | Explorer.Ok_bounded, Explorer.Ok_bounded -> true
            | Explorer.Violated _, Explorer.Violated _ -> true
            | _ -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s verdict preserved" label p.Property.name)
            true same)
        properties;
      (* any counterexample a reduced run reports must actually violate *)
      List.iter
        (fun (p : _ Property.t) ->
          match verdict_of p.Property.name reduced with
          | Explorer.Ok_bounded -> ()
          | Explorer.Violated { schedule; _ } ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s counterexample replays" label p.Property.name)
                true
                (Explorer.check_schedule ~sut:(pipe_sut ()) ~property:p schedule <> None))
        properties;
      Alcotest.(check bool)
        (Printf.sprintf "%s explored less or equal" label)
        true
        ((stats_of reduced).Budget.visited <= (stats_of brute).Budget.visited))
    configs

(* ------------------------------------------------------------------ *)
(* (c) shrinker: still violating, 1-minimal *)

let test_shrink_minimal () =
  let sut = pipe_sut () in
  let property = pong_below 2 in
  let report =
    Explorer.explore ~sut ~properties:[ property ]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~depth:6 ())
  in
  let found =
    match verdict_of "pong<2" report with
    | Explorer.Violated { schedule; _ } -> schedule
    | Explorer.Ok_bounded -> Alcotest.fail "expected a counterexample"
  in
  let violates s = Explorer.check_schedule ~sut ~property s <> None in
  let shrunk = (Shrink.run ~violates found).Shrink.schedule in
  Alcotest.(check bool) "shrunk still violates" true (violates shrunk);
  (* pong reaches 2 only via: ping:=1, ping:=2, p2 reads 2, p2 writes 2 *)
  Alcotest.check schedule "shrunk to the minimal witness"
    (Schedule.of_list ~n:2 [ 0; 0; 1; 1 ])
    shrunk;
  (* 1-minimality: dropping any single step must make it pass *)
  let steps = Schedule.to_list shrunk in
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) steps in
      Alcotest.(check bool)
        (Printf.sprintf "dropping step %d makes it pass" i)
        false
        (violates (Schedule.of_list ~n:2 without)))
    steps

let test_shrink_synthetic () =
  (* predicate independent of any replay: at least three p1-steps *)
  let violates s = Schedule.occurrences s 0 >= 3 in
  let noisy = Schedule.of_list ~n:3 [ 1; 0; 2; 0; 1; 2; 0; 2; 1; 0 ] in
  let r = Shrink.run ~violates noisy in
  Alcotest.check schedule "three p1 steps remain" (Schedule.of_list ~n:3 [ 0; 0; 0 ])
    r.Shrink.schedule;
  Alcotest.check_raises "passing input rejected"
    (Invalid_argument "Shrink.run: input schedule does not violate the property")
    (fun () -> ignore (Shrink.run ~violates (Schedule.of_list ~n:3 [ 0; 1 ])))

(* ------------------------------------------------------------------ *)
(* (d) determinism and budgets *)

(* every stats field except the clocks (and, for parallel runs, the
   frontier peak, which is a racy sample of the shared deques) *)
let counts_of (s : Budget.stats) =
  ( s.Budget.visited,
    s.Budget.safety_checked,
    s.Budget.pruned_fingerprint,
    s.Budget.pruned_sleep,
    s.Budget.replays,
    s.Budget.replay_steps,
    s.Budget.max_depth,
    s.Budget.truncated )

let reports_equal (a : Explorer.report) (b : Explorer.report) =
  let verdict_eq v w =
    match (v, w) with
    | Explorer.Ok_bounded, Explorer.Ok_bounded -> true
    | Explorer.Violated x, Explorer.Violated y ->
        Schedule.equal x.schedule y.schedule && String.equal x.reason y.reason
    | _ -> false
  in
  List.length a.Explorer.verdicts = List.length b.Explorer.verdicts
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && verdict_eq v1 v2)
       a.Explorer.verdicts b.Explorer.verdicts
  && counts_of a.Explorer.stats = counts_of b.Explorer.stats
  && a.Explorer.stats.Budget.frontier_peak = b.Explorer.stats.Budget.frontier_peak

let test_deterministic () =
  let params = { Setsync_detector.Kanti_omega.n = 2; t = 1; k = 1 } in
  let run () =
    Explorer.explore
      ~sut:(Systems.kanti_detector ~params ())
      ~properties:
        [
          Property.anti_omega_stabilized ~k:1
            ~outputs:(fun st -> st.Explorer.obs.Systems.fd_outputs)
            ~correct:(fun st -> Run.correct st.Explorer.run);
        ]
      (Explorer.config ~prune_fingerprints:false
         ~limits:(Budget.limits ~max_states:40 ())
         ~depth:12 ())
  in
  let first = run () and second = run () in
  Alcotest.(check bool) "identical reports" true (reports_equal first second);
  Alcotest.(check bool) "budget truncated" true first.Explorer.stats.Budget.truncated;
  Alcotest.(check int) "exactly the budget" 40 first.Explorer.stats.Budget.visited

let test_exhaustive_when_unbounded () =
  let report =
    Explorer.explore ~sut:(double_writer_sut ()) ~properties:[]
      (Explorer.config ~depth:4 ())
  in
  Alcotest.(check bool) "not truncated" false report.Explorer.stats.Budget.truncated

(* the budget expires against the wall clock: under any domain count a
   0.2 s budget must cut the run after ~0.2 s of real time (the old
   [Sys.time]-based check measured CPU time, which accrues N× faster
   under N domains) *)
let test_wall_clock_budget () =
  let sut = Systems.pause_procs ~n:3 in
  List.iter
    (fun domains ->
      let t0 = Unix.gettimeofday () in
      let report =
        Explorer.explore ~domains ~sut ~properties:[]
          (Explorer.config ~prune_fingerprints:false ~sleep_sets:false
             ~limits:(Budget.limits ~max_seconds:0.2 ())
             ~depth:200 ())
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      let label fmt = Printf.sprintf "%s (domains=%d)" fmt domains in
      Alcotest.(check bool) (label "truncated") true report.Explorer.stats.Budget.truncated;
      Alcotest.(check bool) (label "expired within ~1x wall") true (elapsed < 2.0);
      Alcotest.(check bool) (label "ran for at least the budget") true (elapsed >= 0.15);
      Alcotest.(check bool)
        (label "stats report the wall time")
        true
        (report.Explorer.stats.Budget.wall_seconds >= 0.15
        && report.Explorer.stats.Budget.wall_seconds < 2.0))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* (e) sleep-set reduction must not skip safety checks *)

(* Schedule-sensitive safety property: the interleaving itself (not
   the reached state) is what violates. Every violating prefix ends
   p2·p1 with disjoint write footprints, i.e. is exactly the shape the
   commutation reduction discards — the old code dropped these without
   a safety check and still printed "exhaustive". *)
let no_p2p1_suffix =
  Property.safety ~name:"no-p2p1-suffix" (fun st ->
      match List.rev (Schedule.to_list st.Explorer.prefix) with
      | 0 :: 1 :: _ -> Some "schedule ends p2 then p1"
      | _ -> None)

let test_sleep_set_safety_checked () =
  let explore ~sleep_sets =
    Explorer.explore ~sut:(single_writer_sut ()) ~properties:[ no_p2p1_suffix ]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets ~depth:4 ())
  in
  let brute = explore ~sleep_sets:false in
  Alcotest.(check bool)
    "brute force finds the violation" true
    (verdict_of "no-p2p1-suffix" brute <> Explorer.Ok_bounded);
  (* regression: with the reduction on, every violating interleaving is
     commutation-pruned; the violation must still be reported *)
  let reduced = explore ~sleep_sets:true in
  (match verdict_of "no-p2p1-suffix" reduced with
  | Explorer.Ok_bounded ->
      Alcotest.fail "sleep-set pruning silently skipped a safety violation"
  | Explorer.Violated { schedule; _ } ->
      Alcotest.(check bool)
        "counterexample ends p2 then p1" true
        (match List.rev (Schedule.to_list schedule) with
        | 0 :: 1 :: _ -> true
        | _ -> false));
  let s = stats_of reduced in
  Alcotest.(check bool)
    "pruned states were safety-checked" true
    (s.Budget.safety_checked > s.Budget.visited)

(* ------------------------------------------------------------------ *)
(* (f) check_schedule: one replay, not one per prefix *)

let counting_sut sut =
  let count = ref 0 in
  ( {
      sut with
      Explorer.fresh =
        (fun ~store ->
          incr count;
          sut.Explorer.fresh ~store);
    },
    count )

(* the old per-prefix scan for reference *)
let reference_check ~sut ~property s =
  let len = Schedule.length s in
  let rec scan d =
    if d > len then None
    else
      match property.Property.check (Explorer.evaluate ~sut (Schedule.prefix s d)) with
      | Some reason -> Some reason
      | None -> scan (d + 1)
  in
  scan 0

let test_check_schedule_single_replay () =
  let property = pong_below 2 in
  let schedules =
    [
      [ 0; 0; 1; 1 ] (* violates: pong reaches 2 *);
      [ 0; 1; 0; 1 ] (* passes: pong stays at 1 *);
      [ 1; 1; 0; 1; 1 ];
      [];
    ]
  in
  List.iter
    (fun steps ->
      let s = Schedule.of_list ~n:2 steps in
      let sut, count = counting_sut (pipe_sut ()) in
      let got = Explorer.check_schedule ~sut ~property s in
      let want = reference_check ~sut:(pipe_sut ()) ~property s in
      Alcotest.(check bool)
        (Printf.sprintf "verdict matches per-prefix scan (len %d)" (List.length steps))
        true
        ((got = None) = (want = None));
      Alcotest.(check int)
        (Printf.sprintf "one instance per check (len %d)" (List.length steps))
        1 !count)
    schedules

let test_shrink_replay_count () =
  let sut, count = counting_sut (pipe_sut ()) in
  let property = pong_below 2 in
  let found = Schedule.of_list ~n:2 [ 0; 1; 0; 1; 0; 1; 1 ] in
  (* sanity: it violates (three ping bumps, pong copies the last) *)
  Alcotest.(check bool) "input violates" true
    (Explorer.check_schedule ~sut ~property found <> None);
  count := 0;
  let violates s = Explorer.check_schedule ~sut ~property s <> None in
  let r = Shrink.run ~violates found in
  Alcotest.(check bool) "shrunk still violates" true (violates r.Shrink.schedule);
  (* one replay per ddmin test (plus the final violates above): the old
     per-prefix scan cost O(len) instances per test *)
  Alcotest.(check int) "one instance per ddmin test" (r.Shrink.tests + 1) !count

(* ------------------------------------------------------------------ *)
(* (g) parallel exploration: verdict-equivalent to sequential *)

let violated_names (r : Explorer.report) =
  List.filter_map
    (fun (name, v) ->
      match v with Explorer.Violated _ -> Some name | Explorer.Ok_bounded -> None)
    r.Explorer.verdicts
  |> List.sort String.compare

(* visit accounting, without the replay accounting: under [path_replay]
   the sequential engine synthesizes commutation prunes from sibling
   footprints (no replay paid) while parallel workers discover them on
   arrival (replay already paid), so replays/replay_steps are
   deterministic per mode but not equal across modes — visit counts
   are *)
let visit_counts_of (s : Budget.stats) =
  ( s.Budget.visited,
    s.Budget.safety_checked,
    s.Budget.pruned_fingerprint,
    s.Budget.pruned_sleep,
    s.Budget.max_depth,
    s.Budget.truncated )

(* with fingerprint pruning off the explored prefix set is
   order-independent, so parallel visit counts must match sequential
   exactly (frontier peak excepted: the parallel one samples shared
   deques) *)
let cross_check ?(exact_counts = true) ~name ~mk_sut ~properties ~config () =
  let seq = Explorer.explore ~sut:(mk_sut ()) ~properties (config ()) in
  List.iter
    (fun domains ->
      let par = Explorer.explore ~domains ~sut:(mk_sut ()) ~properties (config ()) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: same violated set (domains=%d)" name domains)
        (violated_names seq) (violated_names par);
      Alcotest.(check bool)
        (Printf.sprintf "%s: both exhaustive (domains=%d)" name domains)
        seq.Explorer.stats.Budget.truncated par.Explorer.stats.Budget.truncated;
      if exact_counts then begin
        Alcotest.(check bool)
          (Printf.sprintf "%s: identical visit counts (domains=%d)" name domains)
          true
          (visit_counts_of seq.Explorer.stats = visit_counts_of par.Explorer.stats);
        (* without the commutation reduction both modes pay exactly the
           same replays, so the full accounting must line up too *)
        if not (config ()).Explorer.sleep_sets then
          Alcotest.(check bool)
            (Printf.sprintf "%s: identical replay accounting (domains=%d)" name domains)
            true
            (counts_of seq.Explorer.stats = counts_of par.Explorer.stats)
      end
      else begin
        Alcotest.(check bool)
          (Printf.sprintf "%s: plausible visited (domains=%d)" name domains)
          true
          (par.Explorer.stats.Budget.visited > 0
          && par.Explorer.stats.Budget.replay_steps > 0);
        (* any counterexample a parallel run reports must replay *)
        List.iter
          (fun (p : _ Property.t) ->
            match List.assoc p.Property.name par.Explorer.verdicts with
            | Explorer.Ok_bounded -> ()
            | Explorer.Violated { schedule; _ } ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s counterexample replays (domains=%d)" name
                     p.Property.name domains)
                  true
                  (Explorer.check_schedule ~sut:(mk_sut ()) ~property:p schedule <> None))
          properties
      end)
    [ 2; 4 ]

let test_parallel_pause_only () =
  cross_check ~name:"pause-only"
    ~mk_sut:(fun () -> Systems.pause_procs ~n:3)
    ~properties:[]
    ~config:(fun () ->
      Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~depth:5 ())
    ()

let test_parallel_detector () =
  let params = { Setsync_detector.Kanti_omega.n = 2; t = 1; k = 1 } in
  cross_check ~name:"figure-2 detector"
    ~mk_sut:(fun () -> Systems.kanti_detector ~params ())
    ~properties:
      [
        Property.anti_omega_stabilized ~k:1
          ~outputs:(fun st -> st.Explorer.obs.Systems.fd_outputs)
          ~correct:(fun st -> Run.correct st.Explorer.run);
      ]
    ~config:(fun () -> Explorer.config ~prune_fingerprints:false ~depth:8 ())
    ()

let test_parallel_kset () =
  let problem = Setsync_agreement.Problem.make ~t:1 ~k:1 ~n:3 in
  let inputs = Setsync_agreement.Problem.distinct_inputs problem in
  let decisions st = st.Explorer.obs.Systems.decisions in
  cross_check ~name:"theorem-24 kset"
    ~mk_sut:(fun () -> Systems.kset_agreement ~problem ~inputs ())
    ~properties:
      [
        Property.kset_agreement ~k:1 ~decisions;
        Property.validity ~inputs ~decisions;
      ]
    ~config:(fun () -> Explorer.config ~prune_fingerprints:false ~depth:5 ())
    ()

(* fingerprint pruning on: prune decisions race benignly across
   domains, so only the verdicts (and counterexample replayability)
   are required to match *)
let test_parallel_fingerprints () =
  cross_check ~exact_counts:false ~name:"double-writer fp"
    ~mk_sut:double_writer_sut ~properties:[]
    ~config:(fun () -> Explorer.config ~prune_fingerprints:true ~sleep_sets:false ~depth:4 ())
    ();
  cross_check ~exact_counts:false ~name:"pipe fp"
    ~mk_sut:pipe_sut
    ~properties:[ pong_below 2; pong_le_ping ]
    ~config:(fun () -> Explorer.config ~prune_fingerprints:true ~sleep_sets:true ~depth:6 ())
    ()

(* the observation-sensitive sleep-set regression must hold under
   domains too *)
let test_parallel_sleep_safety () =
  List.iter
    (fun domains ->
      let report =
        Explorer.explore ~domains ~sut:(single_writer_sut ())
          ~properties:[ no_p2p1_suffix ]
          (Explorer.config ~prune_fingerprints:false ~sleep_sets:true ~depth:4 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "violation found (domains=%d)" domains)
        true
        (verdict_of "no-p2p1-suffix" report <> Explorer.Ok_bounded))
    [ 1; 2; 4 ]

(* the snapshot engine under domains: each worker owns a private
   machine instance and materializes popped prefixes by machine steps;
   verdicts and (fingerprints off) visit counts must match the
   sequential snapshot run exactly *)
let test_parallel_snapshot () =
  cross_check ~name:"single-writer snapshot"
    ~mk_sut:single_writer_sut ~properties:[]
    ~config:(fun () ->
      Explorer.config ~prune_fingerprints:false ~engine:Explorer.Snapshot ~depth:4 ())
    ();
  let problem = Setsync_agreement.Problem.make ~t:1 ~k:1 ~n:3 in
  let inputs = Setsync_agreement.Problem.distinct_inputs problem in
  let decisions st = st.Explorer.obs.Systems.decisions in
  cross_check ~name:"theorem-24 kset snapshot"
    ~mk_sut:(fun () -> Systems.kset_agreement ~problem ~inputs ())
    ~properties:
      [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
    ~config:(fun () ->
      Explorer.config ~prune_fingerprints:false ~engine:Explorer.Snapshot ~depth:5 ())
    ()

let test_parallel_invalid_args () =
  let sut = single_writer_sut () in
  Alcotest.check_raises "domains=0 rejected"
    (Invalid_argument "Explorer.explore: domains must be >= 1") (fun () ->
      ignore (Explorer.explore ~domains:0 ~sut ~properties:[] (Explorer.config ~depth:2 ())));
  let custom () =
    { Explorer.push = (fun _ -> ()); pop = (fun () -> None); size = (fun () -> 0) }
  in
  Alcotest.check_raises "custom frontier rejected in parallel"
    (Invalid_argument
       "Explorer.explore: custom frontiers are single-domain only (the parallel engine \
        owns its work-stealing frontier)") (fun () ->
      ignore
        (Explorer.explore ~domains:2 ~sut ~properties:[]
           (Explorer.config ~strategy:(Explorer.Custom custom) ~depth:2 ())))

(* regression: the stripe index must hash the whole key. The stdlib
   default [Hashtbl.hash] stops after 10 meaningful nodes, so
   structured values differing only past that horizon collide — here
   two 20-element lists that differ only in their last element. The
   table's [full_hash] keeps going and must tell them apart. *)
let test_stripe_hash_full_width () =
  let deep = List.init 20 (fun i -> i) in
  let deep' = List.init 19 (fun i -> i) @ [ 999 ] in
  Alcotest.(check bool)
    "sanity: the default hash does collide on these" true
    (Hashtbl.hash deep = Hashtbl.hash deep');
  Alcotest.(check bool)
    "full_hash distinguishes past the truncation horizon" false
    (Parallel.Shard_tbl.full_hash deep = Parallel.Shard_tbl.full_hash deep');
  (* and prune decisions on long string keys still behave: first sight
     expands, deeper re-sight prunes, shallower re-sight expands *)
  let t = Parallel.Shard_tbl.create ~shards:4 () in
  let key = String.make 200 'x' ^ "suffix" in
  Alcotest.(check bool)
    "fresh key expands" true
    (Parallel.Shard_tbl.check_and_record t key ~depth:3);
  Alcotest.(check bool)
    "deeper re-sight prunes" false
    (Parallel.Shard_tbl.check_and_record t key ~depth:5);
  Alcotest.(check bool)
    "shallower re-sight expands" true
    (Parallel.Shard_tbl.check_and_record t key ~depth:1)

(* ------------------------------------------------------------------ *)
(* (h) path-replay engine ≡ per-state engine ≡ snapshot engine *)

(* the acceptance contract of the alternative engines: identical
   verdicts and visit counts (fingerprinting off), strictly cheaper
   replay accounting for the path engine, {e zero} replay accounting
   for the snapshot engine *)
let check_engine_equiv ~name ~mk_sut ~properties mk_config =
  let run engine =
    Explorer.explore ~sut:(mk_sut ()) ~properties (mk_config ~engine)
  in
  let state_r = run Explorer.Per_state in
  let check_matches label (other : Explorer.report) =
    Alcotest.(check (list string))
      (Printf.sprintf "%s: same violated set (%s)" name label)
      (violated_names state_r) (violated_names other);
    List.iter2
      (fun (n1, v1) (n2, v2) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: verdict %s identical (%s)" name n1 label)
          true
          (String.equal n1 n2
          &&
          match (v1, v2) with
          | Explorer.Ok_bounded, Explorer.Ok_bounded -> true
          | Explorer.Violated x, Explorer.Violated y ->
              Schedule.equal x.schedule y.schedule && String.equal x.reason y.reason
          | _ -> false))
      state_r.Explorer.verdicts other.Explorer.verdicts;
    Alcotest.(check bool)
      (Printf.sprintf "%s: identical visit counts (%s)" name label)
      true
      (visit_counts_of state_r.Explorer.stats = visit_counts_of other.Explorer.stats)
  in
  let path_r = run Explorer.Path in
  check_matches "path" path_r;
  Alcotest.(check bool)
    (Printf.sprintf "%s: path engine pays fewer replay steps" name)
    true
    (path_r.Explorer.stats.Budget.replay_steps
    <= state_r.Explorer.stats.Budget.replay_steps);
  let snap_r = run Explorer.Snapshot in
  check_matches "snapshot" snap_r;
  Alcotest.(check int)
    (Printf.sprintf "%s: snapshot engine pays zero replays" name)
    0 snap_r.Explorer.stats.Budget.replays;
  Alcotest.(check int)
    (Printf.sprintf "%s: snapshot engine pays zero replay steps" name)
    0 snap_r.Explorer.stats.Budget.replay_steps;
  (state_r, path_r, snap_r)

let test_engine_equiv_pause () =
  let state_r, path_r, _snap_r =
    check_engine_equiv ~name:"pause-only"
      ~mk_sut:(fun () -> Systems.pause_procs ~n:3)
      ~properties:[]
      (fun ~engine ->
        Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~engine ~depth:5 ())
  in
  (* strict: at depth 5 over 3 never-halting processes the per-state
     engine pays Σ depth·3^depth steps, the path engine Σ over maximal
     paths *)
  Alcotest.(check bool) "strictly fewer steps" true
    (path_r.Explorer.stats.Budget.replay_steps
    < state_r.Explorer.stats.Budget.replay_steps)

let test_engine_equiv_detector () =
  let params = { Setsync_detector.Kanti_omega.n = 2; t = 1; k = 1 } in
  ignore
    (check_engine_equiv ~name:"figure-2 detector"
       ~mk_sut:(fun () -> Systems.kanti_detector ~params ())
       ~properties:
         [
           Property.anti_omega_stabilized ~k:1
             ~outputs:(fun st -> st.Explorer.obs.Systems.fd_outputs)
             ~correct:(fun st -> Run.correct st.Explorer.run);
         ]
       (fun ~engine -> Explorer.config ~prune_fingerprints:false ~engine ~depth:8 ()))

let test_engine_equiv_kset () =
  let problem = Setsync_agreement.Problem.make ~t:1 ~k:1 ~n:2 in
  let inputs = Setsync_agreement.Problem.distinct_inputs problem in
  let decisions st = st.Explorer.obs.Systems.decisions in
  let state_r, path_r, _snap_r =
    check_engine_equiv ~name:"theorem-24 kset"
      ~mk_sut:(fun () -> Systems.kset_agreement ~problem ~inputs ())
      ~properties:
        [
          Property.kset_agreement ~k:1 ~decisions;
          Property.validity ~inputs ~decisions;
        ]
      (fun ~engine -> Explorer.config ~prune_fingerprints:false ~engine ~depth:8 ())
  in
  (* the acceptance target: ≥3× fewer replay steps on the depth-8 kset
     space (deterministic counts, also pinned in bench E11e) *)
  Alcotest.(check bool) "≥3× fewer replay steps" true
    (3 * path_r.Explorer.stats.Budget.replay_steps
    <= state_r.Explorer.stats.Budget.replay_steps);
  (* the commutation+safety interplay is the risky part: the kset
     properties are state-based, so synthesis must not have materialized
     pruned prefixes — one descent replay per frontier pop only *)
  Alcotest.(check int) "safety checks cover visits and prunes"
    (path_r.Explorer.stats.Budget.visited + path_r.Explorer.stats.Budget.pruned_sleep)
    path_r.Explorer.stats.Budget.safety_checked

(* the schedule-sensitive regression (e) must hold under the path
   engine in both verdict and accounting: pruned interleavings are
   materialized (classic replays) exactly because the pending safety
   property reads the schedule *)
let test_engine_sched_sensitive_safety () =
  let report =
    Explorer.explore ~sut:(single_writer_sut ()) ~properties:[ no_p2p1_suffix ]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:true ~path_replay:true
         ~depth:4 ())
  in
  (match verdict_of "no-p2p1-suffix" report with
  | Explorer.Ok_bounded ->
      Alcotest.fail "path engine silently skipped a schedule-sensitive violation"
  | Explorer.Violated { schedule; _ } ->
      Alcotest.(check bool)
        "counterexample ends p2 then p1" true
        (match List.rev (Schedule.to_list schedule) with
        | 0 :: 1 :: _ -> true
        | _ -> false));
  let s = stats_of report in
  Alcotest.(check bool)
    "pruned states were safety-checked" true
    (s.Budget.safety_checked > s.Budget.visited)

(* the same regression under the snapshot engine: a sleep-pruned state
   is already materialized (the machine stepped into it before the
   commutation test), and must be safety-checked before the restore *)
let test_engine_snapshot_sched_sensitive () =
  let report =
    Explorer.explore ~sut:(single_writer_sut ()) ~properties:[ no_p2p1_suffix ]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:true
         ~engine:Explorer.Snapshot ~depth:4 ())
  in
  (match verdict_of "no-p2p1-suffix" report with
  | Explorer.Ok_bounded ->
      Alcotest.fail "snapshot engine silently skipped a schedule-sensitive violation"
  | Explorer.Violated _ -> ());
  let s = stats_of report in
  Alcotest.(check bool)
    "pruned states were safety-checked" true
    (s.Budget.safety_checked > s.Budget.visited);
  Alcotest.(check int) "zero replay steps" 0 s.Budget.replay_steps

(* snapshot + fingerprints: the sequential DFS visit order matches the
   per-state engine's and the digests are built by the same function
   over the same snapshot/run/obs, so the depth-refined table prunes
   identically — the hand-counted double-writer numbers from (a) hold *)
let test_engine_snapshot_fingerprint_counts () =
  let report =
    Explorer.explore ~sut:(double_writer_sut ()) ~properties:[]
      (Explorer.config ~prune_fingerprints:true ~sleep_sets:false
         ~engine:Explorer.Snapshot ~depth:4 ())
  in
  let s = stats_of report in
  Alcotest.(check int) "visited" 19 s.Budget.visited;
  Alcotest.(check int) "fp pruned" 3 s.Budget.pruned_fingerprint;
  Alcotest.(check int) "zero replays" 0 s.Budget.replays;
  Alcotest.(check int) "zero replay steps" 0 s.Budget.replay_steps

(* crash plans: the savepoint mirror (per-process step counts, crash
   records, budget checks) must reproduce executor crash accounting for
   both budget-exhausted and initially-dead processes *)
let test_engine_snapshot_fault () =
  ignore
    (check_engine_equiv ~name:"single-writer, crash after 1"
       ~mk_sut:single_writer_sut ~properties:[]
       (fun ~engine ->
         Explorer.config ~prune_fingerprints:false ~engine ~fault:[ (0, 1) ] ~depth:4 ()));
  ignore
    (check_engine_equiv ~name:"double-writer, initially dead"
       ~mk_sut:double_writer_sut ~properties:[]
       (fun ~engine ->
         Explorer.config ~prune_fingerprints:true ~engine ~fault:[ (1, 0) ] ~depth:4 ()))

(* a snapshot run interleaving pauses/restores with crashes must keep
   exact per-process step accounting: budgets hit at the same depths as
   the executor's, pinned through visit-count equality above and the
   crash-set-sensitive fingerprint here (fault plans shrink the
   admissible renaming group to budget-preserving perms) *)
let test_symmetry_respects_fault () =
  let run symmetry =
    Explorer.explore ~sut:(double_writer_sut ()) ~properties:[]
      (Explorer.config ~prune_fingerprints:true ~sleep_sets:false
         ~engine:Explorer.Snapshot ~symmetry ~fault:[ (0, 1) ] ~depth:4 ())
  in
  let off = run false and on_ = run true in
  (* the fault plan breaks the swap symmetry: the group degenerates to
     the identity and the run must not merge asymmetric states *)
  Alcotest.(check int) "same visited under asymmetric fault"
    (stats_of off).Budget.visited (stats_of on_).Budget.visited

(* ------------------------------------------------------------------ *)
(* (h') symmetry reduction: sound (verdict-equivalent) and effective *)

let not_both_done =
  Property.safety ~name:"not-both-done" (fun st ->
      let a, b = st.Explorer.obs in
      if a = 2 && b = 2 then Some "both writers finished" else None)

let test_symmetry_double_writer () =
  let run ~properties symmetry =
    Explorer.explore ~sut:(double_writer_sut ()) ~properties
      (Explorer.config ~prune_fingerprints:true ~sleep_sets:false
         ~engine:Explorer.Snapshot ~symmetry ~depth:6 ())
  in
  (* soundness: the violation is found with symmetry exactly iff it is
     found without (the first counterexample stops both runs, so the
     property run says nothing about counts) *)
  let off = run ~properties:[ not_both_done ] false
  and on_ = run ~properties:[ not_both_done ] true in
  Alcotest.(check (list string))
    "same violated set" (violated_names off) (violated_names on_);
  (* effectiveness, on the full space: the swap group merges every
     mirrored state, here exactly as discriminating as the plain
     fingerprint (registers + pcs determine each other), so the
     reduction is pure gain *)
  let off = run ~properties:[] false and on_ = run ~properties:[] true in
  Alcotest.(check bool)
    "symmetry visits strictly fewer states" true
    ((stats_of on_).Budget.visited < (stats_of off).Budget.visited);
  Alcotest.(check int) "zero replay steps" 0 (stats_of on_).Budget.replay_steps

(* soundness only: with symmetry off the plain fingerprint keys on the
   (approximate) observation while the canonical fingerprint keys on
   the exact machine payload, so the visited counts are incomparable
   by construction — what must agree is the verdict set *)
let test_symmetry_detector () =
  let params = { Setsync_detector.Kanti_omega.n = 3; t = 2; k = 2 } in
  let properties =
    [
      Property.anti_omega_stabilized ~k:2
        ~outputs:(fun st -> st.Explorer.obs.Systems.fd_outputs)
        ~correct:(fun st -> Run.correct st.Explorer.run);
    ]
  in
  let run symmetry =
    Explorer.explore
      ~sut:(Systems.kanti_detector ~params ())
      ~properties
      (Explorer.config ~prune_fingerprints:true ~engine:Explorer.Snapshot ~symmetry
         ~depth:6 ())
  in
  let off = run false and on_ = run true in
  Alcotest.(check (list string))
    "same violated set" (violated_names off) (violated_names on_);
  Alcotest.(check int) "zero replay steps" 0 (stats_of on_).Budget.replay_steps

let test_symmetry_kset () =
  let problem = Setsync_agreement.Problem.make ~t:1 ~k:1 ~n:2 in
  (* equal inputs: the admissible renaming group is input-preserving,
     so distinct inputs would degenerate it to the identity *)
  let inputs = [| 7; 7 |] in
  let decisions st = st.Explorer.obs.Systems.decisions in
  let properties =
    [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
  in
  let run symmetry =
    Explorer.explore
      ~sut:(Systems.kset_agreement ~problem ~inputs ())
      ~properties
      (Explorer.config ~prune_fingerprints:true ~engine:Explorer.Snapshot ~symmetry
         ~depth:8 ())
  in
  let off = run false and on_ = run true in
  Alcotest.(check (list string))
    "same violated set" (violated_names off) (violated_names on_);
  Alcotest.(check int) "zero replay steps" 0 (stats_of on_).Budget.replay_steps

let test_symmetry_requires_snapshot () =
  Alcotest.check_raises "config rejects symmetry without snapshot engine"
    (Invalid_argument "Explorer.config: symmetry reduction requires the snapshot engine")
    (fun () -> ignore (Explorer.config ~symmetry:true ~depth:4 ()))

let test_snapshot_requires_machine () =
  (* a sut without a machine form must be refused up front *)
  let sut =
    {
      Explorer.n = 2;
      fresh =
        (fun ~store:_ ->
          {
            Explorer.body = (fun _ () -> ());
            observe = (fun () -> ());
            substrate = None;
            machine = None;
          });
      obs_fingerprint = (fun () -> "");
    }
  in
  Alcotest.(check bool) "raises on missing machine form" true
    (try
       ignore
         (Explorer.explore ~sut ~properties:[]
            (Explorer.config ~engine:Explorer.Snapshot ~depth:2 ()));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* (i) budget boundary semantics: "budget of k means at most k" *)

let explore_single ~path_replay ~limits () =
  Explorer.explore ~sut:(single_writer_sut ()) ~properties:[]
    (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~path_replay ~limits
       ~depth:4 ())

let test_budget_boundaries () =
  List.iter
    (fun path_replay ->
      let label fmt =
        Printf.sprintf "%s (path_replay=%b)" fmt path_replay
      in
      let run limits = (explore_single ~path_replay ~limits ()).Explorer.stats in
      (* the space is exactly 19 states (hand-counted in (a)) *)
      let s = run (Budget.limits ~max_states:0 ()) in
      Alcotest.(check int) (label "max_states=0 visits nothing") 0 s.Budget.visited;
      Alcotest.(check bool) (label "max_states=0 truncated") true s.Budget.truncated;
      let s = run (Budget.limits ~max_states:1 ()) in
      Alcotest.(check int) (label "max_states=1 visits one") 1 s.Budget.visited;
      Alcotest.(check bool) (label "max_states=1 truncated") true s.Budget.truncated;
      let s = run (Budget.limits ~max_states:18 ()) in
      Alcotest.(check int) (label "max_states=18 visits 18") 18 s.Budget.visited;
      Alcotest.(check bool) (label "max_states=18 truncated") true s.Budget.truncated;
      (* exactly the budget: completing the space on the nose is
         exhaustive, not truncated (the old loop checked [over] before
         popping and spuriously truncated this run) *)
      let s = run (Budget.limits ~max_states:19 ()) in
      Alcotest.(check int) (label "max_states=19 visits all") 19 s.Budget.visited;
      Alcotest.(check bool) (label "max_states=19 exhaustive") false s.Budget.truncated;
      (* same contract for the step budget: the unbounded run's total is
         the exact cost of the space under this engine *)
      let total = (run Budget.unlimited).Budget.replay_steps in
      let s = run (Budget.limits ~max_replay_steps:total ()) in
      Alcotest.(check bool) (label "exact step budget exhaustive") false s.Budget.truncated;
      Alcotest.(check int) (label "exact step budget visits all") 19 s.Budget.visited;
      if path_replay then begin
        (* the incremental accounting enforces the step cap to the
           single step: one short must cut the final visit *)
        let s = run (Budget.limits ~max_replay_steps:(total - 1) ()) in
        Alcotest.(check bool) (label "one step short truncated") true s.Budget.truncated;
        Alcotest.(check bool) (label "one step short visits fewer") true
          (s.Budget.visited < 19)
      end
      else begin
        (* the per-state engine only checks between replays, so its
           overshoot is bounded by one replay — a cap short by more than
           the deepest replay must truncate *)
        let s = run (Budget.limits ~max_replay_steps:(total - 5) ()) in
        Alcotest.(check bool) (label "cap short by >1 replay truncated") true
          s.Budget.truncated;
        Alcotest.(check bool) (label "cap short by >1 replay visits fewer") true
          (s.Budget.visited < 19)
      end)
    [ false; true ]

(* the snapshot engine enforces the same visit-budget contract; its
   step budget degenerates (no replay steps are ever paid): a positive
   cap never trips, a zero cap truncates immediately like every engine *)
let test_budget_boundaries_snapshot () =
  let run limits =
    (Explorer.explore ~sut:(single_writer_sut ()) ~properties:[]
       (Explorer.config ~prune_fingerprints:false ~sleep_sets:false
          ~engine:Explorer.Snapshot ~limits ~depth:4 ()))
      .Explorer.stats
  in
  let s = run (Budget.limits ~max_states:0 ()) in
  Alcotest.(check int) "max_states=0 visits nothing" 0 s.Budget.visited;
  Alcotest.(check bool) "max_states=0 truncated" true s.Budget.truncated;
  let s = run (Budget.limits ~max_states:1 ()) in
  Alcotest.(check int) "max_states=1 visits one" 1 s.Budget.visited;
  Alcotest.(check bool) "max_states=1 truncated" true s.Budget.truncated;
  let s = run (Budget.limits ~max_states:18 ()) in
  Alcotest.(check int) "max_states=18 visits 18" 18 s.Budget.visited;
  Alcotest.(check bool) "max_states=18 truncated" true s.Budget.truncated;
  let s = run (Budget.limits ~max_states:19 ()) in
  Alcotest.(check int) "max_states=19 visits all" 19 s.Budget.visited;
  Alcotest.(check bool) "max_states=19 exhaustive" false s.Budget.truncated;
  let s = run (Budget.limits ~max_replay_steps:1 ()) in
  Alcotest.(check bool) "positive step cap never trips" false s.Budget.truncated;
  Alcotest.(check int) "positive step cap visits all" 19 s.Budget.visited;
  let s = run (Budget.limits ~max_replay_steps:0 ()) in
  Alcotest.(check bool) "zero step cap truncated" true s.Budget.truncated;
  Alcotest.(check int) "zero step cap visits nothing" 0 s.Budget.visited

(* parallel workers enforce the same contract against the shared gauge;
   overshoot is bounded by in-flight items, and an exact-budget
   completion must not be flagged truncated *)
let test_budget_boundary_parallel () =
  List.iter
    (fun domains ->
      let run limits =
        (Explorer.explore ~domains ~sut:(single_writer_sut ()) ~properties:[]
           (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~limits
              ~depth:4 ()))
          .Explorer.stats
      in
      let label fmt = Printf.sprintf "%s (domains=%d)" fmt domains in
      let s = run (Budget.limits ~max_states:0 ()) in
      Alcotest.(check int) (label "max_states=0 visits nothing") 0 s.Budget.visited;
      Alcotest.(check bool) (label "max_states=0 truncated") true s.Budget.truncated;
      let s = run (Budget.limits ~max_states:19 ()) in
      Alcotest.(check int) (label "max_states=19 visits all") 19 s.Budget.visited;
      Alcotest.(check bool) (label "max_states=19 exhaustive") false s.Budget.truncated)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* (j) the printed report line carries every counter (S1 regression:
   safety_checked was invisible in every report) *)

let test_pp_stats_line () =
  let report =
    Explorer.explore ~sut:(single_writer_sut ()) ~properties:[ no_p2p1_suffix ]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:true ~depth:4 ())
  in
  let s = stats_of report in
  Alcotest.(check string)
    "pinned report line"
    (Printf.sprintf
       "visited %d (fp-pruned %d, commute-pruned %d, safety-checked %d) replays %d/%d \
        steps, max depth %d, frontier peak %d, exhaustive"
       s.Budget.visited s.Budget.pruned_fingerprint s.Budget.pruned_sleep
       s.Budget.safety_checked s.Budget.replays s.Budget.replay_steps s.Budget.max_depth
       s.Budget.frontier_peak)
    (Fmt.str "%a" Budget.pp_stats s);
  (* and the counter is live, not a zero placeholder *)
  Alcotest.(check bool) "safety_checked printed nonzero" true (s.Budget.safety_checked > 0)

(* ------------------------------------------------------------------ *)
(* (l) metrics are scoped to their Obs context: two explores with
   separate contexts, run one after the other, each end with exactly
   the counters of the same explore run alone *)

let test_metrics_scoped_to_obs () =
  let problem = Setsync_agreement.Problem.make ~t:1 ~k:1 ~n:3 in
  let inputs = Setsync_agreement.Problem.distinct_inputs problem in
  let decisions st = st.Explorer.obs.Systems.decisions in
  let explore ~depth obs =
    ignore
      (Explorer.explore ~obs
         ~sut:(Systems.kset_agreement ~problem ~inputs ())
         ~properties:[ Property.kset_agreement ~k:1 ~decisions ]
         (Explorer.config ~prune_fingerprints:false ~depth ()))
  in
  let counters obs =
    match Json.member "counters" (Metrics.to_json obs.Obs.metrics) with
    | Some c -> Json.to_string c
    | None -> Alcotest.fail "no counters recorded"
  in
  let alone depth =
    let obs = Obs.create () in
    explore ~depth obs;
    counters obs
  in
  let obs_a = Obs.create () and obs_b = Obs.create () in
  explore ~depth:5 obs_a;
  explore ~depth:4 obs_b;
  let a = counters obs_a and b = counters obs_b in
  Alcotest.(check string) "A's counters as if run alone" (alone 5) a;
  Alcotest.(check string) "B's counters as if run alone" (alone 4) b;
  Alcotest.(check bool) "A and B differ" false (String.equal a b)

(* ------------------------------------------------------------------ *)
(* (k) check_schedule stays a single replay across skipped steps *)

(* single-writer processes halt after 2 steps, so a schedule naming a
   process a third time forces the executor to skip the entry — the old
   probe bailed to the O(len²) per-prefix scan on the first skip *)
let test_check_schedule_skips () =
  let both_written =
    Property.safety ~name:"not-both-written" (fun st ->
        let a, b = st.Explorer.obs in
        if a = 1 && b = 1 then Some "both registers written" else None)
  in
  let schedules =
    [
      ([ 0; 0; 0; 1; 1 ], true) (* skip in the middle: still violates *);
      ([ 0; 0; 0 ], false) (* trailing skipped entry, passes *);
      ([ 0; 1; 0; 0; 1; 1; 0 ], true) (* multiple skips, violates *);
      ([ 1; 1; 1; 1 ], false) (* one writer only, trailing skips *);
    ]
  in
  List.iter
    (fun (steps, want_violation) ->
      let s = Schedule.of_list ~n:2 steps in
      let sut, count = counting_sut (single_writer_sut ()) in
      let got = Explorer.check_schedule ~sut ~property:both_written s in
      let want = reference_check ~sut:(single_writer_sut ()) ~property:both_written s in
      Alcotest.(check bool)
        (Printf.sprintf "verdict matches per-prefix scan (%s)"
           (String.concat "" (List.map string_of_int steps)))
        true
        ((got = None) = (want = None));
      Alcotest.(check bool)
        (Printf.sprintf "expected verdict (%s)"
           (String.concat "" (List.map string_of_int steps)))
        want_violation (got <> None);
      Alcotest.(check int)
        (Printf.sprintf "one instance despite skips (%s)"
           (String.concat "" (List.map string_of_int steps)))
        1 !count)
    schedules

(* ------------------------------------------------------------------ *)
(* plumbing the explorer relies on *)

let test_trace_recent () =
  let tr = Trace.create ~capacity:4 in
  Alcotest.(check bool) "empty" true (Trace.last tr = None);
  Trace.record tr ~register:"a" ~kind:Trace.Write ~value:"1";
  Trace.record tr ~register:"b" ~kind:Trace.Read ~value:"2";
  Trace.record tr ~register:"c" ~kind:Trace.Write ~value:"3";
  (match Trace.last tr with
  | Some e -> Alcotest.(check string) "last is newest" "c" e.Trace.register
  | None -> Alcotest.fail "expected an entry");
  Alcotest.(check (list string)) "recent newest-first" [ "c"; "b" ]
    (List.map (fun e -> e.Trace.register) (Trace.recent tr 2));
  Alcotest.(check (list string)) "recent capped by recorded" [ "c"; "b"; "a" ]
    (List.map (fun e -> e.Trace.register) (Trace.recent tr 10))

let test_store_snapshot () =
  let store = Store.create () in
  let a = Store.register store ~pp:Fmt.int ~name:"a" 7 in
  let _b = Store.register store ~name:"b" "opaque" in
  (match Store.snapshot store with
  | [ ("a", "7"); ("b", _) ] -> ()
  | s ->
      Alcotest.failf "unexpected snapshot %a"
        Fmt.(list (pair string string))
        s);
  Register.poke a 9;
  (match Store.snapshot store with
  | [ ("a", "9"); ("b", _) ] -> ()
  | _ -> Alcotest.fail "snapshot not live")

(* Regression for the pp-less fingerprint hole: two registers created
   without a printer but holding different values used to both render
   as "<value>", making states differing only in pp-less registers
   fingerprint-equal — an unsound prune. The rendering must be a
   structural digest: total, and distinct for distinct values. *)
let test_store_snapshot_ppless_distinct () =
  let store = Store.create () in
  let b = Store.register store ~name:"b" "one" in
  let render () = List.assoc "b" (Store.snapshot store) in
  let r1 = render () in
  Register.poke b "two";
  let r2 = render () in
  Alcotest.(check bool) "distinct values render distinctly" true (r1 <> r2);
  Register.poke b "one";
  Alcotest.(check string) "rendering is deterministic" r1 (render ())

let test_store_save_restore () =
  let store = Store.create () in
  let a = Store.register store ~pp:Fmt.int ~name:"a" 1 in
  let b = Store.register store ~name:"b" "x" in
  let restore = Store.save store in
  Register.poke a 42;
  Register.poke b "y";
  restore ();
  Alcotest.(check int) "a restored" 1 (Register.peek a);
  Alcotest.(check string) "b restored" "x" (Register.peek b)

let test_evaluate_matches_replay () =
  let sut = pipe_sut () in
  let s = Schedule.of_list ~n:2 [ 0; 1; 1; 0 ] in
  let st = Explorer.evaluate ~sut s in
  Alcotest.check schedule "executed the whole schedule" s st.Explorer.run.Run.taken;
  Alcotest.(check int) "ping" 2 st.Explorer.obs.ping;
  Alcotest.(check int) "pong" 1 st.Explorer.obs.pong

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "setsync_explore"
    [
      ( "counts",
        [
          Alcotest.test_case "brute force, hand-counted" `Quick test_count_brute;
          Alcotest.test_case "commutation reduction" `Quick test_count_sleep;
          Alcotest.test_case "double writer, brute" `Quick test_count_double_brute;
          Alcotest.test_case "double writer, fingerprints" `Quick
            test_count_double_fingerprint;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "verdicts preserved vs brute force" `Quick
            test_pruning_preserves_verdicts;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "1-minimal counterexample" `Quick test_shrink_minimal;
          Alcotest.test_case "synthetic ddmin" `Quick test_shrink_synthetic;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fixed seed and budget" `Quick test_deterministic;
          Alcotest.test_case "unbounded run is exhaustive" `Quick
            test_exhaustive_when_unbounded;
          Alcotest.test_case "wall-clock budget" `Slow test_wall_clock_budget;
        ] );
      ( "sleep-set safety",
        [
          Alcotest.test_case "pruned interleavings are safety-checked" `Quick
            test_sleep_set_safety_checked;
        ] );
      ( "check_schedule",
        [
          Alcotest.test_case "one replay per safety check" `Quick
            test_check_schedule_single_replay;
          Alcotest.test_case "shrinking replay count" `Quick test_shrink_replay_count;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "pause-only cross-check" `Quick test_parallel_pause_only;
          Alcotest.test_case "figure-2 detector cross-check" `Quick
            test_parallel_detector;
          Alcotest.test_case "theorem-24 kset cross-check" `Quick test_parallel_kset;
          Alcotest.test_case "fingerprint pruning cross-check" `Quick
            test_parallel_fingerprints;
          Alcotest.test_case "sleep-set safety under domains" `Quick
            test_parallel_sleep_safety;
          Alcotest.test_case "snapshot engine cross-check" `Quick
            test_parallel_snapshot;
          Alcotest.test_case "invalid arguments" `Quick test_parallel_invalid_args;
          Alcotest.test_case "stripe hash is full-width" `Quick
            test_stripe_hash_full_width;
        ] );
      ( "path-replay engine",
        [
          Alcotest.test_case "pause-only equivalence" `Quick test_engine_equiv_pause;
          Alcotest.test_case "figure-2 detector equivalence" `Quick
            test_engine_equiv_detector;
          Alcotest.test_case "theorem-24 kset equivalence, ≥3× fewer steps" `Quick
            test_engine_equiv_kset;
          Alcotest.test_case "schedule-sensitive safety materialized" `Quick
            test_engine_sched_sensitive_safety;
          Alcotest.test_case "snapshot: schedule-sensitive safety" `Quick
            test_engine_snapshot_sched_sensitive;
          Alcotest.test_case "snapshot: hand-counted fingerprints" `Quick
            test_engine_snapshot_fingerprint_counts;
          Alcotest.test_case "snapshot: crash plans equivalent" `Quick
            test_engine_snapshot_fault;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "double writer: sound and effective" `Quick
            test_symmetry_double_writer;
          Alcotest.test_case "figure-2 detector: verdicts agree" `Quick
            test_symmetry_detector;
          Alcotest.test_case "theorem-24 kset: sound and effective" `Quick
            test_symmetry_kset;
          Alcotest.test_case "asymmetric fault degenerates group" `Quick
            test_symmetry_respects_fault;
          Alcotest.test_case "requires snapshot engine" `Quick
            test_symmetry_requires_snapshot;
          Alcotest.test_case "snapshot requires machine form" `Quick
            test_snapshot_requires_machine;
        ] );
      ( "budget boundaries",
        [
          Alcotest.test_case "at most k, exact k exhaustive" `Quick
            test_budget_boundaries;
          Alcotest.test_case "snapshot engine boundaries" `Quick
            test_budget_boundaries_snapshot;
          Alcotest.test_case "parallel gauge boundaries" `Quick
            test_budget_boundary_parallel;
        ] );
      ( "report line",
        [ Alcotest.test_case "pp_stats pins every counter" `Quick test_pp_stats_line ] );
      ( "metrics scoping",
        [
          Alcotest.test_case "counters scoped to Obs" `Quick test_metrics_scoped_to_obs;
        ] );
      ( "check_schedule skips",
        [
          Alcotest.test_case "single replay across skipped steps" `Quick
            test_check_schedule_skips;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "trace last/recent" `Quick test_trace_recent;
          Alcotest.test_case "store snapshot" `Quick test_store_snapshot;
          Alcotest.test_case "pp-less snapshot digests distinct" `Quick
            test_store_snapshot_ppless_distinct;
          Alcotest.test_case "store save/restore" `Quick test_store_save_restore;
          Alcotest.test_case "evaluate replays faithfully" `Quick
            test_evaluate_matches_replay;
        ] );
    ]
