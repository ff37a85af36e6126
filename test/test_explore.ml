(* Tests for the bounded model-checking subsystem: explorer state
   counts against hand-counted spaces, verdict-preservation of the
   reductions, shrinker minimality, budget truncation, determinism. *)

open Setsync_schedule
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Fiber = Setsync_runtime.Fiber
module Shm = Setsync_runtime.Shm
module Machine = Setsync_runtime.Machine
module Executor = Setsync_runtime.Executor
module Kanti_omega = Setsync_detector.Kanti_omega
module Kset_solver = Setsync_agreement.Kset_solver
module Problem = Setsync_agreement.Problem
module Ag_harness = Setsync_agreement.Ag_harness
module Adaptive = Setsync_agreement.Adaptive
module Fd_harness = Setsync_detector.Fd_harness
module History = Setsync_detector.History
module Substrate = Setsync_runtime.Substrate
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

(* [mk_sut] without its machine form: the replay engines' copy, on
   which the default engine runs the walk with path replay *)
let fiber_only mk_sut () =
  let sut = mk_sut () in
  { sut with Explorer.fresh = (fun ~store -> { (sut.Explorer.fresh ~store) with machine = None }) }

(* Two processes; process p writes 1 then 2 into its own register,
   then halts (a 3-step process: write, write, halt). Still
   observation-complete, and now interleavings of the same multiset of
   steps collapse to the same state — the global state is exactly the
   pair of per-process step counts — so fingerprint pruning has
   something to do. [pp] prints the registers; without [payload] the
   machine form keys on [digest]. *)
let double_writer_sut ?(pp = Fmt.int) ?(payload = true) () =
  {
    Explorer.n = 2;
    fresh =
      (fun ~store ->
        let r = Store.array store ~pp ~name:"r" 2 (fun _ -> 0) in
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
                  (if not payload then None
                   else
                     Some
                       (fun ~perm ->
                         let vals = Array.make 2 (0, 0) in
                         for p = 0 to 1 do
                           vals.(perm.(p)) <- (Register.peek r.(p), pcs.(p))
                         done;
                         Printf.sprintf "%d.%d|%d.%d" (fst vals.(0)) (snd vals.(0))
                           (fst vals.(1)) (snd vals.(1))));
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

(* Two never-halting processes: every step of p0 reads the [width]
   registers [wide] (one step: the reads, then a pause as its atomic),
   every step of p1 writes its own register [own], which p0 never
   reads. The footprint meter keeps 64 accesses per step; a step with
   more has an unknown footprint, which never commutes. *)
let wide_reader_sut ~width =
  {
    Explorer.n = 2;
    fresh =
      (fun ~store ->
        let wide = Store.array store ~pp:Fmt.int ~name:"wide" width (fun _ -> 0) in
        let own = Store.register store ~pp:Fmt.int ~name:"own" 0 in
        let step (a : Machine.access) p =
          if p = 0 then begin
            Array.iter (fun r -> ignore (Machine.read r)) wide;
            a.Machine.pause ()
          end
          else a.Machine.write own 1
        in
        {
          Explorer.body =
            (fun p () ->
              while true do
                step Machine.fiber p
              done);
          observe = (fun () -> ());
          substrate = None;
          machine =
            Some
              {
                Explorer.m_step = step Machine.direct;
                m_halted = (fun _ -> false);
                m_save = (fun () -> fun () -> ());
                m_payload = None;
                m_perms = [ [| 0; 1 |] ];
              };
        });
    obs_fingerprint = (fun () -> "");
  }

(* Depth 2, no fingerprints: the root, [0], [1] and the four length-2
   prefixes. [1;0] (p1's write, then p0's reads) is the descending
   pair: with 64 reads p0's footprint is known and disjoint from p1's,
   so [1;0] is commutation-pruned (6 visited, 1 pruned); with 65 it is
   unknown and [1;0] is visited (7 visited, 0 pruned). *)
let test_count_footprint_overflow () =
  List.iter
    (fun (width, visited, pruned) ->
      List.iter
        (fun engine ->
          let s =
            stats_of
              (Explorer.explore ~sut:(wide_reader_sut ~width) ~properties:[]
                 (Explorer.config ~prune_fingerprints:false ~engine ~depth:2 ()))
          in
          let label =
            Fmt.str "%d reads, %s" width
              (if engine = Explorer.Snapshot then "snapshot" else "per-state")
          in
          Alcotest.(check int) (label ^ ": visited") visited s.Budget.visited;
          Alcotest.(check int) (label ^ ": commute-pruned") pruned s.Budget.pruned_sleep)
        [ Explorer.Snapshot; Explorer.Per_state ])
    [ (64, 6, 1); (65, 7, 0) ]

(* Never-halting processes that each step access the one register [r]:
   process p reads it when [modes.(p)] is [`Read] and writes p + 1 into
   it when [`Write]. *)
let one_register_sut modes =
  let n = Array.length modes in
  {
    Explorer.n;
    fresh =
      (fun ~store ->
        let r = Store.register store ~pp:Fmt.int ~name:"r" 0 in
        let step (a : Machine.access) p =
          match modes.(p) with
          | `Read -> ignore (a.Machine.read r)
          | `Write -> a.Machine.write r (p + 1)
        in
        {
          Explorer.body = Machine.body step;
          observe = (fun () -> ());
          substrate = None;
          machine =
            Some
              {
                Explorer.m_step = step Machine.direct;
                m_halted = (fun _ -> false);
                m_save = (fun () -> fun () -> ());
                m_payload = None;
                m_perms = [ Array.init n Fun.id ];
              };
        });
    obs_fingerprint = (fun () -> "");
  }

let binomial n k =
  let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
  go 1 1

(* The conflict relation, hand-counted with fingerprints off. Two reads
   of one register commute: with three readers the walk keeps exactly
   the prefixes whose process numbers never descend, C(i + 2, 2) at
   depth i, so Σ_{i<=12} C(i + 2, 2) = C(15, 3) = 455 states at depth
   12. A write conflicts with any access to its register: two writers,
   or a reader and a writer, of one register prune nothing and visit
   all 2^5 - 1 = 31 prefixes of length <= 4. *)
let test_count_conflicts () =
  List.iter
    (fun (label, modes, depth, visited, profile) ->
      List.iter
        (fun engine ->
          let s =
            stats_of
              (Explorer.explore ~sut:(one_register_sut modes) ~properties:[]
                 (Explorer.config ~prune_fingerprints:false ~engine ~depth ()))
          in
          let label =
            Fmt.str "%s, %s" label
              (if engine = Explorer.Snapshot then "snapshot" else "per-state")
          in
          Alcotest.(check int) (label ^ ": visited") visited s.Budget.visited;
          Alcotest.(check (list int))
            (label ^ ": visited per depth") profile
            (List.map
               (fun (r : Budget.depth_row) -> r.Budget.dr_visited)
               s.Budget.depth_profile))
        [ Explorer.Snapshot; Explorer.Per_state ])
    [
      ( "three readers @12",
        [| `Read; `Read; `Read |],
        12,
        binomial 15 3,
        List.init 13 (fun i -> binomial (i + 2) 2) );
      ("double writer @4", [| `Write; `Write |], 4, 31, [ 1; 2; 4; 8; 16 ]);
      ("reader and writer @4", [| `Read; `Write |], 4, 31, [ 1; 2; 4; 8; 16 ]);
    ]

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

(* A negative budget would visit nothing and read as a clean bounded
   pass: [Budget.limits] refuses it. Zero stays a valid budget. *)
let test_negative_budget_refused () =
  let refused label f =
    match f () with
    | (_ : Budget.limits) -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument _ -> ()
  in
  refused "max_states" (fun () -> Budget.limits ~max_states:(-1) ());
  refused "max_replay_steps" (fun () -> Budget.limits ~max_replay_steps:(-5) ());
  refused "max_seconds" (fun () -> Budget.limits ~max_seconds:(-1.) ());
  refused "max_seconds nan" (fun () -> Budget.limits ~max_seconds:Float.nan ());
  ignore (Budget.limits ~max_states:0 ~max_replay_steps:0 ~max_seconds:0. ())

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

(* visit accounting, without the movement accounting: a parallel
   snapshot run materializes each popped pool item by machine steps,
   so its movement differs from the sequential run's — its visit
   counts do not *)
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
        (* the engine that ran moved: replay steps, or machine steps
           on the snapshot engine *)
        let moved =
          match par.Explorer.engine with
          | Explorer.Snapshot -> par.Explorer.stats.Budget.machine_steps
          | Explorer.Per_state | Explorer.Path -> par.Explorer.stats.Budget.replay_steps
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: plausible visited (domains=%d)" name domains)
          true
          (par.Explorer.stats.Budget.visited > 0 && moved > 0);
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
   domains too, on the snapshot engine (the default on the machine
   form) and on the walk with path replay (the machine-less copy) *)
let test_parallel_sleep_safety () =
  List.iter
    (fun (form, mk_sut) ->
      List.iter
        (fun domains ->
          let report =
            Explorer.explore ~domains ~sut:(mk_sut ()) ~properties:[ no_p2p1_suffix ]
              (Explorer.config ~prune_fingerprints:false ~sleep_sets:true ~depth:4 ())
          in
          Alcotest.(check bool)
            (Printf.sprintf "violation found (%s, domains=%d)" form domains)
            true
            (verdict_of "no-p2p1-suffix" report <> Explorer.Ok_bounded))
        [ 1; 2; 4 ])
    [ ("machine", single_writer_sut); ("fibers", fiber_only single_writer_sut) ]

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
      ignore (Explorer.explore ~domains:0 ~sut ~properties:[] (Explorer.config ~depth:2 ())))

(* A one-worker pool is the sequential frontier: FIFO drains in push
   order (breadth-first), LIFO in reverse push order (depth-first). *)
let test_pool_one_worker_order () =
  let drain ~fifo =
    let pool = Parallel.Pool.create ~fifo ~workers:1 () in
    List.iter (Parallel.Pool.push pool ~worker:0) [ 1; 2; 3; 4; 5 ];
    let taken = ref [] in
    Parallel.Pool.run pool (fun wid x ->
        Alcotest.(check int) "runs as worker 0" 0 wid;
        taken := x :: !taken);
    List.rev !taken
  in
  Alcotest.(check (list int)) "fifo: push order" [ 1; 2; 3; 4; 5 ] (drain ~fifo:true);
  Alcotest.(check (list int)) "lifo: reverse push order" [ 5; 4; 3; 2; 1 ] (drain ~fifo:false)

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
(* Every engine against the per-state reference: the walk with path
   replay on the machine-less copy, the default request ([Path]) on
   the machine form, which must run the snapshot engine, and the
   snapshot engine named explicitly. Returns the per-state, path and
   snapshot reports. *)
let check_engine_equiv ~name ~mk_sut ~properties mk_config =
  let run ?(mk_sut = mk_sut) engine =
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
  let path_r = run ~mk_sut:(fiber_only mk_sut) Explorer.Path in
  check_matches "path walk" path_r;
  Alcotest.(check bool)
    (Printf.sprintf "%s: the path walk ran and pays fewer replay steps" name)
    true
    (path_r.Explorer.engine = Explorer.Path
    && path_r.Explorer.stats.Budget.replay_steps > 0
    && path_r.Explorer.stats.Budget.replay_steps
       <= state_r.Explorer.stats.Budget.replay_steps);
  let default_r = run Explorer.Path in
  check_matches "default" default_r;
  Alcotest.(check bool)
    (Printf.sprintf "%s: the default runs snapshot, with no replay steps" name)
    true
    (default_r.Explorer.engine = Explorer.Snapshot
    && default_r.Explorer.stats.Budget.replay_steps = 0);
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

(* the instances of bench E11: b (depth 12) and d (depth 8) *)
let test_engine_equiv_detector () =
  let params = { Setsync_detector.Kanti_omega.n = 2; t = 1; k = 1 } in
  List.iter
    (fun depth ->
      ignore
        (check_engine_equiv
           ~name:(Printf.sprintf "figure-2 detector @%d" depth)
           ~mk_sut:(fun () -> Systems.kanti_detector ~params ())
           ~properties:
             [
               Property.anti_omega_stabilized ~k:1
                 ~outputs:(fun st -> st.Explorer.obs.Systems.fd_outputs)
                 ~correct:(fun st -> Run.correct st.Explorer.run);
             ]
           (fun ~engine -> Explorer.config ~prune_fingerprints:false ~engine ~depth ())))
    [ 8; 12 ]

(* the instances of bench E11: a (n=3, depth 7) and f (n=2, depth 8) *)
let test_engine_equiv_kset () =
  List.iter
    (fun (n, depth) ->
      let problem = Setsync_agreement.Problem.make ~t:1 ~k:1 ~n in
      let inputs = Setsync_agreement.Problem.distinct_inputs problem in
      let decisions st = st.Explorer.obs.Systems.decisions in
      let name = Printf.sprintf "theorem-24 kset n=%d @%d" n depth in
      let state_r, path_r, _snap_r =
        check_engine_equiv ~name
          ~mk_sut:(fun () -> Systems.kset_agreement ~problem ~inputs ())
          ~properties:
            [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
          (fun ~engine -> Explorer.config ~prune_fingerprints:false ~engine ~depth ())
      in
      Alcotest.(check bool) (name ^ ": strictly fewer replay steps") true
        (path_r.Explorer.stats.Budget.replay_steps
        < state_r.Explorer.stats.Budget.replay_steps);
      (* every pending safety check runs: on each visited state and on
         each commutation-pruned one, which the walk reaches before
         discarding it *)
      Alcotest.(check int)
        (name ^ ": safety checks cover visits and prunes")
        (path_r.Explorer.stats.Budget.visited + path_r.Explorer.stats.Budget.pruned_sleep)
        path_r.Explorer.stats.Budget.safety_checked)
    [ (2, 8); (3, 7) ]

(* fiber ≡ machine past the exploration depth: the fiber forms are
   the machine forms looped over [Machine.fiber], so driving the same
   seeded schedule (crashes included) through the executor and through
   the machine on a second store must agree after every step — store
   snapshot, decisions and detector outputs — well into the
   decide-then-pause phase the depth-8 cross-checks above never reach *)
let lockstep ~label ~n ~seed ~fault ~fiber_body ~machine_step ~observe =
  let schedule = Source.take (Generators.random_fair ~n ~rng:(Rng.create ~seed) ()) 2_000 in
  let fiber_store = Store.create () and machine_store = Store.create () in
  let body = fiber_body fiber_store in
  let m_step, m_observe = machine_step machine_store in
  let steps = ref 0 in
  let on_step ~global:_ ~proc =
    incr steps;
    m_step proc;
    let at what = Printf.sprintf "%s: %s after step %d (p%d)" label what !steps proc in
    Alcotest.(check (list (pair string string)))
      (at "store") (Store.snapshot fiber_store) (Store.snapshot machine_store);
    Alcotest.(check string) (at "observation") (observe ()) (m_observe ())
  in
  let run = Executor.replay ~n ~schedule ~fault ~on_step body in
  Alcotest.(check bool) (label ^ ": a crash was injected") true
    (not (Procset.is_empty (Run.crashed run)));
  !steps

let kset_lockstep ~label ~problem ~seed ~fault =
  let inputs = Setsync_agreement.Problem.distinct_inputs problem in
  let render solver =
    let n = problem.Setsync_agreement.Problem.n in
    Fmt.str "%a|%a|%a"
      Fmt.(array ~sep:semi (option ~none:(any "-") int))
      (Kset_solver.decisions solver)
      Fmt.(array ~sep:semi Procset.pp)
      (Array.init n (Kset_solver.fd_winnerset solver))
      Fmt.(array ~sep:semi int)
      (Kset_solver.fd_iterations solver)
  in
  let fiber_solver = ref None in
  (* machine steps taken when the first decision appeared *)
  let first_decision = ref None in
  let steps =
    lockstep ~label ~n:problem.Setsync_agreement.Problem.n ~seed ~fault
      ~fiber_body:(fun store ->
        let s = Kset_solver.create store ~problem ~inputs ~initial_timeout:4 () in
        fiber_solver := Some s;
        Machine.body (Kset_solver.machine_step (Kset_solver.machine s)))
      ~machine_step:(fun store ->
        let s = Kset_solver.create store ~problem ~inputs ~initial_timeout:4 () in
        let m = Kset_solver.machine s in
        let taken = ref 0 in
        ( (fun p ->
            Kset_solver.machine_step m Machine.direct p;
            incr taken;
            if !first_decision = None && Array.exists Option.is_some (Kset_solver.decisions s)
            then first_decision := Some !taken),
          fun () -> render s ))
      ~observe:(fun () -> render (Option.get !fiber_solver))
  in
  match !first_decision with
  | None -> Alcotest.failf "%s: no process decided in %d steps" label steps
  | Some at ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: >= 500 steps after the first decision (%d of %d)" label at steps)
        true
        (at + 500 <= steps)

(* The harnesses on a plain store step machine forms directly; their
   runs must be the fiber derivation's ([Machine.body]) exactly: same
   schedule taken, decisions, decide steps and output histories. A
   step whose code after its atomic does more than fix the PC (say, a
   decision recorded after its write) runs that code a step later as a
   fiber, and shows up here. *)
let check_same_agreement ~label (direct : Ag_harness.outcome) (fibers : Run.t) ~decisions
    ~decide_steps =
  Alcotest.(check (list int))
    (label ^ ": schedule taken")
    (Schedule.to_list fibers.Run.taken)
    (Schedule.to_list direct.Ag_harness.run.Run.taken);
  Alcotest.(check (array (option int))) (label ^ ": decisions") decisions direct.decisions;
  Alcotest.(check (array (option int))) (label ^ ": decide steps") decide_steps direct.decide_steps;
  Alcotest.(check bool) (label ^ ": a crash was injected") true
    (not (Procset.is_empty (Run.crashed fibers)));
  Alcotest.(check bool) (label ^ ": someone decided") true
    (Array.exists Option.is_some decisions)

(* Ag_harness runs the same machine as fibers when given a substrate *)
let harness_lockstep ~label ~problem ?solver ~seed ~fault () =
  let n = problem.Problem.n in
  let solve ?store ?substrate () =
    Ag_harness.solve ~problem ~inputs:(Problem.distinct_inputs problem) ?solver ~fault ?store
      ?substrate ~max_steps:200_000
      ~source:(fun ~live -> Generators.random_fair ~live ~n ~rng:(Rng.create ~seed) ())
      ()
  in
  let store = Store.create () in
  let fibers = solve ~store ~substrate:(Substrate.shm ~store) () in
  check_same_agreement ~label (solve ()) fibers.Ag_harness.run ~decisions:fibers.decisions
    ~decide_steps:fibers.decide_steps

(* an adaptive run's fiber derivation, by hand: the adversary reads the
   solver the fibers step *)
let adaptive_lockstep () =
  let problem = Problem.make ~t:2 ~k:2 ~n:5 and fault = [ (4, 60) ] and max_steps = 5_000 in
  let inputs = Problem.distinct_inputs problem in
  let contract =
    { Generators.p = Procset.of_list [ 0; 1 ]; q = Procset.of_list [ 0; 1; 2 ]; bound = 3 }
  in
  let make_source ~view ~live =
    Adaptive.source ~live ~n:5 ~contract ~fault_budget:2 ~defeat:2 ~view ()
  in
  let direct = Ag_harness.solve_adaptive ~problem ~inputs ~make_source ~max_steps ~fault () in
  let solver = Kset_solver.create (Store.create ()) ~problem ~inputs () in
  let body = Machine.body (Kset_solver.machine_step (Kset_solver.machine solver)) in
  let tally = Run.Tally.create ~n:5 fault in
  let decide_steps = Array.make 5 None in
  let on_step ~global ~proc:_ =
    Array.iteri
      (fun p d -> if d <> None && decide_steps.(p) = None then decide_steps.(p) <- Some global)
      (Kset_solver.decisions solver)
  in
  let stop () =
    let d = Kset_solver.decisions solver in
    List.for_all (fun p -> d.(p) <> None || not (Run.Tally.live tally p)) (Proc.all ~n:5)
  in
  let run =
    Executor.run ~n:5 ~source:(make_source ~view:(Kset_solver.adversary_view solver))
      ~max_steps ~tally ~on_step ~stop body
  in
  check_same_agreement ~label:"adaptive kset n=5 t=2 k=2" direct run
    ~decisions:(Kset_solver.decisions solver) ~decide_steps

let test_lockstep_kset () =
  kset_lockstep ~label:"kset n=4 t=2 k=2"
    ~problem:(Setsync_agreement.Problem.make ~t:2 ~k:2 ~n:4)
    ~seed:11 ~fault:[ (3, 300); (1, 1_000) ];
  kset_lockstep ~label:"consensus n=3 t=1 k=1"
    ~problem:(Setsync_agreement.Problem.make ~t:1 ~k:1 ~n:3)
    ~seed:12 ~fault:[ (2, 400) ];
  harness_lockstep ~label:"harness kset n=4 t=2 k=2" ~problem:(Problem.make ~t:2 ~k:2 ~n:4)
    ~seed:11 ~fault:[ (3, 20); (1, 60) ] ();
  harness_lockstep ~label:"harness paxos n=4" ~problem:(Problem.consensus ~t:2 ~n:4)
    ~solver:`Paxos ~seed:14 ~fault:[ (2, 5) ] ();
  (* writer p1 crashes right after writing its slot, before deciding *)
  harness_lockstep ~label:"harness trivial t=1 k=2 n=4" ~problem:(Problem.make ~t:1 ~k:2 ~n:4)
    ~seed:15 ~fault:[ (0, 1) ] ();
  adaptive_lockstep ()

let test_lockstep_kanti () =
  let params = { Kanti_omega.n = 4; t = 2; k = 2 } in
  let machine store = Kanti_omega.machine (Kanti_omega.create_shared store params) params in
  let render procs =
    Fmt.str "%a|%a|%a"
      Fmt.(array ~sep:semi Procset.pp)
      (Array.map Kanti_omega.fd_output procs)
      Fmt.(array ~sep:semi Procset.pp)
      (Array.map Kanti_omega.winnerset procs)
      Fmt.(array ~sep:semi int)
      (Array.map Kanti_omega.iterations procs)
  in
  let fiber_procs = ref [||] in
  ignore
    (lockstep ~label:"figure 2 n=4 t=2 k=2" ~n:4 ~seed:13 ~fault:[ (0, 300) ]
       ~fiber_body:(fun store ->
         let m = machine store in
         fiber_procs := Kanti_omega.processes m;
         Machine.body (Kanti_omega.step m))
       ~machine_step:(fun store ->
         let m = machine store in
         (Kanti_omega.step m Machine.direct, fun () -> render (Kanti_omega.processes m)))
       ~observe:(fun () -> render !fiber_procs));
  (* Fd_harness against Figure 2's fiber derivation, by hand *)
  let fault = [ (0, 300) ] and max_steps = 5_000 in
  let source ~live = Generators.random_fair ~live ~n:4 ~rng:(Rng.create ~seed:13) () in
  let direct = Fd_harness.run ~params ~source ~max_steps ~fault () in
  let m = machine (Store.create ()) in
  let procs = Kanti_omega.processes m in
  let outputs = History.create ~n:4 and winnersets = History.create ~n:4 in
  let on_step ~global ~proc =
    History.note outputs ~proc ~step:global ~equal:Procset.equal
      (Kanti_omega.fd_output procs.(proc));
    History.note winnersets ~proc ~step:global ~equal:Procset.equal
      (Kanti_omega.winnerset procs.(proc))
  in
  let run =
    Executor.run ~n:4 ~source ~max_steps ~fault ~on_step (Machine.body (Kanti_omega.step m))
  in
  let label = "fd harness n=4 t=2 k=2" in
  Alcotest.(check bool) (label ^ ": a crash was injected") true
    (not (Procset.is_empty (Run.crashed run)));
  Alcotest.(check (list int))
    (label ^ ": schedule taken")
    (Schedule.to_list run.Run.taken)
    (Schedule.to_list direct.Fd_harness.run.Run.taken);
  let timeline h proc =
    List.map (fun (s, v) -> (s, Procset.to_string v)) (History.timeline h ~proc)
  in
  for proc = 0 to 3 do
    let at what = Printf.sprintf "%s: p%d %s" label proc what in
    Alcotest.(check (list (pair int string)))
      (at "fdOutput history") (timeline outputs proc)
      (timeline direct.Fd_harness.outputs proc);
    Alcotest.(check (list (pair int string)))
      (at "winnerset history") (timeline winnersets proc)
      (timeline direct.Fd_harness.winnersets proc)
  done;
  Alcotest.(check (array int))
    (label ^ ": iterations")
    (Array.map Kanti_omega.iterations procs)
    direct.Fd_harness.iterations

(* the schedule-sensitive regression (e) must hold under the walk with
   path replay (on the machine-less copy) in both verdict and accounting:
   the walk reaches each commutation-pruned interleaving before
   discarding it, and checks the pending safety property there *)
let test_engine_sched_sensitive_safety () =
  let report =
    Explorer.explore ~sut:(fiber_only single_writer_sut ()) ~properties:[ no_p2p1_suffix ]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:true ~engine:Explorer.Path
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

(* The report names the engine that produced its stats. [Path], the
   default, runs on the snapshot engine for a machine-form system
   searched depth-first without a replay-step cap; otherwise a
   depth-first search runs the walk with path replay and a breadth-first
   search, at every domain count, the per-state engine — one replay per
   visited state. *)
let test_engine_label () =
  let run ?(domains = 1) ?(mk_sut = single_writer_sut) ?limits ~strategy engine =
    Explorer.explore ~domains ~sut:(mk_sut ()) ~properties:[]
      (Explorer.config ~strategy ~engine ?limits ~prune_fingerprints:false ~sleep_sets:false
         ~depth:4 ())
  in
  let label = function
    | Explorer.Per_state -> "per_state"
    | Explorer.Path -> "path"
    | Explorer.Snapshot -> "snapshot"
  in
  let check name want (r : Explorer.report) =
    Alcotest.(check string) name (label want) (label r.Explorer.engine)
  in
  let bfs_path = run ~strategy:Explorer.Bfs Explorer.Path in
  check "bfs path runs per-state" Explorer.Per_state bfs_path;
  Alcotest.(check int) "one replay per visited state" bfs_path.Explorer.stats.Budget.visited
    bfs_path.Explorer.stats.Budget.replays;
  let dfs_path = run ~strategy:Explorer.Dfs Explorer.Path in
  check "dfs path on a machine form runs snapshot" Explorer.Snapshot dfs_path;
  Alcotest.(check int) "no replay steps" 0 dfs_path.Explorer.stats.Budget.replay_steps;
  check "dfs path without a machine form runs path replay" Explorer.Path
    (run ~mk_sut:(fiber_only single_writer_sut) ~strategy:Explorer.Dfs Explorer.Path);
  let capped =
    run ~limits:(Budget.limits ~max_replay_steps:1_000 ()) ~strategy:Explorer.Dfs Explorer.Path
  in
  check "dfs path under a replay cap runs path replay" Explorer.Path capped;
  Alcotest.(check bool) "the capped path walk replays" true
    (capped.Explorer.stats.Budget.replay_steps > 0);
  check "bfs per-state" Explorer.Per_state (run ~strategy:Explorer.Bfs Explorer.Per_state);
  check "snapshot" Explorer.Snapshot (run ~strategy:Explorer.Dfs Explorer.Snapshot);
  check "parallel dfs path on a machine form" Explorer.Snapshot
    (run ~domains:2 ~strategy:Explorer.Dfs Explorer.Path);
  check "parallel dfs path without a machine form" Explorer.Path
    (run ~domains:2 ~mk_sut:(fiber_only single_writer_sut) ~strategy:Explorer.Dfs
       Explorer.Path);
  check "parallel bfs path" Explorer.Per_state
    (run ~domains:2 ~strategy:Explorer.Bfs Explorer.Path);
  let par_bfs =
    run ~domains:2 ~mk_sut:(fiber_only single_writer_sut) ~strategy:Explorer.Bfs Explorer.Path
  in
  check "parallel bfs path without a machine form" Explorer.Per_state par_bfs;
  Alcotest.(check int) "parallel bfs: one replay per visited state"
    par_bfs.Explorer.stats.Budget.visited par_bfs.Explorer.stats.Budget.replays

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

(* pause_procs's group of n! renamings is built once per sut, not once
   per instance: per-state search builds an instance per visited state *)
let test_pause_group_shared () =
  let sut = Systems.pause_procs ~n:4 in
  let perms () =
    (Option.get (sut.Explorer.fresh ~store:(Store.create ())).Explorer.machine).Explorer.m_perms
  in
  let a = perms () and b = perms () in
  Alcotest.(check bool) "two instances share one group" true (a == b);
  Alcotest.(check int) "all 4! renamings" 24 (List.length a)

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

(* soundness: symmetry on and off give the same verdict set *)
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
  (* equal inputs, where renamings that fix the initial state exist;
     the solver's group is still the identity alone *)
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

(* symmetry is a property of the fingerprint, not of an engine: every
   engine of a machine-form sut takes it, with the same verdicts, and
   the depth-first ones visit the same states; a sut with no payload to
   rename is refused before the run *)
let test_symmetry_any_engine () =
  let params = { Setsync_detector.Kanti_omega.n = 2; t = 1; k = 1 } in
  let mk_sut () = Systems.kanti_detector ~params () in
  let properties =
    [
      Property.anti_omega_stabilized ~k:1
        ~outputs:(fun st -> st.Explorer.obs.Systems.fd_outputs)
        ~correct:(fun st -> Run.correct st.Explorer.run);
    ]
  in
  let explore ?strategy ?engine ?(limits = Budget.unlimited) sut =
    Explorer.explore ~sut ~properties
      (Explorer.config ?strategy ?engine ~limits ~symmetry:true ~depth:8 ())
  in
  let reference = explore (mk_sut ()) in
  Alcotest.(check bool) "default request runs on snapshot" true
    (reference.Explorer.engine = Explorer.Snapshot);
  List.iter
    (fun (label, engine, depth_first, (r : Explorer.report)) ->
      Alcotest.(check bool) (label ^ ": engine") true (r.Explorer.engine = engine);
      Alcotest.(check (list string))
        (label ^ ": verdicts") (violated_names reference) (violated_names r);
      if depth_first then
        Alcotest.(check int) (label ^ ": visited") (stats_of reference).Budget.visited
          (stats_of r).Budget.visited)
    [
      ("per-state", Explorer.Per_state, true, explore ~engine:Explorer.Per_state (mk_sut ()));
      ("bfs", Explorer.Per_state, false, explore ~strategy:Explorer.Bfs (mk_sut ()));
      ( "replay-capped path walk",
        Explorer.Path,
        true,
        explore ~limits:(Budget.limits ~max_replay_steps:1_000_000 ()) (mk_sut ()) );
    ];
  match explore (fiber_only mk_sut ()) with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) msg true
        (String.starts_with
           ~prefix:"Explorer.explore: symmetry reduction needs a sut with a symmetry payload"
           msg)
  | _ -> Alcotest.fail "symmetry accepted on a sut without a payload"

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
(* (h'') exact state identity: a machine form's state is its payload *)

let kset_sut ~n ~inputs =
  let problem = Setsync_agreement.Problem.make ~t:1 ~k:1 ~n in
  let inputs =
    match inputs with
    | `Distinct -> Setsync_agreement.Problem.distinct_inputs problem
    | `Equal v -> Array.make n v
  in
  let decisions st = st.Explorer.obs.Systems.decisions in
  ( Systems.kset_agreement ~problem ~inputs (),
    [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ] )

let detector_sut ~n =
  ( Systems.kanti_detector ~params:{ Setsync_detector.Kanti_omega.n; t = 1; k = 1 } (),
    [
      Property.anti_omega_stabilized ~k:1
        ~outputs:(fun st -> st.Explorer.obs.Systems.fd_outputs)
        ~correct:(fun st -> Run.correct st.Explorer.run);
    ] )

(* [sut] with its machine form wrapped: the initial state and every
   machine step add the state they reach — the identity rendering of
   the full payload plus the halted marks — to [reached]; with
   [classes], its renaming class instead: the least such rendering over
   the sut's group ([m_perms]), the halted marks renamed alike.
   [shown] is the payload the explorer fingerprints. *)
let recording ?(shown = Fun.id) ?(classes = false) reached (sut : _ Explorer.sut) =
  let fresh ~store =
    let inst = sut.Explorer.fresh ~store in
    let m = Option.get inst.Explorer.machine in
    let payload = Option.get m.Explorer.m_payload in
    let n = sut.Explorer.n in
    let identity = Array.init n Fun.id in
    let perms = if classes then m.Explorer.m_perms else [ identity ] in
    let key perm =
      let halted = Bytes.make n '0' in
      for q = 0 to n - 1 do
        if m.m_halted q then Bytes.set halted perm.(q) '1'
      done;
      payload ~perm ^ "|h:" ^ Bytes.to_string halted
    in
    let note () =
      Hashtbl.replace reached
        (List.fold_left (fun best perm -> min best (key perm)) (key identity) perms)
        ()
    in
    note ();
    let m_step p =
      m.Explorer.m_step p;
      note ()
    in
    let m_payload = Some (fun ~perm -> shown (payload ~perm)) in
    { inst with Explorer.machine = Some { m with Explorer.m_step; m_payload } }
  in
  { sut with Explorer.fresh }

let reached_set ?shown ?classes ?symmetry ?engine ~reductions ~depth (sut, properties) =
  let reached = Hashtbl.create 1024 in
  let r =
    Explorer.explore
      ~sut:(recording ?shown ?classes reached sut)
      ~properties
      (Explorer.config ?engine ?symmetry ~prune_fingerprints:reductions ~sleep_sets:reductions
         ~depth ())
  in
  Alcotest.(check bool) "exhaustive" false (stats_of r).Budget.truncated;
  (List.sort compare (List.of_seq (Hashtbl.to_seq_keys reached)), violated_names r)

(* Two never-halting processes that write the one register [r] through
   [Register.poke], which the access hook never sees: each step appends
   its process to [r] (r := 3r + p + 1), so every order of steps leaves
   its own value. Their footprints are empty, so commutation wrongly
   treats them as independent. *)
let hidden_writers_sut () =
  {
    Explorer.n = 2;
    fresh =
      (fun ~store ->
        let r = Store.register store ~pp:Fmt.int ~name:"r" 0 in
        let step p = Register.poke r ((3 * Register.peek r) + p + 1) in
        {
          Explorer.body = (fun p () -> while true do Fiber.atomic (fun () -> step p) done);
          observe = (fun () -> ());
          substrate = None;
          machine =
            Some
              {
                Explorer.m_step = step;
                m_halted = (fun _ -> false);
                m_save = (fun () -> fun () -> ());
                m_payload = Some (fun ~perm:_ -> string_of_int (Register.peek r));
                m_perms = [ [| 0; 1 |] ];
              };
        });
    obs_fingerprint = (fun () -> "");
  }

(* The k-set solver (n=2, distinct inputs) explored to depth 10 with
   both reductions or none, fingerprinting each state by its identity
   without the slots named [without]; returns the full identities of
   the states its machine steps into, and the violated properties. *)
let kset_slots_reached ?without ~reductions () =
  let problem = Problem.make ~t:1 ~k:1 ~n:2 in
  let inputs = Problem.distinct_inputs problem in
  let reached = Hashtbl.create 1024 in
  let fresh ~store =
    let solver = Kset_solver.create store ~problem ~inputs () in
    let machine = Kset_solver.machine solver in
    let note () = Hashtbl.replace reached (Kset_solver.identity machine) () in
    note ();
    {
      Explorer.body = Machine.body (Kset_solver.machine_step machine);
      observe = (fun () -> { Systems.decisions = Kset_solver.decisions solver });
      substrate = None;
      machine =
        Some
          {
            Explorer.m_step =
              (fun p ->
                Kset_solver.machine_step machine Machine.direct p;
                note ());
            m_halted = (fun _ -> false);
            m_save = (fun () -> Kset_solver.machine_save machine);
            m_payload = Some (fun ~perm:_ -> Kset_solver.identity ?without machine);
            m_perms = [ [| 0; 1 |] ];
          };
    }
  in
  let sut = { (fst (kset_sut ~n:2 ~inputs:`Distinct)) with Explorer.fresh } in
  let r =
    Explorer.explore ~sut ~properties:(snd (kset_sut ~n:2 ~inputs:`Distinct))
      (Explorer.config ~prune_fingerprints:reductions ~sleep_sets:reductions ~depth:10 ())
  in
  Alcotest.(check bool) "exhaustive" false (stats_of r).Budget.truncated;
  (List.of_seq (Hashtbl.to_seq_keys reached), violated_names r)

(* Pruning is exact when it loses no state: the states reached with
   fingerprints and sleep sets on (visited, fingerprint-pruned and
   commutation-pruned ones alike) are the states reached with both off,
   on the snapshot engine and on per-state replay. A fingerprint that
   forgets half the payload, or the solver's PC array (a whole slot, so
   the loss does not hang on the encoding order), merges states with
   different futures, and the check catches it while the verdicts stay
   equal; commutation over writes the access hook cannot see loses
   states the same way. *)
let test_reachable_sets () =
  let cross_check label mk depth =
    let full, verdicts = reached_set ~reductions:false ~depth (mk ()) in
    List.iter
      (fun engine ->
        let got, got_verdicts = reached_set ~engine ~reductions:true ~depth (mk ()) in
        Alcotest.(check (list string)) (label ^ ": verdicts") verdicts got_verdicts;
        Alcotest.(check int) (label ^ ": states reached") (List.length full) (List.length got);
        Alcotest.(check bool) (label ^ ": same states") true (full = got))
      [ Explorer.Snapshot; Explorer.Per_state ]
  in
  List.iter
    (fun (n, depth) ->
      cross_check (Printf.sprintf "kset n=%d @%d" n depth)
        (fun () -> kset_sut ~n ~inputs:`Distinct)
        depth)
    [ (2, 10); (2, 12); (3, 8); (3, 10) ];
  List.iter
    (fun (n, depth) ->
      cross_check (Printf.sprintf "detector n=%d @%d" n depth) (fun () -> detector_sut ~n) depth)
    [ (2, 10); (2, 12); (3, 9) ];
  let half p = String.sub p 0 (String.length p / 2) in
  let full, verdicts = reached_set ~reductions:false ~depth:10 (kset_sut ~n:2 ~inputs:`Distinct) in
  let got, got_verdicts =
    reached_set ~shown:half ~reductions:true ~depth:10 (kset_sut ~n:2 ~inputs:`Distinct)
  in
  Alcotest.(check (list string)) "half payload: verdicts" verdicts got_verdicts;
  Alcotest.(check bool) "half payload: states lost" true (List.length got < List.length full);
  let full, _ = kset_slots_reached ~reductions:false () in
  let kept, _ = kset_slots_reached ~reductions:true () in
  let got, verdicts = kset_slots_reached ~without:"pcs" ~reductions:true () in
  Alcotest.(check int) "all slots: states reached" (List.length full) (List.length kept);
  Alcotest.(check (list string)) "no PC array: verdicts" [] verdicts;
  Alcotest.(check bool) "no PC array: states lost" true (List.length got < List.length full);
  let full, _ = reached_set ~reductions:false ~depth:4 (hidden_writers_sut (), []) in
  let got, _ = reached_set ~reductions:true ~depth:4 (hidden_writers_sut (), []) in
  Alcotest.(check bool) "hidden writes: states lost" true (List.length got < List.length full)

(* Symmetry reduction is exact when it loses no renaming class: the
   classes a symmetric run reaches are the classes the unreduced run
   reaches — on the double writer, whose swap maps every transition to
   a transition, and on the k-set solver with equal inputs, where only
   the identity does. *)
let test_reachable_classes () =
  let check label mk depth =
    let full, verdicts = reached_set ~classes:true ~reductions:false ~depth (mk ()) in
    let got, got_verdicts =
      reached_set ~classes:true ~symmetry:true ~reductions:true ~depth (mk ())
    in
    Alcotest.(check (list string)) (label ^ ": verdicts") verdicts got_verdicts;
    Alcotest.(check int) (label ^ ": classes reached") (List.length full) (List.length got);
    Alcotest.(check bool) (label ^ ": same classes") true (full = got)
  in
  check "double writer @6" (fun () -> (double_writer_sut (), [])) 6;
  check "kset n=3 @8 equal inputs" (fun () -> kset_sut ~n:3 ~inputs:(`Equal 7)) 8

let nobody_decided =
  Property.safety ~name:"nobody decided" (fun st ->
      if Array.exists Option.is_some st.Explorer.obs.Systems.decisions then
        Some "a process decided"
      else None)

(* The Theorem-24 solver (t=1, k=1) first decides at depth 17 for n=2
   and 27 for n=3: with fingerprints on, a check one step deeper
   reaches a decision, so agreement and validity are checked on states
   where someone decided, not vacuously. With equal inputs under
   [~symmetry:true] the decision is found at the same depth, and so it
   is with fingerprints off, where only commutation keeps the n=3 tree
   small enough to reach depth 28 (two reads commute). Under symmetry, a
   renaming that fixed the initial state but not the transitions (p2
   and p3 swapped) once made p1's state after three counter reads
   fingerprint like its state after two, pruning the solo run, and the
   check reported nobody deciding within 27 steps. *)
let test_kset_decides () =
  List.iter
    (fun (n, inputs, symmetry, prune_fingerprints, first) ->
      let sut, properties = kset_sut ~n ~inputs in
      let r =
        Explorer.explore ~sut ~properties:(nobody_decided :: properties)
          (Explorer.config ~symmetry ~prune_fingerprints ~depth:(first + 1) ())
      in
      let label =
        Printf.sprintf "n=%d @%d%s%s" n (first + 1)
          (if symmetry then ", symmetry" else "")
          (if prune_fingerprints then "" else ", fingerprints off")
      in
      (match List.assoc "nobody decided" r.Explorer.verdicts with
      | Explorer.Violated { schedule; _ } ->
          Alcotest.(check int) (label ^ ": first decision") first (Schedule.length schedule)
      | Explorer.Ok_bounded -> Alcotest.failf "%s: nobody decided" label);
      Alcotest.(check (list string))
        (label ^ ": agreement and validity hold") [ "nobody decided" ] (violated_names r))
    [
      (2, `Distinct, false, true, 17);
      (3, `Distinct, false, true, 27);
      (3, `Equal 7, true, true, 27);
      (3, `Distinct, false, false, 27);
    ]

(* exact fingerprints visit the same states on every depth-first engine
   and breadth-first *)
let test_exact_counts () =
  let counts label (sut, properties) ~depth ?(symmetry = false) visited configs =
    List.iter
      (fun (engine_label, strategy, engine, limits) ->
        let r =
          Explorer.explore ~sut ~properties
            (Explorer.config ?strategy ?engine ?limits ~symmetry ~depth ())
        in
        Alcotest.(check int)
          (Printf.sprintf "%s, %s: visited" label engine_label)
          visited (stats_of r).Budget.visited;
        Alcotest.(check (list string)) (label ^ ": verdicts") [] (violated_names r))
      configs
  in
  counts "kset n=3 @12" (kset_sut ~n:3 ~inputs:`Distinct) ~depth:12 455
    [
      ("snapshot", None, None, None);
      ("per-state", None, Some Explorer.Per_state, None);
      ("bfs", Some Explorer.Bfs, None, None);
    ];
  counts "detector n=3 @13" (detector_sut ~n:3) ~depth:13 560 [ ("snapshot", None, None, None) ];
  (* the solver's only renaming is the identity: symmetry visits what
     plain fingerprints do *)
  counts "kset n=3 @10 equal inputs, symmetry" (kset_sut ~n:3 ~inputs:(`Equal 7)) ~depth:10
    ~symmetry:true 286
    [
      ("snapshot", None, None, None);
      ("per-state", None, Some Explorer.Per_state, None);
      ( "replay-capped path walk",
        None,
        None,
        Some (Budget.limits ~max_replay_steps:10_000_000 ()) );
    ]

(* ------------------------------------------------------------------ *)
(* (i) budget boundary semantics: "budget of k means at most k" *)

(* path replay runs on the machine-less copy: on the machine form an
   uncapped [Path] run resolves to the snapshot engine *)
let explore_single ~engine ~limits () =
  let mk_sut = if engine = Explorer.Path then fiber_only single_writer_sut else single_writer_sut in
  Explorer.explore ~sut:(mk_sut ()) ~properties:[]
    (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~engine ~limits
       ~depth:4 ())

let test_budget_boundaries () =
  List.iter
    (fun engine ->
      let path_replay = engine = Explorer.Path in
      let label fmt =
        Printf.sprintf "%s (path_replay=%b)" fmt path_replay
      in
      let run limits = (explore_single ~engine ~limits ()).Explorer.stats in
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
      (* a step cap of k spends at most k: a replay that would overrun
         it is refused before it starts *)
      let within cap (s : Budget.stats) =
        Alcotest.(check bool)
          (label (Printf.sprintf "cap %d: replay steps %d within it" cap s.Budget.replay_steps))
          true
          (s.Budget.replay_steps <= cap)
      in
      let s = run (Budget.limits ~max_replay_steps:total ()) in
      within total s;
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
        (* the per-state engine checks between replays — a cap short by
           more than the deepest replay must truncate *)
        let s = run (Budget.limits ~max_replay_steps:(total - 5) ()) in
        Alcotest.(check bool) (label "cap short by >1 replay truncated") true
          s.Budget.truncated;
        Alcotest.(check bool) (label "cap short by >1 replay visits fewer") true
          (s.Budget.visited < 19)
      end;
      (* every cap below the total truncates within itself *)
      List.iter
        (fun cap ->
          let s = run (Budget.limits ~max_replay_steps:cap ()) in
          within cap s;
          Alcotest.(check bool) (label (Printf.sprintf "cap %d truncated" cap)) true
            s.Budget.truncated)
        (List.init total Fun.id))
    [ Explorer.Per_state; Explorer.Path ]

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
    (fun (form, mk_sut, domains) ->
      let run limits =
        (Explorer.explore ~domains ~sut:(mk_sut ()) ~properties:[]
           (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~limits
              ~depth:4 ()))
          .Explorer.stats
      in
      let label fmt = Printf.sprintf "%s (%s, domains=%d)" fmt form domains in
      let s = run (Budget.limits ~max_states:0 ()) in
      Alcotest.(check int) (label "max_states=0 visits nothing") 0 s.Budget.visited;
      Alcotest.(check bool) (label "max_states=0 truncated") true s.Budget.truncated;
      let s = run (Budget.limits ~max_states:19 ()) in
      Alcotest.(check int) (label "max_states=19 visits all") 19 s.Budget.visited;
      Alcotest.(check bool) (label "max_states=19 exhaustive") false s.Budget.truncated)
    [
      ("machine", single_writer_sut, 2);
      ("machine", single_writer_sut, 4);
      ("fibers", fiber_only single_writer_sut, 2);
      ("fibers", fiber_only single_writer_sut, 4);
    ]

(* ------------------------------------------------------------------ *)
(* (j) the printed report line carries every counter (S1 regression:
   safety_checked was invisible in every report) *)

let test_pp_stats_line () =
  let stats engine =
    stats_of
      (Explorer.explore ~sut:(single_writer_sut ()) ~properties:[ no_p2p1_suffix ]
         (Explorer.config ~engine ~prune_fingerprints:false ~sleep_sets:true ~depth:4 ()))
  in
  let s = stats Explorer.Per_state in
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
  Alcotest.(check bool) "safety_checked printed nonzero" true (s.Budget.safety_checked > 0);
  (* the snapshot engine's line carries its own movement in place of
     the replays it never makes *)
  let s = stats Explorer.Snapshot in
  Alcotest.(check string)
    "pinned snapshot report line"
    (Printf.sprintf
       "visited %d (fp-pruned %d, commute-pruned %d, safety-checked %d) machine %d steps, \
        %d restores, max depth %d, frontier peak %d, exhaustive"
       s.Budget.visited s.Budget.pruned_fingerprint s.Budget.pruned_sleep
       s.Budget.safety_checked s.Budget.machine_steps s.Budget.restores s.Budget.max_depth
       s.Budget.frontier_peak)
    (Fmt.str "%a" Budget.pp_stats s);
  Alcotest.(check bool) "machine steps printed nonzero" true (s.Budget.machine_steps > 0)

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

(* A substrate that vetoes process [p] while the next global step
   index is in [from, until): the entries that name [p] there are
   skipped, as a partitioned process's would be. Its step counter is
   state beyond the store, so it is in the snapshot and the savepoint. *)
let veto_substrate ~p ~from ~until =
  let module V = struct
    type t = { mutable next : int }

    let name _ = "veto"

    let live t q = q <> p || t.next < from || t.next >= until

    let pre_step t ~global ~proc:_ = t.next <- global + 1

    let snapshot t = [ ("veto.next", string_of_int t.next) ]

    let save t =
      let next = t.next in
      fun () -> t.next <- next
  end in
  Substrate.S ((module V), { V.next = 0 })

(* the pipe system with p2 (the copier) vetoed for global steps 2..5 *)
let vetoed_pipe_sut () =
  let sut = pipe_sut () in
  {
    sut with
    Explorer.fresh =
      (fun ~store ->
        {
          (sut.Explorer.fresh ~store) with
          Explorer.substrate = Some (veto_substrate ~p:1 ~from:2 ~until:6);
        });
  }

(* A veto the tally cannot see skips entries of a live process. The
   probe follows the executor's pulls, so its verdict and every probed
   state are the per-prefix scan's, in one instance. *)
let test_check_schedule_substrate_veto () =
  let vetoed = Schedule.of_list ~n:2 [ 0; 1; 1; 0; 1; 1 ] in
  Alcotest.(check (option string)) "without the veto it violates" (Some "pong too large")
    (Explorer.check_schedule ~sut:(pipe_sut ()) ~property:(pong_below 2) vetoed);
  Alcotest.(check (option string)) "the veto skips the copy" None
    (Explorer.check_schedule ~sut:(vetoed_pipe_sut ()) ~property:(pong_below 2) vetoed);
  let rng = Rng.create ~seed:4 in
  let schedules =
    vetoed
    :: Schedule.of_list ~n:2 [ 0; 1; 1; 1; 1; 0; 0; 1; 1; 1; 0; 1; 1 ]
    :: List.init 40 (fun i -> Source.take (Generators.random_fair ~n:2 ~rng ()) (i mod 20))
  in
  let record (st : _ Explorer.state) =
    let r = st.Explorer.run in
    Fmt.str "%d %a %a %s" st.Explorer.depth
      Fmt.(list ~sep:nop int)
      (Schedule.to_list r.Run.taken) Run.pp_reason r.Run.reason
      ((vetoed_pipe_sut ()).Explorer.obs_fingerprint st.Explorer.obs)
  in
  List.iter
    (fun s ->
      let label = String.concat "" (List.map string_of_int (Schedule.to_list s)) in
      List.iter
        (fun property ->
          let sut, count = counting_sut (vetoed_pipe_sut ()) in
          Alcotest.(check (option string))
            (Printf.sprintf "%s: verdict = per-prefix scan (%s)" property.Property.name label)
            (reference_check ~sut:(vetoed_pipe_sut ()) ~property s)
            (Explorer.check_schedule ~sut ~property s);
          Alcotest.(check int) (Printf.sprintf "one instance (%s)" label) 1 !count)
        [ pong_below 2; pong_le_ping ];
      let probed = ref [] in
      let capture =
        Property.safety ~name:"capture" (fun st ->
            probed := record st :: !probed;
            None)
      in
      ignore (Explorer.check_schedule ~sut:(vetoed_pipe_sut ()) ~property:capture s);
      Alcotest.(check (list string))
        (Printf.sprintf "probed states = evaluate (%s)" label)
        (List.init
           (Schedule.length s + 1)
           (fun d -> record (Explorer.evaluate ~sut:(vetoed_pipe_sut ()) (Schedule.prefix s d))))
        (List.rev !probed))
    schedules

(* ------------------------------------------------------------------ *)
(* one run record: probe, trajectory, evaluate and the executor agree *)

(* Three processes, each writing 1 then 2 into its own register and
   then halting (write, write, halt). *)
let triple_writer_sut () =
  {
    Explorer.n = 3;
    fresh =
      (fun ~store ->
        let r = Store.array store ~pp:Fmt.int ~name:"r" 3 (fun _ -> 0) in
        {
          Explorer.body =
            (fun p () ->
              Shm.write r.(p) 1;
              Shm.write r.(p) 2);
          observe = (fun () -> Array.map Register.peek r);
          substrate = None;
          machine = None;
        });
    obs_fingerprint = (fun a -> String.concat "," (Array.to_list (Array.map string_of_int a)));
  }

(* p0 is dead from the start, p1 crashes on its second step, p2 halts
   on its third. Entry 0 is skipped before any step runs, so requested
   and executed indices differ from then on: p1's crash sits at
   executed index 1 (requested index 2). Entries 6 and 7 name the
   crashed p1 and the halted p2 and are skipped too. *)
let test_one_run_record () =
  let fault = [ (0, 0); (1, 2) ] in
  let steps = [ 0; 1; 1; 2; 2; 2; 1; 2 ] in
  let s = Schedule.of_list ~n:3 steps in
  let sut, count = counting_sut (triple_writer_sut ()) in
  let bookkeeping (run : Run.t) =
    ( Schedule.to_list run.Run.taken,
      (run.Run.crashes, (Array.to_list run.Run.steps_of, Procset.elements run.Run.halted)) )
  in
  let record = Alcotest.(pair (list int) (pair (list (pair int int)) (pair (list int) (list int)))) in
  let direct =
    let store = Store.create () in
    let inst = (triple_writer_sut ()).Explorer.fresh ~store in
    Executor.replay ~n:3 ~schedule:s ~fault inst.Explorer.body
  in
  Alcotest.check record "executor's own record"
    ([ 1; 1; 2; 2; 2 ], ([ (0, 0); (1, 1) ], ([ 0; 2; 3 ], [ 2 ])))
    (bookkeeping direct);
  let evaluated = (Explorer.evaluate ~sut:(triple_writer_sut ()) ~fault s).Explorer.run in
  Alcotest.check record "evaluate = executor" (bookkeeping direct) (bookkeeping evaluated);
  Alcotest.(check bool) "evaluate keeps the executor's stop reason" true
    (evaluated.Run.reason = direct.Run.reason);
  (* the safety probe's interim state after each requested prefix *)
  let probed = ref [] in
  let capture =
    Property.safety ~name:"capture" (fun st ->
        probed := (Schedule.length st.Explorer.prefix, st.Explorer.run) :: !probed;
        None)
  in
  Alcotest.(check (option string)) "no violation" None
    (Explorer.check_schedule ~sut ~property:capture ~fault s);
  Alcotest.(check int) "one replay" 1 !count;
  Alcotest.(check (list int)) "every prefix boundary probed once"
    (List.init (List.length steps + 1) Fun.id)
    (List.rev_map fst !probed);
  List.iter
    (fun (len, run) ->
      let want = Explorer.evaluate ~sut:(triple_writer_sut ()) ~fault (Schedule.prefix s len) in
      Alcotest.check record
        (Printf.sprintf "probe = evaluate at prefix %d" len)
        (bookkeeping want.Explorer.run) (bookkeeping run))
    !probed;
  (* trajectory's states follow the executed steps *)
  let seen = ref [] in
  let final =
    Explorer.trajectory ~sut:(triple_writer_sut ()) ~fault
      ~on_state:(fun st ->
        seen := st.Explorer.run :: !seen;
        false)
      s
  in
  Alcotest.check record "trajectory final = executor" (bookkeeping direct)
    (bookkeeping final.Explorer.run);
  let executed = direct.Run.taken in
  List.iter
    (fun (run : Run.t) ->
      let len = Run.total_steps run in
      let want = Explorer.evaluate ~sut:(triple_writer_sut ()) ~fault (Schedule.prefix executed len) in
      Alcotest.check record
        (Printf.sprintf "trajectory = evaluate after %d steps" len)
        (bookkeeping want.Explorer.run) (bookkeeping run))
    !seen

(* ------------------------------------------------------------------ *)
(* plumbing the explorer relies on *)

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
(* (l) states render on demand; savepoints are last-in-first-out *)

(* [double_writer_sut] with a register printer that counts its calls
   and no payload, so a state's only rendering is its snapshot *)
let counting_writer_sut renders =
  let pp ppf v =
    incr renders;
    Fmt.int ppf v
  in
  double_writer_sut ~pp ~payload:false ()

let raises_invalid label f =
  match f () with
  | _ -> Alcotest.failf "%s: no Invalid_argument" label
  | exception Invalid_argument _ -> ()

(* With fingerprints off no engine renders a register: a state's
   snapshot is built when forced, and only while the state is current.
   Forced inside the visit it renders the state a fresh replay of its
   prefix reaches; forced once the snapshot engine has stepped past the
   state or restored a savepoint, it raises. *)
let test_render_on_demand () =
  let renders = ref 0 in
  let sut = counting_writer_sut renders in
  let kept = ref [] in
  let spy =
    Property.safety ~name:"spy" (fun st ->
        kept := st :: !kept;
        None)
  in
  let explore label engine ?limits want_engine =
    renders := 0;
    kept := [];
    let r =
      Explorer.explore ~sut ~properties:[ spy ]
        (Explorer.config ~prune_fingerprints:false ~engine ?limits ~depth:6 ())
    in
    let s = r.Explorer.stats in
    Alcotest.(check bool) (label ^ ": engine") true (r.Explorer.engine = want_engine);
    Alcotest.(check (pair int int)) (label ^ ": visited, commute-pruned") (16, 9)
      (s.Budget.visited, s.Budget.pruned_sleep);
    Alcotest.(check int) (label ^ ": every state checked") s.Budget.safety_checked
      (List.length !kept);
    Alcotest.(check int) (label ^ ": nothing rendered") 0 !renders
  in
  explore "per-state" Explorer.Per_state Explorer.Per_state;
  explore "path walk" Explorer.Path
    ~limits:(Budget.limits ~max_replay_steps:1_000_000 ())
    Explorer.Path;
  explore "snapshot" Explorer.Snapshot Explorer.Snapshot;
  (* every snapshot-engine state was stepped past or restored over:
     the root and inner states by a child's step, the leaves and the
     commutation-pruned states by their parent's restore *)
  List.iter
    (fun (st : _ Explorer.state) ->
      raises_invalid
        (Printf.sprintf "stale state at depth %d" st.Explorer.depth)
        (fun () -> Explorer.digest ~sut st))
    !kept;
  Alcotest.(check int) "a stale state renders nothing" 0 !renders;
  (* forced inside the visit: the state the prefix reaches *)
  let live =
    Property.safety ~name:"live" (fun st ->
        let fresh = Explorer.evaluate ~sut st.Explorer.prefix in
        if Lazy.force st.Explorer.snapshot = Lazy.force fresh.Explorer.snapshot then None
        else Some "snapshot differs from a fresh replay")
  in
  let r =
    Explorer.explore ~sut ~properties:[ live ]
      (Explorer.config ~prune_fingerprints:false ~engine:Explorer.Snapshot ~depth:6 ())
  in
  Alcotest.(check bool) "current states render as a replay does" true
    (List.assoc "live" r.Explorer.verdicts = Explorer.Ok_bounded);
  Alcotest.(check bool) "and they did render" true (!renders > 0);
  (* a state whose instance never moves again stays current *)
  let final = Explorer.evaluate ~sut (Schedule.of_list ~n:2 [ 0; 1 ]) in
  Alcotest.(check (list (pair string string)))
    "an evaluated state renders later"
    [ ("r[0]", "1"); ("r[1]", "1") ]
    (Lazy.force final.Explorer.snapshot)

(* Net systems have no payload: their fingerprint is [digest], which
   forces the snapshot inside the visit. The counts are the ones the
   eager snapshots gave. *)
let test_net_digest_counts () =
  let adversary = Setsync_net.Adversary.gst_drop ~delta:1 ~gst:4 in
  List.iter
    (fun (clients, depth, visited, fp_pruned) ->
      let r =
        Explorer.explore
          ~sut:(Setsync_net.Net_systems.ct_leader ~clients ~adversary ())
          ~properties:[ Setsync_net.Net_systems.ct_stabilized ~delta:1 ]
          (Explorer.config ~sleep_sets:false ~depth ())
      in
      let s = r.Explorer.stats in
      let label = Printf.sprintf "CT n=%d @%d" clients depth in
      Alcotest.(check int) (label ^ " visited") visited s.Budget.visited;
      Alcotest.(check int) (label ^ " fp-pruned") fp_pruned s.Budget.pruned_fingerprint)
    [ (2, 11, 757, 61); (3, 7, 592, 35) ]

(* Commutation on a net sut is refused before the run: the network's
   clock and its adversary's delivery decisions live outside the
   store's footprints. The default config has sleep sets on. *)
let test_net_sleep_sets_refused () =
  let sut =
    Setsync_net.Net_systems.ct_leader ~clients:2
      ~adversary:(Setsync_net.Adversary.gst_drop ~delta:1 ~gst:4)
      ()
  in
  match Explorer.explore ~sut ~properties:[] (Explorer.config ~depth:4 ()) with
  | _ -> Alcotest.fail "sleep sets accepted on a net sut"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("names the cause: " ^ msg)
        true
        (String.starts_with
           ~prefix:
             "Explorer.explore: commutation (sleep_sets) is unsound on a sut with a \
              substrate"
           msg)

(* The [Path] walk on the machine-less net systems, fingerprints and
   sleep sets off (as the CLI runs them): one replay per pool item, one
   replay step per advance. Visited, replays and replay steps are the
   same at one and two domains; the frontier peak is a racy per-worker
   maximum under several domains, so it is pinned at one. *)
let test_net_path_walk () =
  let module Net_systems = Setsync_net.Net_systems in
  let module Adversary = Setsync_net.Adversary in
  let check name ~sut ~properties ~depth (visited, replays, steps, peak) =
    List.iter
      (fun domains ->
        let r =
          Explorer.explore ~domains ~sut ~properties
            (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~depth ())
        in
        let s = r.Explorer.stats in
        let label what = Printf.sprintf "%s @%d, %d domain(s): %s" name depth domains what in
        Alcotest.(check bool) (label "ran the path walk") true (r.Explorer.engine = Explorer.Path);
        Alcotest.(check bool) (label "all ok") true
          (List.for_all (fun (_, v) -> v = Explorer.Ok_bounded) r.Explorer.verdicts);
        Alcotest.(check bool) (label "exhaustive") false s.Budget.truncated;
        Alcotest.(check int) (label "visited") visited s.Budget.visited;
        Alcotest.(check int) (label "replays") replays s.Budget.replays;
        Alcotest.(check int) (label "replay steps") steps s.Budget.replay_steps;
        Alcotest.(check int) (label "machine steps") 0 s.Budget.machine_steps;
        if domains = 1 then Alcotest.(check int) (label "frontier peak") peak s.Budget.frontier_peak)
      [ 1; 2 ]
  in
  check "net CT n=2"
    ~sut:(Net_systems.ct_leader ~clients:2 ~adversary:(Adversary.gst_drop ~delta:1 ~gst:4) ())
    ~properties:[ Net_systems.ct_stabilized ~delta:1 ]
    ~depth:10 (2_047, 1_024, 10_240, 10);
  let inputs = [| 0; 10 |] in
  let decisions st = st.Explorer.obs.Systems.decisions in
  check "blind k-set n=2"
    ~sut:(Net_systems.kset_blind ~inputs ~adversary:(Adversary.brs_kset ~delta:1 ~gst:4 ~n:2 ~k:1) ())
    ~properties:[ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
    ~depth:8 (511, 256, 2_048, 8)

(* One savepoint of a library machine form, with its store, restored
   several times in a row after different runs; then the stack rule:
   restoring a shallower savepoint frees the depths above it, and a
   savepoint whose depth a later save reused raises. *)
let check_machine_savepoints ?(runs = [ (25, 1); (90, 2); (3, 0); (200, 1) ]) label
    (sut : _ Explorer.sut) =
  let store = Store.create () in
  let inst = sut.Explorer.fresh ~store in
  let mi = Option.get inst.Explorer.machine in
  let n = sut.Explorer.n in
  let id = Array.init n Fun.id in
  (* the machine's payload; without one, its register snapshot and
     observation *)
  let payload () =
    match mi.Explorer.m_payload with
    | Some payload -> payload ~perm:id
    | None ->
        String.concat ";" (List.map (fun (r, v) -> r ^ "=" ^ v) (Store.snapshot store))
        ^ "|" ^ sut.Explorer.obs_fingerprint (inst.Explorer.observe ())
  in
  let save () =
    let restore_store = Store.checkpoint store and restore_m = mi.Explorer.m_save () in
    fun () ->
      restore_store ();
      restore_m ()
  in
  let run steps salt =
    for i = 0 to steps - 1 do
      mi.Explorer.m_step (((i * 7) + salt + (i / n)) mod n)
    done
  in
  run 40 0;
  let at = payload () in
  let restore = save () in
  List.iter
    (fun (steps, salt) ->
      run steps salt;
      Alcotest.(check bool) (Printf.sprintf "%s: %d steps move the state" label steps) true
        (payload () <> at);
      restore ();
      Alcotest.(check string) (Printf.sprintf "%s: restored after %d steps" label steps) at
        (payload ()))
    runs;
  run 10 1;
  let deeper = save () in
  let at_deeper = payload () in
  run 10 2;
  deeper ();
  Alcotest.(check string) (label ^ ": the deeper savepoint") at_deeper (payload ());
  restore ();
  Alcotest.(check string) (label ^ ": back to the shallower one") at (payload ());
  run 5 0;
  let _reused = save () in
  raises_invalid (label ^ ": restoring a saved-over depth") deeper;
  restore ();
  Alcotest.(check string) (label ^ ": the shallower one still restores") at (payload ())

let test_machine_savepoints () =
  check_machine_savepoints "figure 2"
    (Systems.kanti_detector ~params:{ Kanti_omega.n = 3; t = 1; k = 1 } ());
  let problem = Problem.make ~t:1 ~k:1 ~n:3 in
  (* long enough for Paxos attempts and decisions to enter the state *)
  check_machine_savepoints "theorem-24 kset"
    (Systems.kset_agreement ~problem ~inputs:(Problem.distinct_inputs problem) ());
  (* three steps of reads move only the counter core's locals, which
     its snapshot and observation do not show *)
  check_machine_savepoints "counter core"
    ~runs:[ (25, 1); (90, 2); (30, 0); (200, 1) ]
    (Setsync_fuzz.Fuzz_systems.counter_core ~params:{ Kanti_omega.n = 3; t = 2; k = 1 } ())

(* ------------------------------------------------------------------ *)
(* (k) golden stats: every engine's full counter set, pinned *)

(* The engines share one visit routine, commutation-prune routine and
   verdict table; this pins what they count, field by field, so a
   refactor of that core that moves any counter fails here. Rows:
   system, engine, domains, fingerprints, symmetry, then [visited;
   fp-pruned; commute-pruned; safety-checked; replays; replay steps;
   machine steps; restores], then the depth profile as [depth;
   visited; fp-pruned; commute-pruned] rows. The kset system runs under the crash
   plan [(p3, 2 steps)] so the budget-crash bookkeeping is exercised;
   parallel rows run with fingerprints off, where counts are
   deterministic. On the machine-form systems [Path] resolves to the
   snapshot engine, so the walk with path replay is pinned on the
   detector's machine-less copy, "detector (fibers)". Every engine
   steps a machine form where there is one, so the per-state rows of
   the solver's machine-less copy, "kset (fibers)", are what keeps an
   exhaustive fiber ≡ machine check on it: their counts equal the
   machine rows'. With fingerprints on, a machine form's state is its
   payload: the plain-fingerprint rows visit what the symmetry rows do
   on these instances, whose admissible renamings are the identity
   alone. Two reads commute, so those instances are too shallow for
   fingerprints to prune: "kset (equal inputs)" (n=3, every input 7,
   depth 20, no crash plan) is deep enough to, and pins the gate. The
   "ct (net)" rows (CT over the network, n=2, depth 8) run the
   commutation-off path: a sut with a substrate refuses sleep sets, so
   no footprint is metered, and with fingerprints on its states key on
   their [digest]. *)
let golden_stats =
  [
    ( "detector", Explorer.Per_state, 1, true, false,
      [ 45; 0; 28; 0; 73; 408; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 3; 0; 1 ]; [ 3; 4; 0; 2 ]; [ 4; 5; 0; 3 ];
        [ 5; 6; 0; 4 ]; [ 6; 7; 0; 5 ]; [ 7; 8; 0; 6 ]; [ 8; 9; 0; 7 ];
      ] );
    ( "detector", Explorer.Per_state, 1, false, false,
      [ 45; 0; 28; 0; 73; 408; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 3; 0; 1 ]; [ 3; 4; 0; 2 ]; [ 4; 5; 0; 3 ];
        [ 5; 6; 0; 4 ]; [ 6; 7; 0; 5 ]; [ 7; 8; 0; 6 ]; [ 8; 9; 0; 7 ];
      ] );
    ( "detector", Explorer.Per_state, 2, false, false,
      [ 45; 0; 28; 0; 73; 408; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 3; 0; 1 ]; [ 3; 4; 0; 2 ]; [ 4; 5; 0; 3 ];
        [ 5; 6; 0; 4 ]; [ 6; 7; 0; 5 ]; [ 7; 8; 0; 6 ]; [ 8; 9; 0; 7 ];
      ] );
    ( "detector (fibers)", Explorer.Path, 1, false, false,
      [ 45; 0; 28; 0; 37; 240; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 3; 0; 1 ]; [ 3; 4; 0; 2 ]; [ 4; 5; 0; 3 ];
        [ 5; 6; 0; 4 ]; [ 6; 7; 0; 5 ]; [ 7; 8; 0; 6 ]; [ 8; 9; 0; 7 ];
      ] );
    ( "detector (fibers)", Explorer.Path, 2, false, false,
      [ 45; 0; 28; 0; 37; 240; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 3; 0; 1 ]; [ 3; 4; 0; 2 ]; [ 4; 5; 0; 3 ];
        [ 5; 6; 0; 4 ]; [ 6; 7; 0; 5 ]; [ 7; 8; 0; 6 ]; [ 8; 9; 0; 7 ];
      ] );
    ( "detector", Explorer.Snapshot, 1, true, false,
      [ 45; 0; 28; 0; 0; 0; 72; 72 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 3; 0; 1 ]; [ 3; 4; 0; 2 ]; [ 4; 5; 0; 3 ];
        [ 5; 6; 0; 4 ]; [ 6; 7; 0; 5 ]; [ 7; 8; 0; 6 ]; [ 8; 9; 0; 7 ];
      ] );
    ( "detector", Explorer.Snapshot, 1, false, false,
      [ 45; 0; 28; 0; 0; 0; 72; 72 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 3; 0; 1 ]; [ 3; 4; 0; 2 ]; [ 4; 5; 0; 3 ];
        [ 5; 6; 0; 4 ]; [ 6; 7; 0; 5 ]; [ 7; 8; 0; 6 ]; [ 8; 9; 0; 7 ];
      ] );
    ( "detector", Explorer.Snapshot, 2, false, false,
      [ 45; 0; 28; 0; 0; 0; 76; 66 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 3; 0; 1 ]; [ 3; 4; 0; 2 ]; [ 4; 5; 0; 3 ];
        [ 5; 6; 0; 4 ]; [ 6; 7; 0; 5 ]; [ 7; 8; 0; 6 ]; [ 8; 9; 0; 7 ];
      ] );
    ( "detector", Explorer.Snapshot, 1, true, true,
      [ 45; 0; 28; 0; 0; 0; 72; 72 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 3; 0; 1 ]; [ 3; 4; 0; 2 ]; [ 4; 5; 0; 3 ];
        [ 5; 6; 0; 4 ]; [ 6; 7; 0; 5 ]; [ 7; 8; 0; 6 ]; [ 8; 9; 0; 7 ];
      ] );
    ( "kset", Explorer.Per_state, 1, true, false,
      [ 46; 0; 42; 88; 88; 337; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 9; 0; 8 ]; [ 4; 12; 0; 13 ];
        [ 5; 15; 0; 18 ];
      ] );
    ( "kset", Explorer.Per_state, 1, false, false,
      [ 46; 0; 42; 88; 88; 337; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 9; 0; 8 ]; [ 4; 12; 0; 13 ];
        [ 5; 15; 0; 18 ];
      ] );
    ( "kset", Explorer.Per_state, 2, false, false,
      [ 46; 0; 42; 88; 88; 337; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 9; 0; 8 ]; [ 4; 12; 0; 13 ];
        [ 5; 15; 0; 18 ];
      ] );
    ( "kset (fibers)", Explorer.Per_state, 1, false, false,
      [ 46; 0; 42; 88; 88; 337; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 9; 0; 8 ]; [ 4; 12; 0; 13 ];
        [ 5; 15; 0; 18 ];
      ] );
    ( "kset (fibers)", Explorer.Per_state, 2, false, false,
      [ 46; 0; 42; 88; 88; 337; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 9; 0; 8 ]; [ 4; 12; 0; 13 ];
        [ 5; 15; 0; 18 ];
      ] );
    ( "kset", Explorer.Snapshot, 1, true, false,
      [ 46; 0; 42; 88; 0; 0; 87; 87 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 9; 0; 8 ]; [ 4; 12; 0; 13 ];
        [ 5; 15; 0; 18 ];
      ] );
    ( "kset", Explorer.Snapshot, 1, false, false,
      [ 46; 0; 42; 88; 0; 0; 87; 87 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 9; 0; 8 ]; [ 4; 12; 0; 13 ];
        [ 5; 15; 0; 18 ];
      ] );
    ( "kset", Explorer.Snapshot, 2, false, false,
      [ 46; 0; 42; 88; 0; 0; 96; 75 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 9; 0; 8 ]; [ 4; 12; 0; 13 ];
        [ 5; 15; 0; 18 ];
      ] );
    ( "kset", Explorer.Snapshot, 1, true, true,
      [ 46; 0; 42; 88; 0; 0; 87; 87 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 9; 0; 8 ]; [ 4; 12; 0; 13 ];
        [ 5; 15; 0; 18 ];
      ] );
    ( "ct (net)", Explorer.Path, 1, false, false,
      [ 511; 0; 0; 0; 256; 2048; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 4; 0; 0 ]; [ 3; 8; 0; 0 ]; [ 4; 16; 0; 0 ];
        [ 5; 32; 0; 0 ]; [ 6; 64; 0; 0 ]; [ 7; 128; 0; 0 ]; [ 8; 256; 0; 0 ];
      ] );
    ( "ct (net)", Explorer.Path, 2, false, false,
      [ 511; 0; 0; 0; 256; 2048; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 4; 0; 0 ]; [ 3; 8; 0; 0 ]; [ 4; 16; 0; 0 ];
        [ 5; 32; 0; 0 ]; [ 6; 64; 0; 0 ]; [ 7; 128; 0; 0 ]; [ 8; 256; 0; 0 ];
      ] );
    ( "ct (net)", Explorer.Per_state, 1, false, false,
      [ 511; 0; 0; 0; 511; 3586; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 4; 0; 0 ]; [ 3; 8; 0; 0 ]; [ 4; 16; 0; 0 ];
        [ 5; 32; 0; 0 ]; [ 6; 64; 0; 0 ]; [ 7; 128; 0; 0 ]; [ 8; 256; 0; 0 ];
      ] );
    ( "ct (net)", Explorer.Path, 1, true, false,
      [ 139; 8; 0; 0; 70; 528; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 2; 0; 0 ]; [ 2; 4; 1; 0 ]; [ 3; 6; 3; 0 ]; [ 4; 6; 1; 0 ];
        [ 5; 10; 2; 0 ]; [ 6; 16; 0; 0 ]; [ 7; 32; 1; 0 ]; [ 8; 62; 0; 0 ];
      ] );
    ( "kset (equal inputs)", Explorer.Snapshot, 1, false, false,
      [ 2116; 0; 3039; 5155; 0; 0; 5154; 5154 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 10; 0; 8 ]; [ 4; 15; 0; 15 ];
        [ 5; 21; 0; 24 ]; [ 6; 28; 0; 35 ]; [ 7; 36; 0; 48 ]; [ 8; 45; 0; 63 ];
        [ 9; 55; 0; 80 ]; [ 10; 66; 0; 99 ]; [ 11; 78; 0; 120 ]; [ 12; 91; 0; 143 ];
        [ 13; 105; 0; 168 ]; [ 14; 120; 0; 195 ]; [ 15; 138; 0; 222 ]; [ 16; 162; 0; 252 ];
        [ 17; 195; 0; 291 ]; [ 18; 240; 0; 345 ]; [ 19; 303; 0; 417 ]; [ 20; 398; 0; 511 ];
      ] );
    ( "kset (equal inputs)", Explorer.Snapshot, 1, true, false,
      [ 2079; 9; 3016; 5095; 0; 0; 5094; 5094 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 10; 0; 8 ]; [ 4; 15; 0; 15 ];
        [ 5; 21; 0; 24 ]; [ 6; 28; 0; 35 ]; [ 7; 36; 0; 48 ]; [ 8; 45; 0; 63 ];
        [ 9; 55; 0; 80 ]; [ 10; 66; 0; 99 ]; [ 11; 78; 0; 120 ]; [ 12; 91; 0; 143 ];
        [ 13; 105; 0; 168 ]; [ 14; 120; 0; 195 ]; [ 15; 138; 0; 222 ]; [ 16; 162; 0; 252 ];
        [ 17; 195; 1; 291 ]; [ 18; 238; 3; 344 ]; [ 19; 294; 5; 411 ]; [ 20; 372; 0; 495 ];
      ] );
    ( "kset (equal inputs)", Explorer.Per_state, 1, true, false,
      [ 2079; 9; 3016; 5095; 5095; 79557; 0; 0 ],
      [
        [ 0; 1; 0; 0 ]; [ 1; 3; 0; 0 ]; [ 2; 6; 0; 3 ]; [ 3; 10; 0; 8 ]; [ 4; 15; 0; 15 ];
        [ 5; 21; 0; 24 ]; [ 6; 28; 0; 35 ]; [ 7; 36; 0; 48 ]; [ 8; 45; 0; 63 ];
        [ 9; 55; 0; 80 ]; [ 10; 66; 0; 99 ]; [ 11; 78; 0; 120 ]; [ 12; 91; 0; 143 ];
        [ 13; 105; 0; 168 ]; [ 14; 120; 0; 195 ]; [ 15; 138; 0; 222 ]; [ 16; 162; 0; 252 ];
        [ 17; 195; 1; 291 ]; [ 18; 238; 3; 344 ]; [ 19; 294; 5; 411 ]; [ 20; 372; 0; 495 ];
      ] );
  ]

let golden_explore system =
  match system with
  | "detector" | "detector (fibers)" ->
      let params = { Setsync_detector.Kanti_omega.n = 2; t = 1; k = 1 } in
      let mk_sut () = Systems.kanti_detector ~params () in
      let mk_sut = if system = "detector" then mk_sut else fiber_only mk_sut in
      let properties =
        [
          Property.anti_omega_stabilized ~k:1
            ~outputs:(fun st -> st.Explorer.obs.Systems.fd_outputs)
            ~correct:(fun st -> Run.correct st.Explorer.run);
        ]
      in
      fun ~domains config ->
        Explorer.explore ~domains ~sut:(mk_sut ()) ~properties (config ~depth:8 ~fault:[])
  | "ct (net)" ->
      let adversary = Setsync_net.Adversary.gst_drop ~delta:1 ~gst:4 in
      let properties = [ Setsync_net.Net_systems.ct_stabilized ~delta:1 ] in
      fun ~domains config ->
        Explorer.explore ~domains
          ~sut:(Setsync_net.Net_systems.ct_leader ~clients:2 ~adversary ())
          ~properties
          { (config ~depth:8 ~fault:[]) with Explorer.sleep_sets = false }
  | "kset (equal inputs)" ->
      let problem = Setsync_agreement.Problem.make ~t:1 ~k:1 ~n:3 in
      let inputs = Array.make 3 7 in
      let decisions st = st.Explorer.obs.Systems.decisions in
      let properties =
        [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
      in
      fun ~domains config ->
        Explorer.explore ~domains
          ~sut:(Systems.kset_agreement ~problem ~inputs ())
          ~properties (config ~depth:20 ~fault:[])
  | _ ->
      let problem = Setsync_agreement.Problem.make ~t:1 ~k:1 ~n:3 in
      let inputs = Setsync_agreement.Problem.distinct_inputs problem in
      let mk_sut () = Systems.kset_agreement ~problem ~inputs () in
      let mk_sut = if system = "kset" then mk_sut else fiber_only mk_sut in
      let decisions st = st.Explorer.obs.Systems.decisions in
      let properties =
        [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
      in
      fun ~domains config ->
        Explorer.explore ~domains ~sut:(mk_sut ()) ~properties
          (config ~depth:5 ~fault:[ (2, 2) ])

let test_golden_stats () =
  List.iter
    (fun (system, engine, domains, fp, symmetry, counts, profile) ->
      let s =
        (golden_explore system ~domains (fun ~depth ~fault ->
             Explorer.config ~prune_fingerprints:fp ~engine ~symmetry ~fault ~depth ()))
          .Explorer.stats
      in
      let label =
        Printf.sprintf "%s %s domains=%d fp=%b sym=%b" system
          (match engine with
          | Explorer.Per_state -> "per_state"
          | Explorer.Path -> "path"
          | Explorer.Snapshot -> "snapshot")
          domains fp symmetry
      in
      Alcotest.(check (list int))
        (label ^ ": visited, fp-pruned, commute-pruned, safety-checked, replays, replay \
                  steps, machine steps, restores")
        counts
        [
          s.Budget.visited;
          s.Budget.pruned_fingerprint;
          s.Budget.pruned_sleep;
          s.Budget.safety_checked;
          s.Budget.replays;
          s.Budget.replay_steps;
          s.Budget.machine_steps;
          s.Budget.restores;
        ];
      Alcotest.(check (list (list int)))
        (label ^ ": depth profile") profile
        (List.map
           (fun (r : Budget.depth_row) ->
             [ r.Budget.dr_depth; r.dr_visited; r.dr_fp_pruned; r.dr_sleep_pruned ])
           s.Budget.depth_profile);
      Alcotest.(check bool) (label ^ ": exhaustive") false s.Budget.truncated)
    golden_stats

(* ------------------------------------------------------------------ *)
(* (m) live progress: the heartbeat hands out the run's own stats *)

let progress_explore ?obs ~domains ~interval on_progress =
  let problem = Setsync_agreement.Problem.make ~t:1 ~k:1 ~n:3 in
  let inputs = Setsync_agreement.Problem.distinct_inputs problem in
  let decisions st = st.Explorer.obs.Systems.decisions in
  Explorer.explore ~domains ?obs ~on_progress ~progress_interval:interval
    ~sut:(Systems.kset_agreement ~problem ~inputs ())
    ~properties:[ Property.kset_agreement ~k:1 ~decisions ]
    (Explorer.config ~prune_fingerprints:false ~depth:7 ())

(* [visited] never decreases from one beat to the next and never
   exceeds the final report's *)
let check_live_visited label ~final seen =
  ignore
    (List.fold_left
       (fun prev v ->
         if v < prev then Alcotest.failf "%s: visited fell from %d to %d" label prev v;
         if v > final then Alcotest.failf "%s: visited %d above the final %d" label v final;
         v)
       0 seen)

let test_progress_on_progress () =
  List.iter
    (fun domains ->
      let label = Printf.sprintf "domains=%d" domains in
      let seen = ref [] in
      let r =
        progress_explore ~domains ~interval:1e-9 (fun s ->
            seen := s.Budget.visited :: !seen)
      in
      let seen = List.rev !seen in
      Alcotest.(check bool) (label ^ ": on_progress called") true (seen <> []);
      check_live_visited label ~final:r.Explorer.stats.Budget.visited seen;
      let calls = ref 0 in
      ignore (progress_explore ~domains ~interval:0. (fun _ -> incr calls));
      Alcotest.(check int) (label ^ ": interval 0 never calls") 0 !calls)
    [ 1; 2 ]

let test_progress_heartbeat_events () =
  List.iter
    (fun domains ->
      let label = Printf.sprintf "domains=%d" domains in
      let obs = Obs.create ~events:(Setsync_obs.Events.memory ()) () in
      let r = progress_explore ~obs ~domains ~interval:1e-9 (fun _ -> ()) in
      let seen =
        List.filter_map
          (fun (e : Setsync_obs.Events.event) ->
            if e.name = "heartbeat" && e.cat = "explorer" then
              match List.assoc_opt "visited" e.args with
              | Some (Json.Int v) -> Some v
              | _ -> Alcotest.failf "%s: heartbeat without an int visited arg" label
            else None)
          (Setsync_obs.Events.events obs.Obs.events)
      in
      Alcotest.(check bool) (label ^ ": heartbeat events emitted") true (seen <> []);
      check_live_visited label ~final:r.Explorer.stats.Budget.visited seen)
    [ 1; 2 ]

let test_budget_heartbeat () =
  let beats = ref 0 in
  let beat () = incr beats in
  List.iter
    (fun interval ->
      let tick = Budget.heartbeat ~interval beat in
      for _ = 1 to 1000 do
        tick ()
      done)
    [ 0.; -1.; Float.nan ];
  Alcotest.(check int) "a non-positive interval never beats" 0 !beats;
  let tick = Budget.heartbeat ~interval:3600. beat in
  tick ();
  Alcotest.(check int) "no beat before the interval" 0 !beats;
  let tick = Budget.heartbeat ~interval:1e-6 beat in
  Unix.sleepf 0.002;
  tick ();
  Alcotest.(check int) "one beat once the interval passed" 1 !beats

let test_budget_sum () =
  let clock = Budget.start Budget.unlimited in
  Budget.note_state clock;
  let a = Budget.start Budget.unlimited and b = Budget.start Budget.unlimited in
  List.iter
    (fun d ->
      Budget.note_state a;
      Budget.note_depth a d)
    [ 0; 1 ];
  Budget.note_fingerprint_prune ~depth:1 a;
  Budget.note_replay a ~steps:5;
  Budget.note_frontier a 3;
  Budget.note_state b;
  Budget.note_depth b 2;
  Budget.note_safety_check b;
  Budget.note_sleep_prune ~depth:2 b;
  Budget.note_machine_step b;
  Budget.note_restore b;
  Budget.note_frontier b 5;
  Budget.mark_truncated b;
  let s = Budget.sum ~clock [| a; b |] in
  Alcotest.(check (list int))
    "counts added, high-water marks maxed, clock's counts left out"
    [ 3; 1; 1; 1; 1; 5; 1; 1; 2; 5 ]
    Budget.
      [
        s.visited;
        s.safety_checked;
        s.pruned_fingerprint;
        s.pruned_sleep;
        s.replays;
        s.replay_steps;
        s.machine_steps;
        s.restores;
        s.max_depth;
        s.frontier_peak;
      ];
  Alcotest.(check bool) "truncated or-ed" true s.Budget.truncated;
  Alcotest.(check (list (list int)))
    "depth rows added"
    [ [ 0; 1; 0; 0 ]; [ 1; 1; 1; 0 ]; [ 2; 1; 0; 1 ] ]
    (List.map
       (fun (r : Budget.depth_row) ->
         [ r.Budget.dr_depth; r.dr_visited; r.dr_fp_pruned; r.dr_sleep_pruned ])
       s.Budget.depth_profile);
  Alcotest.(check bool)
    "untruncated meters stay untruncated" false
    (Budget.sum ~clock [| a |]).Budget.truncated

let test_kset_refuses_k_above_t () =
  let problem = Setsync_agreement.Problem.make ~t:1 ~k:2 ~n:3 in
  Alcotest.check_raises "k > t refused when called"
    (Invalid_argument "Systems.kset_agreement: requires k <= t (use Trivial when t < k)")
    (fun () ->
      ignore
        (Systems.kset_agreement ~problem
           ~inputs:(Setsync_agreement.Problem.distinct_inputs problem)
           ()))

(* Violation reasons print on one line: [Format] breaks a list printed
   with [Fmt.comma] at its final separator. *)
let test_kset_reason_one_line () =
  let property = Property.kset_agreement ~k:1 ~decisions:Fun.id in
  Alcotest.(check (option string))
    "reason" (Some "3 distinct values decided (0, 10, 20), at most 1 allowed")
    (property.Property.check [| Some 0; Some 10; None; Some 20 |])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "setsync_explore"
    [
      ( "counts",
        [
          Alcotest.test_case "brute force, hand-counted" `Quick test_count_brute;
          Alcotest.test_case "commutation reduction" `Quick test_count_sleep;
          Alcotest.test_case "footprint overflow at 65 accesses" `Quick
            test_count_footprint_overflow;
          Alcotest.test_case "double writer, brute" `Quick test_count_double_brute;
          Alcotest.test_case "two reads commute, a write conflicts" `Quick
            test_count_conflicts;
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
          Alcotest.test_case "negative budgets refused" `Quick test_negative_budget_refused;
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
          Alcotest.test_case "one-worker pool: fifo and lifo order" `Quick
            test_pool_one_worker_order;
        ] );
      ( "path-replay engine",
        [
          Alcotest.test_case "pause-only equivalence" `Quick test_engine_equiv_pause;
          Alcotest.test_case "figure-2 detector equivalence" `Quick
            test_engine_equiv_detector;
          Alcotest.test_case "theorem-24 kset equivalence, fewer steps" `Quick
            test_engine_equiv_kset;
          Alcotest.test_case "fiber ≡ machine over 2000 steps: kset, consensus" `Quick
            test_lockstep_kset;
          Alcotest.test_case "fiber ≡ machine over 2000 steps: figure 2" `Quick
            test_lockstep_kanti;
          Alcotest.test_case "schedule-sensitive safety materialized" `Quick
            test_engine_sched_sensitive_safety;
          Alcotest.test_case "snapshot: schedule-sensitive safety" `Quick
            test_engine_snapshot_sched_sensitive;
          Alcotest.test_case "snapshot: hand-counted fingerprints" `Quick
            test_engine_snapshot_fingerprint_counts;
          Alcotest.test_case "snapshot: crash plans equivalent" `Quick
            test_engine_snapshot_fault;
          Alcotest.test_case "report names the engine that ran" `Quick test_engine_label;
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
          Alcotest.test_case "pause_procs builds its group once" `Quick
            test_pause_group_shared;
          Alcotest.test_case "any engine, needs a payload" `Quick test_symmetry_any_engine;
          Alcotest.test_case "snapshot requires machine form" `Quick
            test_snapshot_requires_machine;
        ] );
      ( "exact identity",
        [
          Alcotest.test_case "reduced runs reach every state" `Quick test_reachable_sets;
          Alcotest.test_case "symmetric runs reach every renaming class" `Quick
            test_reachable_classes;
          Alcotest.test_case "explored kset checks decide" `Quick test_kset_decides;
          Alcotest.test_case "same visited on every engine" `Quick test_exact_counts;
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
      ( "golden stats",
        [
          Alcotest.test_case "every counter, every engine, figure 2 and kset" `Quick
            test_golden_stats;
        ] );
      ( "progress",
        [
          Alcotest.test_case "on_progress sees the run's stats (1 and 2 domains)" `Quick
            test_progress_on_progress;
          Alcotest.test_case "heartbeat events carry the run's stats" `Quick
            test_progress_heartbeat_events;
          Alcotest.test_case "Budget.heartbeat ticks" `Quick test_budget_heartbeat;
          Alcotest.test_case "Budget.sum merges meters" `Quick test_budget_sum;
        ] );
      ( "metrics scoping",
        [
          Alcotest.test_case "counters scoped to Obs" `Quick test_metrics_scoped_to_obs;
        ] );
      ( "check_schedule skips",
        [
          Alcotest.test_case "single replay across skipped steps" `Quick
            test_check_schedule_skips;
          Alcotest.test_case "single replay across substrate vetoes" `Quick
            test_check_schedule_substrate_veto;
          Alcotest.test_case "probe, trajectory, evaluate and executor share one record" `Quick
            test_one_run_record;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "store snapshot" `Quick test_store_snapshot;
          Alcotest.test_case "pp-less snapshot digests distinct" `Quick
            test_store_snapshot_ppless_distinct;
          Alcotest.test_case "store save/restore" `Quick test_store_save_restore;
          Alcotest.test_case "states render only on demand" `Quick test_render_on_demand;
          Alcotest.test_case "net fingerprint counts through digest" `Quick
            test_net_digest_counts;
          Alcotest.test_case "path walk on the machine-less net systems" `Quick
            test_net_path_walk;
          Alcotest.test_case "sleep sets refused on a net sut" `Quick
            test_net_sleep_sets_refused;
          Alcotest.test_case "machine savepoints: repeat restores, saved-over depths raise"
            `Quick test_machine_savepoints;
          Alcotest.test_case "evaluate replays faithfully" `Quick
            test_evaluate_matches_replay;
          Alcotest.test_case "kset_agreement refuses k > t when called" `Quick
            test_kset_refuses_k_above_t;
          Alcotest.test_case "kset_agreement reason on one line" `Quick
            test_kset_reason_one_line;
        ] );
    ]
