(* Tests for the coverage-guided fuzzer: RNG golden values (the
   reproduction contract starts at the bit level), mutator soundness,
   seed determinism, the seeded-bug hunt with its shrink-quality
   acceptance, ddmin 1-minimality on known counterexamples, and the
   [Generators.timely ?gap] splice contract under crash plans. *)

open Setsync_schedule
module Fault = Setsync_runtime.Fault
module Budget = Setsync_explore.Budget
module Property = Setsync_explore.Property
module Explorer = Setsync_explore.Explorer
module Shrink = Setsync_explore.Shrink
module Mutate = Setsync_fuzz.Mutate
module Corpus = Setsync_fuzz.Corpus
module Fuzz = Setsync_fuzz.Fuzz
module Fuzz_systems = Setsync_fuzz.Fuzz_systems
module Run = Setsync_runtime.Run
module Executor = Setsync_runtime.Executor
module Store = Setsync_memory.Store
module Systems = Setsync_explore.Systems
module Kanti_omega = Setsync_detector.Kanti_omega
module Problem = Setsync_agreement.Problem
module Adversary = Setsync_net.Adversary
module Net = Setsync_net.Net
module Msg = Setsync_net.Msg
module Net_systems = Setsync_net.Net_systems

let schedule = Alcotest.testable Schedule.pp Schedule.equal
let set = Procset.of_list
let to_list s = List.init (Schedule.length s) (Schedule.get s)

(* ------------------------------------------------------------------ *)
(* RNG golden values: the fuzz loop is a pure function of its seed, so
   the raw streams are pinned — any change to the generator is a
   reproduction break and must be deliberate. *)

let test_rng_golden_int64 () =
  let draw seed = List.init 4 (fun _ -> ()) |> fun l ->
    let t = Rng.create ~seed in
    List.map (fun () -> Rng.next_int64 t) l
  in
  Alcotest.(check (list int64))
    "seed 1 raw stream"
    [ 0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL; 0x71c18690ee42c90bL ]
    (draw 1);
  Alcotest.(check (list int64))
    "seed 42 raw stream"
    [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L ]
    (draw 42)

let test_rng_golden_derived () =
  let t = Rng.create ~seed:42 in
  Alcotest.(check (list int))
    "seed 42 int 100"
    [ 5; 91; 54; 60; 50; 50; 25; 96 ]
    (List.init 8 (fun _ -> Rng.int t 100));
  let t = Rng.create ~seed:7 in
  Alcotest.(check (list bool))
    "seed 7 bool"
    [ true; false; false; true; false; true; false; false ]
    (List.init 8 (fun _ -> Rng.bool t));
  let t = Rng.create ~seed:7 in
  Alcotest.(check (list string))
    "seed 7 float"
    [
      "0.38982974839127149"; "0.016788294528156111"; "0.90076068060688341";
      "0.58293029302807808";
    ]
    (List.init 4 (fun _ -> Printf.sprintf "%.17g" (Rng.float t)));
  let t = Rng.create ~seed:11 in
  Alcotest.(check (list int))
    "seed 11 geometric 0.35"
    [ 0; 0; 2; 1; 1; 1; 0; 3 ]
    (List.init 8 (fun _ -> Rng.geometric t 0.35))

let test_rng_geometric_args () =
  let t = Rng.create ~seed:1 in
  Alcotest.check_raises "p = 0 rejected"
    (Invalid_argument "Rng.geometric: need 0 < p <= 1") (fun () ->
      ignore (Rng.geometric t 0.));
  Alcotest.check_raises "p > 1 rejected"
    (Invalid_argument "Rng.geometric: need 0 < p <= 1") (fun () ->
      ignore (Rng.geometric t 1.5));
  Alcotest.(check int) "p = 1 always succeeds immediately" 0 (Rng.geometric t 1.)

(* ------------------------------------------------------------------ *)
(* Mutator soundness: every mutant [apply] produces respects [live],
   every declared contract, the length cap, and the crash budget —
   chained across many steps so mutants of mutants stay sound. *)

let test_mutator_soundness () =
  let contract = { Generators.p = set [ 0 ]; q = set [ 2 ]; bound = 2 } in
  let live p = p <> 3 in
  let env = Mutate.env ~live ~contracts:[ contract ] ~max_crashes:2 ~n:4 ~max_len:48 () in
  let rng = Rng.create ~seed:5 in
  let start =
    {
      Mutate.schedule = Source.take (Generators.timely ~live ~n:4 ~contract ~rng ()) 48;
      fault = [];
    }
  in
  Alcotest.(check bool) "start candidate valid" true (Mutate.valid env start);
  let names = Hashtbl.create 8 in
  let cand = ref start in
  for i = 1 to 300 do
    let name, mutant = Mutate.apply env rng !cand in
    Hashtbl.replace names name ();
    if not (Mutate.valid env mutant) then
      Alcotest.failf "mutant %d (%s) invalid: %a" i name Schedule.pp_full
        mutant.Mutate.schedule;
    cand := mutant
  done;
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "mutator %s exercised" name)
        true (Hashtbl.mem names name))
    Mutate.mutators

(* Golden pin for the seeded mutation chain: recorded against the
   List.nth-based contract-repair pass, so the array-backed pools in
   [Mutate.enforce_contract] are proven output-identical. *)
let test_mutate_golden () =
  let contract = { Generators.p = set [ 0; 1 ]; q = set [ 2; 3 ]; bound = 3 } in
  let env = Mutate.env ~contracts:[ contract ] ~max_crashes:2 ~n:4 ~max_len:32 () in
  let rng = Rng.create ~seed:2024 in
  let cand =
    ref
      {
        Mutate.schedule = Source.take (Generators.round_robin ~n:4 ()) 16;
        fault = [];
      }
  in
  let names = ref [] in
  for _ = 1 to 12 do
    let name, mutant = Mutate.apply env rng !cand in
    names := name :: !names;
    cand := mutant
  done;
  Alcotest.(check (list string)) "mutator names"
    [
      "regen-tail"; "dup-seg"; "regen-tail"; "dup-seg"; "swap"; "insert"; "regen-tail";
      "regen-tail"; "delete-seg"; "dup-seg"; "regen-tail"; "swap";
    ]
    (List.rev !names);
  Alcotest.(check (list int)) "final schedule"
    [ 0; 1; 1; 1; 0; 2; 1; 1; 1; 1; 1; 1; 1; 0; 0; 1; 0; 3; 1; 1; 0; 1 ]
    (Schedule.to_list !cand.Mutate.schedule);
  Alcotest.(check (list (pair int int))) "final fault" [] !cand.Mutate.fault

(* A longer chain under two contracts and a non-live process, recorded
   before the contract repair and the splice gap were read off the
   shared gap monitor. *)
let test_mutate_two_contract_golden () =
  let c1 = { Generators.p = set [ 0; 1 ]; q = set [ 2; 3 ]; bound = 3 } in
  let c2 = { Generators.p = set [ 1; 2 ]; q = set [ 0; 3 ]; bound = 4 } in
  let live p = p <> 4 in
  let env = Mutate.env ~live ~contracts:[ c1; c2 ] ~max_crashes:1 ~n:5 ~max_len:40 () in
  let rng = Rng.create ~seed:77 in
  let cand =
    ref
      {
        Mutate.schedule = Source.take (Generators.round_robin ~live ~n:5 ()) 20;
        fault = [];
      }
  in
  let names = ref [] in
  for _ = 1 to 16 do
    let name, mutant = Mutate.apply env rng !cand in
    names := name :: !names;
    cand := mutant
  done;
  Alcotest.(check (list string)) "mutator names"
    [
      "regen-tail"; "regen-tail"; "delete-seg"; "delete-seg"; "delete-seg"; "swap";
      "regen-tail"; "crash-shift"; "delete-seg"; "delete-seg"; "crash-shift";
      "crash-shift"; "crash-shift"; "regen-tail"; "dup-seg"; "dup-seg";
    ]
    (List.rev !names);
  Alcotest.(check (list int)) "final schedule"
    [
      1; 2; 2; 0; 2; 0; 2; 2; 0; 2; 0; 2; 2; 0; 2; 1; 2; 2; 0; 2; 3; 1; 3; 3; 1; 1; 1;
    ]
    (Schedule.to_list !cand.Mutate.schedule);
  Alcotest.(check (list (pair int int))) "final fault" [] !cand.Mutate.fault

(* Cross-check [Timeliness.holds]/[observed_bound] boundary agreement
   against the mutator's contract-repair pass: every repaired mutant
   satisfies its contract exactly when its observed bound is within
   the contract bound, and tightening the bound by one flips [holds]
   unless the schedule is strictly tighter than required. *)
let test_timeliness_boundary_vs_repair () =
  let contract = { Generators.p = set [ 0 ]; q = set [ 2 ]; bound = 3 } in
  let env = Mutate.env ~contracts:[ contract ] ~max_crashes:0 ~n:4 ~max_len:40 () in
  let rng = Rng.create ~seed:23 in
  let cand =
    ref
      {
        Mutate.schedule = Source.take (Generators.timely ~n:4 ~contract ~rng ()) 40;
        fault = [];
      }
  in
  let p = contract.Generators.p and q = contract.Generators.q in
  let saw_exact = ref 0 in
  for i = 1 to 200 do
    let name, mutant = Mutate.apply env rng !cand in
    let s = mutant.Mutate.schedule in
    let b = Timeliness.observed_bound ~p ~q s in
    if not (Timeliness.holds ~bound:contract.Generators.bound ~p ~q s) then
      Alcotest.failf "mutant %d (%s) violates the repaired contract" i name;
    if b > contract.Generators.bound then
      Alcotest.failf "mutant %d (%s): observed %d exceeds contract bound" i name b;
    (* boundary agreement on this concrete schedule *)
    Alcotest.(check bool) "holds at observed" true (Timeliness.holds ~bound:b ~p ~q s);
    if b > 1 then
      Alcotest.(check bool)
        "fails one below observed" false
        (Timeliness.holds ~bound:(b - 1) ~p ~q s);
    if b = contract.Generators.bound then incr saw_exact;
    cand := mutant
  done;
  (* the repair pass is not over-conservative: some mutants sit exactly
     on the contract boundary *)
  Alcotest.(check bool) "boundary is reached" true (!saw_exact > 0)

(* Crash plans produced by the crash-shift mutator stay within the
   budget, in range, with distinct processes. *)
let test_mutator_crash_plans () =
  let env = Mutate.env ~max_crashes:2 ~n:3 ~max_len:24 () in
  let rng = Rng.create ~seed:9 in
  let cand = ref { Mutate.schedule = Source.take (Generators.round_robin ~n:3 ()) 24; fault = [] } in
  let saw_crash = ref false in
  for _ = 1 to 300 do
    let _, mutant = Mutate.apply env rng !cand in
    let plan = mutant.Mutate.fault in
    if plan <> [] then saw_crash := true;
    Alcotest.(check bool) "within crash budget" true (List.length plan <= 2);
    Fault.validate ~n:3 plan;
    cand := mutant
  done;
  Alcotest.(check bool) "crash-shift actually adds crashes" true !saw_crash

(* ------------------------------------------------------------------ *)
(* Seed determinism: same seed, same corpus trajectory, same verdict —
   the whole report prints identically. *)

let test_seed_determinism () =
  let go () =
    let sut = Fuzz_systems.counter_core ~params:Fuzz_systems.default_params () in
    Fuzz.run ~progress_interval:0.
      ~limits:(Budget.limits ~max_states:50 ())
      ~sut
      ~properties:[ Fuzz_systems.winner_argmin () ]
      ~seed:42 ()
  in
  let r1 = go () and r2 = go () in
  Alcotest.(check string)
    "reports identical byte-for-byte"
    (Fmt.str "%a" Fuzz.pp_report r1)
    (Fmt.str "%a" Fuzz.pp_report r2);
  match (r1.Fuzz.outcome, r2.Fuzz.outcome) with
  | Fuzz.Violation v1, Fuzz.Violation v2 ->
      Alcotest.check schedule "found schedules equal" v1.Fuzz.found v2.Fuzz.found;
      Alcotest.check schedule "shrunk schedules equal" v1.Fuzz.shrunk v2.Fuzz.shrunk;
      Alcotest.(check int) "same finding exec" v1.Fuzz.exec v2.Fuzz.exec
  | _ -> Alcotest.fail "expected both runs to find the seeded bug"

(* Different seeds explore differently (not a guarantee in general,
   but a regression canary that the seed actually feeds the loop). *)
let test_seed_matters () =
  let go seed =
    let sut = Fuzz_systems.counter_core ~bug:false ~params:Fuzz_systems.default_params () in
    let r =
      Fuzz.run ~progress_interval:0.
        ~limits:(Budget.limits ~max_states:20 ())
        ~sut
        ~properties:[ Fuzz_systems.winner_argmin () ]
        ~seed ()
    in
    r.Fuzz.digests
  in
  Alcotest.(check bool) "digest counts differ across seeds" true (go 1 <> go 2)

(* The live progress view is the hunt's report as it stands: it shows
   [Passed] until the hunt ends (here, by finding the seeded bug), and
   its exec count only grows, up to the final report's. *)
let test_live_reports () =
  let sut = Fuzz_systems.counter_core ~params:Fuzz_systems.default_params () in
  let live = ref [] in
  let final =
    Fuzz.run ~progress_interval:1e-9
      ~on_progress:(fun r -> live := r :: !live)
      ~limits:(Budget.limits ~max_states:2_000 ())
      ~sut
      ~properties:[ Fuzz_systems.winner_argmin () ]
      ~seed:42 ()
  in
  let live = List.rev !live in
  Alcotest.(check bool) "on_progress called" true (live <> []);
  (match final.Fuzz.outcome with
  | Fuzz.Violation _ -> ()
  | Fuzz.Passed -> Alcotest.fail "expected the hunt to find the seeded bug");
  ignore
    (List.fold_left
       (fun prev (r : Fuzz.report) ->
         if r.Fuzz.outcome <> Fuzz.Passed then Alcotest.fail "a live report shows a violation";
         if r.Fuzz.execs < prev then
           Alcotest.failf "live execs fell from %d to %d" prev r.Fuzz.execs;
         if r.Fuzz.execs > final.Fuzz.execs then
           Alcotest.failf "live execs %d above the final %d" r.Fuzz.execs final.Fuzz.execs;
         r.Fuzz.execs)
       0 live)

(* ------------------------------------------------------------------ *)
(* The acceptance hunt: with the documented seed (42) and budget, the
   fuzzer finds the planted argmin off-by-one, the shrunk
   counterexample has at most 15 steps, still violates on exact
   replay, and the faithful control finds nothing. *)

let test_seeded_bug_found_and_shrunk () =
  let sut = Fuzz_systems.counter_core ~params:Fuzz_systems.default_params () in
  let property = Fuzz_systems.winner_argmin () in
  let report =
    Fuzz.run ~progress_interval:0. ~len:96
      ~limits:(Budget.limits ~max_states:2_000 ())
      ~sut ~properties:[ property ] ~seed:42 ()
  in
  match report.Fuzz.outcome with
  | Fuzz.Passed -> Alcotest.fail "seeded bug not found within 2000 execs at seed 42"
  | Fuzz.Violation v ->
      Alcotest.(check string) "property" "winner-argmin" v.Fuzz.property;
      Alcotest.(check bool)
        (Fmt.str "shrunk to <= 15 steps (got %d)" (Schedule.length v.Fuzz.shrunk))
        true
        (Schedule.length v.Fuzz.shrunk <= 15);
      Alcotest.(check bool) "shrunk still violates on exact replay" true
        (Explorer.check_schedule ~sut ~property ~fault:v.Fuzz.fault v.Fuzz.shrunk <> None)

let test_fixed_control_passes () =
  let sut = Fuzz_systems.counter_core ~bug:false ~params:Fuzz_systems.default_params () in
  let report =
    Fuzz.run ~progress_interval:0. ~len:96
      ~limits:(Budget.limits ~max_states:300 ())
      ~sut
      ~properties:[ Fuzz_systems.winner_argmin () ]
      ~seed:42 ()
  in
  (match report.Fuzz.outcome with
  | Fuzz.Passed -> ()
  | Fuzz.Violation v ->
      Alcotest.failf "faithful control violated winner-argmin: %s" v.Fuzz.reason);
  Alcotest.(check int) "full budget spent" 300 report.Fuzz.execs

(* ------------------------------------------------------------------ *)
(* Shrinker quality: on known counterexamples the ddmin output still
   violates and is 1-minimal (deleting any single step loses the
   violation). *)

let test_shrink_quality () =
  let sut = Fuzz_systems.counter_core ~params:Fuzz_systems.default_params () in
  let property = Fuzz_systems.winner_argmin () in
  let violates s = Explorer.check_schedule ~sut ~property s <> None in
  let known =
    [
      (* the minimal trace plus leading/trailing noise of process 0 *)
      Schedule.of_list ~n:2 [ 0; 0; 0; 1; 1; 1; 1; 1; 1; 1; 1; 0 ];
      (* the same 8 steps of process 1 interleaved with process 0
         (too few p0 steps to complete an expiry write) *)
      Schedule.of_list ~n:2 [ 0; 1; 1; 0; 1; 1; 1; 0; 1; 1; 1; 0 ];
    ]
  in
  List.iteri
    (fun i ce ->
      Alcotest.(check bool) (Fmt.str "ce%d violates" i) true (violates ce);
      let r = Shrink.run ~violates ce in
      let s = r.Shrink.schedule in
      Alcotest.(check bool) (Fmt.str "ce%d shrunk still violates" i) true (violates s);
      let steps = to_list s in
      List.iteri
        (fun j _ ->
          let shorter =
            Schedule.of_list ~n:2 (List.filteri (fun idx _ -> idx <> j) steps)
          in
          if violates shorter then
            Alcotest.failf "ce%d shrunk not 1-minimal: step %d removable" i j)
        steps)
    known

(* ------------------------------------------------------------------ *)
(* [Generators.timely ?gap]: suffixes regenerated with the open-gap
   count splice onto a prefix without breaching the contract at the
   seam. *)

let test_timely_gap_splice () =
  let contract = { Generators.p = set [ 0 ]; q = set [ 2 ]; bound = 2 } in
  let prefix = Schedule.of_list ~n:3 [ 0; 1; 2 ] in
  (* open gap after the prefix: 1 q-step since the last p-step *)
  let rng = Rng.create ~seed:3 in
  let suffix = Source.take (Generators.timely ~gap:1 ~n:3 ~contract ~rng ()) 64 in
  let full = Schedule.append prefix suffix in
  for l = 1 to Schedule.length full do
    if
      not
        (Timeliness.holds ~bound:contract.Generators.bound ~p:contract.Generators.p
           ~q:contract.Generators.q (Schedule.prefix full l))
    then Alcotest.failf "contract breached at prefix length %d" l
  done;
  (* gap = bound - 1 forces the very first emissions to close the gap:
     the suffix must reach a p-step before any q-step *)
  let rng = Rng.create ~seed:3 in
  let tight = Source.take (Generators.timely ~gap:1 ~n:3 ~contract ~rng ()) 64 in
  let rec first_pq = function
    | [] -> None
    | s :: rest ->
        if Procset.mem s contract.Generators.p then Some `P
        else if Procset.mem s contract.Generators.q then Some `Q
        else first_pq rest
  in
  Alcotest.(check bool) "gap = bound-1: p arrives before q" true
    (first_pq (to_list tight) <> Some `Q);
  Alcotest.check_raises "negative gap rejected"
    (Invalid_argument "Generators.timely: negative gap") (fun () ->
      ignore (Generators.timely ~gap:(-1) ~n:3 ~contract ~rng ()))

(* Crash plans: with [crash_after] flipping [live] mid-run, emitted
   prefixes stay inside the promised S^i_{j,n} and dead processes
   never take another step. *)

let test_timely_under_crashes () =
  (* n = 4: processes 0,1 are the timely set, 2 is the observed set,
     3 is a bystander that keeps the system alive after p crashes *)
  let contract = { Generators.p = set [ 0; 1 ]; q = set [ 2 ]; bound = 2 } in
  let check plan ~len =
    let live, observe = Generators.crash_after ~n:4 plan in
    let rng = Rng.create ~seed:13 in
    let src = Generators.timely ~live ~n:4 ~contract ~rng () in
    let steps = Array.make 4 0 in
    let taken = ref [] in
    (try
       for _ = 1 to len do
         match Source.next src with
         | None -> raise Exit
         | Some p ->
             if not (live p) then Alcotest.failf "dead process %d scheduled" p;
             steps.(p) <- steps.(p) + 1;
             ignore (observe p steps.(p));
             taken := p :: !taken
       done
     with Exit -> ());
    let s = Schedule.of_list ~n:4 (List.rev !taken) in
    for l = 1 to Schedule.length s do
      if
        not
          (Timeliness.holds ~bound:contract.Generators.bound ~p:contract.Generators.p
             ~q:contract.Generators.q (Schedule.prefix s l))
      then Alcotest.failf "contract breached at prefix length %d" l
    done;
    s
  in
  (* one member of p crashes: the other carries the contract *)
  let s = check [ (0, 5) ] ~len:200 in
  Alcotest.(check int) "process 0 stopped at its budget" 5 (Schedule.occurrences s 0);
  Alcotest.(check bool) "process 1 keeps the contract alive" true
    (Schedule.occurrences s 1 > 0);
  (* all of p crashes: the generator must stop scheduling q (beyond
     filling the still-open gap to bound - 1) so every prefix stays
     inside the contract *)
  let s = check [ (0, 4); (1, 7) ] ~len:200 in
  let after_deaths =
    (* steps taken after both p-members are gone *)
    let l = to_list s in
    let rec drop c0 c1 = function
      | [] -> []
      | x :: rest ->
          let c0 = if x = 0 then c0 + 1 else c0 in
          let c1 = if x = 1 then c1 + 1 else c1 in
          if c0 >= 4 && c1 >= 7 then rest else drop c0 c1 rest
    in
    drop 0 0 l
  in
  let q_after =
    List.length (List.filter (fun x -> Procset.mem x contract.Generators.q) after_deaths)
  in
  Alcotest.(check bool)
    (Fmt.str "at most bound-1 q-steps once p is extinct (got %d)" q_after)
    true
    (q_after <= contract.Generators.bound - 1);
  Alcotest.(check bool) "scheduling continues after p is extinct" true
    (List.length after_deaths > 10)

(* ------------------------------------------------------------------ *)
(* Corpus bookkeeping: novelty ranking, eviction, deterministic picks. *)

(* The filter takes integer keys; these tests note string digests
   through a 62-bit multiplicative fold. *)
let note_digest c d =
  let h = ref 5381 in
  String.iter (fun ch -> h := (!h * 33) lxor Char.code ch) d;
  Corpus.note_hash c !h

let test_corpus () =
  let c = Corpus.create ~max_entries:2 () in
  Alcotest.(check bool) "fresh digest is novel" true (note_digest c "a");
  Alcotest.(check bool) "repeat digest is not" false (note_digest c "a");
  Alcotest.(check int) "digest count" 1 (Corpus.digests c);
  let cand i = { Mutate.schedule = Schedule.of_list ~n:2 [ i mod 2 ]; fault = [] } in
  Corpus.add c ~novelty:0 (cand 0);
  Alcotest.(check bool) "novelty 0 not kept" true (Corpus.is_empty c);
  Corpus.add c ~novelty:1 (cand 0);
  Corpus.add c ~novelty:5 (cand 1);
  Corpus.add c ~novelty:3 (cand 0);
  Alcotest.(check int) "eviction holds the cap" 2 (Corpus.size c);
  (* rank bias: the high-novelty entry dominates picks *)
  let rng = Rng.create ~seed:1 in
  let top = ref 0 in
  for _ = 1 to 100 do
    let p = Corpus.pick c rng in
    if Schedule.get p.Mutate.schedule 0 = 1 then incr top
  done;
  Alcotest.(check bool) "picks skew toward high novelty" true (!top > 50)

(* At-capacity accounting: a better candidate displaces the worst
   (eviction), a candidate ranking at or below the worst is dropped
   (rejection) — the old list implementation silently conflated the
   two. The surviving entries and their order are pinned. *)
let test_corpus_capacity_counters () =
  let c = Corpus.create ~max_entries:2 () in
  let cand i = { Mutate.schedule = Schedule.of_list ~n:4 [ i mod 4 ]; fault = [] } in
  Corpus.add c ~novelty:5 (cand 0);
  Corpus.add c ~novelty:3 (cand 1);
  Alcotest.(check int) "no eviction below capacity" 0 (Corpus.evictions c);
  Corpus.add c ~novelty:3 (cand 2);
  (* ties with the worst -> newcomer ranks after it -> rejected *)
  Alcotest.(check int) "tie with worst is rejected" 1 (Corpus.rejections c);
  Alcotest.(check int) "rejection does not evict" 0 (Corpus.evictions c);
  Corpus.add c ~novelty:4 (cand 3);
  Alcotest.(check int) "better candidate evicts the worst" 1 (Corpus.evictions c);
  Alcotest.(check int) "size stays at capacity" 2 (Corpus.size c);
  (* deterministic rank order: rng always drawing rank 0 then rank 1 *)
  let rng = Rng.create ~seed:3 in
  let ranks = ref [] in
  for _ = 1 to 200 do
    let p = Corpus.pick c rng in
    ranks := Schedule.get p.Mutate.schedule 0 :: !ranks
  done;
  let seen = List.sort_uniq compare !ranks in
  Alcotest.(check (list int)) "survivors are novelty 5 and 4" [ 0; 3 ] seen

(* The digest filter is fixed-size: noting far more digests than the
   old hashtable could hold leaves the corpus at constant memory, the
   filter starts forgetting (deterministically), and the novelty
   signal stays monotone. *)
let test_digest_filter_bounded () =
  let c = Corpus.create ~digest_slots:1024 () in
  let novel = ref 0 in
  for i = 1 to 100_000 do
    if note_digest c (Printf.sprintf "digest-%d" i) then incr novel
  done;
  Alcotest.(check int) "every distinct digest reads as novel" 100_000 !novel;
  Alcotest.(check int) "coverage count matches" 100_000 (Corpus.digests c);
  Alcotest.(check bool) "the bounded filter forgot digests" true
    (Corpus.digest_evictions c > 0);
  (* the whole corpus stays near the slot-array size: ~1k slots plus
     bookkeeping, where the unbounded table held 100k digest strings
     (> 400k words). [Obj.reachable_words] counts every live word. *)
  let words = Obj.reachable_words (Obj.repr c) in
  Alcotest.(check bool)
    (Fmt.str "constant memory (%d words)" words)
    true (words < 10_000);
  (* repeats within the live window are still deduplicated *)
  Alcotest.(check bool) "fresh repeat is not novel" true
    (note_digest c "again" && not (note_digest c "again"))

(* Below its cap the growing filter is an exact set: it answers every
   [note_hash] as a fixed-size table that never saturates does (here
   a 256-slot table, where the growing one starts), and as an exact
   hashtable does over a run of 12,000 distinct digests, forgetting
   none. A hunt-sized run holds a table of a few thousand slots, not
   the cap's 65,536. *)
let test_digest_filter_growth () =
  let digest i = Digest.string (string_of_int i) in
  let stream ~distinct len =
    let rng = Random.State.make [| distinct |] in
    List.init len (fun i -> digest (if i < distinct then i else Random.State.int rng distinct))
  in
  let growing = Corpus.create () and fixed = Corpus.create ~digest_slots:256 () in
  List.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "digest %d: as the fixed table" i)
        (note_digest fixed d) (note_digest growing d))
    (stream ~distinct:100 400);
  Alcotest.(check int) "fixed table never saturated" 0 (Corpus.digest_evictions fixed);
  Alcotest.(check int) "same digest count" (Corpus.digests fixed) (Corpus.digests growing);
  let growing = Corpus.create () and exact = Hashtbl.create 1024 in
  List.iteri
    (fun i d ->
      let novel = not (Hashtbl.mem exact d) in
      Hashtbl.replace exact d ();
      if novel <> note_digest growing d then
        Alcotest.failf "digest %d: the growing filter answered %b" i (not novel))
    (stream ~distinct:12_000 30_000);
  Alcotest.(check int) "every distinct digest counted" 12_000 (Corpus.digests growing);
  Alcotest.(check int) "nothing forgotten below the cap" 0 (Corpus.digest_evictions growing);
  let hunt = Corpus.create () in
  List.iter (fun d -> ignore (note_digest hunt d)) (stream ~distinct:753 2_000);
  let words = Obj.reachable_words (Obj.repr hunt) in
  Alcotest.(check bool) (Fmt.str "hunt-sized filter (%d words)" words) true (words < 4_096)

(* ------------------------------------------------------------------ *)
(* The hunt session: every run of a hunt steps one live machine
   instance restored to its initial savepoint. It must agree, state for
   state, with a fresh fiber instance replayed through the executor —
   digests and run records (taken steps, crash indices, halted set,
   reason) — under skips of crashed processes and stalls too. *)

let run_line (r : Run.t) =
  Fmt.str "taken=%a crashes=%a halted=%a reason=%a steps=%a"
    Fmt.(list ~sep:nop int)
    (Schedule.to_list r.Run.taken)
    Fmt.(list ~sep:sp (pair ~sep:(any "@") int int))
    r.Run.crashes Procset.pp r.Run.halted Run.pp_reason r.Run.reason
    Fmt.(array ~sep:sp int)
    r.Run.steps_of

(* every probed state, then the final one, as digest + run record *)
let probe_lines ~sut trajectory =
  let lines = ref [] in
  let line (st : _ Explorer.state) =
    Digest.to_hex (Explorer.digest ~sut st) ^ " " ^ run_line st.Explorer.run
  in
  let final =
    trajectory ~on_state:(fun st ->
        lines := line st :: !lines;
        false)
  in
  List.rev (("final " ^ line final) :: !lines)

let same_as_fresh ~label ~sut ~session ~properties ~fault schedule =
  let fresh =
    probe_lines ~sut (fun ~on_state -> Explorer.trajectory ~sut ~fault ~on_state schedule)
  in
  let live =
    probe_lines ~sut (fun ~on_state ->
        Explorer.Session.trajectory session ~fault ~on_state schedule)
  in
  Alcotest.(check (list string)) (label ^ ": states") fresh live;
  List.iter
    (fun (p : _ Property.t) ->
      Alcotest.(check (option string))
        (label ^ ": check_schedule " ^ p.Property.name)
        (Explorer.check_schedule ~sut ~property:p ~fault schedule)
        (Explorer.Session.check_schedule session ~property:p ~fault schedule))
    properties

(* A session system: the sut, its properties, and a crash plan. *)
type 'o system = {
  name : string;
  sut : 'o Explorer.sut;
  properties : 'o Explorer.state Property.t list;
  fault : Fault.plan;
}

let session_checks sys =
  let n = sys.sut.Explorer.n in
  let session = Explorer.Session.create ~sut:sys.sut in
  Alcotest.(check bool) (sys.name ^ ": runs on the machine") true
    (Explorer.Session.on_machine session);
  let check label ?(fault = sys.fault) schedule =
    same_as_fresh ~label:(sys.name ^ " " ^ label) ~sut:sys.sut ~session
      ~properties:sys.properties ~fault schedule
  in
  (* a long fair run that keeps naming the crashed process *)
  check "fair, crashed process named"
    (Source.take (Generators.random_fair ~n ~rng:(Rng.create ~seed:5) ()) 300);
  (* p1 crashes at its third step; the schedule then names only p1, so
     the replay skips more than 64n entries in a row and stalls *)
  let stall = Schedule.of_list ~n ([ 0; 1; 2; 1; 1 ] @ List.init ((64 * n) + 8) (fun _ -> 1)) in
  check "stall" ~fault:[ (1, 3) ] stall;
  let final =
    Explorer.Session.trajectory session ~fault:[ (1, 3) ] ~on_state:(fun _ -> false) stall
  in
  Alcotest.(check bool) (sys.name ^ ": the run stalled") true
    (final.Explorer.run.Run.reason = Run.Stalled);
  (* one session across 200 random schedules and crash plans: a
     savepoint that forgot some state would leak one run into the next *)
  let rng = Rng.create ~seed:77 in
  for i = 1 to 200 do
    let len = 1 + Rng.int rng 120 in
    let fault = if Rng.bool rng then [] else [ (Rng.int rng n, Rng.int rng 40) ] in
    check (Printf.sprintf "random schedule %d" i) ~fault
      (Source.take (Generators.random_fair ~n ~rng ()) len)
  done

let key_matches_digest sys =
  let n = sys.sut.Explorer.n in
  let session = Explorer.Session.create ~sut:sys.sut in
  let by_key = Hashtbl.create 1024 and by_digest = Hashtbl.create 1024 in
  let note (st : _ Explorer.state) =
    let key = Explorer.Session.key session st and digest = Explorer.digest ~sut:sys.sut st in
    (match Hashtbl.find_opt by_key key with
    | Some d when d <> digest -> Alcotest.failf "%s: one key for two digests" sys.name
    | Some _ -> ()
    | None -> Hashtbl.add by_key key digest);
    match Hashtbl.find_opt by_digest digest with
    | Some k when k <> key -> Alcotest.failf "%s: one digest under two keys" sys.name
    | Some _ -> ()
    | None -> Hashtbl.add by_digest digest key
  in
  let rng = Rng.create ~seed:31 in
  for _ = 1 to 150 do
    let len = 1 + Rng.int rng 150 in
    let fault =
      List.sort_uniq compare
        (List.filter_map
           (fun p -> if Rng.int rng 3 = 0 then Some (p, Rng.int rng 30) else None)
           (List.init n Fun.id))
    in
    let fault = if List.length fault >= n then List.tl fault else fault in
    let final =
      Explorer.Session.trajectory session ~fault
        ~on_state:(fun st ->
          note st;
          false)
        (Source.take (Generators.random_fair ~n ~rng ()) len)
    in
    note final
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%s: many distinct states (%d)" sys.name (Hashtbl.length by_key))
    true
    (Hashtbl.length by_key > 100)

(* A stream of candidates as ddmin and the fuzz loop issue them —
   deleted segments, two crash plans, every safety property, with
   trajectories in between — checked through one resuming session
   gets, candidate by candidate, the verdict of a fresh
   [Explorer.check_schedule]. *)
let resume_matches_fresh sys =
  let n = sys.sut.Explorer.n in
  let session = Explorer.Session.create ~sut:sys.sut in
  let same label ~property ~fault s =
    Alcotest.(check (option string))
      (Printf.sprintf "%s: %s %s" sys.name label property.Property.name)
      (Explorer.check_schedule ~sut:sys.sut ~property ~fault s)
      (Explorer.Session.check_schedule session ~property ~fault s)
  in
  let rng = Rng.create ~seed:13 in
  let delete s =
    let l = to_list s in
    let len = List.length l in
    if len < 2 then s
    else
      let pos = Rng.int rng len in
      let cut = 1 + Rng.int rng (max 1 ((len - pos) / 2)) in
      Schedule.of_list ~n (List.filteri (fun i _ -> i < pos || i >= pos + cut) l)
  in
  let safety = List.filter (fun (p : _ Property.t) -> p.Property.kind = Property.Safety) sys.properties in
  List.iter
    (fun fault ->
      let base = Source.take (Generators.random_fair ~n ~rng ()) 150 in
      let cand = ref base in
      for i = 1 to 150 do
        cand := if Rng.int rng 4 = 0 then delete base else delete !cand;
        List.iter (fun property -> same (Printf.sprintf "candidate %d" i) ~property ~fault !cand) safety;
        if i mod 10 = 0 then
          ignore
            (Explorer.Session.trajectory session ~fault ~on_state:(fun _ -> false) !cand)
      done)
    [ sys.fault; [] ];
  (* a real ddmin run: every test the shrinker makes *)
  match safety with
  | [] -> ()
  | property :: _ -> (
      let r =
        Fuzz.run ~progress_interval:0. ~len:96
          ~limits:(Budget.limits ~max_states:2_000 ())
          ~sut:sys.sut ~properties:[ property ] ~seed:1 ()
      in
      match r.Fuzz.outcome with
      | Fuzz.Passed -> ()
      | Fuzz.Violation v ->
          let fault = v.Fuzz.fault in
          let violates s =
            let fresh = Explorer.check_schedule ~sut:sys.sut ~property ~fault s in
            let live = Explorer.Session.check_schedule session ~property ~fault s in
            Alcotest.(check (option string)) (sys.name ^ ": ddmin test") fresh live;
            live <> None
          in
          let shrunk = Shrink.run ~violates v.Fuzz.found in
          Alcotest.(check int) (sys.name ^ ": same shrink") v.Fuzz.shrink_tests shrunk.Shrink.tests)

let counter_core_system () =
  {
    name = "counter core n=3";
    sut = Fuzz_systems.counter_core ~params:{ Kanti_omega.n = 3; t = 2; k = 1 } ();
    properties = [ Fuzz_systems.winner_argmin () ];
    fault = [ (2, 40) ];
  }

let detector_system () =
  {
    name = "figure 2 n=3";
    sut = Systems.kanti_detector ~params:{ Kanti_omega.n = 3; t = 1; k = 1 } ();
    properties = [];
    fault = [ (0, 25) ];
  }

let kset_system () =
  let problem = Problem.make ~t:1 ~k:1 ~n:3 in
  let inputs = Problem.distinct_inputs problem in
  let decisions st = st.Explorer.obs.Systems.decisions in
  {
    name = "kset n=3";
    sut = Systems.kset_agreement ~problem ~inputs ();
    properties = [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ];
    fault = [ (1, 30) ];
  }

(* Blind k-set gossip over the BRS partition: no machine form, so
   every run builds a fresh instance and the net substrate adds its
   own entries to the key. *)
let blind_kset_system ~gst =
  let inputs = Array.init 3 (fun p -> 10 * p) in
  let decisions st = st.Explorer.obs.Systems.decisions in
  {
    name = Printf.sprintf "blind kset n=3 gst=%d" gst;
    sut =
      Net_systems.kset_blind ~inputs
        ~adversary:(Adversary.brs_kset ~delta:1 ~gst ~n:3 ~k:1)
        ();
    properties = [ Property.kset_agreement ~k:1 ~decisions ];
    fault = [ (1, 12) ];
  }

let test_session_keys () =
  key_matches_digest (counter_core_system ());
  key_matches_digest (detector_system ());
  key_matches_digest (kset_system ())

let test_session_keys_machine_less () =
  key_matches_digest (blind_kset_system ~gst:0);
  key_matches_digest (blind_kset_system ~gst:1_000_000)

(* A key depends on the state alone, never on the instance holding it:
   a closure or a locally defined exception in a register or the
   observation would hash differently per instance (and per process).
   Two sessions, the second sent along other schedules in between, key
   the same schedules alike. *)
let keys_across_sessions sys =
  let n = sys.sut.Explorer.n in
  let a = Explorer.Session.create ~sut:sys.sut and b = Explorer.Session.create ~sut:sys.sut in
  let keys session ~fault schedule =
    let keys = ref [] in
    let key st = keys := Explorer.Session.key session st :: !keys in
    key
      (Explorer.Session.trajectory session ~fault
         ~on_state:(fun st ->
           key st;
           false)
         schedule);
    List.rev !keys
  in
  let rng = Rng.create ~seed:41 in
  for i = 1 to 30 do
    ignore (keys b ~fault:[] (Source.take (Generators.random_fair ~n ~rng ()) (1 + Rng.int rng 60)));
    let fault = if Rng.bool rng then [] else sys.fault in
    let schedule = Source.take (Generators.random_fair ~n ~rng ()) (1 + Rng.int rng 120) in
    Alcotest.(check (list int))
      (Printf.sprintf "%s: schedule %d" sys.name i)
      (keys a ~fault schedule) (keys b ~fault schedule)
  done

let test_keys_across_sessions () =
  keys_across_sessions (counter_core_system ());
  keys_across_sessions (kset_system ());
  keys_across_sessions (blind_kset_system ~gst:1_000_000)

(* p2 sends p1 the values 1..7 and then [last], and pauses; p1 never
   steps, so its inbox fills up. *)
let inbox_sut ~last =
  {
    Explorer.n = 2;
    fresh =
      (fun ~store ->
        let net = Net.create ~store ~n:2 ~adversary:(Adversary.synchronous ~delta:1) () in
        let body p () =
          if p = 1 then
            for i = 1 to 12 do
              if i <= 8 then Net.send net ~dst:0 (Msg.Value (if i = 8 then last else i))
              else Net.pause net
            done
        in
        { Explorer.body; observe = ignore; substrate = Some (Net.substrate net); machine = None });
    obs_fingerprint = (fun () -> "");
  }

(* Keys reach the end of every long value: two states that differ only
   in the last entry of the counter core's [iterations] at n=9, or in
   the last of eight messages in an inbox, get different keys, as they
   get different digests. *)
let test_key_reach () =
  let params = { Kanti_omega.n = 9; t = 8; k = 1 } in
  let sut = Fuzz_systems.counter_core ~params () in
  let session = Explorer.Session.create ~sut in
  let probed = ref 0 in
  ignore
    (Explorer.Session.trajectory session
       ~on_state:(fun st ->
         let o = st.Explorer.obs in
         let iterations = Array.copy o.Fuzz_systems.iterations in
         iterations.(8) <- iterations.(8) + 1;
         let other = { st with Explorer.obs = { o with Fuzz_systems.iterations } } in
         Alcotest.(check bool) "digests differ" true
           (Explorer.digest ~sut st <> Explorer.digest ~sut other);
         Alcotest.(check bool)
           (Printf.sprintf "counter core n=9: keys differ at depth %d" st.Explorer.depth)
           true
           (Explorer.Session.key session st <> Explorer.Session.key session other);
         incr probed;
         false)
       (Source.take (Generators.random_fair ~n:9 ~rng:(Rng.create ~seed:4) ()) 200));
  Alcotest.(check int) "every state probed" 201 !probed;
  let p2_only = Schedule.of_list ~n:2 (List.init 12 (fun _ -> 1)) in
  let run last =
    let sut = inbox_sut ~last in
    let session = Explorer.Session.create ~sut in
    let states = ref [] in
    ignore
      (Explorer.Session.trajectory session
         ~on_state:(fun st ->
           states := (Explorer.Session.key session st, Explorer.digest ~sut st) :: !states;
           false)
         p2_only);
    List.rev !states
  in
  let a = run 100 and b = run 200 in
  List.iteri
    (fun depth ((ka, da), (kb, db)) ->
      Alcotest.(check bool)
        (Printf.sprintf "inbox: keys split as digests do at depth %d" depth)
        (da = db) (ka = kb);
      Alcotest.(check bool) (Printf.sprintf "inbox: state %d" depth) (depth < 8) (da = db))
    (List.combine a b);
  let st = Explorer.evaluate ~sut:(inbox_sut ~last:0) p2_only in
  let inbox = List.assoc "Inbox[0]" (Lazy.force st.Explorer.snapshot) in
  Alcotest.(check int) "eight messages in the inbox" 8
    (List.length (String.split_on_char '#' inbox) - 1)

let test_session_resume () =
  resume_matches_fresh (counter_core_system ());
  resume_matches_fresh (kset_system ())

let test_session_counter_core () = session_checks (counter_core_system ())

let test_session_detector () = session_checks (detector_system ())

let test_session_kset () = session_checks (kset_system ())

(* A state's run views its tally's executed-steps buffer, and its
   prefix views the probed schedule. Savepoint restores rewind the
   tally under those views; the frozen runs must not see the steps
   written after a rewind. A spy property records every state one
   session probes — trajectories, and checks of random-deletion
   candidates that restore savepoints — and each is compared, after all
   the runs, with a fresh replay of its prefix. *)
let test_frozen_runs_never_change () =
  let sys = counter_core_system () in
  let n = sys.sut.Explorer.n in
  let session = Explorer.Session.create ~sut:sys.sut in
  let seen = ref [] in
  let record st = seen := st :: !seen in
  let spy =
    Property.safety ~name:"spy" (fun st ->
        record st;
        None)
  in
  let states = ref [] in
  let rng = Rng.create ~seed:23 in
  List.iter
    (fun fault ->
      seen := [];
      let base = Source.take (Generators.random_fair ~n ~rng ()) 120 in
      let cand = ref base in
      for i = 1 to 40 do
        let l = to_list (if Rng.int rng 4 = 0 then base else !cand) in
        let len = List.length l in
        let pos = Rng.int rng (max 1 len) in
        let cut = 1 + Rng.int rng (max 1 ((len - pos) / 3)) in
        cand := Schedule.of_list ~n (List.filteri (fun i _ -> i < pos || i >= pos + cut) l);
        ignore (Explorer.Session.check_schedule session ~property:spy ~fault !cand);
        if i mod 8 = 0 then
          record
            (Explorer.Session.trajectory session ~fault
               ~on_state:(fun st ->
                 record st;
                 false)
               !cand)
      done;
      states := List.map (fun st -> (fault, st)) !seen @ !states)
    [ sys.fault; [] ];
  Alcotest.(check bool)
    (Printf.sprintf "many probed states (%d)" (List.length !states))
    true
    (List.length !states > 4_000);
  List.iter
    (fun (fault, (st : _ Explorer.state)) ->
      let fresh = Explorer.evaluate ~sut:sys.sut ~fault st.Explorer.prefix in
      Alcotest.check schedule "prefix" fresh.Explorer.prefix st.Explorer.prefix;
      Alcotest.(check string) "run" (run_line fresh.Explorer.run) (run_line st.Explorer.run))
    !states

(* Probing a state costs O(n) words on a session, whatever the length
   of the schedule: the state's prefix and run share arrays, and its
   snapshot is rendered only on demand. [Gc.allocated_bytes] rather
   than [minor_words]: arrays over 256 words bypass the minor heap.
   Each reading follows a minor collection, which brings the counters
   up to date. *)
let test_words_per_probed_state () =
  let sut = Fuzz_systems.counter_core ~bug:false ~params:{ Kanti_omega.n = 3; t = 2; k = 1 } () in
  let session = Explorer.Session.create ~sut in
  let argmin = Fuzz_systems.winner_argmin () in
  let probes = ref 0 in
  let property =
    { argmin with Property.check = (fun st -> incr probes; argmin.Property.check st) }
  in
  let words_per_state len =
    let schedules =
      List.init 6 (fun seed ->
          Source.take (Generators.random_fair ~n:3 ~rng:(Rng.create ~seed:(seed + 1)) ()) len)
    in
    (* the first check builds the session's track *)
    ignore (Explorer.Session.check_schedule session ~property (List.hd schedules));
    probes := 0;
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    List.iter
      (fun s ->
        Alcotest.(check (option string)) "clean" None
          (Explorer.Session.check_schedule session ~property s))
      (List.tl schedules);
    Gc.minor ();
    let bytes = Gc.allocated_bytes () -. before in
    bytes /. float_of_int (Sys.word_size / 8) /. float_of_int !probes
  in
  let short = words_per_state 96 and long = words_per_state 384 in
  Alcotest.(check bool)
    (Printf.sprintf "words per state: %.0f at length 96, %.0f at length 384" short long)
    true
    (long <= 1.25 *. short && short <= 1.25 *. long)

(* A session state's snapshot is rendered from the live instance when
   forced, so forcing it once the session has moved on raises; states
   that are still current digest as a fresh replay does. *)
let test_stale_snapshots_raise () =
  let sys = counter_core_system () in
  let n = sys.sut.Explorer.n in
  let session = Explorer.Session.create ~sut:sys.sut in
  let digest st = Explorer.digest ~sut:sys.sut st in
  let stale label st =
    match digest st with
    | _ -> Alcotest.failf "%s: a stale snapshot was rendered" label
    | exception Invalid_argument _ -> ()
  in
  let schedule = Source.take (Generators.random_fair ~n ~rng:(Rng.create ~seed:3) ()) 40 in
  let early = ref None in
  let final =
    Explorer.Session.trajectory session
      ~on_state:(fun st ->
        if st.Explorer.depth = 5 then early := Some st;
        false)
      schedule
  in
  stale "earlier in the run" (Option.get !early);
  let next = Explorer.Session.trajectory session ~on_state:(fun _ -> false) schedule in
  stale "an earlier run's final state" final;
  let fresh = Explorer.evaluate ~sut:sys.sut next.Explorer.prefix in
  Alcotest.(check string) "the current final state" (digest fresh) (digest next);
  let probed = ref None in
  let spy =
    Property.safety ~name:"spy" (fun (st : _ Explorer.state) ->
        if st.Explorer.depth = 20 then probed := Some st;
        None)
  in
  ignore (Explorer.Session.check_schedule session ~property:spy schedule);
  ignore (Explorer.Session.check_schedule session ~property:spy (Schedule.prefix schedule 30));
  stale "a probed state after a savepoint restore" (Option.get !probed)

(* counter_core's fiber form is its machine step looped over
   [Machine.fiber]: driving one instance by fibers through the executor
   and a second by machine steps, the stores and observations agree
   after every step of long seeded runs, crashes included. *)
let test_counter_core_forms_agree () =
  let obs_text (o : Fuzz_systems.obs) =
    Fmt.str "%a|%a|%a|%a"
      Fmt.(array ~sep:comma int)
      o.Fuzz_systems.chosen
      Fmt.(array ~sep:comma int)
      o.Fuzz_systems.chosen_acc
      Fmt.(array ~sep:comma int)
      o.Fuzz_systems.min_acc
      Fmt.(array ~sep:comma int)
      o.Fuzz_systems.iterations
  in
  List.iter
    (fun (bug, (params : Kanti_omega.params), seed, fault) ->
      let label =
        Printf.sprintf "bug=%b n=%d t=%d k=%d" bug params.Kanti_omega.n params.t params.k
      in
      let n = params.Kanti_omega.n in
      let sut = Fuzz_systems.counter_core ~bug ~params () in
      let fiber_store = Store.create () and machine_store = Store.create () in
      let fiber = sut.Explorer.fresh ~store:fiber_store in
      let inst = sut.Explorer.fresh ~store:machine_store in
      let machine = Option.get inst.Explorer.machine in
      let schedule = Source.take (Generators.random_fair ~n ~rng:(Rng.create ~seed) ()) 2_000 in
      let steps = ref 0 in
      let on_step ~global:_ ~proc =
        incr steps;
        machine.Explorer.m_step proc;
        let at what = Printf.sprintf "%s: %s after step %d (p%d)" label what !steps proc in
        Alcotest.(check (list (pair string string)))
          (at "store") (Store.snapshot fiber_store) (Store.snapshot machine_store);
        Alcotest.(check string)
          (at "observation")
          (obs_text (fiber.Explorer.observe ()))
          (obs_text (inst.Explorer.observe ()))
      in
      ignore (Executor.replay ~n ~schedule ~fault ~on_step fiber.Explorer.body);
      Alcotest.(check bool) (label ^ ": most steps executed") true (!steps > 1_500))
    [
      (true, { Kanti_omega.n = 3; t = 2; k = 1 }, 1, [ (2, 700) ]);
      (false, { Kanti_omega.n = 3; t = 2; k = 2 }, 2, []);
      (true, { Kanti_omega.n = 4; t = 2; k = 2 }, 3, [ (0, 300) ]);
    ]

(* ------------------------------------------------------------------ *)
(* Golden hunts, recorded before the hunt session existed: running
   every candidate and ddmin test on one live machine instance changes
   no report. counter_core at n=3, t=2, k=1, len 96, 2,000 execs, fuzz
   seeds 1..12: exec that found the bug, shrunk length, ddmin tests,
   digests, corpus size, replay steps, and the shrunk schedule. *)
let golden_hunts =
  [
    (1, [ 115; 18; 615; 253; 47; 10927 ], "222222222222222222");
    (2, [ 103; 18; 445; 284; 48; 9721 ], "222222222222222222");
    (3, [ 12; 17; 309; 74; 5; 1088 ], "22222212221121111");
    (4, [ 38; 18; 512; 163; 22; 3579 ], "222222222222222222");
    (5, [ 2; 18; 398; 32; 1; 129 ], "222222222222222222");
    (6, [ 120; 18; 2129; 320; 52; 11420 ], "222222222222222222");
    ( 7,
      [ 148; 77; 776; 339; 64; 14005 ],
      "00211000022200200110022220000200022112212021010122120222222002020002020020000" );
    (8, [ 245; 18; 825; 529; 64; 23300 ], "222222222222222222");
    (9, [ 55; 17; 298; 181; 26; 4951 ], "12222222222111111");
    (10, [ 393; 18; 2275; 753; 64; 37371 ], "222222222222222222");
    (11, [ 374; 17; 298; 557; 64; 35368 ], "22022222220200000");
    (12, [ 88; 17; 209; 236; 40; 8297 ], "22222220220020000");
  ]

let test_golden_hunts () =
  let sut = Fuzz_systems.counter_core ~params:{ Kanti_omega.n = 3; t = 2; k = 1 } () in
  let property = Fuzz_systems.winner_argmin () in
  List.iter
    (fun (seed, counts, shrunk) ->
      let r =
        Fuzz.run ~progress_interval:0. ~len:96
          ~limits:(Budget.limits ~max_states:2_000 ())
          ~sut ~properties:[ property ] ~seed ()
      in
      match r.Fuzz.outcome with
      | Fuzz.Passed -> Alcotest.failf "seed %d: the seeded bug was not found" seed
      | Fuzz.Violation v ->
          Alcotest.(check (list int))
            (Printf.sprintf "seed %d: exec, shrunk, tests, digests, corpus, replay steps" seed)
            counts
            [
              v.Fuzz.exec;
              Schedule.length v.Fuzz.shrunk;
              v.Fuzz.shrink_tests;
              r.Fuzz.digests;
              r.Fuzz.corpus;
              r.Fuzz.stats.Budget.replay_steps;
            ];
          Alcotest.(check string)
            (Printf.sprintf "seed %d: shrunk schedule" seed)
            shrunk
            (String.concat "" (List.map string_of_int (to_list v.Fuzz.shrunk))))
    golden_hunts

(* The same for the Theorem-24 solver at n=3, t=1, k=1 with up to one
   crash, 300 execs, seeds 1..3: execs, digests, corpus, corpus
   evictions and rejections, replay steps; no violation. *)
let test_golden_kset_hunts () =
  let problem = Problem.make ~t:1 ~k:1 ~n:3 in
  let inputs = Problem.distinct_inputs problem in
  let sut = Systems.kset_agreement ~problem ~inputs () in
  let decisions st = st.Explorer.obs.Systems.decisions in
  let properties =
    [ Property.kset_agreement ~k:1 ~decisions; Property.validity ~inputs ~decisions ]
  in
  List.iter
    (fun (seed, counts) ->
      let r =
        Fuzz.run ~progress_interval:0. ~max_crashes:1
          ~limits:(Budget.limits ~max_states:300 ())
          ~sut ~properties ~seed ()
      in
      Alcotest.(check bool) (Printf.sprintf "seed %d passes" seed) true (r.Fuzz.outcome = Fuzz.Passed);
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: execs, digests, corpus, evictions, rejections, replay steps" seed)
        counts
        [
          r.Fuzz.execs;
          r.Fuzz.digests;
          r.Fuzz.corpus;
          r.Fuzz.corpus_evictions;
          r.Fuzz.corpus_rejections;
          r.Fuzz.stats.Budget.replay_steps;
        ])
    [
      (1, [ 300; 323; 64; 8; 8; 24697 ]);
      (2, [ 300; 318; 64; 14; 4; 25303 ]);
      (3, [ 300; 280; 64; 6; 4; 26344 ]);
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "setsync_fuzz"
    [
      ( "rng",
        [
          Alcotest.test_case "golden int64 streams" `Quick test_rng_golden_int64;
          Alcotest.test_case "golden derived draws" `Quick test_rng_golden_derived;
          Alcotest.test_case "geometric argument checks" `Quick test_rng_geometric_args;
        ] );
      ( "session",
        [
          Alcotest.test_case "counter core: session = fresh fibers" `Quick
            test_session_counter_core;
          Alcotest.test_case "figure 2: session = fresh fibers" `Quick test_session_detector;
          Alcotest.test_case "kset: session = fresh fibers" `Quick test_session_kset;
          Alcotest.test_case "keys = digests on three systems" `Quick test_session_keys;
          Alcotest.test_case "keys = digests without a machine" `Quick
            test_session_keys_machine_less;
          Alcotest.test_case "same state, same key across sessions" `Quick
            test_keys_across_sessions;
          Alcotest.test_case "keys reach the end of long values" `Quick test_key_reach;
          Alcotest.test_case "resumed checks = fresh checks" `Quick test_session_resume;
          Alcotest.test_case "frozen runs never change" `Quick test_frozen_runs_never_change;
          Alcotest.test_case "words per probed state do not grow with length" `Quick
            test_words_per_probed_state;
          Alcotest.test_case "stale snapshots raise" `Quick test_stale_snapshots_raise;
          Alcotest.test_case "counter core: fiber = machine" `Quick
            test_counter_core_forms_agree;
        ] );
      ( "golden",
        [
          Alcotest.test_case "counter core hunts, seeds 1..12" `Quick test_golden_hunts;
          Alcotest.test_case "kset hunts, seeds 1..3" `Quick test_golden_kset_hunts;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "soundness under chaining" `Quick test_mutator_soundness;
          Alcotest.test_case "seeded chain golden" `Quick test_mutate_golden;
          Alcotest.test_case "two-contract chain golden" `Quick test_mutate_two_contract_golden;
          Alcotest.test_case "timeliness boundary vs contract repair" `Quick
            test_timeliness_boundary_vs_repair;
          Alcotest.test_case "crash plans stay within budget" `Quick
            test_mutator_crash_plans;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same report" `Quick test_seed_determinism;
          Alcotest.test_case "different seeds differ" `Quick test_seed_matters;
          Alcotest.test_case "live reports grow toward the final one" `Quick
            test_live_reports;
        ] );
      ( "hunt",
        [
          Alcotest.test_case "seeded bug found and shrunk" `Quick
            test_seeded_bug_found_and_shrunk;
          Alcotest.test_case "faithful control passes" `Quick test_fixed_control_passes;
        ] );
      ( "shrink",
        [ Alcotest.test_case "still-violating and 1-minimal" `Quick test_shrink_quality ] );
      ( "timely",
        [
          Alcotest.test_case "gap splice preserves the contract" `Quick
            test_timely_gap_splice;
          Alcotest.test_case "contract survives crash plans" `Quick
            test_timely_under_crashes;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "novelty ranking and eviction" `Quick test_corpus;
          Alcotest.test_case "capacity eviction/rejection counters" `Quick
            test_corpus_capacity_counters;
          Alcotest.test_case "growing digest filter is exact below its cap" `Quick
            test_digest_filter_growth;
          Alcotest.test_case "bounded digest filter memory" `Quick
            test_digest_filter_bounded;
        ] );
    ]
