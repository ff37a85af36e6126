(* Regression guard over the quick bench's machine-readable output:
   `make ci` runs `bench --quick` (which writes BENCH_quick.json) and
   then this tool, which fails the build if a pinned row moves.

   The E11e rows pin path replay — the depth-first walk reaching each
   sibling by a fresh replay of its prefix — on the system it serves,
   the machine-less CT detector over the net substrate (n=2, delta=1,
   gst=4, depth 12, sleep sets and fingerprints off). The explored
   tree is a pure function of the instance, so every count is pinned
   exactly: 8,191 visited under both engines, 4,096 replayed pool
   items paying 49,152 steps against 8,191 per-state replays of 90,114
   steps.
   Losing the amortization (one replay per state) trips immediately.

   It also pins the E11f snapshot-engine rows: the snapshot engine must
   execute {e exactly zero} replay steps (state reconstruction is typed
   copy/restore, accounted as machine steps) while staying
   verdict/visited/pruned-equivalent to a per-state reference that did
   replay, and on the equal-inputs instance (n=3, depth 20) the run
   with symmetry reduction must stay exhaustive with the same verdicts
   and visit exactly what the plain payload fingerprints visit (the
   solver's only renaming is the identity), which visit strictly fewer
   states than the fp-off run (measured 2,079 = 2,079 < 2,116), so an
   inert fingerprint table trips it.

   The E11g row caps what the snapshot engine allocates per visited
   state on a fingerprint-off k-set check (n=3, depth 26, 10,925
   states): measured about 440 minor words per state, ceiling 1,000.
   A state that renders its register snapshot eagerly costs about
   5,000 words more, so an eager render that comes back trips the
   ceiling.

   The E11h row pins an explored k-set check that reaches decisions:
   the exhaustive n=3 check at depth 30 with exact fingerprints visits
   exactly 23,134 states, some of them with a decision (the solver
   first decides at depth 27), and every verdict is ok.

   And the net backend's N1 quick row: the round-robin CT run
   (n=2, delta=1, gst=4) is fully deterministic, so its stabilization
   step is an exact machine-independent regression signal — measured 9,
   ceiling 12 — and pre-GST drops must actually occur.

   The N1t row pins tracing overhead. The fast path (?obs absent) pays
   nothing by construction — it is the same code with the instrumented
   branch untaken — so the guarded tier is the cheapest instrumented
   one: an obs context with metrics and delay attribution live but a
   nop event sink. The bench reports each instrumented tier as the
   median overhead of run pairs alternated with the untraced tier, as
   P9 does. Ten quick runs on a 2-vCPU shared host measured the nop
   tier at 18.5-24.1% on this CT microbench (every step is a send or
   deliver, so it is all overhead-exposed work); the ceiling is 30%,
   low enough to trip if attribution ever starts allocating events or
   formatting on the nop path. The full memory-sink trace (3+ lineage
   events per message, each encoded into the sink's unboxed ring) is
   pinned too: measured 68-77% of the untraced throughput lost (a
   3.1-4.3x slowdown), ceiling 82% (5.6x). The record-per-event ring
   it replaced lost 85-88% (6.6-8.7x), so the ceiling trips if
   emission goes back to keeping heap blocks per event. ROADMAP item
   4's target for this tier is <= 30%. No emission reads a clock (an
   event's [ts] is the logical step); what remains is the sink's lock
   and the encoding, and on the nop tier the delay attribution.

   Both N1t ceilings are wall-clock ratios, which host load can push
   past them. The row also reports two minor-word counts, pure
   functions of the seeded run, each gated on its own. The nop tier
   allocates 24.0 words per step beyond the untraced run, all of it
   the delay attribution paid per delivery; ceiling 30, so the
   attribution may shrink (ROADMAP item 4) but not grow. The full
   trace allocates 0.0 words per event beyond the nop tier, so
   emission and the ring allocate nothing; ceiling 2. When every event
   built a [Json.t] arg list and boxed its float timestamp it read
   37.7, and a runtime.step emitted through [emit] again reads 6.7.

   The E7w row caps the minor words the adaptive adversary's run
   allocates per granted step on the unsolvable (t=2,k=2,n=5) cell
   in S^2_{2,5}, run to its 400,000-step cap: measured 30.4 (607.5
   when every pull rebuilt the live list, copied the engagement twice
   and sorted a fresh copy of each set's counter row), ceiling 60.

   The P9 row pins the same nop-sink tier on the shared-memory
   executor, as the median overhead of alternated run pairs (ceiling
   15%).

   The F1 row pins the seeded fuzz hunt's search exactly: found, the
   exec that found it, the shrunk length, execs and replay steps.

   The N2 agreement rows record the minor words each solve allocates
   per granted step, set-up included. The count is a pure function of
   the seeded run, so unlike a wall-clock ratio it cannot flake. The
   k-set crash_brs n=7 row is capped: at most 110 words per step over
   the net (measured 86.9; 179.4 before decision polls stopped copying
   and the Net/Netmem hot paths stopped rebuilding lists) and at most
   45 on shared memory (measured 32.2; 67.5 before). A per-step
   decision snapshot that comes back costs the shm run about 35 words
   a step and trips the shm ceiling.

   Usage: bench_guard BENCH_quick.json *)

module Json = Setsync_obs.Json

let fail fmt =
  Format.kasprintf
    (fun s ->
      prerr_endline ("bench_guard: " ^ s);
      exit 1)
    fmt

(* E11e: (engine, [(field, pinned value)]) *)
let e11e_pins =
  [
    ("state", [ ("visited", 8191); ("replays", 8191); ("replay_steps", 90114) ]);
    ("path", [ ("visited", 8191); ("replays", 4096); ("replay_steps", 49152) ]);
  ]

let () =
  let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_quick.json" in
  let contents =
    match In_channel.with_open_bin file In_channel.input_all with
    | s -> s
    | exception Sys_error e -> fail "%s" e
  in
  let json =
    match Json.of_string contents with Ok j -> j | Error e -> fail "%s: %s" file e
  in
  let rows =
    match Json.member "rows" json with
    | Some r -> Option.value (Json.to_list r) ~default:[]
    | None -> fail "%s: no rows field" file
  in
  let str row name = Option.bind (Json.member name row) Json.to_str in
  let num row name = Option.bind (Json.member name row) Json.to_float in
  let int row name = Option.bind (Json.member name row) Json.to_int in
  List.iter
    (fun (engine, pins) ->
      match
        List.find_opt
          (fun row -> str row "section" = Some "E11e" && str row "engine" = Some engine)
          rows
      with
      | None -> fail "%s: no E11e %s row — did bench --quick change?" file engine
      | Some row ->
          (match Json.member "equivalent" row with
          | Some (Json.Bool true) -> ()
          | _ -> fail "E11e: the path and per-state engines no longer agree");
          List.iter
            (fun (name, want) ->
              match int row name with
              | Some got when got = want -> ()
              | Some got -> fail "E11e %s: %s is %d, pinned at %d" engine name got want
              | None -> fail "E11e %s: missing %s" engine name)
            pins;
          Printf.printf "bench_guard: E11e %s ok (%s)\n" engine
            (String.concat ", "
               (List.map (fun (name, want) -> Printf.sprintf "%s %d" name want) pins)))
    e11e_pins;
  (* E11f engine rows: the snapshot engine replays nothing, ever *)
  let e11f_rows kind =
    List.filter
      (fun row -> str row "section" = Some "E11f" && str row "kind" = Some kind)
      rows
  in
  let engine_rows = e11f_rows "engine" in
  if engine_rows = [] then
    fail "%s: no E11f engine rows — did bench --quick change?" file;
  List.iter
    (fun row ->
      let n =
        match Option.bind (Json.member "n" row) Json.to_int with
        | Some n -> n
        | None -> fail "E11f: engine row missing n"
      in
      (match Option.bind (Json.member "replay_steps" row) Json.to_int with
      | Some 0 -> ()
      | Some s -> fail "E11f n=%d: snapshot engine executed %d replay steps (want 0)" n s
      | None -> fail "E11f n=%d: missing replay_steps" n);
      (match Option.bind (Json.member "machine_steps" row) Json.to_int with
      | Some s when s > 0 -> ()
      | Some _ -> fail "E11f n=%d: zero machine steps — snapshot engine inert?" n
      | None -> fail "E11f n=%d: missing machine_steps" n);
      (* the reference must be a replay engine that replayed, or the
         equivalence below compares the snapshot engine with itself *)
      (match (str row "reference", int row "reference_replay_steps") with
      | Some "state", Some s when s > 0 -> ()
      | _ -> fail "E11f n=%d: the reference is not a per-state run that replayed" n);
      (match Json.member "equivalent" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "E11f n=%d: snapshot engine no longer equivalent to per-state" n);
      Printf.printf "bench_guard: E11f n=%d ok (0 replay steps, equivalent to per-state)\n" n)
    engine_rows;
  (* E11f symmetry row: exhaustive, equivalent, and visiting what plain
     fingerprints visit, which prune *)
  (match e11f_rows "symmetry" with
  | [] -> fail "%s: no E11f symmetry row — did bench --quick change?" file
  | row :: _ ->
      (match Option.bind (Json.member "replay_steps" row) Json.to_int with
      | Some 0 -> ()
      | _ -> fail "E11f symmetry: snapshot engine executed replay steps (want 0)");
      (match Json.member "exhaustive" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "E11f symmetry: run no longer exhaustive");
      (match Json.member "equivalent" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "E11f symmetry: verdicts differ between sym-on and sym-off");
      (match (int row "visited_sym", int row "visited_plain", int row "visited_full") with
      | Some sym, Some plain, Some full when sym = plain && plain < full ->
          Printf.printf
            "bench_guard: E11f symmetry ok (visits %d, as plain fingerprints, fewer than %d \
             fp-off, exhaustive)\n"
            sym full
      | Some sym, Some plain, Some full ->
          fail
            "E11f symmetry: visited sym %d, plain %d, fp-off %d (want sym = plain < fp-off)"
            sym plain full
      | _ -> fail "E11f symmetry: missing visited_sym/visited_plain/visited_full"));
  (* E11g row: minor words per visited state on the snapshot engine *)
  (match List.find_opt (fun row -> str row "section" = Some "E11g") rows with
  | None -> fail "%s: no E11g row — did bench --quick change?" file
  | Some row ->
      let ceiling = 1_000. in
      (match num row "words_per_state" with
      | Some w when w <= ceiling ->
          Printf.printf "bench_guard: E11g ok (%.0f minor words per visited state, ceiling %.0f)\n"
            w ceiling
      | Some w ->
          fail "E11g: %.0f minor words per visited state (ceiling %.0f): is a state rendered eagerly?"
            w ceiling
      | None -> fail "E11g: missing words_per_state"));
  (* E11h row: a k-set check deep enough to decide *)
  (match List.find_opt (fun row -> str row "section" = Some "E11h") rows with
  | None -> fail "%s: no E11h row — did bench --quick change?" file
  | Some row ->
      let want = 23_134 in
      (match int row "visited" with
      | Some v when v = want -> ()
      | Some v -> fail "E11h: visited %d, pinned at %d" v want
      | None -> fail "E11h: missing visited");
      let decided =
        match int row "decided" with
        | Some d when d > 0 -> d
        | Some _ -> fail "E11h: no explored state has a decision"
        | None -> fail "E11h: missing decided"
      in
      (match (Json.member "exhaustive" row, Json.member "verdicts_ok" row) with
      | Some (Json.Bool true), Some (Json.Bool true) -> ()
      | _ -> fail "E11h: run truncated or a verdict violated");
      Printf.printf "bench_guard: E11h ok (visited %d, %d with a decision, exhaustive)\n" want
        decided);
  (* F1 row: one seeded hunt, a pure function of its seed, so every
     search count is pinned exactly — a change to novelty, mutation or
     shrinking that alters the search fails here, not only in the test
     suite *)
  (match List.find_opt (fun row -> str row "section" = Some "F1") rows with
  | None -> fail "%s: no F1 row — did bench --quick change?" file
  | Some row ->
      (match Json.member "found" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "F1: the seeded bug was not found");
      List.iter
        (fun (name, want) ->
          match Option.bind (Json.member name row) Json.to_int with
          | Some got when got = want -> ()
          | Some got -> fail "F1: %s is %d, pinned at %d" name got want
          | None -> fail "F1: missing %s" name)
        [ ("find_execs", 3); ("shrunk_len", 8); ("execs", 3); ("replay_steps", 222) ];
      Printf.printf
        "bench_guard: F1 ok (found at exec 3, shrunk to 8 steps, 3 execs, 222 replay steps)\n");
  (* N1 quick row: n=2, delta=1, gst=4 — deterministic stabilization *)
  let n1_row =
    List.find_opt
      (fun row ->
        str row "section" = Some "N1"
        && Option.bind (Json.member "n" row) Json.to_int = Some 2
        && Option.bind (Json.member "delta" row) Json.to_int = Some 1
        && Option.bind (Json.member "gst" row) Json.to_int = Some 4)
      rows
  in
  (match n1_row with
  | None -> fail "%s: no N1 row for n=2 delta=1 gst=4 — did bench --quick change?" file
  | Some row ->
      let stable =
        match Json.member "stabilized_from" row with
        | Some (Json.Int v) -> v
        | Some Json.Null -> fail "N1: CT detector never stabilized on the quick row"
        | _ -> fail "N1: missing stabilized_from"
      in
      let max_stable = 12 in
      if stable > max_stable then
        fail "N1: stabilized from step %d, past the %d ceiling (gst=4, delta=1)" stable
          max_stable;
      (match Option.bind (Json.member "dropped" row) Json.to_int with
      | Some d when d > 0 -> ()
      | Some _ -> fail "N1: adversary dropped no messages pre-GST — gst_drop inert?"
      | None -> fail "N1: missing dropped");
      Printf.printf "bench_guard: N1 n=2 ok (stabilized from %d, ceiling %d)\n" stable
        max_stable);
  (* N1t row: the nop-sink obs tier must stay cheap, and the full
     trace must stay well under the record-per-event ring's cost *)
  let n1t_row = List.find_opt (fun row -> str row "section" = Some "N1t") rows in
  (match n1t_row with
  | None -> fail "%s: no N1t row — did bench --quick change?" file
  | Some row ->
      let max_nop_overhead = 0.30 and max_traced_overhead = 0.82 in
      let field name =
        match num row name with Some v -> v | None -> fail "N1t: missing %s" name
      in
      let nop_overhead = field "nop_overhead_fraction" in
      let traced_overhead = field "traced_overhead_fraction" in
      if nop_overhead > max_nop_overhead then
        fail
          "N1t: nop-sink obs tier costs %.1f%% vs the untraced run (ceiling %.0f%%) — \
           is the attribution path allocating?"
          (nop_overhead *. 100.)
          (max_nop_overhead *. 100.);
      if field "traced_steps_per_s" <= 0. then fail "N1t: full-trace tier did not run";
      let max_words_per_event = 2. and max_nop_words_per_step = 30. in
      if field "events_per_step" <= 0. then fail "N1t: the full trace recorded no events";
      if field "nop_words_per_step" > max_nop_words_per_step then
        fail
          "N1t: the nop-sink tier allocates %.1f minor words per step beyond the untraced \
           run (ceiling %.0f) — does the delay attribution allocate more?"
          (field "nop_words_per_step") max_nop_words_per_step;
      if field "words_per_event" > max_words_per_event then
        fail
          "N1t: the full trace allocates %.1f minor words per event beyond the nop-sink tier \
           (ceiling %.0f) — does emission build arg lists or box values again?"
          (field "words_per_event") max_words_per_event;
      if traced_overhead > max_traced_overhead then
        fail
          "N1t: full memory-sink trace costs %.1f%% vs the untraced run (ceiling %.0f%%) — \
           is the event ring keeping heap blocks per event again?"
          (traced_overhead *. 100.)
          (max_traced_overhead *. 100.);
      Printf.printf
        "bench_guard: N1t ok (nop-sink overhead %.1f%%, ceiling %.0f%%; full trace %.1f%%, \
         ceiling %.0f%%; nop tier %.1f minor words per step, ceiling %.0f; %.2f events per \
         step, %.1f minor words per event, ceiling %.0f)\n"
        (nop_overhead *. 100.)
        (max_nop_overhead *. 100.)
        (traced_overhead *. 100.)
        (max_traced_overhead *. 100.)
        (field "nop_words_per_step") max_nop_words_per_step (field "events_per_step")
        (field "words_per_event") max_words_per_event);
  (* E7w row: the adaptive adversary's allocation per granted step *)
  (match List.find_opt (fun row -> str row "section" = Some "E7w") rows with
  | None -> fail "%s: no E7w row — did bench --quick change?" file
  | Some row -> (
      let ceiling = 60. in
      if int row "steps" <> Some 400_000 then
        fail "E7w: the unsolvable adaptive cell no longer runs to its 400000-step cap";
      match num row "words_per_step" with
      | None -> fail "E7w: missing words_per_step"
      | Some v when v <= 0. -> fail "E7w: words_per_step is %.1f — inert?" v
      | Some v when v > ceiling ->
          fail
            "E7w: the adaptive run allocates %.1f minor words per step (ceiling %.0f) — does \
             a pull copy solver state again?"
            v ceiling
      | Some v ->
          Printf.printf "bench_guard: E7w ok (%.1f minor words/step, ceiling %.0f)\n" v ceiling));
  (* P9 row: the executor's nop-sink obs tier on a pause loop, where
     the per-step counter writes are the whole cost. The bench reports
     the median overhead of alternated no-obs/nop run pairs; ten quick
     runs on a 2-vCPU shared host measured -0.0% to 8.7% (median 6.4%),
     so the 15% ceiling trips on a real regression (events allocated
     or formatted on the nop path), not on host noise. *)
  (match List.find_opt (fun row -> str row "section" = Some "P9") rows with
  | None -> fail "%s: no P9 row — did bench --quick change?" file
  | Some row ->
      let max_nop_overhead = 0.15 in
      let nop_overhead =
        match num row "nop_overhead_fraction" with
        | Some v -> v
        | None -> fail "P9: missing nop_overhead_fraction"
      in
      if nop_overhead > max_nop_overhead then
        fail
          "P9: nop-sink obs tier costs %.1f%% of executor throughput (ceiling %.0f%%) — \
           is the nop path allocating?"
          (nop_overhead *. 100.)
          (max_nop_overhead *. 100.);
      Printf.printf "bench_guard: P9 ok (nop-sink overhead %.1f%%, ceiling %.0f%%)\n"
        (nop_overhead *. 100.)
        (max_nop_overhead *. 100.));
  (* N2 microbench rows: the round-batching acceptance pins. Every
     batched row must come in at or under 1.5 steps per routed op (the
     measured values are ~1.0 at C=1 and ~0.4 at C=4, so the ceiling
     trips if the reply-consumption step stops being shared with the
     next flush, or if the round policy stops granting owners). The
     per-op row must stay near its analytic 3 steps/op — a drop below
     2.5 would mean the unbatched path silently changed shape, which
     the pinned byte-identical tests are supposed to forbid. *)
  let n2_rows kind =
    List.filter
      (fun row -> str row "section" = Some "N2" && str row "kind" = Some kind)
      rows
  in
  let micro = n2_rows "microbench" in
  let micro_row ~mode ~batch =
    List.find_opt
      (fun row ->
        str row "mode" = Some mode
        && Option.bind (Json.member "batch" row) Json.to_int = Some batch)
      micro
  in
  let steps_per_op label row =
    match num row "steps_per_op" with
    | Some v when v > 0. -> v
    | Some _ -> fail "N2 %s: zero steps/op — microbench inert?" label
    | None -> fail "N2 %s: missing steps_per_op" label
  in
  (match micro_row ~mode:"per-op" ~batch:1 with
  | None -> fail "%s: no N2 per-op microbench row — did bench --quick change?" file
  | Some row ->
      let v = steps_per_op "per-op C=1" row in
      if v < 2.5 then
        fail
          "N2 per-op C=1: %.2f steps/op, below the 2.5 floor — the unbatched path \
           changed shape"
          v);
  let batched_ceiling = 1.5 in
  List.iter
    (fun batch ->
      match micro_row ~mode:"batched" ~batch with
      | None ->
          fail "%s: no N2 batched C=%d microbench row — did bench --quick change?" file
            batch
      | Some row ->
          let v = steps_per_op (Printf.sprintf "batched C=%d" batch) row in
          if v > batched_ceiling then
            fail "N2 batched C=%d: %.2f steps/op exceeds the %.1f ceiling" batch v
              batched_ceiling;
          Printf.printf "bench_guard: N2 batched C=%d ok (%.2f steps/op, ceiling %.1f)\n"
            batch v batched_ceiling)
    [ 1; 4 ];
  (* N2 agreement rows: every quick-bench solver/adversary pair must
     decide over the net AND produce the same checker verdict (and,
     for paxos, the same decision value) as the shm reference run. *)
  let ag = n2_rows "agreement" in
  if List.length ag < 4 then
    fail "%s: expected >= 4 N2 agreement rows, found %d — did bench --quick change?" file
      (List.length ag);
  List.iter
    (fun row ->
      let label =
        Printf.sprintf "%s/%s n=%s"
          (Option.value (str row "solver") ~default:"?")
          (Option.value (str row "adversary") ~default:"?")
          (match Option.bind (Json.member "n" row) Json.to_int with
          | Some n -> string_of_int n
          | None -> "?")
      in
      (match Json.member "net_ok" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "N2 %s: agreement over the net failed its checker" label);
      (match Json.member "verdict_equal" row with
      | Some (Json.Bool true) -> ()
      | _ ->
          fail "N2 %s: net verdict %S differs from shm verdict %S" label
            (Option.value (str row "net_verdict") ~default:"")
            (Option.value (str row "shm_verdict") ~default:""));
      Printf.printf "bench_guard: N2 %s ok (verdict matches shm)\n" label)
    ag;
  (* N2 allocation ceilings on the k-set crash_brs n=7 row *)
  let kset_brs =
    List.find_opt
      (fun row ->
        str row "solver" = Some "kset"
        && str row "adversary" = Some "crash_brs"
        && int row "n" = Some 7)
      ag
  in
  match kset_brs with
  | None -> fail "%s: no N2 kset/crash_brs n=7 agreement row — did bench --quick change?" file
  | Some row ->
      List.iter
        (fun (field, backend, ceiling) ->
          match num row field with
          | None -> fail "N2 kset/crash_brs n=7: missing %s" field
          | Some v when v <= 0. -> fail "N2 kset/crash_brs n=7: %s is %.1f — inert?" field v
          | Some v when v > ceiling ->
              fail "N2 kset/crash_brs n=7: %.1f minor words per step on %s exceeds the %.0f \
                    ceiling"
                v backend ceiling
          | Some v ->
              Printf.printf
                "bench_guard: N2 kset/crash_brs n=7 %s ok (%.1f minor words/step, ceiling %.0f)\n"
                backend v ceiling)
        [ ("net_words_per_step", "net", 110.); ("shm_words_per_step", "shm", 45.) ]
