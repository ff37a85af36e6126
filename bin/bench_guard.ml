(* Regression guard over the quick bench's machine-readable output:
   `make ci` runs `bench --quick` (which writes BENCH_quick.json) and
   then this tool, which fails the build if the path-replay engine's
   replay amortization regresses past pinned ceilings on the E11e
   k-set instances. The ceilings sit above the measured values
   (2.73 steps/visited at n=2 depth 8, 4.10 at n=3; 3.09x reduction
   vs the per-state engine) with enough slack for benign drift, and
   low enough that losing the amortization (O(depth) replays per
   state, ~8-10 steps/visited) trips immediately.

   It also pins the E11f snapshot-engine rows: the snapshot engine must
   execute {e exactly zero} replay steps (state reconstruction is typed
   copy/restore, accounted as machine steps) while staying
   verdict/visited-equivalent to the path engine, and on the symmetric
   equal-inputs instance (n=3, depth 10) the canonical-fingerprint
   symmetry reduction must stay exhaustive and shrink the visited-state
   count by at least 20x against the fp-off baseline (measured 31.5x).

   And the net backend's N1 quick row: the round-robin CT run
   (n=2, delta=1, gst=4) is fully deterministic, so its stabilization
   step is an exact machine-independent regression signal — measured 9,
   ceiling 12 — and pre-GST drops must actually occur.

   The N1t row pins tracing overhead. The fast path (?obs absent) pays
   nothing by construction — it is the same code with the instrumented
   branch untaken — so the guarded tier is the cheapest instrumented
   one: an obs context with metrics and delay attribution live but a
   nop event sink. Measured 15-23% on this CT microbench (every step
   is a send or deliver, so it is all overhead-exposed work); the
   ceiling is 35%, low enough to trip if attribution ever starts
   allocating events or formatting on the nop path. The full
   memory-sink trace (3+ lineage events per message, each encoded into
   the sink's unboxed ring) is pinned too: measured 60-76% of the
   untraced throughput lost (a 2.5-4.1x slowdown), ceiling 82% (5.6x).
   The record-per-event ring it replaced lost 85-88% (6.6-8.7x), so the
   ceiling trips if emission goes back to keeping heap blocks per
   event. ROADMAP item 4's target for this tier is <= 30%; the
   remaining cost is the per-event clock read, lock and encoding.

   The P9 row pins the same nop-sink tier on the shared-memory
   executor, as the median overhead of alternated run pairs (ceiling
   15%).

   Usage: bench_guard BENCH_quick.json *)

module Json = Setsync_obs.Json

let fail fmt =
  Format.kasprintf
    (fun s ->
      prerr_endline ("bench_guard: " ^ s);
      exit 1)
    fmt

(* (n, steps/visited ceiling, minimum reduction vs per-state engine) *)
let ceilings = [ (2, 3.0, 3.0); (3, 4.5, 2.0) ]

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
  let path_rows =
    List.filter
      (fun row ->
        str row "section" = Some "E11e" && str row "engine" = Some "path")
      rows
  in
  let checked = ref 0 in
  List.iter
    (fun (n, max_spv, min_ratio) ->
      match
        List.find_opt
          (fun row -> Option.bind (Json.member "n" row) Json.to_int = Some n)
          path_rows
      with
      | None -> fail "%s: no E11e path row for n=%d — did bench --quick change?" file n
      | Some row ->
          incr checked;
          let spv =
            match num row "steps_per_visited" with
            | Some v -> v
            | None -> fail "E11e n=%d: missing steps_per_visited" n
          in
          let ratio =
            match num row "ratio_vs_state" with
            | Some v -> v
            | None -> fail "E11e n=%d: missing ratio_vs_state" n
          in
          (match Json.member "equivalent" row with
          | Some (Json.Bool true) -> ()
          | _ -> fail "E11e n=%d: path engine no longer verdict/visited-equivalent" n);
          if spv > max_spv then
            fail "E11e n=%d: %.2f replay steps/visited exceeds the %.1f ceiling" n spv
              max_spv;
          if ratio < min_ratio then
            fail "E11e n=%d: only %.2fx fewer replay steps than per-state (need %.1fx)" n
              ratio min_ratio;
          Printf.printf "bench_guard: E11e n=%d ok (%.2f steps/visited, %.2fx vs state)\n"
            n spv ratio)
    ceilings;
  if !checked = 0 then fail "no E11e rows checked";
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
      (match Json.member "equivalent" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "E11f n=%d: snapshot engine no longer verdict/visited-equivalent" n);
      Printf.printf "bench_guard: E11f n=%d ok (0 replay steps, equivalent)\n" n)
    engine_rows;
  (* E11f symmetry row: exhaustive, equivalent, and actually reducing *)
  (match e11f_rows "symmetry" with
  | [] -> fail "%s: no E11f symmetry row — did bench --quick change?" file
  | row :: _ ->
      let min_reduction = 20.0 in
      let reduction =
        match num row "reduction" with
        | Some v -> v
        | None -> fail "E11f symmetry: missing reduction"
      in
      (match Option.bind (Json.member "replay_steps" row) Json.to_int with
      | Some 0 -> ()
      | _ -> fail "E11f symmetry: snapshot engine executed replay steps (want 0)");
      (match Json.member "exhaustive" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "E11f symmetry: run no longer exhaustive");
      (match Json.member "equivalent" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "E11f symmetry: verdicts differ between sym-on and sym-off");
      if reduction < min_reduction then
        fail "E11f symmetry: only %.2fx fewer visited states (need %.1fx)" reduction
          min_reduction;
      Printf.printf "bench_guard: E11f symmetry ok (%.2fx fewer states, exhaustive)\n"
        reduction);
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
      let max_nop_overhead = 0.35 and max_traced_overhead = 0.82 in
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
      if traced_overhead > max_traced_overhead then
        fail
          "N1t: full memory-sink trace costs %.1f%% vs the untraced run (ceiling %.0f%%) — \
           is the event ring keeping heap blocks per event again?"
          (traced_overhead *. 100.)
          (max_traced_overhead *. 100.);
      Printf.printf
        "bench_guard: N1t ok (nop-sink overhead %.1f%%, ceiling %.0f%%; full trace %.1f%%, \
         ceiling %.0f%%)\n"
        (nop_overhead *. 100.)
        (max_nop_overhead *. 100.)
        (traced_overhead *. 100.)
        (max_traced_overhead *. 100.));
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
    ag
