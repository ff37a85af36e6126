(* The setsync benchmark. Usage:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   Workloads: solve-net, solve-net-traced, explore, fuzz-hunt (see
   README.md for why each exists). With --trace 0 the workload runs
   untraced for S seconds and prints its end-to-end metrics; with
   --trace 1 it runs once untraced and once with spans around every
   layer call, checks the two agree, and prints the per-layer metrics.
   The last line of standard output is one JSON object. Files (span
   and event traces) go to DIR, default .bench_build/perfbench. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
    ("pass_s", "s");
    ("task_ms.p50", "ms");
    ("task_ms.tail", "ms");
    ("work.p50", "count");
    ("work.tail", "count");
  ]

(* Every workload prints every per-layer metric; a layer the workload
   does not reach reads 0. *)
let per_layer =
  [
    ("host.ref_rate", "Miter/s");
    ("bench.trace_overhead_frac", "ratio");
    ("accounting.wall_s", "s");
    ("accounting.unattributed_s", "s");
    ("harness.self_s", "s");
    ("schedule.self_s", "s");
    ("runtime.self_s", "s");
    ("net.self_s", "s");
    ("netmem.self_s", "s");
    ("agreement.self_s", "s");
    ("obs.self_s", "s");
    ("schedule.pulls", "count");
    ("schedule.ns_per_pull", "ns");
    ("runtime.steps", "count");
    ("runtime.steps_per_s", "1/s");
    ("runtime.grant_ns_per_step", "ns");
    ("runtime.boosted_steps", "count");
    ("net.pre_step_ns_per_step", "ns");
    ("net.msgs_sent", "count");
    ("net.msgs_dropped", "count");
    ("net.msgs_per_op", "ratio");
    ("netmem.ops", "count");
    ("netmem.steps_per_op", "ratio");
    ("netmem.owner_turns", "count");
    ("netmem.serve_ns_per_msg", "ns");
    ("netmem.useful_turn_ratio", "ratio");
    ("netmem.policy_ns_per_call", "ns");
    ("netmem.policy_hit_ratio", "ratio");
    ("agreement.local_ns_per_step", "ns");
    ("obs.events", "count");
    ("obs.events_per_step", "ratio");
    ("obs.dropped", "count");
    ("obs.write_s", "s");
    ("obs.jsonl_bytes_per_step", "B");
    ("obs.overhead_frac", "ratio");
    ("explore.visited", "count");
    ("explore.pruned", "count");
    ("explore.states_per_s", "1/s");
    ("explore.machine_steps", "count");
    ("explore.restores", "count");
    ("explore.step_ns", "ns");
    ("explore.save_ns", "ns");
    ("explore.restore_ns", "ns");
    ("explore.fingerprint_ns", "ns");
    ("explore.property_ns", "ns");
    ("explore.observe_ns", "ns");
    ("explore.engine_self_s", "s");
    ("explore.replay_steps_per_state", "ratio");
    ("fuzz.execs", "count");
    ("fuzz.execs_per_s", "1/s");
    ("fuzz.replay_steps", "count");
    ("fuzz.novel_ratio", "ratio");
    ("fuzz.spurious", "count");
    ("fuzz.shrink_tests", "count");
    ("fuzz.step_ns", "ns");
    ("fuzz.property_ns", "ns");
    ("fuzz.fingerprint_ns", "ns");
    ("fuzz.observe_ns", "ns");
    ("fuzz.self_s", "s");
  ]

(* Seed reserved for confirming a claimed gain: never used while
   tuning a change. *)
let held_out_seed = 9001

let workloads = [ "solve-net"; "solve-net-traced"; "explore"; "fuzz-hunt" ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let untraced ~workload ~seed ~seconds ~out =
  let probe0 = Measure.host_ref_rate () in
  let attempted, failed, values =
    match workload with
    | "solve-net" -> Solve_wl.run ~kind:`Solve_net ~seed ~seconds ~out
    | "solve-net-traced" -> Solve_wl.run ~kind:`Solve_net_traced ~seed ~seconds ~out
    | "explore" -> Explore_wl.run ~seed ~seconds
    | _ -> Fuzz_wl.run ~seed ~seconds
  in
  Printf.printf "host.ref_rate: %.1f Miter/s before, %.1f after\n" probe0
    (Measure.host_ref_rate ());
  let metrics =
    List.map (fun (name, unit_) -> Measure.m name unit_ (List.assoc name values)) end_to_end
  in
  Measure.print_result ~correct:(failed = 0) ~attempted ~failed metrics

let traced ~workload ~seed ~out =
  let probe0 = Measure.host_ref_rate () in
  let attempted, failed, fidelity, t =
    match workload with
    | "solve-net" -> Solve_wl.run_traced ~kind:`Solve_net ~seed ~out
    | "solve-net-traced" -> Solve_wl.run_traced ~kind:`Solve_net_traced ~seed ~out
    | "explore" -> Explore_wl.run_traced ~seed
    | _ -> Fuzz_wl.run_traced ~seed
  in
  let probe1 = Measure.host_ref_rate () in
  let unattributed, closes = Report.accounting t in
  Printf.printf "benchmark tracing overhead: %.1f%% (traced %.3f s vs untraced %.3f s)\n"
    (100. *. Report.overhead t) t.Report.wall t.Report.base_wall;
  Report.write_spans t
    ~path:(Filename.concat out (workload ^ "-spans.jsonl"))
    ~header:
      (Printf.sprintf "{\"workload\":\"%s\",\"seed\":%d,\"wall_s\":%.9f,\"untraced_wall_s\":%.9f}"
         workload seed t.Report.wall t.Report.base_wall);
  let values =
    [
      ("host.ref_rate", (probe0 +. probe1) /. 2.);
      ("bench.trace_overhead_frac", Report.overhead t);
      ("accounting.wall_s", t.Report.wall);
      ("accounting.unattributed_s", unattributed);
    ]
    @ t.Report.metrics
  in
  Printf.printf "per layer (traced run):\n";
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v = Option.value (List.assoc_opt name values) ~default:0. in
        Measure.print_row name unit_ v;
        Measure.m name unit_ v)
      per_layer
  in
  Measure.print_result ~correct:(failed = 0 && fidelity && closes) ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref (Filename.concat ".bench_build" "perfbench") in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time of an untraced run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run when 1");
      ("--out", Arg.Set_string out, "DIR where trace files go");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe [options]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload '" ^ !workload ^ "'");
    exit 2
  end;
  mkdir_p !out;
  Printf.printf "setsync benchmark: workload %s, seed %d, seconds %g, trace %d (held-out seed %d)\n"
    !workload !seed !seconds !trace held_out_seed;
  if !trace = 0 then untraced ~workload:!workload ~seed:!seed ~seconds:!seconds ~out:!out
  else traced ~workload:!workload ~seed:!seed ~out:!out
