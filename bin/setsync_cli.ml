(* Command-line interface to the setsync library.

   Subcommands:
     figure1   print Figure 1's schedule and its timeliness analysis
     fd        run the Figure 2 failure detector in S^k_{t+1,n}
     solve     solve (t,k,n)-agreement in a chosen S^i_{j,n}
     sweep     print and check the Theorem 27 grid for one (t,k,n)
     analyze   timeliness analysis of a generated schedule
     explore   bounded model checking of a small instance *)

open Cmdliner
open Setsync

(* ------------------------------------------------------ flag checks *)

(* A bad flag value is a usage error, reported before the run: each
   subcommand builds its run's inputs (spec, problem, adversary) under
   [checked], so the libraries' own argument checks reject the value
   with their message and exit 124, cmdliner's code for usage errors.
   An [Invalid_argument] raised by the run itself is not caught: it
   stays an internal error. *)
let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "setsync: %s@." msg;
      exit Cmd.Exit.cli_error)
    fmt

let checked f = try f () with Invalid_argument msg -> usage_error "%s" msg

let at_least flag min v = if v < min then usage_error "%s must be >= %d (got %d)" flag min v

(* -------------------------------------------------------------- args *)

let t_arg = Arg.(value & opt int 2 & info [ "t" ] ~docv:"T" ~doc:"Resilience (crashes tolerated).")

let k_arg = Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Agreement degree (distinct decisions allowed).")

let n_arg = Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let i_arg = Arg.(value & opt (some int) None & info [ "i" ] ~docv:"I" ~doc:"Timely-set size of the ambient system (default k).")

let j_arg = Arg.(value & opt (some int) None & info [ "j" ] ~docv:"J" ~doc:"Observed-set size of the ambient system (default t+1).")

let bound_arg = Arg.(value & opt int 3 & info [ "bound" ] ~docv:"B" ~doc:"Timeliness bound of the witness contract.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

let crashes_arg = Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"C" ~doc:"Crashes to inject (at most t).")

let steps_arg = Arg.(value & opt int 2_000_000 & info [ "max-steps" ] ~docv:"S" ~doc:"Step budget.")

let adversary_conv =
  Arg.enum
    [ ("fair", Scenario.Fair); ("exclusive", Scenario.Exclusive); ("adaptive", Scenario.Adaptive) ]

let adversary_arg =
  Arg.(
    value
    & opt adversary_conv Scenario.Fair
    & info [ "adversary" ] ~docv:"ADV"
        ~doc:"Scheduler flavour: $(b,fair), $(b,exclusive) or $(b,adaptive).")

let make_spec t k n i j bound seed crashes adversary max_steps =
  let i = Option.value i ~default:(min k n) in
  let j = Option.value j ~default:(min (t + 1) n) in
  { Scenario.t; k; n; i; j; bound; seed; crashes; adversary; max_steps }

(* ---------------------------------------------------------- backend *)

type backend = Backend_shm | Backend_net

let backend_arg =
  Arg.(
    value
    & opt (Arg.enum [ ("shm", Backend_shm); ("net", Backend_net) ]) Backend_shm
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Communication substrate: $(b,shm) (shared memory, the default) or $(b,net) \
           (simulated partially synchronous message passing; tune it with $(b,--delta) \
           and $(b,--gst)).")

let delta_arg =
  Arg.(
    value
    & opt int 1
    & info [ "delta" ] ~docv:"D"
        ~doc:
          "Net backend: post-GST delivery bound Delta, in network ticks (= global \
           steps).")

let gst_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "gst" ] ~docv:"G"
        ~doc:
          "Net backend: global stabilization time, in network ticks. Default depends \
           on the subcommand: 4 for $(b,fd)/$(b,solve)/$(b,explore) (stabilization \
           within small horizons), effectively-never for $(b,fuzz) (so the \
           Biely/Robinson/Schmid partition stays up and the seeded k-set violation is \
           reachable).")

let net_inputs n = Array.init n (fun p -> 10 * p)

let solver_arg =
  Arg.(
    value
    & opt (Arg.enum [ ("gossip", `Gossip); ("kset", `Kset); ("paxos", `Paxos) ]) `Gossip
    & info [ "solver" ] ~docv:"SOLVER"
        ~doc:
          "Net backend: $(b,gossip) (blind best-effort k-set over raw messages, the \
           default) or a real solver over routed registers — $(b,kset) (Theorem 24) or \
           $(b,paxos) (designated-proposer consensus). Both run under a combined \
           crash + BRS-partition adversary and report the checker verdict.")

let net_mode_arg =
  Arg.(
    value
    & opt (Arg.enum [ ("batched", Netmem.Batched); ("per-op", Netmem.Per_op) ]) Netmem.Batched
    & info [ "net-mode" ] ~docv:"MODE"
        ~doc:
          "Routed-register protocol for $(b,--solver kset/paxos): $(b,batched) \
           (round-batched, about one step per op, the default) or $(b,per-op) (three \
           steps per op).")

let owners_arg =
  Arg.(
    value
    & opt int 1
    & info [ "owners" ] ~docv:"O"
        ~doc:"Net backend: register-owner processes appended to the universe.")

let resend_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "resend-after" ] ~docv:"TICKS"
        ~doc:
          "Net backend: retransmit an unanswered routed request after this many network \
           ticks. The liveness mechanism under message loss; defaults to 2*Delta when \
           the adversary drops messages.")

let brs_groups ~n ~k =
  List.init (k + 1) (fun g ->
      List.filter (fun p -> p mod (k + 1) = g) (List.init n (fun p -> p)))

(* ---------------------------------------------------- observability *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record a structured event trace and write it to $(docv) as JSONL (one event \
           per line), plus a Chrome trace-event file next to it (FILE.jsonl becomes \
           FILE.chrome.json; load it in chrome://tracing or Perfetto).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics registry (counters, gauges, histograms) to $(docv) \
           as JSON.")

let chrome_path file =
  if Filename.check_suffix file ".jsonl" then
    Filename.chop_suffix file ".jsonl" ^ ".chrome.json"
  else file ^ ".chrome.json"

(* The output files are written after the run; an unwritable path must
   fail before it, with a diagnostic rather than a raw [Sys_error] at
   the end. Opening each file now (creating it) is the check. *)
let check_writable flag file =
  match open_out file with
  | oc -> close_out oc
  | exception Sys_error e -> usage_error "cannot write the %s file: %s" flag e

let make_obs ?(shards = 1) ~trace_out ~metrics_out () =
  Option.iter
    (fun f ->
      check_writable "--trace-out" f;
      check_writable "--trace-out" (chrome_path f))
    trace_out;
  Option.iter (check_writable "--metrics-out") metrics_out;
  match (trace_out, metrics_out) with
  | None, None -> None
  | _ ->
      let events = if trace_out <> None then Events.memory () else Events.nop in
      Some (Obs.create ~shards ~events ())

let write_obs ~trace_out ~metrics_out = function
  | None -> ()
  | Some o -> (
      try
        Option.iter
          (fun f ->
            let oc = open_out f in
            output_string oc (Json.to_string (Metrics.to_json o.Obs.metrics));
            output_char oc '\n';
            close_out oc;
            Fmt.pr "metrics written to %s@." f)
          metrics_out;
        Option.iter
          (fun f ->
            Events.save_jsonl o.Obs.events f;
            let cf = chrome_path f in
            Events.save_chrome o.Obs.events cf;
            let dropped = Events.dropped o.Obs.events in
            Fmt.pr "trace written to %s and %s (%d events%s)@." f cf
              (Events.recorded o.Obs.events)
              (if dropped > 0 then Fmt.str ", oldest %d dropped" dropped else ""))
          trace_out
      with Sys_error e ->
        Fmt.epr "setsync: writing the trace or metrics failed: %s@." e;
        exit Cmd.Exit.some_error)

(* ---------------------------------------------------------- figure1 *)

let figure1_cmd =
  let run length =
    at_least "--length" 0 length;
    Fmt.pr "Figure 1 schedule, first %d steps:@.  %a@.@." (min length 60) Schedule.pp_full
      (Source.take (Generators.figure1 ()) (min length 60));
    let q = Procset.singleton 2 in
    List.iter
      (fun (label, p) ->
        Fmt.pr "%-20s observed bound over %d steps: %d@." label length
          (Timeliness.observed_bound ~p ~q (Source.take (Generators.figure1 ()) length)))
      [
        ("{p1} wrt {q}", Procset.singleton 0);
        ("{p2} wrt {q}", Procset.singleton 1);
        ("{p1,p2} wrt {q}", Procset.of_list [ 0; 1 ]);
      ]
  in
  let length = Arg.(value & opt int 100_000 & info [ "length" ] ~docv:"L" ~doc:"Prefix length.") in
  Cmd.v (Cmd.info "figure1" ~doc:"The paper's Figure 1 example, analyzed")
    Term.(const run $ length)

(* --------------------------------------------------------------- fd *)

let fd_cmd =
  let run t k n bound seed crashes adversary max_steps backend delta gst trace_out
      metrics_out =
    match backend with
    | Backend_shm ->
        let spec = make_spec t k n None None bound seed crashes adversary max_steps in
        checked (fun () ->
            Scenario.validate spec;
            Kanti_omega.check_params { Kanti_omega.n; t; k });
        let obs = make_obs ~trace_out ~metrics_out () in
        let result, predicted = Scenario.run_detector ?obs spec in
        Fmt.pr "system: S^%d_{%d,%d}  predicted solvable for (%d,%d,%d): %b@."
          spec.Scenario.i spec.Scenario.j n t k n predicted;
        Fmt.pr "run:    %a@." Run.pp result.Fd_harness.run;
        Fmt.pr "k-anti-omega: %a@." Anti_omega.pp_verdict result.Fd_harness.verdict;
        Fmt.pr "winnerset:    %a@." Anti_omega.pp_winner_verdict
          result.Fd_harness.winner_verdict;
        write_obs ~trace_out ~metrics_out obs
    | Backend_net ->
        (* the Chandra-Toueg-style timeout detector over Δ/GST channels:
           round-robin run, leader timeline summarized as the step the
           last wrong leader disappeared *)
        let gst = Option.value gst ~default:4 in
        let adversary =
          checked (fun () ->
              Proc.check_n n;
              Adversary.gst_drop ~delta ~gst)
        in
        at_least "--max-steps" 0 max_steps;
        let obs = make_obs ~trace_out ~metrics_out () in
        let r =
          Net_systems.run_ct ?obs ~initial_timeout:2 ~clients:n ~adversary ~max_steps ()
        in
        Fmt.pr "net backend: CT timeout detector, %s (delta=%d, gst=%d), %d processes@."
          adversary.Adversary.name delta gst n;
        Fmt.pr "run:    %d steps@." r.Net_systems.steps;
        Fmt.pr "stabilized from step: %a@."
          Fmt.(option ~none:(any "never") int)
          r.Net_systems.stabilized_from;
        Fmt.pr "final leaders:%a@."
          Fmt.(array ~sep:nop (any " p" ++ int))
          (Array.map (fun l -> l + 1) r.Net_systems.final_leaders);
        let s = r.Net_systems.net_stats in
        Fmt.pr "net:    sent %d  delivered %d  dropped %d  in flight %d@." s.Net.sent
          s.Net.delivered s.Net.dropped s.Net.in_flight;
        write_obs ~trace_out ~metrics_out obs;
        let ok =
          r.Net_systems.stabilized_from <> None
          && Array.for_all (fun l -> l = 0) r.Net_systems.final_leaders
        in
        exit (if ok then 0 else 1)
  in
  Cmd.v (Cmd.info "fd" ~doc:"Run a failure detector (Figure 2 on shm, CT timeouts on net)")
    Term.(const run $ t_arg $ k_arg $ n_arg $ bound_arg $ seed_arg $ crashes_arg $ adversary_arg $ steps_arg $ backend_arg $ delta_arg $ gst_arg $ trace_out_arg $ metrics_out_arg)

(* ------------------------------------------------------------ solve *)

let solve_cmd =
  let run t k n i j bound seed crashes adversary max_steps backend delta gst solver
      net_mode owners resend_after trace_out metrics_out =
    match backend with
    | Backend_shm ->
        let spec = make_spec t k n i j bound seed crashes adversary max_steps in
        checked (fun () -> Scenario.validate spec);
        let obs = make_obs ~trace_out ~metrics_out () in
        let r = Scenario.run_agreement ?obs spec in
        Fmt.pr "%a@." Scenario.pp_report r;
        Fmt.pr "witness: %a timely wrt %a (bound %d)@." Procset.pp r.Scenario.witness_p
          Procset.pp r.Scenario.witness_q bound;
        Fmt.pr "decisions:";
        Array.iteri
          (fun p d -> Fmt.pr " %a=%a" Proc.pp p Fmt.(option ~none:(any "-") int) d)
          r.Scenario.outcome.Ag_harness.decisions;
        Fmt.pr "@.";
        write_obs ~trace_out ~metrics_out obs;
        exit (if r.Scenario.solved = r.Scenario.predicted then 0 else 1)
    | Backend_net when solver <> `Gossip ->
        (* a real solver over routed registers, under combined
           crash + BRS loss; verdicts are comparable one-for-one with
           the shm reference run (bench section N2 pins them equal) *)
        let gst = Option.value gst ~default:(8 * n) in
        let total = n + owners in
        if crashes < 0 || crashes > n then
          usage_error
            "solve: --crashes %d out of range — the net crash plan names client \
             processes, so 0 <= crashes <= n (= %d) is required"
            crashes n;
        at_least "--owners" 1 owners;
        at_least "--max-steps" 0 max_steps;
        let crash_plan = List.init crashes (fun i -> (n - 1 - i, 5 * (i + 1))) in
        let combined =
          checked (fun () ->
              Proc.check_n total;
              Adversary.crash_brs ~delta ~gst ~total ~k:(max 1 k) ~crashes:crash_plan)
        in
        let resend_after =
          (* default matches the flag's doc: retransmission is the
             liveness mechanism under loss, and the BRS partition only
             drops before GST — a gst=0 run is lossless and gets none *)
          match resend_after with
          | Some _ as r -> r
          | None -> if gst > 0 then Some (2 * delta) else None
        in
        let solver, problem, values =
          checked (fun () ->
              match solver with
              | `Paxos -> (`Paxos, Problem.consensus ~t ~n, true)
              | _ -> (`Auto, Problem.make ~t ~k ~n, false))
        in
        let inputs = Problem.distinct_inputs problem in
        let obs = make_obs ~trace_out ~metrics_out () in
        let r =
          Net_agreement.solve ~solver ~mode:net_mode ~owners ?resend_after ?obs ~problem
            ~inputs ~combined ~max_steps ()
        in
        Fmt.pr "net backend: %a over routed registers (%s), %s (delta=%d, gst=%d), %d \
                clients + %d owners, %d crashes@."
          Problem.pp problem
          (match net_mode with Netmem.Batched -> "batched" | Netmem.Per_op -> "per-op")
          combined.Adversary.adversary.Adversary.name delta gst n owners crashes;
        Fmt.pr "decisions:";
        Array.iteri
          (fun p d -> Fmt.pr " %a=%a" Proc.pp p Fmt.(option ~none:(any "-") int) d)
          r.Net_agreement.outcome.Ag_harness.decisions;
        Fmt.pr "@.";
        let s = r.Net_agreement.stats in
        Fmt.pr "net:    sent %d  delivered %d  dropped %d  in flight %d@." s.Net.sent
          s.Net.delivered s.Net.dropped s.Net.in_flight;
        Fmt.pr "routed: %d ops in %d steps (%.2f steps/op)@." r.Net_agreement.ops
          (Run.total_steps r.Net_agreement.outcome.Ag_harness.run)
          (float_of_int (Run.total_steps r.Net_agreement.outcome.Ag_harness.run)
          /. float_of_int (max 1 r.Net_agreement.ops));
        Fmt.pr "verdict: %s@." (Net_agreement.verdict ~values r.Net_agreement.outcome);
        write_obs ~trace_out ~metrics_out obs;
        exit (if Ag_harness.ok r.Net_agreement.outcome then 0 else 2)
    | Backend_net ->
        (* best-effort k-set gossip under a BRS partition adversary: a
           round-robin run decides within k exactly when GST lands
           before the decision point *)
        let gst = Option.value gst ~default:4 in
        let adversary =
          checked (fun () ->
              Proc.check_n n;
              Adversary.brs_kset ~delta ~gst ~n ~k)
        in
        let inputs = net_inputs n in
        let obs = make_obs ~trace_out ~metrics_out () in
        let sut = Net_systems.kset_blind ?obs ~inputs ~adversary () in
        let len = n * ((2 * n) + 1) in
        let st = Explorer.evaluate ~sut (Source.take (Generators.round_robin ~n ()) len) in
        let decisions = st.Explorer.obs.Explore_systems.decisions in
        Fmt.pr "net backend: blind k-set gossip vs %s (delta=%d, gst=%d), %d processes, \
                round robin %d steps@."
          adversary.Adversary.name delta gst n len;
        Fmt.pr "decisions:";
        Array.iteri
          (fun p d -> Fmt.pr " %a=%a" Proc.pp p Fmt.(option ~none:(any "-") int) d)
          decisions;
        Fmt.pr "@.";
        let prop =
          Property.kset_agreement ~k ~decisions:(fun st ->
              st.Explorer.obs.Explore_systems.decisions)
        in
        write_obs ~trace_out ~metrics_out obs;
        (match prop.Property.check st with
        | None ->
            Fmt.pr "k-set agreement (k=%d): holds@." k;
            exit 0
        | Some why ->
            Fmt.pr "k-set agreement (k=%d): VIOLATED — %s@." k why;
            exit 2)
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Solve (t,k,n)-agreement in S^i_{j,n} (shm), or over the net: blind k-set \
          gossip (default), or real solvers on routed registers with $(b,--solver \
          kset/paxos)")
    Term.(const run $ t_arg $ k_arg $ n_arg $ i_arg $ j_arg $ bound_arg $ seed_arg $ crashes_arg $ adversary_arg $ steps_arg $ backend_arg $ delta_arg $ gst_arg $ solver_arg $ net_mode_arg $ owners_arg $ resend_after_arg $ trace_out_arg $ metrics_out_arg)

(* ------------------------------------------------------------ sweep *)

let sweep_cmd =
  let run t k n =
    checked (fun () -> ignore (Setsync.Characterization.closely_matching ~t ~k ~n));
    Fmt.pr "Theorem 27 for (t=%d, k=%d, n=%d): solvable iff i <= k and j - i >= t+1-k@.@." t k n;
    Fmt.pr "%a@." Setsync.Characterization.pp_grid (Setsync.Characterization.grid ~t ~k ~n);
    let s = Setsync.Characterization.separation ~t ~k ~n in
    Fmt.pr "@.closely matching system: %a@." System.pp s.Setsync.Characterization.system;
    Fmt.pr "weakest-synchrony frontier: %a@."
      Fmt.(list ~sep:sp System.pp)
      (Setsync.Lattice.maximal_solvable ~t ~k ~n)
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Print the Theorem 27 solvability grid")
    Term.(const run $ t_arg $ k_arg $ n_arg)

(* ---------------------------------------------------------- analyze *)

let analyze_cmd =
  let run n seed length bound =
    checked (fun () -> Proc.check_n n);
    at_least "--length" 0 length;
    at_least "--bound" 1 bound;
    let rng = Rng.create ~seed in
    let src = Generators.random_fair ~n ~rng () in
    let s = Source.take src length in
    Fmt.pr "random fair schedule over %d processes, %d steps (seed %d)@." n length seed;
    Fmt.pr "steps per process: %a@." Fmt.(array ~sep:sp int) (Schedule.steps_per_process s);
    Fmt.pr "singleton timeliness matrix (rows: P, cols: Q, observed bounds):@.";
    let m = Analysis.singleton_matrix s in
    Array.iter (fun row -> Fmt.pr "  %a@." Fmt.(array ~sep:sp (fmt "%4d")) row) m;
    List.iter
      (fun sz ->
        let d = System.make ~i:sz ~j:(min n (sz + 1)) ~n in
        Fmt.pr "member of %a at bound %d: %b@." System.pp d bound
          (System.member ~bound d s))
      (List.init (n - 1) (fun x -> x + 1))
  in
  let length = Arg.(value & opt int 50_000 & info [ "length" ] ~docv:"L" ~doc:"Schedule length.") in
  Cmd.v (Cmd.info "analyze" ~doc:"Timeliness analysis of a random schedule")
    Term.(const run $ n_arg $ seed_arg $ length $ bound_arg)

(* ----------------------------------------------------- trace-report *)

let trace_report_cmd =
  let run file json_out require_stabilized =
    let fatal fmt = Fmt.kstr (fun s -> Fmt.epr "setsync: %s@." s; exit 1) fmt in
    let events =
      match Analyze.load_jsonl file with Ok evs -> evs | Error e -> fatal "%s" e
    in
    let report =
      match Analyze.of_events events with
      | Ok r -> r
      | Error e -> fatal "%s: causality violation or malformed trace: %s" file e
    in
    Fmt.pr "%a@." Analyze.pp_report report;
    (match json_out with
    | None -> ()
    | Some "-" -> Fmt.pr "%s@." (Json.to_string (Analyze.report_to_json report))
    | Some path ->
        let oc = open_out path in
        output_string oc (Json.to_string (Analyze.report_to_json report));
        output_char oc '\n';
        close_out oc;
        Fmt.epr "setsync: report written to %s@." path);
    if require_stabilized then
      match report.Analyze.critical with
      | None -> fatal "%s: no stabilization anchor in trace (run violated or truncated)" file
      | Some p ->
          if p.Analyze.total <> p.Analyze.end_step then
            fatal
              "%s: critical path total %d does not telescope to the stabilization step %d"
              file p.Analyze.total p.Analyze.end_step;
          if p.Analyze.end_name <> "ct_stabilized" then
            fatal "%s: critical path ends at %s, not ct_stabilized" file p.Analyze.end_name
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"JSONL trace file written by $(b,--trace-out).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the report as machine-readable JSON (schema \
             setsync-trace-report/1) to $(docv); $(b,-) writes it to stdout.")
  in
  let require_arg =
    Arg.(
      value & flag
      & info [ "require-stabilized" ]
          ~doc:
            "Exit non-zero unless the trace carries a stabilization anchor and the \
             critical path's attributed delay telescopes exactly to its step (the \
             invariant $(b,make trace-smoke) pins).")
  in
  Cmd.v
    (Cmd.info "trace-report" ~doc:"Causal analysis of a traced run"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Reads a JSONL event trace, reconstructs the happens-before DAG (program \
              order from runtime.step events, message edges from net.send/deliver/drop \
              lineage), and prints the critical path to detector stabilization with \
              per-hop latency attribution (adversary-chosen vs. model-forced vs. FIFO \
              vs. inbox wait), per-pair delay breakdowns, and the drop lineage of \
              violated runs.";
           `S Manpage.s_exit_status;
           `P
             "0 on a consistent trace (with $(b,--require-stabilized): one whose \
              critical path reaches the stabilization event); 1 on read errors, \
              causality violations, or an unmet $(b,--require-stabilized).";
         ])
    Term.(const run $ file_arg $ json_arg $ require_arg)

(* ---------------------------------------------------------- explore *)

type explore_check = Check_kset | Check_timeliness | Check_detector

let explore_cmd =
  let check_conv =
    Arg.enum
      [
        ("kset", Check_kset); ("timeliness", Check_timeliness); ("detector", Check_detector);
      ]
  in
  let check_arg =
    Arg.(
      value
      & opt check_conv Check_kset
      & info [ "check" ] ~docv:"CHECK"
          ~doc:
            "What to model-check: $(b,kset) (k-set-agreement safety + validity), \
             $(b,timeliness) (single-process timeliness, seeded false on the Figure 1 \
             family: finds and shrinks a counterexample), or $(b,detector) (Figure 2 \
             stabilization at the horizon). With $(b,--backend net), $(b,kset) checks \
             the blind gossip protocol under a BRS partition and $(b,detector) checks \
             CT timeout-detector stabilization after GST (both with the explorer's \
             reductions forced off).")
  in
  let depth_arg =
    Arg.(value & opt int 6 & info [ "depth" ] ~docv:"D" ~doc:"Exploration depth bound.")
  in
  let bfs_arg =
    Arg.(value & flag & info [ "bfs" ] ~doc:"Breadth-first frontier (default: depth-first).")
  in
  let max_states_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"N" ~doc:"Budget: states visited.")
  in
  let max_replay_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-replay-steps" ] ~docv:"N" ~doc:"Budget: total steps across replays.")
  in
  let fingerprints_arg =
    Arg.(
      value
      & flag
      & info [ "fingerprints" ]
          ~doc:
            "Enable fingerprint memoization for $(b,kset)/$(b,detector) (approximate: \
             process-local state is not fingerprinted; the default for those checks is \
             sleep-set reduction only, which is exact). With $(b,--backend net) the \
             approximation is coarser still (channel contents are digested but local \
             timers are not) and a warning is printed.")
  in
  let domains_arg =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains exploring in parallel (default 1 = sequential). Verdicts \
             are equivalent across domain counts; which counterexample is reported \
             first, and the visited/pruned split under $(b,--fingerprints), are not.")
  in
  let engine_conv =
    Arg.enum
      [
        ("per-state", Explorer.Per_state);
        ("path", Explorer.Path);
        ("snapshot", Explorer.Snapshot);
      ]
  in
  let engine_arg =
    Arg.(
      value
      & opt (some engine_conv) None
      & info [ "engine" ] ~docv:"E"
          ~doc:
            "State (re)construction engine: $(b,path) (amortized path replay, the \
             default), $(b,per-state) (replay every state's prefix from scratch; the \
             comparison baseline), or $(b,snapshot) (typed copy/restore along the DFS \
             spine — zero replay steps; needs a machine-form shm system and a \
             depth-first frontier, so it excludes $(b,--backend net), $(b,--bfs) and \
             $(b,--check timeliness)).")
  in
  let symmetry_arg =
    Arg.(
      value
      & flag
      & info [ "symmetry" ]
          ~doc:
            "Process-renaming symmetry reduction: fingerprints are canonicalized over \
             the system's admissible renamings, so states equal up to renaming are \
             explored once. Requires $(b,--engine snapshot) and $(b,--fingerprints).")
  in
  let per_state_arg =
    Arg.(
      value
      & flag
      & info [ "per-state" ]
          ~doc:
            "Legacy alias of $(b,--engine per-state) (ignored when $(b,--engine) is \
             given).")
  in
  let max_seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S" ~doc:"Budget: wall-clock seconds.")
  in
  let progress_seconds_arg =
    Arg.(
      value
      & opt float 2.0
      & info [ "progress" ] ~docv:"S"
          ~doc:"Print a progress heartbeat to stderr every $(docv) seconds (0 disables).")
  in
  let search_summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "search-summary" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable search-telemetry block (JSON, schema \
             $(b,setsync-search-summary/1)) to $(docv) after the exploration: engine, \
             movement totals (replays for the replay engines, machine steps and \
             savepoint restores for the snapshot engine), and the per-depth \
             visited/pruned breakdown. $(docv) $(b,-) writes to stdout. Also enables \
             movement timing under $(b,--engine snapshot) (wall seconds spent stepping \
             and restoring).")
  in
  let run check n t k depth bound seed bfs max_states max_replay_steps max_seconds
      fingerprints engine_opt symmetry per_state domains backend delta gst trace_out
      metrics_out progress_seconds search_summary =
    at_least "--depth" 0 depth;
    at_least "--domains" 1 domains;
    let strategy = if bfs then Explorer.Bfs else Explorer.Dfs in
    let engine =
      match engine_opt with
      | Some e -> e
      | None -> if per_state then Explorer.Per_state else Explorer.Path
    in
    (* flag-compatibility gate: reject inert or impossible combinations
       loudly instead of silently ignoring them *)
    if symmetry && engine <> Explorer.Snapshot then begin
      Fmt.epr "setsync: --symmetry requires --engine snapshot (canonical fingerprints \
               are computed from the machine-form state)@.";
      exit 1
    end;
    if symmetry && not fingerprints then begin
      Fmt.epr "setsync: --symmetry reduces the fingerprint table and does nothing \
               without it; add --fingerprints@.";
      exit 1
    end;
    if engine = Explorer.Snapshot && bfs then begin
      Fmt.epr "setsync: --engine snapshot is depth-first only (its savepoint stack is \
               the DFS spine); drop --bfs@.";
      exit 1
    end;
    if engine = Explorer.Snapshot && backend = Backend_net then begin
      Fmt.epr "setsync: --engine snapshot needs a machine-form system; --backend net \
               systems step through the substrate and have none (use the path or \
               per-state engine)@.";
      exit 1
    end;
    if fingerprints && backend = Backend_net then
      Fmt.epr "setsync: warning: --fingerprints with --backend net is a coarse \
               approximation (channel contents are digested, per-process timers are \
               not); pruning may merge states that differ in timer state@.";
    let limits = Budget.limits ?max_states ?max_replay_steps ?max_seconds () in
    let obs = make_obs ~shards:domains ~trace_out ~metrics_out () in
    let gst = Option.value gst ~default:4 in
    (* heartbeat movement counters are engine-appropriate: the snapshot
       engine does zero replays (its movement is machine steps undone by
       savepoint restores), so printing replay steps there would show a
       frozen 0 forever *)
    let on_progress (p : Explorer.progress) =
      if engine = Explorer.Snapshot then
        Fmt.epr
          "[%6.1fs] states %d  machine %d steps (%d restores)  frontier %d  fp-pruned \
           %d  max depth %d@."
          p.Explorer.wall p.Explorer.states p.Explorer.machine_steps p.Explorer.restores
          p.Explorer.frontier p.Explorer.fp_pruned p.Explorer.max_depth
      else
        Fmt.epr
          "[%6.1fs] states %d  replays %d (%d steps)  frontier %d  fp-pruned %d  max \
           depth %d@."
          p.Explorer.wall p.Explorer.states p.Explorer.replays p.Explorer.replay_steps
          p.Explorer.frontier p.Explorer.fp_pruned p.Explorer.max_depth
    in
    let write_search_summary report =
      match search_summary with
      | None -> ()
      | Some f ->
          let line = Json.to_string (Explorer.search_summary_to_json report) in
          if f = "-" then Fmt.pr "%s@." line
          else begin
            let oc = open_out f in
            output_string oc line;
            output_char oc '\n';
            close_out oc;
            Fmt.pr "search summary written to %s@." f
          end
    in
    let explore_with ~sut ~properties config =
      (* timing the snapshot movement costs two clock reads per machine
         step; couple it to the explicit summary request *)
      let config = { config with Explorer.telemetry = search_summary <> None } in
      Explorer.explore ~domains ?obs ~on_progress ~progress_interval:progress_seconds
        ~sut ~properties config
    in
    (* exit codes: 0 = no property violated; 2 = some property violated
       (counting timeliness counterexamples, which that mode goes
       looking for); 1 = operational failure (a shrunk counterexample
       that no longer reproduces). *)
    let finish report ok =
      Fmt.pr "%a@." Explorer.pp_report report;
      Fmt.pr "time: %a (%d domain%s)@." Budget.pp_times report.Explorer.stats domains
        (if domains = 1 then "" else "s");
      write_search_summary report;
      write_obs ~trace_out ~metrics_out obs;
      exit (if ok report then 0 else 2)
    in
    match (check, backend) with
    | Check_kset, Backend_shm ->
        let problem = checked (fun () -> Problem.make ~t ~k ~n) in
        let inputs =
          if seed = 1 then Problem.distinct_inputs problem
          else Problem.random_inputs problem ~rng:(Rng.create ~seed) ~spread:(2 * n)
        in
        let sut = Explore_systems.kset_agreement ~problem ~inputs () in
        let properties =
          [
            Property.kset_agreement ~k ~decisions:(fun st ->
                st.Explorer.obs.Explore_systems.decisions);
            Property.validity ~inputs ~decisions:(fun st ->
                st.Explorer.obs.Explore_systems.decisions);
          ]
        in
        let config =
          Explorer.config ~strategy ~prune_fingerprints:fingerprints ~engine ~symmetry
            ~limits ~depth ()
        in
        Fmt.pr "exploring %a, inputs %a, depth %d@." Problem.pp problem
          Fmt.(array ~sep:sp int)
          inputs depth;
        let report = explore_with ~sut ~properties config in
        finish report (fun r ->
            List.for_all (fun (_, v) -> v = Explorer.Ok_bounded) r.Explorer.verdicts)
    | Check_kset, Backend_net ->
        (* net replay footprints under-approximate clock reads, so sleep
           sets stay forced off (see Net's exploration caveat);
           fingerprints are opt-in and warned about above *)
        let adversary =
          checked (fun () ->
              Proc.check_n n;
              Adversary.brs_kset ~delta ~gst ~n ~k)
        in
        let inputs = net_inputs n in
        let sut = Net_systems.kset_blind ~inputs ~adversary () in
        let properties =
          [
            Property.kset_agreement ~k ~decisions:(fun st ->
                st.Explorer.obs.Explore_systems.decisions);
            Property.validity ~inputs ~decisions:(fun st ->
                st.Explorer.obs.Explore_systems.decisions);
          ]
        in
        let config =
          Explorer.config ~strategy ~prune_fingerprints:fingerprints ~sleep_sets:false
            ~engine ~limits ~depth ()
        in
        Fmt.pr
          "exploring blind k-set gossip vs %s (n=%d, k=%d, delta=%d, gst=%d), depth %d@."
          adversary.Adversary.name n k delta gst depth;
        let report = explore_with ~sut ~properties config in
        finish report (fun r ->
            List.for_all (fun (_, v) -> v = Explorer.Ok_bounded) r.Explorer.verdicts)
    | Check_detector, Backend_shm ->
        let params = { Kanti_omega.n; t; k } in
        checked (fun () -> Kanti_omega.check_params params);
        let sut = Explore_systems.kanti_detector ~params () in
        let properties =
          [
            Property.anti_omega_stabilized ~k
              ~outputs:(fun st -> st.Explorer.obs.Explore_systems.fd_outputs)
              ~correct:(fun st -> Run.correct st.Explorer.run);
          ]
        in
        let config =
          Explorer.config ~strategy ~prune_fingerprints:fingerprints ~engine ~symmetry
            ~limits ~depth ()
        in
        Fmt.pr "exploring Figure 2 detector (n=%d, t=%d, k=%d), depth %d@." n t k depth;
        let report = explore_with ~sut ~properties config in
        finish report (fun r ->
            List.for_all (fun (_, v) -> v = Explorer.Ok_bounded) r.Explorer.verdicts)
    | Check_detector, Backend_net ->
        (* CT timeout detector stabilization after GST; sleep sets off,
           as for net kset. Readiness needs depth >= about 7n after GST
           on round-robin paths — depth 14 covers (n=2, gst=4, delta=1). *)
        let adversary =
          checked (fun () ->
              Proc.check_n n;
              Adversary.gst_drop ~delta ~gst)
        in
        let sut = Net_systems.ct_leader ~clients:n ~adversary () in
        let properties = [ Net_systems.ct_stabilized ~delta ] in
        let config =
          Explorer.config ~strategy ~prune_fingerprints:fingerprints ~sleep_sets:false
            ~engine ~limits ~depth ()
        in
        Fmt.pr "exploring CT timeout detector (n=%d, delta=%d, gst=%d), depth %d@." n
          delta gst depth;
        let report = explore_with ~sut ~properties config in
        finish report (fun r ->
            List.for_all (fun (_, v) -> v = Explorer.Ok_bounded) r.Explorer.verdicts)
    | Check_timeliness, Backend_net ->
        Fmt.epr "--check timeliness is schedule-only; --backend net does not apply@.";
        exit 1
    | Check_timeliness, Backend_shm ->
        (* Single-process timeliness of {p1} wrt {pn} — false on the
           Figure 1 family, so exploration must find a counterexample;
           schedule-sensitive, so both reductions are off. The frontier
           is forced breadth-first (shortest counterexample first),
           which the depth-first-only snapshot engine cannot serve. *)
        if engine = Explorer.Snapshot then begin
          Fmt.epr "setsync: --check timeliness forces a breadth-first frontier; the \
                   snapshot engine is depth-first only@.";
          exit 1
        end;
        checked (fun () -> Proc.check_n n);
        at_least "--bound" 1 bound;
        let p = Procset.singleton 0 and q = Procset.singleton (n - 1) in
        let sut = Explore_systems.pause_procs ~n in
        let property =
          Property.set_timely ~p ~q ~bound ~schedule:(fun st -> st.Explorer.prefix)
        in
        let config =
          Explorer.config ~strategy:Explorer.Bfs ~prune_fingerprints:false
            ~sleep_sets:false ~engine ~limits ~depth ()
        in
        Fmt.pr
          "exploring schedules over %d processes, depth %d: is {p1} timely wrt {p%d} at \
           bound %d?@."
          n depth n bound;
        let report = explore_with ~sut ~properties:[ property ] config in
        Fmt.pr "%a@." Explorer.pp_report report;
        let code =
          match List.assoc property.Property.name report.Explorer.verdicts with
          | Explorer.Ok_bounded ->
              Fmt.pr "no counterexample within depth %d (raise --depth)@." depth;
              1
          | Explorer.Violated { schedule; reason } ->
              Fmt.pr "@.counterexample (%d steps): %a@.  %s@." (Schedule.length schedule)
                Schedule.pp_full schedule reason;
              let violates s =
                Explorer.check_schedule ~sut ~property s <> None
              in
              let shrunk = Shrink.run ~violates schedule in
              Fmt.pr "shrunk to %d steps in %d ddmin tests: %a@."
                (Schedule.length shrunk.Shrink.schedule)
                shrunk.Shrink.tests Schedule.pp_full shrunk.Shrink.schedule;
              let reproduced =
                Explorer.check_schedule ~sut ~property shrunk.Shrink.schedule
              in
              (match reproduced with
              | Some why ->
                  Fmt.pr "replayed shrunk schedule: violation reproduced (%s)@." why;
                  (* a found-and-reproduced counterexample is still a
                     Violated verdict: report it as one (exit 2) *)
                  2
              | None ->
                  Fmt.pr "replayed shrunk schedule: VIOLATION LOST@.";
                  1)
        in
        write_search_summary report;
        write_obs ~trace_out ~metrics_out obs;
        exit code
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Bounded model checking of a small instance"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 when no property is violated; 2 when any property has a Violated \
              verdict (including a found-and-reproduced timeliness counterexample, \
              which that mode goes looking for); 1 on operational failure (no \
              counterexample found where one was expected, or a shrunk counterexample \
              that no longer reproduces).";
         ])
    Term.(
      const run $ check_arg $ n_arg $ t_arg $ k_arg $ depth_arg $ bound_arg $ seed_arg
      $ bfs_arg $ max_states_arg $ max_replay_arg $ max_seconds_arg $ fingerprints_arg
      $ engine_arg $ symmetry_arg $ per_state_arg $ domains_arg $ backend_arg $ delta_arg
      $ gst_arg $ trace_out_arg $ metrics_out_arg $ progress_seconds_arg
      $ search_summary_arg)

(* ------------------------------------------------------------- fuzz *)

type fuzz_sut = Fuzz_seeded_bug | Fuzz_fixed | Fuzz_kset

let fuzz_cmd =
  let sut_conv =
    Arg.enum
      [ ("seeded-bug", Fuzz_seeded_bug); ("fixed", Fuzz_fixed); ("kset", Fuzz_kset) ]
  in
  let sut_arg =
    Arg.(
      value
      & opt sut_conv Fuzz_seeded_bug
      & info [ "sut" ] ~docv:"SUT"
          ~doc:
            "What to fuzz: $(b,seeded-bug) (a copy of the Figure 2 counter logic with a \
             planted argmin off-by-one — the fuzzer must find and shrink it), \
             $(b,fixed) (the faithful copy: same property, no violation expected), or \
             $(b,kset) (the Theorem 24 k-set-agreement solver under agreement + \
             validity).")
  in
  let fn_arg = Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.") in
  let ft_arg = Arg.(value & opt int 1 & info [ "t" ] ~docv:"T" ~doc:"Resilience.") in
  let fk_arg = Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Detector/agreement degree.") in
  let execs_arg =
    Arg.(value & opt int 2_000 & info [ "execs" ] ~docv:"N" ~doc:"Budget: schedules executed.")
  in
  let len_arg =
    Arg.(value & opt int 96 & info [ "len" ] ~docv:"L" ~doc:"Target schedule length.")
  in
  let stride_arg =
    Arg.(
      value
      & opt int 1
      & info [ "stride" ] ~docv:"S"
          ~doc:"Probe the trajectory every $(docv) executed steps (1 = every state).")
  in
  let fuzz_crashes_arg =
    Arg.(
      value
      & opt int 0
      & info [ "crashes" ] ~docv:"C"
          ~doc:"Crash mutation budget: the crash-shift mutator keeps at most $(docv) crashes.")
  in
  let max_replay_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-replay-steps" ] ~docv:"N" ~doc:"Budget: total executed steps.")
  in
  let max_seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:"Budget: wall-clock seconds (trades determinism for a time box).")
  in
  let repro_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "repro" ] ~docv:"SEED"
          ~doc:
            "Replay the fuzz run for $(docv) under the same configuration flags; prints \
             the identical violation block byte-for-byte (the loop is a pure function \
             of its seed).")
  in
  let progress_seconds_arg =
    Arg.(
      value
      & opt float 2.0
      & info [ "progress" ] ~docv:"S"
          ~doc:"Print a progress heartbeat to stderr every $(docv) seconds (0 disables).")
  in
  let run sut_choice n t k seed execs len stride crashes max_replay_steps max_seconds
      repro backend delta gst trace_out metrics_out progress_seconds =
    at_least "--len" 1 len;
    at_least "--stride" 1 stride;
    at_least "--crashes" 0 crashes;
    let seed = Option.value repro ~default:seed in
    let limits = Budget.limits ~max_states:execs ?max_replay_steps ?max_seconds () in
    let obs = make_obs ~trace_out ~metrics_out () in
    let on_progress (p : Fuzz.progress) =
      Fmt.epr "[%6.1fs] execs %d (%.0f/s)  corpus %d  digests %d@." p.Fuzz.wall
        p.Fuzz.execs p.Fuzz.execs_per_s p.Fuzz.corpus p.Fuzz.digests
    in
    let sut_name =
      match sut_choice with
      | Fuzz_seeded_bug -> "seeded-bug"
      | Fuzz_fixed -> "fixed"
      | Fuzz_kset -> "kset"
    in
    let go ?(seeds = []) ?(repro_extra = "") ~sut ~properties () =
      let report =
        Fuzz.run ?obs ~on_progress ~progress_interval:progress_seconds
          ~max_crashes:crashes ~len ~stride ~limits ~seeds ~sut ~properties ~seed ()
      in
      Fmt.pr "%a@." Fuzz.pp_report report;
      Fmt.pr "time: %a@." Budget.pp_times report.Fuzz.stats;
      write_obs ~trace_out ~metrics_out obs;
      match report.Fuzz.outcome with
      | Fuzz.Passed -> exit 0
      | Fuzz.Violation v -> (
          let property =
            List.find (fun (p : _ Property.t) -> p.Property.name = v.Fuzz.property) properties
          in
          match Explorer.check_schedule ~sut ~property ~fault:v.Fuzz.fault v.Fuzz.shrunk with
          | Some _ ->
              Fmt.pr "replayed shrunk schedule: violation reproduced@.";
              Fmt.pr "repro: setsync fuzz --sut %s -n %d -t %d -k %d --len %d --execs %d \
                      --crashes %d%s --repro %d@."
                sut_name n t k len execs crashes repro_extra seed;
              exit 2
          | None ->
              Fmt.pr "replayed shrunk schedule: VIOLATION LOST@.";
              exit 1)
    in
    match (sut_choice, backend) with
    | (Fuzz_seeded_bug | Fuzz_fixed), Backend_net ->
        Fmt.epr "--backend net supports only --sut kset (the counter cores are \
                 shared-memory systems)@.";
        exit 1
    | Fuzz_seeded_bug, Backend_shm ->
        checked (fun () -> Kanti_omega.check_params { Kanti_omega.n; t; k });
        Fmt.pr "fuzzing the seeded-bug counter core (n=%d, t=%d, k=%d), seed %d, len %d@."
          n t k seed len;
        go
          ~sut:(Fuzz_systems.counter_core ~params:{ Kanti_omega.n; t; k } ())
          ~properties:[ Fuzz_systems.winner_argmin () ]
          ()
    | Fuzz_fixed, Backend_shm ->
        checked (fun () -> Kanti_omega.check_params { Kanti_omega.n; t; k });
        Fmt.pr "fuzzing the faithful counter core (n=%d, t=%d, k=%d), seed %d, len %d@."
          n t k seed len;
        go
          ~sut:(Fuzz_systems.counter_core ~bug:false ~params:{ Kanti_omega.n; t; k } ())
          ~properties:[ Fuzz_systems.winner_argmin () ]
          ()
    | Fuzz_kset, Backend_shm ->
        let problem = checked (fun () -> Problem.make ~t ~k ~n) in
        let inputs = Problem.distinct_inputs problem in
        Fmt.pr "fuzzing %a, inputs %a, seed %d, len %d@." Problem.pp problem
          Fmt.(array ~sep:sp int)
          inputs seed len;
        go
          ~sut:(Explore_systems.kset_agreement ~problem ~inputs ())
          ~properties:
            [
              Property.kset_agreement ~k ~decisions:(fun st ->
                  st.Explorer.obs.Explore_systems.decisions);
              Property.validity ~inputs ~decisions:(fun st ->
                  st.Explorer.obs.Explore_systems.decisions);
            ]
          ()
    | Fuzz_kset, Backend_net ->
        (* blind gossip under a BRS partition that (by default) never
           heals: the net_adversary burst schedule is seeded into the
           corpus, so the k-set violation is found and ddmin-shrunk *)
        let gst = Option.value gst ~default:1_000_000 in
        let adversary =
          checked (fun () ->
              Proc.check_n n;
              Adversary.brs_kset ~delta ~gst ~n ~k)
        in
        let inputs = net_inputs n in
        let sut = Net_systems.kset_blind ~inputs ~adversary () in
        let burst = (2 * n) + 1 in
        let seeds =
          [
            Source.take
              (Generators.net_adversary ~n ~groups:(brs_groups ~n ~k) ~burst ())
              (n * burst);
          ]
        in
        Fmt.pr
          "fuzzing blind k-set gossip vs %s (n=%d, k=%d, delta=%d, gst=%d), seed %d, \
           len %d, %d burst-seeded schedules@."
          adversary.Adversary.name n k delta gst seed len (List.length seeds);
        go ~seeds
          ~repro_extra:(Fmt.str " --backend net --delta %d --gst %d" delta gst)
          ~sut
          ~properties:
            [
              Property.kset_agreement ~k ~decisions:(fun st ->
                  st.Explorer.obs.Explore_systems.decisions);
              Property.validity ~inputs ~decisions:(fun st ->
                  st.Explorer.obs.Explore_systems.decisions);
            ]
          ()
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Coverage-guided randomized schedule fuzzing"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Executes random schedules against the chosen system, keeps the ones that \
              reach novel state fingerprints, and mutates them (swap / insert / delete \
              / duplicate segments, crash-point shifts, timeliness-contract-preserving \
              suffix regeneration). A violation is re-verified exactly, minimized with \
              ddmin, and reported with the seed that found it. With no $(b,--max-seconds) \
              the run is a pure function of its seed: $(b,--repro) SEED replays it and \
              prints the identical violation block.";
           `S Manpage.s_exit_status;
           `P
             "0 when the budget is exhausted with no violation; 2 when a violation is \
              found, shrunk, and reproduced; 1 on operational failure (a shrunk \
              counterexample that no longer violates).";
         ])
    Term.(
      const run $ sut_arg $ fn_arg $ ft_arg $ fk_arg $ seed_arg $ execs_arg $ len_arg
      $ stride_arg $ fuzz_crashes_arg $ max_replay_arg $ max_seconds_arg $ repro_arg
      $ backend_arg $ delta_arg $ gst_arg $ trace_out_arg $ metrics_out_arg
      $ progress_seconds_arg)

let () =
  let doc = "partial synchrony based on set timeliness (PODC 2009), executable" in
  let info = Cmd.info "setsync" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figure1_cmd;
            fd_cmd;
            solve_cmd;
            sweep_cmd;
            analyze_cmd;
            trace_report_cmd;
            explore_cmd;
            fuzz_cmd;
          ]))
