module Procset = Setsync_schedule.Procset
module Store = Setsync_memory.Store
module Executor = Setsync_runtime.Executor
module Machine = Setsync_runtime.Machine
module Run = Setsync_runtime.Run
module Obs = Setsync_obs.Obs
module Metrics = Setsync_obs.Metrics
module Events = Setsync_obs.Events
module Json = Setsync_obs.Json

type outcome = {
  run : Run.t;
  decisions : int option array;
  decide_steps : int option array;
  report : Checker.report;
  fd_iterations : int array option;
  used_trivial : bool;
}

(* Processes the scheduler abandoned: no step in the final tenth (at
   least 1000 steps) of the run AND a negligible lifetime share of
   steps. In the infinite-schedule reading they are faulty; see
   Checker. The share condition keeps a process that merely sits out
   one long (but finite) starvation phase at the end of the run from
   being misclassified. *)
let starved_of run =
  let total = Run.total_steps run in
  let window = max 1000 (total / 10) in
  let share_cap = total / (8 * run.Run.n) in
  let taken = run.Run.taken in
  let crashed = Run.crashed run in
  Procset.filter
    (fun p ->
      (not (Procset.mem p crashed))
      && run.Run.steps_of.(p) <= share_cap
      &&
      match Setsync_schedule.Schedule.last_occurrence taken p with
      | None -> total > window
      | Some last -> last < total - window)
    (Procset.full ~n:run.Run.n)

type solver_bundle = {
  step : Machine.step;
  snapshot_decisions : unit -> int option array;
  fd_iterations : unit -> int array option;
  view : Kset_solver.adversary_view;
  used_trivial : bool;
}

let make_bundle ~problem ~inputs ?initial_timeout ?(solver = `Auto) store =
  let { Problem.n; _ } = problem in
  if solver = `Paxos then begin
    (* end-to-end consensus regardless of (t, k): the backend-equality
       experiments drive the same Paxos code over shm and net stores *)
    let c = Consensus.create store ~n ~inputs () in
    {
      step = Consensus.step c;
      snapshot_decisions = (fun () -> Consensus.decisions c);
      fd_iterations = (fun () -> None);
      view = Kset_solver.empty_adversary_view ~n;
      used_trivial = false;
    }
  end
  else if Problem.is_trivially_solvable problem then begin
    let solver = Trivial.create store ~problem ~inputs in
    {
      step = Trivial.step solver;
      snapshot_decisions = (fun () -> Trivial.decisions solver);
      fd_iterations = (fun () -> None);
      view = Kset_solver.empty_adversary_view ~n;
      used_trivial = true;
    }
  end
  else begin
    let solver = Kset_solver.create store ~problem ~inputs ?initial_timeout () in
    {
      step = Kset_solver.machine_step (Kset_solver.machine solver);
      snapshot_decisions = (fun () -> Kset_solver.decisions solver);
      fd_iterations = (fun () -> Some (Kset_solver.fd_iterations solver));
      view = Kset_solver.adversary_view solver;
      used_trivial = false;
    }
  end

let execute ~problem ~inputs ~source ~max_steps ?fault ?total ?extra_body ?boost ?substrate
    ?on_step:caller_on_step ?obs store bundle =
  let { Problem.n; _ } = problem in
  (* The executor universe may be wider than the problem: processes
     [n..total-1] run [extra_body] (register owners under the net
     backend) and are infrastructure — they never decide, and the
     checker never sees them as crashed or starved. *)
  let total = Option.value total ~default:n in
  if total < n then invalid_arg "Ag_harness: total smaller than the problem size";
  if total > n && extra_body = None then
    invalid_arg "Ag_harness: extra processes need an extra_body";
  (* On a plain store the executor calls the machine step itself. A
     substrate or a routed store may make one access span several
     scheduled steps, and extra processes bring fiber bodies of their
     own: then every process runs as a fiber, the solver's through
     [Machine.body]. *)
  let step =
    match (substrate, extra_body) with
    | None, None when not (Store.routed store) ->
        fun p ->
          bundle.step Machine.direct p;
          false
    | _ ->
        Executor.fibers ~n:total (fun p ->
            if p < n then Machine.body bundle.step p
            else match extra_body with Some f -> f p | None -> assert false)
  in
  let clients_only s = Procset.filter (fun p -> p < n) s in
  let decide_steps = Array.make n None in
  (* Processes idle (taking pause steps) after deciding, so the run
     must be stopped explicitly: once every process has either decided
     or exhausted its crash budget, nothing further can change. *)
  let tally = Run.Tally.create ~n:total (Option.value fault ~default:[]) in
  let on_step ~global ~proc =
    (match caller_on_step with Some f -> f ~global ~proc | None -> ());
    (* record the first step at which each decision became visible *)
    let now = bundle.snapshot_decisions () in
    Array.iteri
      (fun p d -> if d <> None && decide_steps.(p) = None then decide_steps.(p) <- Some global)
      now
  in
  let stop () =
    let now = bundle.snapshot_decisions () in
    let settled p = now.(p) <> None || not (Run.Tally.live tally p) in
    let rec check p = p >= n || (settled p && check (p + 1)) in
    check 0
  in
  let run =
    Executor.run_with ~n:total ~source ~max_steps ~tally ?substrate ?boost ~on_step ~stop ?obs step
  in
  let decisions = bundle.snapshot_decisions () in
  let report =
    Checker.check ~problem ~inputs ~decisions
      ~crashed:(clients_only (Run.crashed run))
      ~starved:(clients_only (starved_of run))
      ()
  in
  (* Decision latency: the global step at which each decision first
     became visible. Recorded per solved run, so the histogram across
     an experiment campaign is the paper-facing "time to decide". *)
  (match obs with
  | None -> ()
  | Some o ->
      let latency = Metrics.histogram o.Obs.metrics "agreement.decision_latency_steps" in
      let decided_c = Metrics.counter o.Obs.metrics "agreement.decided" in
      let ev = if Obs.events_on o then Some o.Obs.events else None in
      Array.iteri
        (fun p step ->
          match step with
          | None -> ()
          | Some step ->
              Metrics.incr decided_c;
              Metrics.observe latency (float_of_int step);
              (match ev with
              | Some sink ->
                  Events.emit sink ~proc:p
                    ~args:
                      (("step", Json.Int step)
                       ::
                       (match decisions.(p) with
                       | Some v -> [ ("value", Json.Int v) ]
                       | None -> []))
                    ~cat:"agreement" "decide"
              | None -> ()))
        decide_steps);
  {
    run;
    decisions;
    decide_steps;
    report;
    fd_iterations = bundle.fd_iterations ();
    used_trivial = bundle.used_trivial;
  }

let solve ~problem ~inputs ~source ~max_steps ?fault ?initial_timeout ?solver ?store ?total
    ?extra_body ?boost ?substrate ?on_step ?obs () =
  let store = match store with Some s -> s | None -> Store.create () in
  let bundle = make_bundle ~problem ~inputs ?initial_timeout ?solver store in
  execute ~problem ~inputs ~source ~max_steps ?fault ?total ?extra_body ?boost ?substrate
    ?on_step ?obs store bundle

let solve_adaptive ~problem ~inputs ~make_source ~max_steps ?fault ?initial_timeout ?obs () =
  let store = Store.create () in
  let bundle = make_bundle ~problem ~inputs ?initial_timeout store in
  let source = make_source ~view:bundle.view in
  execute ~problem ~inputs ~source ~max_steps ?fault ?obs store bundle

let ok outcome = Checker.ok outcome.report

let last_decide_step outcome =
  Array.fold_left
    (fun acc s -> match s with Some s -> Some (max (Option.value acc ~default:0) s) | None -> acc)
    None outcome.decide_steps

let pp ppf outcome =
  Fmt.pf ppf "%a | %a%s" Run.pp outcome.run Checker.pp outcome.report
    (if outcome.used_trivial then " [trivial]" else "")
