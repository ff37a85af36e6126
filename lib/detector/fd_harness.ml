module Procset = Setsync_schedule.Procset
module Store = Setsync_memory.Store
module Executor = Setsync_runtime.Executor
module Machine = Setsync_runtime.Machine
module Run = Setsync_runtime.Run
module Fault = Setsync_runtime.Fault
module Obs = Setsync_obs.Obs
module Metrics = Setsync_obs.Metrics
module Events = Setsync_obs.Events
module Json = Setsync_obs.Json

type result = {
  run : Run.t;
  outputs : Procset.t History.t;
  winnersets : Procset.t History.t;
  iterations : int array;
  verdict : Anti_omega.verdict;
  winner_verdict : Anti_omega.winner_verdict;
  store : Store.t;
}

let run ~params ~source ~max_steps ?(fault = Fault.no_faults) ?initial_timeout
    ?stop_after_stable ?margin ?obs () =
  Kanti_omega.check_params params;
  let { Kanti_omega.n; t; k } = params in
  let store = Store.create () in
  let machine =
    Kanti_omega.machine ?initial_timeout (Kanti_omega.create_shared store params) params
  in
  let processes = Kanti_omega.processes machine in
  let outputs = History.create ~n in
  let winnersets = History.create ~n in
  (* survivors: processes the fault plan never kills; early stopping
     keys on them because they are the ones that must converge *)
  let tally = Run.Tally.create ~n fault in
  let survivor p = Run.Tally.budget tally p = max_int in
  let last_change = ref 0 in
  let ev = match obs with Some o when Obs.events_on o -> Some o.Obs.events | Some _ | None -> None in
  let on_step ~global ~proc =
    let p = processes.(proc) in
    let w = Kanti_omega.winnerset p in
    (match History.last winnersets ~proc with
    | Some (_, prev) when Procset.equal prev w -> ()
    | Some _ | None -> if survivor proc then last_change := global);
    let out = Kanti_omega.fd_output p in
    (match ev with
    | Some sink -> (
        match History.last outputs ~proc with
        | Some (_, prev) when Procset.equal prev out -> ()
        | Some _ | None ->
            Events.emit sink ~proc
              ~args:
                [ ("step", Json.Int global); ("output", Json.String (Fmt.str "%a" Procset.pp out)) ]
              ~ts:global ~cat:"detector" "fd_output_change")
    | None -> ());
    History.note outputs ~proc ~step:global ~equal:Procset.equal out;
    History.note winnersets ~proc ~step:global ~equal:Procset.equal w
  in
  let stop =
    match stop_after_stable with
    | None -> None
    | Some window ->
        if window < 1 then invalid_arg "Fd_harness.run: stability window must be >= 1";
        let survivors = List.filter survivor (Setsync_schedule.Proc.all ~n) in
        Some
          (fun () ->
            (* every planned crash must already have happened, so the
               stabilized state reflects the final failure pattern *)
            let crashes_done =
              let rec check p =
                p >= n || ((survivor p || not (Run.Tally.live tally p)) && check (p + 1))
              in
              check 0
            in
            crashes_done
            && Run.Tally.total_steps tally - 1 - !last_change >= window
            && List.for_all (fun p -> Kanti_omega.iterations processes.(p) >= 1) survivors
            &&
            match survivors with
            | [] -> true
            | s0 :: rest ->
                let w0 = Kanti_omega.winnerset processes.(s0) in
                List.for_all
                  (fun p -> Procset.equal (Kanti_omega.winnerset processes.(p)) w0)
                  rest)
  in
  let step p =
    Kanti_omega.step machine Machine.direct p;
    false
  in
  let run = Executor.run_with ~n ~source ~max_steps ~tally ?stop ~on_step ?obs step in
  let crashed = Run.crashed run in
  let total_steps = Run.total_steps run in
  let verdict = Anti_omega.validate ~n ~t ~k ~crashed ~total_steps ?margin ~outputs () in
  let winner_verdict =
    Anti_omega.validate_winner ~n ~t ~crashed ~total_steps ?margin ~winnersets ()
  in
  (match obs with
  | Some o -> (
      Metrics.incr (Metrics.counter o.Obs.metrics "detector.runs");
      match winner_verdict with
      | Anti_omega.Winner_stable { winner; stable_from } ->
          Metrics.observe
            (Metrics.histogram o.Obs.metrics "detector.stabilization_steps")
            (float_of_int stable_from);
          if Events.enabled o.Obs.events then
            Events.emit o.Obs.events
              ~args:
                [
                  ("stable_from", Json.Int stable_from);
                  ("winner", Json.String (Fmt.str "%a" Procset.pp winner));
                ]
              ~ts:total_steps ~cat:"detector" "stabilization_detected"
      | Anti_omega.Winner_vacuous _ | Anti_omega.Winner_unstable _ -> ())
  | None -> ());
  {
    run;
    outputs;
    winnersets;
    iterations = Array.map Kanti_omega.iterations processes;
    verdict;
    winner_verdict;
    store;
  }

let convergence_step result =
  match result.winner_verdict with
  | Anti_omega.Winner_stable { stable_from; _ } -> Some stable_from
  | Anti_omega.Winner_vacuous _ | Anti_omega.Winner_unstable _ -> None
