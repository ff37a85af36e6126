module Proc = Setsync_schedule.Proc
module Source = Setsync_schedule.Source
module Obs = Setsync_obs.Obs
module Metrics = Setsync_obs.Metrics
module Events = Setsync_obs.Events
module Json = Setsync_obs.Json

type source_factory = live:(Proc.t -> bool) -> Source.t

type boost = global:int -> next:Proc.t -> Proc.t option

(* If the source names only unschedulable processes this many times in
   a row, the run is declared stalled rather than looping forever. *)
let max_consecutive_skips n = 64 * n

type step = Proc.t -> bool

let fibers ~n body =
  Proc.check_n n;
  let fibers = Array.init n (fun p -> Fiber.spawn (body p)) in
  fun p ->
    match Fiber.step fibers.(p) with
    | Fiber.Performed -> false
    | Fiber.Finished -> true
    | Fiber.Already_done -> assert false

let grant ?substrate tally step p =
  (match substrate with
  | Some s -> Substrate.pre_step s ~global:(Run.Tally.total_steps tally) ~proc:p
  | None -> ());
  if step p then Run.Tally.halt tally p;
  Run.Tally.note_step tally p

(* [resume]: [tally] records a run under way, restored right after one
   of its executed steps, and the loop continues that run *)
let drive ~resume ~n ~source ~max_steps ?fault ?tally ?substrate ?boost ?on_step ?stop ?obs
    step =
  Proc.check_n n;
  if max_steps < 0 then invalid_arg "Executor.run: negative step budget";
  let tally =
    match (tally, fault) with
    | Some _, Some _ -> invalid_arg "Executor.run: pass either a tally or a fault plan"
    | Some t, None ->
        if Run.Tally.n t <> n then invalid_arg "Executor.run: tally universe mismatch";
        if (not resume) && Run.Tally.total_steps t <> 0 then
          invalid_arg "Executor.run: the tally is not fresh";
        t
    | None, fault -> Run.Tally.create ~n (Option.value fault ~default:Fault.no_faults)
  in
  (* Instrumentation is resolved once, outside the step loop: the
     un-instrumented path pays one [match] per step on [meters] and
     one on [ev]; metric handles are interned here, never per step. *)
  let meters =
    match obs with
    | None -> None
    | Some o ->
        Some
          ( Metrics.counter o.Obs.metrics "runtime.steps",
            Metrics.counter o.Obs.metrics "runtime.crashes" )
  in
  let ev = match obs with Some o when Obs.events_on o -> Some o.Obs.events | Some _ | None -> None in
  let substrate_live =
    match substrate with None -> fun _ -> true | Some s -> Substrate.live s
  in
  let schedulable p = Run.Tally.live tally p && substrate_live p in
  let src = source ~live:schedulable in
  if Source.n src <> n then invalid_arg "Executor.run: source universe mismatch";
  let executed () = Run.Tally.total_steps tally in
  let skips = ref 0 in
  let reason = ref None in
  let finish r = reason := Some r in
  let any_schedulable () =
    let rec scan p = p < n && (schedulable p || scan (p + 1)) in
    scan 0
  in
  let execute p =
    let global = executed () in
    let died = grant ?substrate tally step p in
    skips := 0;
    (match meters with
    | Some (steps_c, crashes_c) ->
        Metrics.incr steps_c;
        if died then Metrics.incr crashes_c
    | None -> ());
    (match ev with
    | Some sink ->
        (* [pidx] is p's own step index: the local program-order edge of
           the happens-before DAG is (p, pidx-1) -> (p, pidx), explicit
           in the trace so Analyze never has to reconstruct it. *)
        Events.emit sink ~proc:p
          ~args:[ ("global", Json.Int global); ("pidx", Json.Int (Run.Tally.steps tally p - 1)) ]
          ~cat:"runtime" "step";
        if died then
          Events.emit sink ~proc:p ~args:[ ("step", Json.Int global) ] ~cat:"runtime" "crash"
    | None -> ());
    (match on_step with Some f -> f ~global ~proc:p | None -> ());
    match stop with Some f when f () -> finish Run.Stopped_early | Some _ | None -> ()
  in
  (match ev with
  | Some sink ->
      Events.emit sink ~phase:Events.Begin ~args:[ ("n", Json.Int n) ] ~cat:"runtime" "run"
  | None -> ());
  while !reason = None do
    if executed () >= max_steps then finish Run.Step_budget
    else if not (any_schedulable ()) then finish Run.All_halted
    else
      match Source.next src with
      | None -> finish Run.Source_exhausted
      | Some p ->
          if schedulable p then begin
            (* Opportunistic grants: before the source-chosen step, the
               boost policy may insert steps for other processes (round
               batching grants a register owner a serve turn while the
               next client is parked). Boosted steps are ordinary
               executed steps — recorded in [taken], charged to the
               budget — so a recorded schedule replays with no boost. *)
            (match boost with
            | None -> ()
            | Some policy ->
                let budget = ref n in
                let go = ref true in
                while !go && !budget > 0 && !reason = None && executed () < max_steps do
                  match policy ~global:(executed ()) ~next:p with
                  | Some q when q <> p && schedulable q ->
                      execute q;
                      decr budget
                  | _ -> go := false
                done);
            if !reason = None && executed () < max_steps && schedulable p then execute p
          end
          else begin
            incr skips;
            if !skips > max_consecutive_skips n then finish Run.Stalled
          end
  done;
  (match ev with
  | Some sink ->
      Events.emit sink ~phase:Events.End ~args:[ ("steps", Json.Int (executed ())) ] ~cat:"runtime"
        "run"
  | None -> ());
  Run.Tally.freeze tally (match !reason with Some r -> r | None -> assert false)

let run_with ~n ~source ~max_steps ?fault ?tally ?substrate ?boost ?on_step ?stop ?obs step =
  drive ~resume:false ~n ~source ~max_steps ?fault ?tally ?substrate ?boost ?on_step ?stop ?obs
    step

let run ~n ~source ~max_steps ?fault ?tally ?substrate ?boost ?on_step ?stop ?obs body =
  run_with ~n ~source ~max_steps ?fault ?tally ?substrate ?boost ?on_step ?stop ?obs
    (fibers ~n body)

let replay_with ~n ~schedule ?fault ?tally ?substrate ?on_step ?stop ?obs step =
  let source ~live:_ = Source.of_schedule schedule in
  run_with ~n ~source ~max_steps:max_int ?fault ?tally ?substrate ?on_step ?stop ?obs step

let resume_with ~n ~source ~tally step =
  drive ~resume:true ~n ~source:(fun ~live:_ -> source) ~max_steps:max_int ~tally step

let replay ~n ~schedule ?fault ?tally ?substrate ?on_step ?stop ?obs body =
  replay_with ~n ~schedule ?fault ?tally ?substrate ?on_step ?stop ?obs (fibers ~n body)
