module Proc = Setsync_schedule.Proc
module Schedule = Setsync_schedule.Schedule
module Source = Setsync_schedule.Source
module Generators = Setsync_schedule.Generators
module Rng = Setsync_schedule.Rng
module Fault = Setsync_runtime.Fault
module Budget = Setsync_explore.Budget
module Property = Setsync_explore.Property
module Explorer = Setsync_explore.Explorer
module Shrink = Setsync_explore.Shrink
module Obs = Setsync_obs.Obs
module Metrics = Setsync_obs.Metrics
module Events = Setsync_obs.Events
module Json = Setsync_obs.Json

type violation = {
  property : string;
  reason : string;
  found : Schedule.t;
  fault : Fault.plan;
  shrunk : Schedule.t;
  shrink_tests : int;
  exec : int;
}

type outcome = Passed | Violation of violation

type report = {
  outcome : outcome;
  execs : int;
  spurious : int;
  corpus : int;
  corpus_evictions : int;
  corpus_rejections : int;
  digests : int;
  digest_evictions : int;
  stats : Budget.stats;
  seed : int;
}

type progress = {
  wall : float;
  execs : int;
  execs_per_s : float;
  corpus : int;
  digests : int;
}

(* initial candidates executed before any mutation: a deterministic
   round-robin, contract-respecting adversarial schedules when
   contracts are declared, and two random-fair draws *)
let initial_candidates ~env ~fault ~len rng =
  let n = env.Mutate.n in
  let live = env.Mutate.live in
  let take src = Source.take src len in
  let rr = take (Generators.round_robin ~live ~n ()) in
  let contract_seeds =
    List.map
      (fun contract -> take (Generators.timely ~live ~n ~contract ~rng ()))
      env.Mutate.contracts
  in
  let randoms =
    [
      take (Generators.random_fair ~live ~n ~rng ());
      take (Generators.random_fair ~live ~n ~rng ());
    ]
  in
  List.map
    (fun schedule -> { Mutate.schedule; fault })
    ((rr :: contract_seeds) @ randoms)

let run ?obs ?on_progress ?(progress_interval = 1.0) ?(live = Generators.all_live)
    ?(contracts = []) ?(fault = Fault.no_faults) ?max_crashes ?(len = 96) ?(stride = 1)
    ?(limits = Budget.unlimited) ?(seeds = []) ~sut ~properties ~seed () =
  Proc.check_n sut.Explorer.n;
  Fault.validate ~n:sut.Explorer.n fault;
  if len < 1 then invalid_arg "Fuzz.run: len must be >= 1";
  let max_crashes = Option.value max_crashes ~default:(List.length fault) in
  if max_crashes < List.length fault then
    invalid_arg "Fuzz.run: max_crashes below the base fault plan's size";
  let env = Mutate.env ~live ~contracts ~max_crashes ~n:sut.Explorer.n ~max_len:len () in
  let rng = Rng.create ~seed in
  let meter = Budget.start limits in
  let corpus = Corpus.create () in
  let safety =
    List.filter (fun (p : _ Property.t) -> p.Property.kind = Property.Safety) properties
  in
  let stabilization =
    List.filter
      (fun (p : _ Property.t) -> p.Property.kind = Property.Stabilization)
      properties
  in
  let execs = ref 0 in
  let spurious = ref 0 in
  let corpus_adds = ref 0 in
  let novel_total = ref 0 in
  let outcome = ref Passed in
  (* observability: a metric update per execution, events only for the
     rare transitions (corpus adds, violations, heartbeats) *)
  let sink =
    match obs with Some o when Obs.events_on o -> Some o.Obs.events | Some _ | None -> None
  in
  let emit name args =
    match sink with Some s -> Events.emit s ~args ~cat:"fuzz" name | None -> ()
  in
  let hb_last = ref (Unix.gettimeofday ()) in
  let snapshot () =
    let wall = Budget.wall_elapsed meter in
    {
      wall;
      execs = !execs;
      execs_per_s = (if wall > 0. then float_of_int !execs /. wall else 0.);
      corpus = Corpus.size corpus;
      digests = Corpus.digests corpus;
    }
  in
  let maybe_beat () =
    if progress_interval > 0. && (Option.is_some on_progress || sink <> None) then begin
      let now = Unix.gettimeofday () in
      if now -. !hb_last >= progress_interval then begin
        hb_last := now;
        let p = snapshot () in
        (match on_progress with Some f -> f p | None -> ());
        emit "heartbeat"
          [
            ("execs", Json.Int p.execs);
            ("corpus", Json.Int p.corpus);
            ("digests", Json.Int p.digests);
            ("execs_per_s", Json.Float p.execs_per_s);
          ]
      end
    end
  in
  (* one execution: replay the candidate once, digesting and
     safety-checking each interim state; stabilization checks on the
     final state; candidate violations are exactly re-verified before
     shrinking (a probe hit that does not reproduce is counted as
     spurious and fuzzing goes on) *)
  let execute (cand : Mutate.candidate) =
    incr execs;
    Budget.note_state meter;
    let novel = ref 0 in
    let hit = ref None in
    let on_state st =
      (if Corpus.note_digest corpus (Explorer.digest ~sut st) then incr novel);
      if safety <> [] then Budget.note_safety_check meter;
      List.iter
        (fun (p : _ Property.t) ->
          if !hit = None then
            match p.Property.check st with
            | Some _ -> hit := Some (p, st)
            | None -> ())
        safety;
      !hit <> None
    in
    let final = Explorer.trajectory ~sut ~fault:cand.Mutate.fault ~stride ~on_state cand.Mutate.schedule in
    Budget.note_replay meter ~steps:final.Explorer.depth;
    Budget.note_depth meter final.Explorer.depth;
    if !hit = None then
      List.iter
        (fun (p : _ Property.t) ->
          if !hit = None then
            match p.Property.check final with
            | Some _ -> hit := Some (p, final)
            | None -> ())
        stabilization;
    (match !hit with
    | None ->
        if !novel > 0 then begin
          (* keep the executed prefix: skipped steps are gone, so the
             corpus entry replays exactly *)
          Corpus.add corpus ~novelty:!novel
            { Mutate.schedule = final.Explorer.prefix; fault = cand.Mutate.fault };
          incr corpus_adds;
          emit "corpus_add"
            [
              ("novelty", Json.Int !novel);
              ("len", Json.Int (Schedule.length final.Explorer.prefix));
              ("corpus", Json.Int (Corpus.size corpus));
            ]
        end
    | Some (property, st) -> (
        let found = st.Explorer.prefix in
        let cand_fault = cand.Mutate.fault in
        match Explorer.check_schedule ~sut ~property ~fault:cand_fault found with
        | None -> spurious := !spurious + 1
        | Some reason ->
            let violates s =
              Explorer.check_schedule ~sut ~property ~fault:cand_fault s <> None
            in
            let r = Shrink.run ~violates found in
            emit "violation"
              [
                ("property", Json.String property.Property.name);
                ("exec", Json.Int !execs);
                ("found_len", Json.Int (Schedule.length found));
                ("shrunk_len", Json.Int (Schedule.length r.Shrink.schedule));
              ];
            outcome :=
              Violation
                {
                  property = property.Property.name;
                  reason;
                  found;
                  fault = cand_fault;
                  shrunk = r.Shrink.schedule;
                  shrink_tests = r.Shrink.tests;
                  exec = !execs;
                }));
    novel_total := !novel_total + !novel
  in
  let seeded =
    List.map (fun schedule -> { Mutate.schedule; fault }) seeds
  in
  let init = ref (seeded @ initial_candidates ~env ~fault ~len rng) in
  let stop = ref false in
  while not !stop do
    maybe_beat ();
    if Budget.over meter then begin
      Budget.mark_truncated meter;
      stop := true
    end
    else begin
      let cand =
        match !init with
        | c :: rest ->
            init := rest;
            c
        | [] ->
            if Corpus.is_empty corpus then
              {
                Mutate.schedule =
                  Source.take (Generators.random_fair ~live ~n:sut.Explorer.n ~rng ()) len;
                fault;
              }
            else snd (Mutate.apply env rng (Corpus.pick corpus rng))
      in
      execute cand;
      if !outcome <> Passed then stop := true
    end
  done;
  let stats = Budget.stats meter in
  (match obs with
  | None -> ()
  | Some o ->
      let m = o.Obs.metrics in
      let c name v = Metrics.incr ~shard:o.Obs.shard ~by:v (Metrics.counter m name) in
      c "fuzz.execs" !execs;
      c "fuzz.replay_steps" stats.Budget.replay_steps;
      c "fuzz.novel" !novel_total;
      c "fuzz.corpus_adds" !corpus_adds;
      c "fuzz.corpus_evictions" (Corpus.evictions corpus);
      c "fuzz.corpus_rejections" (Corpus.rejections corpus);
      c "fuzz.digest_evictions" (Corpus.digest_evictions corpus);
      c "fuzz.spurious" !spurious;
      c "fuzz.violations" (match !outcome with Passed -> 0 | Violation _ -> 1);
      Metrics.set (Metrics.gauge m "fuzz.corpus") (float_of_int (Corpus.size corpus));
      Metrics.set (Metrics.gauge m "fuzz.digests") (float_of_int (Corpus.digests corpus)));
  {
    outcome = !outcome;
    execs = !execs;
    spurious = !spurious;
    corpus = Corpus.size corpus;
    corpus_evictions = Corpus.evictions corpus;
    corpus_rejections = Corpus.rejections corpus;
    digests = Corpus.digests corpus;
    digest_evictions = Corpus.digest_evictions corpus;
    stats;
    seed;
  }

(* ---------------------------------------------------------- printing *)

let pp_violation ppf v =
  Fmt.pf ppf "property %s VIOLATED at exec %d@." v.property v.exec;
  Fmt.pf ppf "  reason: %s@." v.reason;
  Fmt.pf ppf "  fault plan: %a@."
    Fmt.(list ~sep:sp (pair ~sep:(any "@") int int))
    v.fault;
  Fmt.pf ppf "  found (%d steps): %a@." (Schedule.length v.found) Schedule.pp_full v.found;
  Fmt.pf ppf "  shrunk (%d steps, %d ddmin tests): %a" (Schedule.length v.shrunk)
    v.shrink_tests Schedule.pp_full v.shrunk

let pp_report ppf r =
  (match r.outcome with
  | Passed -> Fmt.pf ppf "no violation found@."
  | Violation v -> Fmt.pf ppf "%a@." pp_violation v);
  Fmt.pf ppf
    "seed %d: %d execs (%d spurious), corpus %d (%d evicted, %d rejected), %d distinct \
     digests (%d forgotten)@."
    r.seed r.execs r.spurious r.corpus r.corpus_evictions r.corpus_rejections r.digests
    r.digest_evictions;
  Fmt.pf ppf "%a" Budget.pp_stats r.stats
