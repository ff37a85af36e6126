module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Schedule = Setsync_schedule.Schedule
module Source = Setsync_schedule.Source
module Store = Setsync_memory.Store
module Trace = Setsync_memory.Trace
module Fault = Setsync_runtime.Fault
module Run = Setsync_runtime.Run
module Executor = Setsync_runtime.Executor
module Obs = Setsync_obs.Obs
module Metrics = Setsync_obs.Metrics
module Events = Setsync_obs.Events
module Json = Setsync_obs.Json

(* Machine form of a system: explicit-PC step functions over the same
   store, for the snapshot engine (fiber continuations are one-shot
   and cannot be copied into savepoints). *)
type minstance = {
  m_step : Proc.t -> unit;
  m_halted : Proc.t -> bool;
  m_save : unit -> unit -> unit;
  m_payload : (perm:int array -> string) option;
  m_perms : int array list;
}

type 'obs instance = {
  body : Proc.t -> unit -> unit;
  observe : unit -> 'obs;
  substrate : Setsync_runtime.Substrate.t option;
  machine : minstance option;
}

type 'obs sut = {
  n : int;
  fresh : store:Store.t -> 'obs instance;
  obs_fingerprint : 'obs -> string;
}

type 'obs state = {
  depth : int;
  prefix : Schedule.t;
  run : Run.t;
  snapshot : (string * string) list;
  obs : 'obs;
}

type frontier = {
  push : Proc.t list -> unit;
  pop : unit -> Proc.t list option;
  size : unit -> int;
}

type strategy = Dfs | Bfs | Custom of (unit -> frontier)

type engine_kind = Per_state | Path | Snapshot

type config = {
  depth : int;
  strategy : strategy;
  prune_fingerprints : bool;
  sleep_sets : bool;
  engine : engine_kind;
  symmetry : bool;
  limits : Budget.limits;
  fault : Fault.plan;
  telemetry : bool;
}

let config ?(strategy = Dfs) ?(prune_fingerprints = true) ?(sleep_sets = true) ?path_replay
    ?engine ?(symmetry = false) ?(limits = Budget.unlimited) ?(fault = Fault.no_faults)
    ?(telemetry = false) ~depth () =
  let engine =
    match (engine, path_replay) with
    | Some e, _ -> e
    | None, Some false -> Per_state
    | None, (Some true | None) -> Path
  in
  if symmetry && engine <> Snapshot then
    invalid_arg "Explorer.config: symmetry reduction requires the snapshot engine";
  {
    depth;
    strategy;
    prune_fingerprints;
    sleep_sets;
    engine;
    symmetry;
    limits;
    fault;
    telemetry;
  }

type verdict = Ok_bounded | Violated of { schedule : Schedule.t; reason : string }

type report = {
  verdicts : (string * verdict) list;
  stats : Budget.stats;
  engine : engine_kind;
}

(* ---------------------------------------------------------- frontiers *)

let dfs_frontier () =
  let stack = ref [] in
  let count = ref 0 in
  {
    push =
      (fun x ->
        stack := x :: !stack;
        incr count);
    pop =
      (fun () ->
        match !stack with
        | [] -> None
        | x :: rest ->
            stack := rest;
            decr count;
            Some x);
    size = (fun () -> !count);
  }

let bfs_frontier () =
  let queue = Queue.create () in
  {
    push = (fun x -> Queue.add x queue);
    pop = (fun () -> Queue.take_opt queue);
    size = (fun () -> Queue.length queue);
  }

let make_frontier = function
  | Dfs -> dfs_frontier ()
  | Bfs -> bfs_frontier ()
  | Custom f -> f ()

(* ------------------------------------------------------------ replays *)

(* Enough retained entries to cover the register accesses of any
   single step; a step exceeding this is treated as touching an
   unknown footprint (never commutes). *)
let trace_capacity = 64

let unknown_footprint = [ "*" ]

(* Replay [steps] against a fresh instance, recording the register
   footprint of each executed step. *)
let replay_instrumented ~sut ~fault steps =
  let n = sut.n in
  let trace = Trace.create ~capacity:trace_capacity in
  let store = Store.create ~trace () in
  let inst = sut.fresh ~store in
  let len = List.length steps in
  let touched = Array.make (max len 1) [] in
  let prev = ref 0 in
  let on_step ~global ~proc:_ =
    let now = Trace.recorded trace in
    let delta = now - !prev in
    prev := now;
    if global < len then
      touched.(global) <-
        (if delta > trace_capacity then unknown_footprint
         else
           Trace.recent trace delta
           |> List.map (fun e -> e.Trace.register)
           |> List.sort_uniq String.compare)
  in
  let schedule = Schedule.of_list ~n steps in
  let run = Executor.replay ~n ~schedule ~fault ?substrate:inst.substrate ~on_step inst.body in
  let obs = inst.observe () in
  let snapshot =
    Store.snapshot store
    @ (match inst.substrate with Some s -> Setsync_runtime.Substrate.snapshot s | None -> [])
  in
  (run, obs, snapshot, touched)

let evaluate ~sut ?(fault = Fault.no_faults) schedule =
  let run, obs, snapshot, _ =
    replay_instrumented ~sut ~fault (Schedule.to_list schedule)
  in
  { depth = Schedule.length schedule; prefix = schedule; run; snapshot; obs }

(* ------------------------------------------------- replay bookkeeping *)

(* Shared mirror of one live replay: registers and observation are live
   in the instance; run bookkeeping (halts, per-process step counts,
   budget crashes) is reconstructed from the executed steps themselves,
   so a single replay can materialize an exact [state] at any point
   along its path. The safety probe, [trajectory], and the path-replay
   descent engine all drive one of these. *)
module Mirror = struct
  type 'obs m = {
    n : int;
    store : Store.t;
    inst : 'obs instance;
    halted : bool array;
    steps_of : int array;
    budgets : int array;
    mutable crashes : (Proc.t * int) list;
  }

  let make ~(sut : 'obs sut) ~fault ?trace () =
    let n = sut.n in
    let store = Store.create ?trace () in
    let inst = sut.fresh ~store in
    let budgets = Array.make n max_int in
    List.iter (fun (p, s) -> budgets.(p) <- s) fault;
    {
      n;
      store;
      inst;
      halted = Array.make n false;
      steps_of = Array.make n 0;
      budgets;
      crashes = List.filter_map (fun (p, s) -> if s = 0 then Some (p, 0) else None) fault;
    }

  (* the executor must drive this wrapper so halts become visible *)
  let body m p () =
    m.inst.body p ();
    m.halted.(p) <- true

  let crashed m p = List.exists (fun (q, _) -> q = p) m.crashes

  (* call once per executed step; [at] is the position recorded for a
     budget-exhaustion crash *)
  let note_exec m ~proc ~at =
    m.steps_of.(proc) <- m.steps_of.(proc) + 1;
    if m.steps_of.(proc) >= m.budgets.(proc) && not (crashed m proc) then
      m.crashes <- m.crashes @ [ (proc, at) ]

  let skippable m p = m.halted.(p) || crashed m p

  let enabled m = List.filter (fun p -> not (skippable m p)) (Proc.all ~n:m.n)

  let state m ~depth ~prefix =
    let halted_set = ref Procset.empty in
    Array.iteri (fun p h -> if h then halted_set := Procset.add p !halted_set) m.halted;
    let all_done =
      let rec go p = p >= m.n || (skippable m p && go (p + 1)) in
      go 0
    in
    let run =
      {
        Run.n = m.n;
        taken = prefix;
        steps_of = Array.copy m.steps_of;
        crashes = m.crashes;
        halted = !halted_set;
        reason = (if all_done then Run.All_halted else Run.Source_exhausted);
      }
    in
    let snapshot =
      Store.snapshot m.store
      @
      match m.inst.substrate with
      | Some s -> Setsync_runtime.Substrate.snapshot s
      | None -> []
    in
    { depth; prefix; run; snapshot; obs = m.inst.observe () }
end

(* ------------------------------------------- counterexample re-check *)

(* Safety re-verification used to replay every prefix 0..len from
   scratch — O(len²) steps per call, which made ddmin shrinking
   O(len²) replays per candidate. Instead: one replay with an on-step
   probe over a [Mirror]. The probe is skip-aware: entries the executor
   skips (naming a crashed or halted process) leave the state unchanged,
   so the probe advances its schedule pointer past them — checking the
   unchanged state at each skipped prefix boundary — and stays exact
   through arbitrary skips instead of bailing to the per-prefix scan.
   The scan remains as a defensive fallback for any residual
   misalignment (e.g. a source-level divergence the mirror cannot
   predict). *)
let check_safety_scan ~sut ~property ~fault schedule =
  let len = Schedule.length schedule in
  let rec scan d =
    if d > len then None
    else
      match
        property.Property.check (evaluate ~sut ~fault (Schedule.prefix schedule d))
      with
      | Some reason -> Some reason
      | None -> scan (d + 1)
  in
  scan 0

let check_safety_probe ~sut ~property ~fault schedule =
  let n = sut.n in
  let len = Schedule.length schedule in
  let m = Mirror.make ~sut ~fault () in
  let violation = ref None in
  let exact = ref true in
  (* schedule entries accounted for so far, executed or skipped; the
     interim state after them is the prefix-[consumed] state *)
  let consumed = ref 0 in
  let check () =
    match
      property.Property.check
        (Mirror.state m ~depth:!consumed ~prefix:(Schedule.prefix schedule !consumed))
    with
    | Some r -> violation := Some r
    | None -> ()
  in
  (* [until]: advancing past skipped entries must stop at the entry the
     executor actually executed — that entry's process may have halted
     during its own step, making it look skippable in hindsight *)
  let advance_skips ?until () =
    let continue_ () =
      !violation = None && !consumed < len
      &&
      let p = Schedule.get schedule !consumed in
      Mirror.skippable m p && (match until with Some q -> p <> q | None -> true)
    in
    while continue_ () do
      incr consumed;
      check ()
    done
  in
  check ();
  if !violation <> None then (true, !violation)
  else if len = 0 then (true, None)
  else begin
    let on_step ~global:_ ~proc =
      if !exact && !violation = None then begin
        advance_skips ~until:proc ();
        if !violation = None then
          if !consumed >= len || Schedule.get schedule !consumed <> proc then
            exact := false
          else begin
            Mirror.note_exec m ~proc ~at:!consumed;
            incr consumed;
            check ()
          end
      end
    in
    let stop () = (not !exact) || !violation <> None in
    ignore
      (Executor.replay ~n ~schedule ~fault ?substrate:m.Mirror.inst.substrate ~on_step ~stop
         (Mirror.body m));
    if !exact && !violation = None then advance_skips ();
    let complete = !consumed = len in
    ((!exact && (complete || !violation <> None)), !violation)
  end

let check_schedule ~sut ~property ?(fault = Fault.no_faults) schedule =
  match property.Property.kind with
  | Property.Stabilization -> property.Property.check (evaluate ~sut ~fault schedule)
  | Property.Safety -> (
      match check_safety_probe ~sut ~property ~fault schedule with
      | true, result -> result
      | false, _ -> check_safety_scan ~sut ~property ~fault schedule)

(* -------------------------------------------------------- exploration *)

let disjoint_footprints a b =
  (not (List.mem "*" a))
  && (not (List.mem "*" b))
  && not (List.exists (fun r -> List.mem r b) a)

let fingerprint ~sut ~snapshot ~run ~obs =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      Buffer.add_string buf value;
      Buffer.add_char buf ';')
    snapshot;
  Buffer.add_string buf "halted:";
  Procset.iter (fun p -> Buffer.add_string buf (string_of_int p ^ ",")) run.Run.halted;
  Buffer.add_string buf "crashed:";
  Procset.iter (fun p -> Buffer.add_string buf (string_of_int p ^ ",")) (Run.crashed run);
  Buffer.add_string buf "obs:";
  Buffer.add_string buf (sut.obs_fingerprint obs);
  Digest.string (Buffer.contents buf)

let digest ~sut (st : _ state) =
  fingerprint ~sut ~snapshot:st.snapshot ~run:st.run ~obs:st.obs

(* ----------------------------------------------------- trajectory *)

(* Single-replay probe over the *executed* step sequence: invoke
   [on_state] on the interim state after every [stride]-th executed
   step (and on the initial and final states). Unlike
   [check_safety_probe] this never falls back to a per-prefix scan:
   interim run bookkeeping is reconstructed from the executed steps
   themselves, so it stays exact even when the replay skips scheduled
   steps (a mutated schedule naming a crashed/halted process) — the
   interim prefixes are then prefixes of the executed subsequence, not
   of the requested schedule. That is the right notion for fuzzing:
   the executed sequence is itself a replayable schedule that rebuilds
   the same states, which is what candidate counterexamples and
   shrinking need. *)
let trajectory ~sut ?(fault = Fault.no_faults) ?(stride = 1) ~on_state schedule =
  if stride < 1 then invalid_arg "Explorer.trajectory: stride must be >= 1";
  let n = sut.n in
  Fault.validate ~n fault;
  let m = Mirror.make ~sut ~fault () in
  let rev_taken = ref [] in
  let taken = ref 0 in
  let stopped = ref false in
  let mk_state () =
    Mirror.state m ~depth:!taken ~prefix:(Schedule.of_list ~n (List.rev !rev_taken))
  in
  let emit () = if not !stopped then stopped := on_state (mk_state ()) in
  emit ();
  if !stopped then mk_state ()
  else begin
    let on_step ~global:_ ~proc =
      rev_taken := proc :: !rev_taken;
      incr taken;
      Mirror.note_exec m ~proc ~at:(!taken - 1);
      if !taken mod stride = 0 then emit ()
    in
    let stop () = !stopped in
    ignore
      (Executor.replay ~n ~schedule ~fault ?substrate:m.Mirror.inst.substrate ~on_step ~stop
         (Mirror.body m));
    if !taken mod stride <> 0 && not !stopped then ignore (on_state (mk_state ()));
    mk_state ()
  end

let enabled ~n run =
  List.filter
    (fun p ->
      (not (Procset.mem p run.Run.halted)) && not (Procset.mem p (Run.crashed run)))
    (Proc.all ~n)

(* One worker's view of the exploration: where stats go, how verdicts
   are recorded, how fingerprint decisions are made. The sequential
   explorer and each parallel worker instantiate this differently but
   run the same per-prefix logic, so the two modes cannot drift. *)
type 'obs engine = {
  e_sut : 'obs sut;
  e_config : config;
  e_meter : Budget.t;  (* this worker's stats sink *)
  e_lifo : bool;  (* reverse children so LIFO frontiers pop ascending *)
  e_record : kind:Property.kind -> 'obs state -> unit;
  e_pending_safety : unit -> bool;
  e_pending_sched_safety : unit -> bool;
      (* some pending safety property is schedule-sensitive: pruned
         interleavings must be materialized before being discarded *)
  e_fp_check : string -> depth:int -> bool;  (* true = expand *)
  e_on_visit : unit -> unit;  (* global-budget hook *)
  e_on_replay : steps:int -> unit;  (* global-budget hook *)
  e_over_visit : unit -> bool;
      (* states/wall budget check, consulted before each visit (a visit
         costs one state and no steps — the step cap must not veto it) *)
  e_over_steps : unit -> bool;
      (* steps/wall budget check, consulted before a descent continues
         into its next child (the next step costs steps, not states) *)
  e_stop_now : unit -> bool;  (* external stop (all violated / pool stop) *)
  e_frontier_size : unit -> int;
  e_ev : Events.t option;  (* event sink, [None] when tracing is off *)
  e_worker : int;  (* worker id stamped on emitted events *)
}

(* Replay one prefix and fold it into the exploration: check
   properties, decide expansion, push children. *)
let process_prefix eng ~push rev_steps =
  let sut = eng.e_sut and config = eng.e_config and meter = eng.e_meter in
  let steps = List.rev rev_steps in
  let depth = List.length steps in
  let run, obs, snapshot, touched = replay_instrumented ~sut ~fault:config.fault steps in
  let executed = Run.total_steps run in
  Budget.note_replay meter ~steps:executed;
  eng.e_on_replay ~steps:executed;
  (match eng.e_ev with
  | Some sink ->
      Events.emit sink ~worker:eng.e_worker
        ~args:[ ("depth", Json.Int depth); ("steps", Json.Int executed) ]
        ~cat:"explorer" "replay"
  | None -> ());
  let sleep_pruned =
    config.sleep_sets && depth >= 2
    &&
    match rev_steps with
    | b :: a :: _ ->
        b < a && disjoint_footprints touched.(depth - 2) touched.(depth - 1)
    | _ -> false
  in
  if sleep_pruned then begin
    Budget.note_sleep_prune ~depth meter;
    (match eng.e_ev with
    | Some sink ->
        Events.emit sink ~worker:eng.e_worker
          ~args:[ ("depth", Json.Int depth) ]
          ~cat:"explorer" "sleep_prune"
    | None -> ());
    (* The replay is already paid for: check safety on its final state
       before discarding it. The state-equal sibling σ·b·a covers
       state-based safety, but a violation visible only through this
       interleaving's observation (a schedule-sensitive property)
       would otherwise vanish while the report still prints
       "exhaustive". *)
    if eng.e_pending_safety () then begin
      Budget.note_safety_check meter;
      let state =
        { depth; prefix = Schedule.of_list ~n:sut.n steps; run; snapshot; obs }
      in
      eng.e_record ~kind:Property.Safety state
    end
  end
  else begin
    Budget.note_state meter;
    eng.e_on_visit ();
    Budget.note_depth meter depth;
    let state = { depth; prefix = Schedule.of_list ~n:sut.n steps; run; snapshot; obs } in
    if eng.e_pending_safety () then Budget.note_safety_check meter;
    eng.e_record ~kind:Property.Safety state;
    let en = enabled ~n:sut.n run in
    if depth >= config.depth || en = [] then
      eng.e_record ~kind:Property.Stabilization state;
    let expand =
      depth < config.depth
      && en <> []
      && ((not config.prune_fingerprints)
         ||
         let fp = fingerprint ~sut ~snapshot ~run ~obs in
         if eng.e_fp_check fp ~depth then true
         else begin
           Budget.note_fingerprint_prune ~depth meter;
           (match eng.e_ev with
           | Some sink ->
               Events.emit sink ~worker:eng.e_worker
                 ~args:[ ("depth", Json.Int depth) ]
                 ~cat:"explorer" "fp_prune"
           | None -> ());
           false
         end)
    in
    if expand then begin
      let children = List.map (fun p -> p :: rev_steps) en in
      (match eng.e_ev with
      | Some sink ->
          Events.emit sink ~worker:eng.e_worker
            ~args:[ ("depth", Json.Int depth); ("children", Json.Int (List.length children)) ]
            ~cat:"explorer" "expand"
      | None -> ());
      (* LIFO frontiers pop last-pushed first: push descending so
         children are explored in ascending process order *)
      List.iter push (if eng.e_lifo then List.rev children else children);
      Budget.note_frontier meter (eng.e_frontier_size ())
    end
  end

(* ------------------------------------------------ path-replay descents *)

(* Amortized engine: one executor run per *descent*. The replay feeds a
   fixed prefix, then keeps extending in place — every interim state is
   visited (properties, fingerprint, frontier bookkeeping) from the
   single live [Mirror], and the run continues into the first unpruned
   child; the remaining children become frontier items, each costing
   one fresh replay of its prefix when popped. Replay steps per visited
   state drop from O(depth) to the amortized cost of the descent paths
   (see DESIGN.md §8).

   Two modes share this function:

   - [synthesize = true] (sequential DFS): the commutation prune for a
     child [σ·a·b] (b < a) needs the footprints of [a] and [b] taken
     *from σ* — and by the footprint-commutation property (disjoint
     steps leave each other's reads untouched) those decide the prune
     without executing [b]. Each node keeps a table mapping process to
     the footprint of its outgoing step; entries are *measured* when a
     child's step executes (descent continuation, or a frontier item's
     last feed step written back into the shared parent table) and
     *inherited* when a child is pruned (the pruned step's footprint at
     the child equals its footprint at the parent, exactly because the
     prune established disjointness). In LIFO ascending-order DFS every
     sibling entry the rule needs has already been filled when it is
     consulted.

   - [synthesize = false] (parallel workers): tables would be shared
     across domains, so instead a descent simply runs until the arrival
     step itself completes a commutable pair (own-path last-two check,
     as [process_prefix] does) — the pruned state is then already
     materialized and is safety-checked directly (PR 2 semantics).
     Counts (visited / pruned / safety-checked) match the sequential
     engine; replay accounting differs, since sequential synthesis
     avoids materializing pruned prefixes.

   Budget: one [note_replay ~steps:0] per descent plus an incremental
   [note_replay_steps] per executed step, so [max_replay_steps] cuts
   mid-descent. The boundary contract splits the check by what the next
   unit of work costs: [e_over_visit] (states/wall) gates each visit —
   a visit after exactly the step budget costs no further steps and
   still happens — while [e_over_steps] (steps/wall) gates continuing
   the descent into the next child; a cut with work still pending marks
   the run truncated and parks the continuation on the frontier. *)
let process_descent eng ~push ~synthesize rev_start parent_tbl0 =
  let sut = eng.e_sut and config = eng.e_config and meter = eng.e_meter in
  let n = sut.n in
  let fault = config.fault in
  let trace = Trace.create ~capacity:trace_capacity in
  let m = Mirror.make ~sut ~fault ~trace () in
  let emit name args =
    match eng.e_ev with
    | Some sink -> Events.emit sink ~worker:eng.e_worker ~args ~cat:"explorer" name
    | None -> ()
  in
  (* footprints of the last two executed steps along this path *)
  let prev_recorded = ref 0 in
  let fp_prev = ref [] and fp_last = ref [] in
  let measure_fp () =
    let now = Trace.recorded trace in
    let delta = now - !prev_recorded in
    prev_recorded := now;
    fp_prev := !fp_last;
    fp_last :=
      (if delta > trace_capacity then unknown_footprint
       else
         Trace.recent trace delta
         |> List.map (fun e -> e.Trace.register)
         |> List.sort_uniq String.compare)
  in
  let cur_rev = ref [] in
  let depth = ref 0 in
  let steps_in = ref 0 in
  (* table of the current node's parent (synthesis mode only) *)
  let parent_tbl = ref parent_tbl0 in
  let feed = ref (List.rev rev_start) in
  let fixed = List.length rev_start in
  let pending_child = ref None in
  (* visit the node the replay just reached; decide the continuation *)
  let visit () =
    pending_child := None;
    let d = !depth in
    let own_pruned =
      (* non-synthesizing arrival onto a commutation-pruned node: the
         replay is already paid for, so check pending safety on it
         directly (PR 2 semantics) and end the descent *)
      (not synthesize) && config.sleep_sets && d >= 2
      &&
      match !cur_rev with
      | b :: a :: _ -> b < a && disjoint_footprints !fp_prev !fp_last
      | _ -> false
    in
    if own_pruned then begin
      Budget.note_sleep_prune ~depth:d meter;
      emit "sleep_prune" [ ("depth", Json.Int d) ];
      if eng.e_pending_safety () then begin
        Budget.note_safety_check meter;
        eng.e_record ~kind:Property.Safety
          (Mirror.state m ~depth:d ~prefix:(Schedule.of_list ~n (List.rev !cur_rev)))
      end
    end
    else if eng.e_stop_now () then ()
    else if eng.e_over_visit () then Budget.mark_truncated meter
    else begin
      Budget.note_state meter;
      eng.e_on_visit ();
      Budget.note_depth meter d;
      let state =
        Mirror.state m ~depth:d ~prefix:(Schedule.of_list ~n (List.rev !cur_rev))
      in
      if eng.e_pending_safety () then Budget.note_safety_check meter;
      eng.e_record ~kind:Property.Safety state;
      let en = Mirror.enabled m in
      if d >= config.depth || en = [] then
        eng.e_record ~kind:Property.Stabilization state
      else begin
        let expand =
          (not config.prune_fingerprints)
          ||
          let fp =
            fingerprint ~sut ~snapshot:state.snapshot ~run:state.run ~obs:state.obs
          in
          if eng.e_fp_check fp ~depth:d then true
          else begin
            Budget.note_fingerprint_prune ~depth:d meter;
            emit "fp_prune" [ ("depth", Json.Int d) ];
            false
          end
        in
        if expand then begin
          let arriving = match !cur_rev with a :: _ -> Some a | [] -> None in
          let a_fp = !fp_last in
          let my_tbl = if synthesize then Array.make n None else parent_tbl0 in
          let synth_prune b =
            (* child σ·a·b pruned iff b < a and the two steps' footprints
               at σ are disjoint; b's is read from the parent table *)
            match arriving with
            | Some a when synthesize && config.sleep_sets && b < a -> (
                match !parent_tbl.(b) with
                | Some fb when disjoint_footprints a_fp fb -> Some fb
                | Some _ | None -> None)
            | Some _ | None -> None
          in
          let reals =
            List.filter
              (fun b ->
                match synth_prune b with
                | None -> true
                | Some fb ->
                    (* inherited: b's footprint is unchanged across the
                       disjoint step a *)
                    my_tbl.(b) <- Some fb;
                    Budget.note_sleep_prune ~depth:(d + 1) meter;
                    emit "sleep_prune" [ ("depth", Json.Int (d + 1)) ];
                    (if eng.e_pending_sched_safety () then begin
                       (* a schedule-sensitive safety property is still
                          pending: this interleaving is a genuinely
                          different input, materialize it with a classic
                          replay before discarding (what the per-state
                          engine paid anyway) *)
                       let steps = List.rev (b :: !cur_rev) in
                       let run, obs, snapshot, _ =
                         replay_instrumented ~sut ~fault steps
                       in
                       let executed = Run.total_steps run in
                       Budget.note_replay meter ~steps:executed;
                       eng.e_on_replay ~steps:executed;
                       Budget.note_safety_check meter;
                       eng.e_record ~kind:Property.Safety
                         {
                           depth = d + 1;
                           prefix = Schedule.of_list ~n steps;
                           run;
                           snapshot;
                           obs;
                         }
                     end
                     else if eng.e_pending_safety () then
                       (* state-based safety only: the pruned state equals
                          the surviving sibling's, whose visit establishes
                          the verdict *)
                       Budget.note_safety_check meter);
                    false)
              en
          in
          match reals with
          | [] -> ()
          | c :: rest ->
              emit "expand"
                [ ("depth", Json.Int d); ("children", Json.Int (List.length reals)) ];
              (* continue the run into the first (ascending) child; the
                 rest become frontier items, pushed descending so LIFO
                 pops ascending, sharing this node's table *)
              List.iter (fun b -> push (b :: !cur_rev) my_tbl) (List.rev rest);
              (if eng.e_over_steps () then begin
                 (* the next step would exceed the budget: park the
                    continuation as a frontier item (pushed last so a
                    LIFO resume would pop it first) and end the descent *)
                 Budget.mark_truncated meter;
                 push (c :: !cur_rev) my_tbl
               end
               else begin
                 parent_tbl := my_tbl;
                 pending_child := Some c
               end);
              Budget.note_frontier meter (eng.e_frontier_size ())
        end
      end
    end
  in
  let on_step ~global ~proc =
    measure_fp ();
    cur_rev := proc :: !cur_rev;
    incr depth;
    incr steps_in;
    Budget.note_replay_steps meter 1;
    eng.e_on_replay ~steps:1;
    Mirror.note_exec m ~proc ~at:global;
    (* measured: the executed step's footprint, recorded in the table of
       the node it departs from (the frontier item's last feed step
       lands in the shared parent table — its siblings need it) *)
    if synthesize && global >= fixed - 1 then !parent_tbl.(proc) <- Some !fp_last;
    if global >= fixed - 1 then visit ()
  in
  let source ~live:_ =
    Source.make ~n (fun () ->
        match !feed with
        | p :: rest ->
            feed := rest;
            Some p
        | [] ->
            let c = !pending_child in
            pending_child := None;
            c)
  in
  if fixed = 0 then visit ();
  ignore
    (Executor.run ~n ~source ~max_steps:max_int ~fault ?substrate:m.Mirror.inst.substrate
       ~on_step (Mirror.body m));
  Budget.note_replay meter ~steps:0;
  emit "replay" [ ("depth", Json.Int !depth); ("steps", Json.Int !steps_in) ]

let validate_explore ~sut config =
  if config.depth < 0 then invalid_arg "Explorer.explore: negative depth bound";
  Proc.check_n sut.n;
  Fault.validate ~n:sut.n config.fault;
  if config.engine = Snapshot then begin
    (match config.strategy with
    | Dfs -> ()
    | Bfs | Custom _ ->
        invalid_arg
          "Explorer.explore: the snapshot engine is depth-first only (its savepoint stack \
           is the DFS spine)");
    (* probe machine-form support on a throwaway instance so the error
       surfaces on the calling domain, before any worker spawns *)
    let store = Store.create () in
    let inst = sut.fresh ~store in
    match inst.machine with
    | None ->
        invalid_arg
          "Explorer.explore: the snapshot engine needs a machine-form sut \
           (instance.machine is None)"
    | Some m ->
        if config.symmetry && m.m_payload = None then
          invalid_arg
            "Explorer.explore: symmetry reduction needs a sut with a symmetry payload \
             (machine.m_payload is None)"
  end

(* -------------------------------------------------- observability *)

type progress = {
  wall : float;  (* seconds since exploration start *)
  states : int;
  replays : int;
  replay_steps : int;
  frontier : int;
  fp_pruned : int;
  sleep_pruned : int;
  max_depth : int;
  machine_steps : int;  (* snapshot engine's movement; 0 elsewhere *)
  restores : int;
}

(* Periodic heartbeat: a wall-clock-gated callback plus a "heartbeat"
   trace event, driven from the exploration loop (sequential) or from
   worker 0 (parallel). The gettimeofday check costs ~25 ns per
   visited state — noise next to the replay each state costs. *)
type heartbeat = {
  hb_interval : float;
  mutable hb_last : float;
  hb_cb : (progress -> unit) option;
  hb_sink : Events.t;
}

let make_heartbeat ?on_progress ~interval obs =
  let sink =
    match obs with Some o when Obs.events_on o -> o.Obs.events | Some _ | None -> Events.nop
  in
  if interval <= 0. then None
  else if Option.is_none on_progress && not (Events.enabled sink) then None
  else
    Some { hb_interval = interval; hb_last = Unix.gettimeofday (); hb_cb = on_progress; hb_sink = sink }

let maybe_beat hb snapshot =
  match hb with
  | None -> ()
  | Some hb ->
      let now = Unix.gettimeofday () in
      if now -. hb.hb_last >= hb.hb_interval then begin
        hb.hb_last <- now;
        let p : progress = snapshot () in
        (match hb.hb_cb with Some f -> f p | None -> ());
        if Events.enabled hb.hb_sink then
          Events.emit hb.hb_sink
            ~args:
              [
                ("states", Json.Int p.states);
                ("replay_steps", Json.Int p.replay_steps);
                ("machine_steps", Json.Int p.machine_steps);
                ("restores", Json.Int p.restores);
                ("frontier", Json.Int p.frontier);
                ("fp_pruned", Json.Int p.fp_pruned);
                ("max_depth", Json.Int p.max_depth);
              ]
            ~cat:"explorer" "heartbeat"
      end

let progress_of_stats ~frontier (s : Budget.stats) : progress =
  {
    wall = s.Budget.wall_seconds;
    states = s.Budget.visited;
    replays = s.Budget.replays;
    replay_steps = s.Budget.replay_steps;
    frontier;
    fp_pruned = s.Budget.pruned_fingerprint;
    sleep_pruned = s.Budget.pruned_sleep;
    max_depth = s.Budget.max_depth;
    machine_steps = s.Budget.machine_steps;
    restores = s.Budget.restores;
  }

(* Fold one worker's final stats into the sharded explorer counters.
   The counters are written from Budget's own meters, so the merged
   metrics snapshot is numerically identical to the printed
   [Budget.stats] — the acceptance contract of the metrics export. *)
let record_metrics obs ~shard (s : Budget.stats) =
  match obs with
  | None -> ()
  | Some o ->
      let m = o.Obs.metrics in
      let c name v = Metrics.incr ~shard ~by:v (Metrics.counter m name) in
      c "explorer.states" s.Budget.visited;
      c "explorer.safety_checked" s.Budget.safety_checked;
      c "explorer.fp_pruned" s.Budget.pruned_fingerprint;
      c "explorer.sleep_pruned" s.Budget.pruned_sleep;
      c "explorer.replays" s.Budget.replays;
      c "explorer.replay_steps" s.Budget.replay_steps;
      Metrics.set_max (Metrics.gauge m "explorer.max_depth") (float_of_int s.Budget.max_depth);
      Metrics.set_max
        (Metrics.gauge m "explorer.frontier_peak")
        (float_of_int s.Budget.frontier_peak)

(* Snapshot-engine movement counters. Machine steps and savepoint
   restores are deliberately NOT replays/replay_steps (the stats
   record and its pinned rendering stay engine-agnostic); they are
   exported as dedicated metrics instead. *)
let record_machine_metrics obs ~shard ~machine_steps ~restores =
  match obs with
  | None -> ()
  | Some o ->
      let m = o.Obs.metrics in
      Metrics.incr ~shard ~by:machine_steps (Metrics.counter m "explorer.machine_steps");
      Metrics.incr ~shard ~by:restores (Metrics.counter m "explorer.restores")

let engine_sink obs =
  match obs with Some o when Obs.events_on o -> Some o.Obs.events | Some _ | None -> None

(* ---------------------------------------------- snapshot machinery *)

(* One live machine-form instance plus the run bookkeeping mirror:
   the snapshot engine materializes every state on this single
   store/machine pair, moving down by machine steps and back up by
   restoring savepoints — zero executor replays, zero replay steps. *)
type 'obs mctx = {
  mc_n : int;
  mc_store : Store.t;
  mc_trace : Trace.t;
  mc_inst : 'obs instance;
  mc_m : minstance;
  mc_halted : bool array;
  mc_steps_of : int array;
  mc_budgets : int array;
  mutable mc_crashes : (Proc.t * int) list;
  mutable mc_prev_recorded : int;
  (* admissible renamings for symmetry: the machine's, restricted to
     those fixing the fault plan (budgets ∘ perm = budgets) *)
  mc_perms : int array list;
  mutable mc_machine_steps : int;
  mutable mc_restores : int;
}

let mc_make ~(sut : 'obs sut) ~fault () =
  let n = sut.n in
  let trace = Trace.create ~capacity:trace_capacity in
  let store = Store.create ~trace () in
  let inst = sut.fresh ~store in
  let m =
    match inst.machine with
    | Some m -> m
    | None ->
        invalid_arg
          "Explorer.explore: the snapshot engine needs a machine-form sut (instance.machine \
           is None)"
  in
  let budgets = Array.make n max_int in
  List.iter (fun (p, s) -> budgets.(p) <- s) fault;
  let perms =
    List.filter
      (fun perm ->
        let ok = ref true in
        Array.iteri (fun p q -> if budgets.(q) <> budgets.(p) then ok := false) perm;
        !ok)
      m.m_perms
  in
  {
    mc_n = n;
    mc_store = store;
    mc_trace = trace;
    mc_inst = inst;
    mc_m = m;
    mc_halted = Array.make n false;
    mc_steps_of = Array.make n 0;
    mc_budgets = budgets;
    mc_crashes = List.filter_map (fun (p, s) -> if s = 0 then Some (p, 0) else None) fault;
    mc_prev_recorded = 0;
    mc_perms = perms;
    mc_machine_steps = 0;
    mc_restores = 0;
  }

let mc_crashed c p = List.exists (fun (q, _) -> q = p) c.mc_crashes

let mc_skippable c p = c.mc_halted.(p) || mc_crashed c p

let mc_enabled c = List.filter (fun p -> not (mc_skippable c p)) (Proc.all ~n:c.mc_n)

let mc_state c ~depth ~rev =
  let halted_set = ref Procset.empty in
  Array.iteri (fun p h -> if h then halted_set := Procset.add p !halted_set) c.mc_halted;
  let all_done =
    let rec go p = p >= c.mc_n || (mc_skippable c p && go (p + 1)) in
    go 0
  in
  let prefix = Schedule.of_list ~n:c.mc_n (List.rev rev) in
  let run =
    {
      Run.n = c.mc_n;
      taken = prefix;
      steps_of = Array.copy c.mc_steps_of;
      crashes = c.mc_crashes;
      halted = !halted_set;
      reason = (if all_done then Run.All_halted else Run.Source_exhausted);
    }
  in
  let snapshot =
    Store.snapshot c.mc_store
    @
    match c.mc_inst.substrate with
    | Some s -> Setsync_runtime.Substrate.snapshot s
    | None -> []
  in
  { depth; prefix; run; snapshot; obs = c.mc_inst.observe () }

(* one machine step of [p] at global index [global]; returns the
   step's register footprint (same measurement as the replay path) *)
let mc_step c ~global p =
  (match c.mc_inst.substrate with
  | Some s -> Setsync_runtime.Substrate.pre_step s ~global ~proc:p
  | None -> ());
  c.mc_m.m_step p;
  c.mc_machine_steps <- c.mc_machine_steps + 1;
  if c.mc_m.m_halted p then c.mc_halted.(p) <- true;
  c.mc_steps_of.(p) <- c.mc_steps_of.(p) + 1;
  if c.mc_steps_of.(p) >= c.mc_budgets.(p) && not (mc_crashed c p) then
    c.mc_crashes <- c.mc_crashes @ [ (p, global) ];
  let now = Trace.recorded c.mc_trace in
  let delta = now - c.mc_prev_recorded in
  c.mc_prev_recorded <- now;
  if delta > trace_capacity then unknown_footprint
  else
    Trace.recent c.mc_trace delta
    |> List.map (fun e -> e.Trace.register)
    |> List.sort_uniq String.compare

let mc_save c =
  let restore_store = Store.save c.mc_store in
  let restore_m = c.mc_m.m_save () in
  let restore_sub =
    match c.mc_inst.substrate with
    | Some s -> Setsync_runtime.Substrate.save s
    | None -> fun () -> ()
  in
  let halted = Array.copy c.mc_halted in
  let steps_of = Array.copy c.mc_steps_of in
  let crashes = c.mc_crashes in
  fun () ->
    c.mc_restores <- c.mc_restores + 1;
    restore_store ();
    restore_m ();
    restore_sub ();
    Array.blit halted 0 c.mc_halted 0 (Array.length halted);
    Array.blit steps_of 0 c.mc_steps_of 0 (Array.length steps_of);
    c.mc_crashes <- crashes

(* Movement metering: every machine step and savepoint restore is
   counted in the worker's meter — that feeds the live heartbeat and
   the final search summary. In telemetry mode ([config.telemetry])
   the movement is also wall-timed; the untimed path adds only one
   counter increment per step, noise against the step itself, so the
   pinned snapshot benches are unperturbed. *)
let mc_step_metered meter ~timed c ~global p =
  let fp =
    if timed then begin
      let t0 = Unix.gettimeofday () in
      let fp = mc_step c ~global p in
      Budget.note_machine_seconds meter (Unix.gettimeofday () -. t0);
      fp
    end
    else mc_step c ~global p
  in
  Budget.note_machine_step meter;
  fp

let restore_metered meter ~timed restore =
  if timed then begin
    let t0 = Unix.gettimeofday () in
    restore ();
    Budget.note_restore_seconds meter (Unix.gettimeofday () -. t0)
  end
  else restore ();
  Budget.note_restore meter

(* Canonical fingerprint under the admissible renaming group: the
   lexicographic minimum, over admissible perms, of the digest of the
   renamed machine payload plus renamed run bookkeeping. Per-process
   step counts only discriminate when a fault plan is active (they are
   otherwise derivable drift that would block no merges but also
   carries no safety information — and renaming them would demand
   step-count equality between symmetric interleavings, killing every
   merge). The identity perm is always admissible, so with a trivial
   group this degenerates to plain (differently-keyed) fingerprinting. *)
let mc_canonical_fp c ~fault =
  let payload =
    match c.mc_m.m_payload with
    | Some f -> f
    | None ->
        invalid_arg
          "Explorer.explore: symmetry reduction needs a sut with a symmetry payload \
           (machine.m_payload is None)"
  in
  let n = c.mc_n in
  let rename_marks perm =
    let buf = Buffer.create 64 in
    let halted = Array.make n false in
    let crashed = Array.make n false in
    let steps = Array.make n 0 in
    for p = 0 to n - 1 do
      halted.(perm.(p)) <- c.mc_halted.(p);
      crashed.(perm.(p)) <- mc_crashed c p;
      steps.(perm.(p)) <- c.mc_steps_of.(p)
    done;
    Buffer.add_string buf "|h:";
    Array.iter (fun h -> Buffer.add_char buf (if h then '1' else '0')) halted;
    Buffer.add_string buf "|c:";
    Array.iter (fun h -> Buffer.add_char buf (if h then '1' else '0')) crashed;
    if fault <> [] then begin
      Buffer.add_string buf "|s:";
      Array.iter (fun s -> Buffer.add_string buf (string_of_int s ^ ",")) steps
    end;
    Buffer.contents buf
  in
  List.fold_left
    (fun acc perm ->
      let d = Digest.string (payload ~perm ^ rename_marks perm) in
      match acc with Some best when best <= d -> acc | _ -> Some d)
    None c.mc_perms
  |> Option.get

(* Recursive snapshot DFS below a materialized node. The node itself
   is visited here (same bookkeeping as [process_prefix]'s non-pruned
   branch); each enabled child is gated like a frontier pop
   ([e_stop_now], then [over] — pop first, test second, so finishing
   on exactly the budget stays exhaustive), stepped on the live
   machine, possibly sleep-pruned (same last-two-footprints rule, with
   the pruned state already materialized for safety checks), recursed
   into, and undone with a savepoint restore — never a replay. *)
let rec snapshot_visit ?push eng c ~hb ~progress ~over ~on_truncate ~pending ~depth ~rev
    ~arrive_fp =
  let sut = eng.e_sut and config = eng.e_config and meter = eng.e_meter in
  let emit name args =
    match eng.e_ev with
    | Some sink -> Events.emit sink ~worker:eng.e_worker ~args ~cat:"explorer" name
    | None -> ()
  in
  Budget.note_state meter;
  eng.e_on_visit ();
  Budget.note_depth meter depth;
  let state = mc_state c ~depth ~rev in
  if eng.e_pending_safety () then Budget.note_safety_check meter;
  eng.e_record ~kind:Property.Safety state;
  let en = mc_enabled c in
  if depth >= config.depth || en = [] then eng.e_record ~kind:Property.Stabilization state;
  let expand =
    depth < config.depth
    && en <> []
    && ((not config.prune_fingerprints)
       ||
       let fp =
         if config.symmetry then mc_canonical_fp c ~fault:config.fault
         else
           fingerprint ~sut ~snapshot:state.snapshot ~run:state.run ~obs:state.obs
       in
       if eng.e_fp_check fp ~depth then true
       else begin
         Budget.note_fingerprint_prune ~depth meter;
         emit "fp_prune" [ ("depth", Json.Int depth) ];
         false
       end)
  in
  if expand then begin
    emit "expand" [ ("depth", Json.Int depth); ("children", Json.Int (List.length en)) ];
    match push with
    | Some push ->
        (* parallel split: children become pool items instead of local
           recursion (each pop rebuilds its prefix by machine steps) *)
        let children = List.map (fun b -> b :: rev) en in
        List.iter push (if eng.e_lifo then List.rev children else children);
        Budget.note_frontier meter (eng.e_frontier_size ())
    | None ->
        pending := !pending + List.length en;
        Budget.note_frontier meter (eng.e_frontier_size ());
        List.iter
          (fun b ->
            decr pending;
            Budget.note_frontier meter (eng.e_frontier_size ());
            maybe_beat hb progress;
            if eng.e_stop_now () then ()
            else if over () then on_truncate ()
            else begin
              let restore = mc_save c in
              let fp_b =
                mc_step_metered meter ~timed:config.telemetry c ~global:depth b
              in
              let rev' = b :: rev in
              let pruned =
                config.sleep_sets
                && (match rev with
                   | a :: _ -> b < a && disjoint_footprints arrive_fp fp_b
                   | [] -> false)
              in
              if pruned then begin
                Budget.note_sleep_prune ~depth:(depth + 1) meter;
                emit "sleep_prune" [ ("depth", Json.Int (depth + 1)) ];
                (* the pruned state is already materialized: check pending
                   safety on it directly before discarding, exactly like
                   the per-state engine does after its paid-for replay *)
                if eng.e_pending_safety () then begin
                  Budget.note_safety_check meter;
                  eng.e_record ~kind:Property.Safety (mc_state c ~depth:(depth + 1) ~rev:rev')
                end
              end
              else
                snapshot_visit eng c ~hb ~progress ~over ~on_truncate ~pending
                  ~depth:(depth + 1) ~rev:rev' ~arrive_fp:fp_b;
              restore_metered meter ~timed:config.telemetry restore
            end)
          en
  end


(* ------------------------------------------------------- sequential *)

let explore_seq ?obs ?on_progress ?(progress_interval = 1.0) ~sut ~properties config =
  validate_explore ~sut config;
  let meter = Budget.start config.limits in
  let hb = make_heartbeat ?on_progress ~interval:progress_interval obs in
  let fingerprints : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let verdicts = List.map (fun p -> (p, ref Ok_bounded)) properties in
  let all_violated () =
    verdicts <> [] && List.for_all (fun (_, v) -> !v <> Ok_bounded) verdicts
  in
  let record_violations ~kind state =
    List.iter
      (fun ((p : _ Property.t), v) ->
        if p.Property.kind = kind && !v = Ok_bounded then
          match p.Property.check state with
          | Some reason -> v := Violated { schedule = state.prefix; reason }
          | None -> ())
      verdicts
  in
  let pending_safety () =
    List.exists
      (fun ((p : _ Property.t), v) -> p.Property.kind = Property.Safety && !v = Ok_bounded)
      verdicts
  in
  let pending_sched_safety () =
    List.exists
      (fun ((p : _ Property.t), v) ->
        p.Property.kind = Property.Safety
        && p.Property.sensitivity = Property.Schedule_sensitive
        && !v = Ok_bounded)
      verdicts
  in
  let mk_engine ~frontier_size =
    {
      e_sut = sut;
      e_config = config;
      e_meter = meter;
      e_lifo = (match config.strategy with Dfs -> true | Bfs | Custom _ -> false);
      e_record = record_violations;
      e_pending_safety = pending_safety;
      e_pending_sched_safety = pending_sched_safety;
      e_fp_check =
        (fun fp ~depth ->
          match Hashtbl.find_opt fingerprints fp with
          | Some d0 when d0 <= depth -> false
          | Some _ | None ->
              Hashtbl.replace fingerprints fp depth;
              true);
      e_on_visit = (fun () -> ());
      e_on_replay = (fun ~steps:_ -> ());
      e_over_visit = (fun () -> Budget.over_visit meter);
      e_over_steps = (fun () -> Budget.over_steps meter);
      e_stop_now = all_violated;
      e_frontier_size = frontier_size;
      e_ev = engine_sink obs;
      e_worker = (match obs with Some o -> o.Obs.shard | None -> 0);
    }
  in
  let use_path =
    config.engine = Path && (match config.strategy with Dfs -> true | _ -> false)
  in
  if config.engine = Snapshot then begin
    (* single live machine instance, savepoint restores, zero replays *)
    let c = mc_make ~sut ~fault:config.fault () in
    let pending = ref 0 in
    let hard_stop = ref false in
    let eng = mk_engine ~frontier_size:(fun () -> !pending) in
    let eng = { eng with e_stop_now = (fun () -> all_violated () || !hard_stop) } in
    let over () = Budget.over meter in
    let on_truncate () =
      Budget.mark_truncated meter;
      hard_stop := true
    in
    let progress () =
      progress_of_stats ~frontier:(eng.e_frontier_size ()) (Budget.stats meter)
    in
    Budget.note_frontier meter 1;
    maybe_beat hb progress;
    if Budget.over meter then Budget.mark_truncated meter
    else
      snapshot_visit eng c ~hb ~progress ~over ~on_truncate ~pending ~depth:0 ~rev:[]
        ~arrive_fp:[];
    record_machine_metrics obs
      ~shard:(match obs with Some o -> o.Obs.shard | None -> 0)
      ~machine_steps:c.mc_machine_steps ~restores:c.mc_restores
  end
  else if use_path then begin
    (* descent frontier: (reverse prefix, parent's sibling-footprint
       table); plain LIFO stack, ascending pop order by construction *)
    let stack = ref [ ([], Array.make sut.n None) ] in
    let size = ref 1 in
    let push rev tbl =
      stack := (rev, tbl) :: !stack;
      incr size
    in
    let eng = mk_engine ~frontier_size:(fun () -> !size) in
    Budget.note_frontier meter 1;
    let stop = ref false in
    while not !stop do
      Budget.note_frontier meter !size;
      maybe_beat hb (fun () -> progress_of_stats ~frontier:!size (Budget.stats meter));
      if all_violated () then stop := true
      else
        match !stack with
        | [] -> stop := true
        | (rev, tbl) :: rest ->
            stack := rest;
            decr size;
            (* pop first, then test: completing the space on exactly the
               budget is exhaustive, not truncated *)
            if Budget.over meter then begin
              Budget.mark_truncated meter;
              stop := true
            end
            else process_descent eng ~push ~synthesize:true rev tbl
    done
  end
  else begin
    let frontier = make_frontier config.strategy in
    let eng = mk_engine ~frontier_size:frontier.size in
    (* prefixes are stored in reverse step order: extension is a cons *)
    frontier.push [];
    Budget.note_frontier meter 1;
    let stop = ref false in
    while not !stop do
      (* peak on every push/pop cycle, not only after expansions *)
      Budget.note_frontier meter (frontier.size ());
      maybe_beat hb (fun () ->
          progress_of_stats ~frontier:(frontier.size ()) (Budget.stats meter));
      if all_violated () then stop := true
      else
        match frontier.pop () with
        | None -> stop := true
        | Some rev_steps ->
            (* pop first, then test (see Budget boundary contract) *)
            if Budget.over meter then begin
              Budget.mark_truncated meter;
              stop := true
            end
            else process_prefix eng ~push:frontier.push rev_steps
    done
  end;
  let stats = Budget.stats meter in
  record_metrics obs ~shard:(match obs with Some o -> o.Obs.shard | None -> 0) stats;
  {
    verdicts = List.map (fun ((p : _ Property.t), v) -> (p.Property.name, !v)) verdicts;
    stats;
    engine = config.engine;
  }

(* --------------------------------------------------------- parallel *)

(* Replays are embarrassingly parallel (each drives a fresh
   store/trace/fiber instance); the shared state is the frontier
   (work-stealing deques), the fingerprint table (lock-striped), the
   verdict table (one mutex, written once per property), and the
   budget gauge (atomics + a wall-clock deadline). Verdicts are
   equivalent to the sequential explorer's — same violated set — but
   which counterexample is reported first, and the visited/pruned
   counts under fingerprint pruning, depend on the work interleaving
   (see DESIGN.md §8). *)
let explore_par ?obs ?on_progress ?(progress_interval = 1.0) ~domains ~sut ~properties
    config =
  validate_explore ~sut config;
  let parent = Budget.start config.limits in
  let deadline = Budget.deadline parent in
  let meters = Array.init domains (fun _ -> Budget.start Budget.unlimited) in
  let hb = make_heartbeat ?on_progress ~interval:progress_interval obs in
  let visited_g = Atomic.make 0 in
  let replay_steps_g = Atomic.make 0 in
  let deadline_hit () =
    match deadline with Some d -> Unix.gettimeofday () >= d | None -> false
  in
  let over_gauge () =
    deadline_hit ()
    || Budget.limits_hit config.limits ~states:(Atomic.get visited_g)
         ~replay_steps:(Atomic.get replay_steps_g)
         ~wall_elapsed:0. (* wall handled by the deadline above *)
  in
  (* the two halves of [over_gauge], mirroring [Budget.over_visit] /
     [over_steps] for the descent engine's mid-descent checks *)
  let over_visit_gauge () =
    deadline_hit ()
    || (match config.limits.Budget.max_states with
       | Some c -> Atomic.get visited_g >= c
       | None -> false)
  in
  let over_steps_gauge () =
    deadline_hit ()
    || (match config.limits.Budget.max_replay_steps with
       | Some c -> Atomic.get replay_steps_g >= c
       | None -> false)
  in
  let on_steal =
    match obs with
    | None -> None
    | Some o ->
        let steals = Metrics.counter o.Obs.metrics "explorer.steals" in
        let sink = engine_sink obs in
        Some
          (fun ~thief ~victim ->
            Metrics.incr ~shard:thief steals;
            match sink with
            | Some s ->
                Events.emit s ~worker:thief
                  ~args:[ ("victim", Json.Int victim) ]
                  ~cat:"explorer" "steal"
            | None -> ())
  in
  let pool = Parallel.Pool.create ?on_steal ~workers:domains () in
  let verdict_mu = Mutex.create () in
  let verdicts = List.map (fun p -> (p, ref Ok_bounded)) properties in
  let all_violated () =
    verdicts <> [] && List.for_all (fun (_, v) -> !v <> Ok_bounded) verdicts
  in
  let record_violations ~kind state =
    List.iter
      (fun ((p : _ Property.t), v) ->
        (* the unsynchronized read may be stale — at worst a property
           already violated elsewhere is re-checked; the write is
           serialized and first-wins *)
        if p.Property.kind = kind && !v = Ok_bounded then
          match p.Property.check state with
          | Some reason ->
              Mutex.lock verdict_mu;
              if !v = Ok_bounded then
                v := Violated { schedule = state.prefix; reason };
              Mutex.unlock verdict_mu;
              if all_violated () then Parallel.Pool.stop pool
          | None -> ())
      verdicts
  in
  let pending_safety () =
    List.exists
      (fun ((p : _ Property.t), v) -> p.Property.kind = Property.Safety && !v = Ok_bounded)
      verdicts
  in
  let pending_sched_safety () =
    List.exists
      (fun ((p : _ Property.t), v) ->
        p.Property.kind = Property.Safety
        && p.Property.sensitivity = Property.Schedule_sensitive
        && !v = Ok_bounded)
      verdicts
  in
  let fingerprints = Parallel.Shard_tbl.create () in
  let engines =
    Array.init domains (fun wid ->
        {
          e_sut = sut;
          e_config = config;
          e_meter = meters.(wid);
          e_lifo = true;  (* per-worker deques are LIFO for the owner *)
          e_record = record_violations;
          e_pending_safety = pending_safety;
          e_pending_sched_safety = pending_sched_safety;
          e_fp_check = Parallel.Shard_tbl.check_and_record fingerprints;
          e_on_visit = (fun () -> Atomic.incr visited_g);
          e_on_replay = (fun ~steps -> ignore (Atomic.fetch_and_add replay_steps_g steps));
          e_over_visit = over_visit_gauge;
          e_over_steps = over_steps_gauge;
          e_stop_now = (fun () -> Parallel.Pool.stopped pool);
          e_frontier_size = (fun () -> Parallel.Pool.frontier_size pool);
          e_ev = engine_sink obs;
          e_worker = wid;
        })
  in
  (* Racy progress snapshot over the live worker meters: counts may be
     mid-update, but each field is a single int read — good enough for
     a heartbeat, never used for control. *)
  let par_progress () =
    let ss = Array.map Budget.stats meters in
    let sum f = Array.fold_left (fun acc s -> acc + f s) 0 ss in
    {
      wall = Budget.wall_elapsed parent;
      states = sum (fun s -> s.Budget.visited);
      replays = sum (fun s -> s.Budget.replays);
      replay_steps = sum (fun s -> s.Budget.replay_steps);
      frontier = Parallel.Pool.frontier_size pool;
      fp_pruned = sum (fun s -> s.Budget.pruned_fingerprint);
      sleep_pruned = sum (fun s -> s.Budget.pruned_sleep);
      max_depth = Array.fold_left (fun acc s -> max acc s.Budget.max_depth) 0 ss;
      machine_steps = sum (fun s -> s.Budget.machine_steps);
      restores = sum (fun s -> s.Budget.restores);
    }
  in
  (* snapshot-engine movement counters, per worker (folded into the
     machine-step/restore metrics after the run) *)
  let machine_steps_w = Array.make domains 0 in
  let restores_w = Array.make domains 0 in
  (* pool items stay shallow prefixes (split depth 2, matching the
     other engines' parallel grain); below the split each worker owns
     the whole subtree on its private machine instance *)
  let snapshot_split_depth = 2 in
  let snapshot_pop wid rev_steps =
    let eng = engines.(wid) in
    let meter = meters.(wid) in
    let c = mc_make ~sut ~fault:config.fault () in
    let steps = List.rev rev_steps in
    let depth = List.length steps in
    (* materialize the popped prefix by machine steps — bookkeeping
       movement, not replays; keep the last two footprints for the
       arrival commutation check *)
    let fp_prev = ref [] and fp_last = ref [] in
    List.iteri
      (fun i p ->
        fp_prev := !fp_last;
        fp_last := mc_step_metered meter ~timed:config.telemetry c ~global:i p)
      steps;
    let sleep_pruned =
      config.sleep_sets && depth >= 2
      &&
      match rev_steps with
      | b :: a :: _ -> b < a && disjoint_footprints !fp_prev !fp_last
      | _ -> false
    in
    if sleep_pruned then begin
      Budget.note_sleep_prune ~depth meter;
      (match eng.e_ev with
      | Some sink ->
          Events.emit sink ~worker:wid
            ~args:[ ("depth", Json.Int depth) ]
            ~cat:"explorer" "sleep_prune"
      | None -> ());
      if eng.e_pending_safety () then begin
        Budget.note_safety_check meter;
        eng.e_record ~kind:Property.Safety (mc_state c ~depth ~rev:rev_steps)
      end
    end
    else begin
      let on_truncate () =
        Budget.mark_truncated meter;
        Parallel.Pool.stop pool
      in
      let push =
        if depth < snapshot_split_depth then Some (Parallel.Pool.push pool ~worker:wid)
        else None
      in
      snapshot_visit ?push eng c
        ~hb:(if wid = 0 then hb else None)
        ~progress:par_progress ~over:over_gauge ~on_truncate ~pending:(ref 0) ~depth
        ~rev:rev_steps ~arrive_fp:!fp_last
    end;
    machine_steps_w.(wid) <- machine_steps_w.(wid) + c.mc_machine_steps;
    restores_w.(wid) <- restores_w.(wid) + c.mc_restores
  in
  let worker wid rev_steps =
    if wid = 0 then maybe_beat hb par_progress;
    if over_gauge () then begin
      Budget.mark_truncated meters.(wid);
      Parallel.Pool.stop pool
    end
    else
      match config.engine with
      | Path ->
          process_descent engines.(wid)
            ~push:(fun rev _tbl -> Parallel.Pool.push pool ~worker:wid rev)
            ~synthesize:false rev_steps [||]
      | Per_state ->
          process_prefix engines.(wid) ~push:(Parallel.Pool.push pool ~worker:wid) rev_steps
      | Snapshot -> snapshot_pop wid rev_steps
  in
  Parallel.Pool.push pool ~worker:0 [];
  Budget.note_frontier meters.(0) 1;
  Parallel.Pool.run pool worker;
  (* per-worker stats land in that worker's metric shard, recorded
     before the meters are folded into the parent *)
  Array.iteri (fun wid m -> record_metrics obs ~shard:wid (Budget.stats m)) meters;
  if config.engine = Snapshot then
    Array.iteri
      (fun wid ms ->
        record_machine_metrics obs ~shard:wid ~machine_steps:ms ~restores:restores_w.(wid))
      machine_steps_w;
  Array.iter (fun m -> Budget.absorb ~into:parent m) meters;
  {
    verdicts = List.map (fun ((p : _ Property.t), v) -> (p.Property.name, !v)) verdicts;
    stats = Budget.stats parent;
    engine = config.engine;
  }

let explore ?(domains = 1) ?obs ?on_progress ?progress_interval ~sut ~properties config =
  if domains < 1 then invalid_arg "Explorer.explore: domains must be >= 1";
  if domains = 1 then
    explore_seq ?obs ?on_progress ?progress_interval ~sut ~properties config
  else begin
    (match config.strategy with
    | Custom _ ->
        invalid_arg
          "Explorer.explore: custom frontiers are single-domain only (the parallel \
           engine owns its work-stealing frontier)"
    | Dfs | Bfs -> ());
    explore_par ?obs ?on_progress ?progress_interval ~domains ~sut ~properties config
  end

(* ----------------------------------------------------- search summary *)

let engine_name = function
  | Per_state -> "per_state"
  | Path -> "path"
  | Snapshot -> "snapshot"

(* Machine-readable search-telemetry block: the engine that ran,
   engine-appropriate movement totals (replays for the replay engines,
   machine steps/restores for the snapshot engine — timed when the
   exploration ran with [telemetry]), and the per-depth
   visited/pruned breakdown. Schema is versioned like the other JSON
   blocks so downstream readers can detect drift. *)
let search_summary_to_json (r : report) =
  let s = r.stats in
  let row (d : Budget.depth_row) =
    Json.Obj
      [
        ("depth", Json.Int d.Budget.dr_depth);
        ("visited", Json.Int d.Budget.dr_visited);
        ("fp_pruned", Json.Int d.Budget.dr_fp_pruned);
        ("sleep_pruned", Json.Int d.Budget.dr_sleep_pruned);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "setsync-search-summary/1");
      ("engine", Json.String (engine_name r.engine));
      ("visited", Json.Int s.Budget.visited);
      ("safety_checked", Json.Int s.Budget.safety_checked);
      ("fp_pruned", Json.Int s.Budget.pruned_fingerprint);
      ("sleep_pruned", Json.Int s.Budget.pruned_sleep);
      ("replays", Json.Int s.Budget.replays);
      ("replay_steps", Json.Int s.Budget.replay_steps);
      ("machine_steps", Json.Int s.Budget.machine_steps);
      ("restores", Json.Int s.Budget.restores);
      ("machine_seconds", Json.Float s.Budget.machine_seconds);
      ("restore_seconds", Json.Float s.Budget.restore_seconds);
      ("max_depth", Json.Int s.Budget.max_depth);
      ("frontier_peak", Json.Int s.Budget.frontier_peak);
      ("truncated", Json.Bool s.Budget.truncated);
      ("wall_seconds", Json.Float s.Budget.wall_seconds);
      ("depth_profile", Json.List (List.map row s.Budget.depth_profile));
    ]

let pp_search_summary ppf (r : report) =
  let s = r.stats in
  Fmt.pf ppf "engine %s" (engine_name r.engine);
  (match r.engine with
  | Snapshot ->
      Fmt.pf ppf ", machine %d steps, %d restores" s.Budget.machine_steps
        s.Budget.restores;
      if s.Budget.machine_seconds > 0. || s.Budget.restore_seconds > 0. then
        Fmt.pf ppf " (%.3fs stepping, %.3fs restoring)" s.Budget.machine_seconds
          s.Budget.restore_seconds
  | Per_state | Path ->
      Fmt.pf ppf ", replays %d/%d steps" s.Budget.replays s.Budget.replay_steps);
  List.iter
    (fun (d : Budget.depth_row) ->
      Fmt.pf ppf "@.  depth %2d: visited %d, fp-pruned %d, commute-pruned %d"
        d.Budget.dr_depth d.Budget.dr_visited d.Budget.dr_fp_pruned
        d.Budget.dr_sleep_pruned)
    s.Budget.depth_profile

(* ----------------------------------------------------------- printing *)

let pp_verdict ppf = function
  | Ok_bounded -> Fmt.string ppf "ok (no violation within bound)"
  | Violated { schedule; reason } ->
      Fmt.pf ppf "VIOLATED by %a: %s" Schedule.pp_full schedule reason

let pp_report ppf r =
  List.iter (fun (name, v) -> Fmt.pf ppf "%-40s %a@." name pp_verdict v) r.verdicts;
  Fmt.pf ppf "%a" Budget.pp_stats r.stats
