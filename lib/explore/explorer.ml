module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Schedule = Setsync_schedule.Schedule
module Source = Setsync_schedule.Source
module Store = Setsync_memory.Store
module Fault = Setsync_runtime.Fault
module Run = Setsync_runtime.Run
module Executor = Setsync_runtime.Executor
module Obs = Setsync_obs.Obs
module Metrics = Setsync_obs.Metrics
module Events = Setsync_obs.Events
module Json = Setsync_obs.Json

(* Machine form of a system: explicit-PC step functions over the same
   store. Every engine steps it where it exists; the snapshot engine
   needs it (fiber continuations are one-shot and cannot be copied
   into savepoints). *)
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
  snapshot : (string * string) list Lazy.t;
  obs : 'obs;
}

type strategy = Dfs | Bfs

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

let config ?(strategy = Dfs) ?(prune_fingerprints = true) ?(sleep_sets = true)
    ?(engine = Path) ?(symmetry = false) ?(limits = Budget.unlimited)
    ?(fault = Fault.no_faults) ?(telemetry = false) ~depth () =
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

(* ------------------------------------------------------------ replays *)

(* Enough buffered accesses to cover any single step; a step exceeding
   this is treated as touching an unknown footprint (never commutes). *)
let meter_capacity = 64

(* A step's footprint: one entry per register it accessed, in ascending
   register order — [2 * id + 1] when the step wrote the register,
   [2 * id] when it only read it. *)
type footprint = int array

(* the footprint of a step past the meter's capacity: it conflicts with
   every step (compared physically) *)
let unknown_footprint : footprint = [| -1 |]

(* The footprint of the [c] accesses in [buf], which it sorts in place:
   an insertion sort, as a step makes one access or a few. A register's
   write entry sorts just after its read entries, so the last entry of
   each register's run is its mode. *)
let footprint_of buf c =
  for i = 1 to c - 1 do
    let x = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && buf.(!j) > x do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- x
  done;
  let last i = i = c - 1 || buf.(i) lsr 1 <> buf.(i + 1) lsr 1 in
  let registers = ref 0 in
  for i = 0 to c - 1 do
    if last i then incr registers
  done;
  let fp = Array.make !registers 0 and k = ref 0 in
  for i = 0 to c - 1 do
    if last i then begin
      fp.(!k) <- buf.(i);
      incr k
    end
  done;
  fp

(* A store access hook and its footprint meter: the hook keeps one
   (register, mode) entry per access in a reused buffer and allocates
   nothing; each call of the meter returns the footprint of the
   accesses since the previous call. Every engine measures a step's
   footprint through one of these when commutation is on; with it off
   nothing reads a footprint, so no hook is installed and the meter
   returns a constant. *)
let footprint_meter ~sleep_sets =
  if not sleep_sets then (None, fun () -> [||])
  else
    let buf = Array.make meter_capacity 0 and count = ref 0 in
    let hook id (mode : Setsync_memory.Register.mode) =
      let c = !count in
      if c < meter_capacity then
        buf.(c) <- (id lsl 1) lor (match mode with Read -> 0 | Write -> 1);
      count := c + 1
    in
    ( Some hook,
      fun () ->
        let c = !count in
        count := 0;
        if c > meter_capacity then unknown_footprint else footprint_of buf c )

let snapshot_of store (inst : _ instance) =
  Store.snapshot store
  @ match inst.substrate with Some s -> Setsync_runtime.Substrate.snapshot s | None -> []

(* ------------------------------------------------------------ mirror *)

(* One live instance and the tally of its run: registers and
   observation live in the instance, run bookkeeping (step counts,
   halts, budget crashes) in the tally the executor — or the depth-first
   walk's [advance] — moves, so every path can materialize an exact
   [state] at any point along its run. The instance steps its machine
   form when it has one and fibers otherwise. Every state the explorer
   builds comes from [Mirror.state]. *)
module Mirror = struct
  type 'obs m = {
    store : Store.t;
    inst : 'obs instance;
    tally : Run.Tally.t;
    step : Executor.step;  (* the machine form's, or fibers over [inst.body] *)
    moves : int ref;
        (* moves that can take the instance back or elsewhere: savepoint
           restores, and a session's new runs. A state stays current
           while this count and its tally's step count stand still. *)
  }

  (* [memoized]: the store keeps value hashes for [Store.key] (a
     session's); [moves]: the count to share (a session's, so that
     its new runs make earlier states stale) *)
  let make ~(sut : 'obs sut) ~fault ?hook ?(memoized = false) ?(moves = ref 0) () =
    let tally = Run.Tally.create ~n:sut.n fault in
    let store = if memoized then Store.memoized ?hook () else Store.create ?hook () in
    let inst = sut.fresh ~store in
    let step =
      match inst.machine with
      | Some mi ->
          fun p ->
            mi.m_step p;
            mi.m_halted p
      | None -> Executor.fibers ~n:sut.n inst.body
    in
    { store; inst; tally; step; moves }

  (* a replay of the entries [source] yields, from [m]'s start *)
  let run m source =
    Executor.run_with ~n:(Run.Tally.n m.tally) ~source:(fun ~live:_ -> source)
      ~max_steps:max_int ~tally:m.tally ?substrate:m.inst.substrate m.step

  let replay m ?on_step ?stop schedule =
    Executor.replay_with ~n:(Run.Tally.n m.tally) ~schedule ~tally:m.tally
      ?substrate:m.inst.substrate ?on_step ?stop m.step

  (* continue the run [m]'s tally records with the entries [source]
     yields: [m] is a machine instance back at a savepoint *)
  let resume m source = Executor.resume_with ~n:(Run.Tally.n m.tally) ~source ~tally:m.tally m.step

  (* one step of [p] at the tally's next global index, under the
     executor's rules but outside its loop: the depth-first walk's move *)
  let advance m p = ignore (Executor.grant ?substrate:m.inst.substrate m.tally m.step p)

  (* [requested]: the schedule whose replay reached this point (skipped
     entries included), when it is not simply the executed steps;
     [reason]: the executor's, when a run has ended *)
  let state ?requested ?reason m =
    let t = m.tally in
    let reason =
      match reason with
      | Some r -> r
      | None ->
          let rec all_done p =
            p >= Run.Tally.n t || ((not (Run.Tally.live t p)) && all_done (p + 1))
          in
          if all_done 0 then Run.All_halted else Run.Source_exhausted
    in
    let run = Run.Tally.freeze t reason in
    let prefix = Option.value requested ~default:run.Run.taken in
    let snapshot =
      (* rendered on demand, from the instance as it is then *)
      let at = !(m.moves) and total = Run.Tally.total_steps t in
      lazy
        (if !(m.moves) <> at || Run.Tally.total_steps t <> total then
           invalid_arg "Explorer: snapshot of a state its instance has moved past";
         snapshot_of m.store m.inst)
    in
    { depth = Schedule.length prefix; prefix; run; snapshot; obs = m.inst.observe () }

  (* the final state of a replay of [schedule] from [m]'s start *)
  let final m schedule =
    let run = replay m schedule in
    state ~requested:schedule ~reason:run.Run.reason m

  (* A savepoint of a machine-form instance and its tally: the
     registers, the machine, the substrate and the run bookkeeping.
     Returns the restore, which makes every state built before it
     stale. The store's part, and the library machines' and the
     tally's, are last-in-first-out ([Store.checkpoint]). *)
  let save m =
    let restore_store = Store.checkpoint m.store in
    let restore_m =
      match m.inst.machine with Some mi -> mi.m_save () | None -> fun () -> ()
    in
    let restore_sub =
      match m.inst.substrate with
      | Some s -> Setsync_runtime.Substrate.save s
      | None -> fun () -> ()
    in
    let restore_tally = Run.Tally.save m.tally in
    fun () ->
      incr m.moves;
      restore_store ();
      restore_m ();
      restore_sub ();
      restore_tally ()
end

let evaluate ~sut ?(fault = Fault.no_faults) schedule =
  Mirror.final (Mirror.make ~sut ~fault ()) schedule

(* ------------------------------------------- counterexample re-check *)

(* The verdict of [property] on [schedule], in one run of [m] from the
   state after the schedule's first [from] entries (the start of a run,
   or a savepoint taken right after an executed step): a safety
   property is checked on the state after every prefix, a stabilization
   property on the state after the whole schedule. The run pulls the
   schedule from a counting source, and when the executor pulls entry
   [i], executed or skipped, [m] is at the prefix-[i] state; a
   violation ends the source. A run that ends before pulling every
   entry (every process halted, or a stall) stays at its last state,
   which is then, with the run's stop reason, the state after each
   prefix it did not reach: a replay of that prefix alone stops at the
   same point. [on_exec m consumed] runs once after each executed step,
   before any later check: at the next pull, or at the end of the run. *)
let probe m ~from ?(on_exec = fun _ _ -> ()) ~property schedule =
  let len = Schedule.length schedule in
  let every_prefix = property.Property.kind = Property.Safety in
  let violation = ref None in
  let check ?reason i =
    if every_prefix || i = len then
      violation :=
        property.Property.check (Mirror.state ?reason ~requested:(Schedule.prefix schedule i) m)
  in
  (* the next prefix to check, and the executed steps [on_exec] has seen *)
  let next = ref from and executed = ref (Run.Tally.total_steps m.Mirror.tally) in
  let note_exec () =
    let total = Run.Tally.total_steps m.Mirror.tally in
    if total > !executed then begin
      executed := total;
      on_exec m !next
    end
  in
  let source =
    Source.make ~n:(Schedule.n schedule) (fun () ->
        let i = !next in
        note_exec ();
        check i;
        next := i + 1;
        if !violation <> None || i = len then None else Some (Schedule.get schedule i))
  in
  let run = if from = 0 then Mirror.run m source else Mirror.resume m source in
  note_exec ();
  for i = !next to len do
    if !violation = None then check ~reason:run.Run.reason i
  done;
  !violation

let check_schedule ~sut ~property ?(fault = Fault.no_faults) schedule =
  probe (Mirror.make ~sut ~fault ()) ~from:0 ~property schedule

(* -------------------------------------------------------- exploration *)

(* Two steps conflict when one of them writes a register the other
   accesses: a linear merge of their sorted footprints. Steps that only
   read a common register commute. *)
let conflicting (a : footprint) (b : footprint) =
  a == unknown_footprint
  || b == unknown_footprint
  ||
  let rec merge i j =
    i < Array.length a
    && j < Array.length b
    &&
    let x = a.(i) and y = b.(j) in
    if x lsr 1 < y lsr 1 then merge (i + 1) j
    else if x lsr 1 > y lsr 1 then merge i (j + 1)
    else (x lor y) land 1 = 1 || merge (i + 1) (j + 1)
  in
  merge 0 0

let digest ~sut (st : _ state) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      Buffer.add_string buf value;
      Buffer.add_char buf ';')
    (Lazy.force st.snapshot);
  let procs label set =
    Buffer.add_string buf label;
    Procset.iter (fun p -> Buffer.add_string buf (string_of_int p ^ ",")) set
  in
  procs "halted:" st.run.Run.halted;
  procs "crashed:" (Run.crashed st.run);
  Buffer.add_string buf "obs:";
  Buffer.add_string buf (sut.obs_fingerprint st.obs);
  Digest.string (Buffer.contents buf)

(* ----------------------------------------------------- trajectory *)

(* Single-replay probe over the *executed* step sequence: invoke
   [on_state] on the interim state after every [stride]-th executed
   step (and on the initial and final states). Unlike [probe], whose
   prefixes are the requested schedule's, the interim prefixes here
   are prefixes of the executed subsequence when the replay skips
   scheduled steps (a mutated schedule naming a crashed/halted
   process). That is the right notion for fuzzing:
   the executed sequence is itself a replayable schedule that rebuilds
   the same states, which is what candidate counterexamples and
   shrinking need. *)
let trajectory_on m ~stride ~on_state schedule =
  if stride < 1 then invalid_arg "Explorer.trajectory: stride must be >= 1";
  let stopped = ref false in
  let emit () = if not !stopped then stopped := on_state (Mirror.state m) in
  emit ();
  if !stopped then Mirror.state m
  else begin
    let on_step ~global ~proc:_ = if (global + 1) mod stride = 0 then emit () in
    let run = Mirror.replay m ~on_step ~stop:(fun () -> !stopped) schedule in
    let final = Mirror.state ~reason:run.Run.reason m in
    if Run.Tally.total_steps m.Mirror.tally mod stride <> 0 && not !stopped then
      ignore (on_state final);
    final
  end

let trajectory ~sut ?(fault = Fault.no_faults) ?(stride = 1) ~on_state schedule =
  trajectory_on (Mirror.make ~sut ~fault ()) ~stride ~on_state schedule

(* ------------------------------------------------------------ session *)

(* Many runs on one live instance. With a machine form, the instance is
   built once; each run restores its initial savepoint, takes a fresh
   tally and steps the machine under the executor's rules. Without
   one, each run builds a fresh instance and steps fibers, exactly as
   [trajectory] and [check_schedule] do. Either way the instance lives
   in a memoized store, so a state's novelty key re-hashes only the
   registers whose value changed. *)
module Session = struct
  (* Savepoints along the last schedule a check probed, for one (fault
     plan, property). Each is taken right after an executed step the
     probe ran, when every earlier state it had to check probed clean,
     and restores the instance and the track's own tally — whose
     executed steps only runs of this track write — to that point. *)
  type 'obs track = {
    fault : Fault.plan;
    property : 'obs state Property.t;
    mirror : 'obs Mirror.m;  (* the live instance, with the track's tally *)
    mutable schedule : Schedule.t;
    mutable points : (int * (unit -> unit)) list;
        (* (entries consumed, restore), deepest first; the last one is
           the start of a run *)
  }

  type 'obs t = {
    sut : 'obs sut;
    machine : ('obs Mirror.m * (unit -> unit)) option;
        (* the live machine instance's mirror and the restore to its
           initial savepoint *)
    mutable current : 'obs Mirror.m;  (* the instance of the latest run *)
    mutable track : 'obs track option;
    moves : int ref;  (* runs started and savepoints restored *)
  }

  let create ~(sut : 'obs sut) =
    let moves = ref 0 in
    let m = Mirror.make ~sut ~fault:Fault.no_faults ~memoized:true ~moves () in
    let machine = Option.map (fun _ -> (m, Mirror.save m)) m.Mirror.inst.machine in
    { sut; machine; current = m; track = None; moves }

  let on_machine s = Option.is_some s.machine

  let mirror s ~fault () =
    let m =
      match s.machine with
      | None ->
          incr s.moves;
          Mirror.make ~sut:s.sut ~fault ~memoized:true ~moves:s.moves ()
      | Some (m, initial) ->
          initial ();
          { m with Mirror.tally = Run.Tally.create ~n:s.sut.n fault }
    in
    s.current <- m;
    m

  let trajectory s ?(fault = Fault.no_faults) ?(stride = 1) ~on_state schedule =
    trajectory_on (mirror s ~fault ()) ~stride ~on_state schedule

  let mix h x = (h * 0x100000001b3) + x

  let key s (st : _ state) =
    let m = s.current in
    let h = Store.key m.Mirror.store in
    let h =
      match m.Mirror.inst.substrate with
      | None -> h
      | Some sub ->
          List.fold_left
            (fun h e -> mix h (Store.hash e))
            h
            (Setsync_runtime.Substrate.snapshot sub)
    in
    let bits set = Procset.fold (fun p acc -> acc lor (1 lsl p)) set 0 in
    let h = mix (mix h (bits st.run.Run.halted)) (bits (Run.crashed st.run)) in
    mix h (Store.hash st.obs)

  (* a savepoint every this many executed steps of a probed run *)
  let savepoint_every = 16

  (* The track for ([fault], [property]), restored to its deepest
     savepoint inside [schedule]'s common prefix with the last schedule
     it checked: the probe's mirror, the entries that savepoint
     consumed, and the probe's [on_exec], which saves along the way.
     [None] without a substrate-free machine. *)
  let track_for s ~fault ~property schedule =
    match s.machine with
    | Some (m, initial) when Option.is_none m.Mirror.inst.substrate ->
        let tr =
          match s.track with
          | Some tr when tr.property == property && tr.fault = fault -> tr
          | Some _ | None ->
              (* its first savepoint is the start of a run: the
                 initial instance with the track's fresh tally *)
              let mirror = { m with Mirror.tally = Run.Tally.create ~n:s.sut.n fault } in
              initial ();
              let tr =
                {
                  fault;
                  property;
                  mirror;
                  schedule = Schedule.of_list ~n:s.sut.n [];
                  points = [ (0, Mirror.save mirror) ];
                }
              in
              s.track <- Some tr;
              tr
        in
        let common =
          let bound = min (Schedule.length tr.schedule) (Schedule.length schedule) in
          let rec go i =
            if i < bound && Schedule.get tr.schedule i = Schedule.get schedule i then go (i + 1)
            else i
          in
          go 0
        in
        let rec deepest = function
          | (consumed, _) :: rest when consumed > common -> deepest rest
          | points -> points
        in
        tr.points <- deepest tr.points;
        tr.schedule <- schedule;
        let consumed =
          match tr.points with
          | (consumed, restore) :: _ ->
              restore ();
              consumed
          | [] -> assert false
        in
        s.current <- tr.mirror;
        let on_exec (m : _ Mirror.m) consumed =
          if Run.Tally.total_steps m.Mirror.tally mod savepoint_every = 0 then
            tr.points <- (consumed, Mirror.save m) :: tr.points
        in
        Some (tr.mirror, consumed, on_exec)
    | Some _ | None -> None

  let check_schedule s ~property ?(fault = Fault.no_faults) schedule =
    match track_for s ~fault ~property schedule with
    | Some (m, from, on_exec) -> probe m ~from ~on_exec ~property schedule
    | None -> probe (mirror s ~fault ()) ~from:0 ~property schedule
end

(* ------------------------------------------------------ verdict table *)

(* One slot per property, first violation wins; workers serialize slot
   writes with [lock]. *)
type 'obs verdicts = { slots : ('obs state Property.t * verdict ref) list; lock : Mutex.t }

let verdict_table properties =
  { slots = List.map (fun p -> (p, ref Ok_bounded)) properties; lock = Mutex.create () }

let all_violated vt =
  vt.slots <> [] && List.for_all (fun (_, v) -> !v <> Ok_bounded) vt.slots

(* some safety property is still unviolated *)
let pending_safety vt =
  List.exists (fun ((p : _ Property.t), v) -> p.kind = Property.Safety && !v = Ok_bounded) vt.slots

let report_of vt stats ~engine =
  {
    verdicts = List.map (fun ((p : _ Property.t), v) -> (p.Property.name, !v)) vt.slots;
    stats;
    engine;
  }

(* -------------------------------------------------- observability *)

let engine_sink obs =
  match obs with Some o when Obs.events_on o -> Some o.Obs.events | Some _ | None -> None

(* Add the run's final stats to the explorer counters. The counters
   are written from the stats the report prints, so the metrics
   snapshot is numerically identical to them — the acceptance contract
   of the metrics export. The snapshot engine's machine steps and
   savepoint restores are not replays/replay_steps (the stats record
   stays engine-agnostic); they are exported as dedicated counters
   instead. *)
let record_metrics obs ~engine (s : Budget.stats) =
  match obs with
  | None -> ()
  | Some o ->
      let m = o.Obs.metrics in
      let c name v = Metrics.incr ~by:v (Metrics.counter m name) in
      if engine = Snapshot then begin
        c "explorer.machine_steps" s.Budget.machine_steps;
        c "explorer.restores" s.Budget.restores
      end;
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

(* ------------------------------------------------------------ budget *)

(* The budget every worker spends from: the run's count limits against
   counters all workers share, and one wall-clock deadline, so a limit
   binds the whole exploration whatever the domain count. A worker's
   own [Budget.t] meter only accumulates its statistics. *)
type gauge = {
  g_limits : Budget.limits;
  g_deadline : float option;
  g_visited : int Atomic.t;
  g_replay_steps : int Atomic.t;
}

let hit limit count = match limit with Some c -> Atomic.get count >= c | None -> false

let past_deadline g =
  match g.g_deadline with Some d -> Unix.gettimeofday () >= d | None -> false

(* Some limit is reached before the next unit of work, which costs
   [steps] replay steps (default 1, a single step): a unit that would
   take the step count past its cap is refused whole, so a replay
   budget of k spends at most k at one domain. *)
let over ?(steps = 1) g =
  hit g.g_limits.Budget.max_states g.g_visited
  || (match g.g_limits.Budget.max_replay_steps with
     | Some c -> Atomic.get g.g_replay_steps + steps > c
     | None -> false)
  || past_deadline g

(* --------------------------------------------------- the shared visit *)

(* One worker's view of the exploration: where its stats and events go,
   and the state every worker shares — verdict table, budget gauge,
   pool and fingerprint table. Every engine folds its states in through
   [visit] and [commute_prune] below, so the per-state bookkeeping is
   defined once; the engines differ only in how they materialize a
   state and, hence, in movement accounting. *)
type 'obs engine = {
  e_sut : 'obs sut;
  e_config : config;
  e_meter : Budget.t;  (* this worker's stats sink *)
  e_verdicts : 'obs verdicts;
  e_gauge : gauge;
  e_pool : Proc.t list Parallel.Pool.t;  (* frontier items: reverse prefixes *)
  e_fingerprints : Parallel.Shard_tbl.t;
  e_perms : int array list;  (* the renaming group fingerprints are minimised over *)
  e_pending : int ref;  (* children this worker's snapshot recursion still owes *)
  e_tick : unit -> unit;  (* the progress heartbeat, shared by every worker *)
  e_ev : Events.t option;  (* event sink, [None] when tracing is off *)
  e_worker : int;  (* worker id: its deque and event stamp *)
  e_hook : Setsync_memory.Register.hook option;
  e_footprint : unit -> footprint;
      (* this worker's footprint meter: every instance it builds reports
         to [e_hook] ([None] with commutation off); [fresh_mirror]
         clears it for a new instance *)
}

let emit eng name args =
  match eng.e_ev with
  | Some sink -> Events.emit sink ~worker:eng.e_worker ~args ~cat:"explorer" name
  | None -> ()

let push eng item = Parallel.Pool.push eng.e_pool ~worker:eng.e_worker item

(* a mirror of a fresh instance that reports to the worker's meter *)
let fresh_mirror eng =
  ignore (eng.e_footprint ());
  Mirror.make ~sut:eng.e_sut ~fault:eng.e_config.fault ?hook:eng.e_hook ()

let frontier_size eng = Parallel.Pool.frontier_size eng.e_pool + !(eng.e_pending)

let stopped eng = Parallel.Pool.stopped eng.e_pool

(* a limit fired with work still pending: stop every worker *)
let truncate_run eng =
  Budget.mark_truncated eng.e_meter;
  Parallel.Pool.stop eng.e_pool

(* Check the properties of [kind] on [state]; the last property to be
   violated stops the pool. *)
let record eng ~kind state =
  let vt = eng.e_verdicts in
  List.iter
    (fun ((p : _ Property.t), v) ->
      (* the unsynchronized read may be stale — at worst a property
         already violated by another worker is re-checked; the write is
         serialized and first-wins *)
      if p.kind = kind && !v = Ok_bounded then
        match p.check state with
        | Some reason ->
            Mutex.protect vt.lock (fun () ->
                if !v = Ok_bounded then v := Violated { schedule = state.prefix; reason });
            if all_violated vt then Parallel.Pool.stop eng.e_pool
        | None -> ())
    vt.slots

(* The commutation rule on arrival: a prefix [σ·a·b] whose last two
   steps ran in descending process order ([b < a]) and do not conflict
   is discarded — its sibling [σ·b·a] reaches the same state. *)
let arrival_pruned config rev ~prev ~last =
  config.sleep_sets
  && match rev with b :: a :: _ -> b < a && not (conflicting prev last) | _ -> false

let enabled (run : Run.t) =
  let crashed = Run.crashed run in
  List.filter
    (fun p -> not (Procset.mem p run.halted || Procset.mem p crashed))
    (Proc.all ~n:run.n)

(* The identity of the state [m] is at. On a machine form with a
   payload it is the payload plus the run's marks — the halted and
   crashed sets, and under a fault plan the per-process step counts,
   which decide when the plan crashes a process (without one they are
   drift that would block every merge) — minimised over the
   exploration's renaming group: the identity alone, or the admissible
   renamings under symmetry. Any other state keys on its [digest]. *)
let fingerprint eng (m : _ Mirror.m) state =
  match m.inst.machine with
  | Some { m_payload = Some payload; _ } ->
      let t = m.tally in
      let n = Run.Tally.n t in
      let key perm =
        let halted = Bytes.make n '0' and crashed = Bytes.make n '0' in
        let steps = Array.make n 0 in
        for p = 0 to n - 1 do
          if Run.Tally.halted t p then Bytes.set halted perm.(p) '1';
          if Run.Tally.crashed t p then Bytes.set crashed perm.(p) '1';
          steps.(perm.(p)) <- Run.Tally.steps t p
        done;
        let buf = Buffer.create 64 in
        Buffer.add_string buf (payload ~perm);
        Buffer.add_string buf "|h:";
        Buffer.add_bytes buf halted;
        Buffer.add_string buf "|c:";
        Buffer.add_bytes buf crashed;
        if eng.e_config.fault <> [] then begin
          Buffer.add_string buf "|s:";
          Array.iter (fun s -> Buffer.add_string buf (string_of_int s ^ ",")) steps
        end;
        Digest.string (Buffer.contents buf)
      in
      (match eng.e_perms with
      | first :: rest -> List.fold_left (fun best perm -> min best (key perm)) (key first) rest
      | [] -> invalid_arg "Explorer: empty renaming group")
  | Some { m_payload = None; _ } | None -> digest ~sut:eng.e_sut state

(* Visit a materialized state — the one [m] is at: count it, check
   safety everywhere and stabilization at leaves, gate expansion on the
   fingerprint table. Returns the children to explore (empty at a leaf
   or a fingerprint prune). *)
let visit eng m (state : _ state) =
  let config = eng.e_config and meter = eng.e_meter in
  let depth = state.depth in
  Budget.note_state meter;
  Atomic.incr eng.e_gauge.g_visited;
  Budget.note_depth meter depth;
  if pending_safety eng.e_verdicts then Budget.note_safety_check meter;
  record eng ~kind:Property.Safety state;
  let en = enabled state.run in
  let seen_before () =
    not
      (Parallel.Shard_tbl.check_and_record eng.e_fingerprints (fingerprint eng m state) ~depth)
  in
  if depth >= config.depth || en = [] then begin
    record eng ~kind:Property.Stabilization state;
    []
  end
  else if config.prune_fingerprints && seen_before () then begin
    Budget.note_fingerprint_prune ~depth meter;
    emit eng "fp_prune" [ ("depth", Json.Int depth) ];
    []
  end
  else begin
    emit eng "expand" [ ("depth", Json.Int depth); ("children", Json.Int (List.length en)) ];
    en
  end

(* Discard a commutation-pruned prefix at [depth], whose state every
   engine has already reached. A pending safety property is still
   checked on it: its sibling covers state-based safety, but a
   violation visible only through this interleaving (a property that
   reads the prefix) would otherwise vanish while the report still
   prints "exhaustive". *)
let commute_prune eng ~depth materialize =
  Budget.note_sleep_prune ~depth eng.e_meter;
  emit eng "sleep_prune" [ ("depth", Json.Int depth) ];
  if pending_safety eng.e_verdicts then begin
    Budget.note_safety_check eng.e_meter;
    record eng ~kind:Property.Safety (materialize ())
  end

(* A depth-first pool takes last-pushed first: push descending so
   children are explored in ascending process order. A breadth-first
   one takes oldest first: push ascending. *)
let push_children eng rev children =
  let items = List.map (fun p -> p :: rev) children in
  List.iter (push eng) (if eng.e_config.strategy = Dfs then List.rev items else items);
  Budget.note_frontier eng.e_meter (frontier_size eng)

(* Per-state engine: replay one prefix from scratch and fold it into
   the exploration. *)
let process_prefix eng rev_steps =
  let footprint = eng.e_footprint in
  let m = fresh_mirror eng in
  (* the footprints of the last two executed steps *)
  let fp_prev = ref [||] and fp_last = ref [||] in
  let on_step ~global:_ ~proc:_ =
    fp_prev := !fp_last;
    fp_last := footprint ()
  in
  let schedule = Schedule.of_list ~n:eng.e_sut.n (List.rev rev_steps) in
  let run = Mirror.replay m ~on_step schedule in
  let state = Mirror.state ~requested:schedule ~reason:run.Run.reason m in
  let executed = Run.total_steps state.run in
  Budget.note_replay eng.e_meter ~steps:executed;
  ignore (Atomic.fetch_and_add eng.e_gauge.g_replay_steps executed);
  emit eng "replay" [ ("depth", Json.Int state.depth); ("steps", Json.Int executed) ];
  if arrival_pruned eng.e_config rev_steps ~prev:!fp_prev ~last:!fp_last then
    (* the replay is already paid for: hand the state over for the
       safety check *)
    commute_prune eng ~depth:state.depth (fun () -> state)
  else
    match visit eng m state with
    | [] -> ()
    | children -> push_children eng rev_steps children

(* Check the arguments and resolve the engine; returns the config the
   run uses and the renaming group its fingerprints are minimised over.
   [Path] is the default request: it runs on the snapshot engine
   wherever that engine applies — a machine-form system, a depth-first
   search and no replay-step cap for it to ignore — on the walk with
   path replay under the other depth-first searches, and on per-state
   replay under [Bfs] (a breadth-first search has no walk to
   amortize). Symmetry reduction needs a payload to rename; its group
   is the machine's renamings that fix the fault plan (budgets ∘ perm
   = budgets). Commutation needs every step's effect on the state to
   show in its footprint, which a substrate breaks: the network's
   clock is poked and peeked, and its adversary's delivery decisions
   key on sequence counters outside the store, so two steps whose
   footprints do not conflict need not commute. Machine-form support and the
   substrate are probed on a throwaway instance, so errors surface on
   the calling domain, before any worker spawns. *)
let validate_explore ~sut config =
  if config.depth < 0 then invalid_arg "Explorer.explore: negative depth bound";
  Proc.check_n sut.n;
  Fault.validate ~n:sut.n config.fault;
  let probe = lazy (sut.fresh ~store:(Store.create ())) in
  if config.sleep_sets && Option.is_some (Lazy.force probe).substrate then
    invalid_arg
      "Explorer.explore: commutation (sleep_sets) is unsound on a sut with a substrate: its \
       clock and delivery decisions live outside the store's footprints; pass \
       ~sleep_sets:false";
  let machine = lazy (Lazy.force probe).machine in
  let config =
    match (config.engine, config.strategy) with
    | Path, Dfs
      when config.limits.Budget.max_replay_steps = None && Option.is_some (Lazy.force machine)
      ->
        { config with engine = Snapshot }
    | Path, Bfs -> { config with engine = Per_state }
    | (Per_state | Path | Snapshot), _ -> config
  in
  if config.engine = Snapshot then begin
    if config.strategy <> Dfs then
      invalid_arg
        "Explorer.explore: the snapshot engine is depth-first only (its savepoint stack is \
         the DFS spine)";
    if Lazy.force machine = None then
      invalid_arg
        "Explorer.explore: the snapshot engine needs a machine-form sut (instance.machine \
         is None)"
  end;
  let perms =
    if not config.symmetry then [ Array.init sut.n Fun.id ]
    else
      match Lazy.force machine with
      | Some { m_payload = Some _; m_perms; _ } ->
          let budget = Run.Tally.budget (Run.Tally.create ~n:sut.n config.fault) in
          List.filter
            (fun perm -> Array.for_all Fun.id (Array.mapi (fun p q -> budget q = budget p) perm))
            m_perms
      | Some { m_payload = None; _ } | None ->
          invalid_arg
            "Explorer.explore: symmetry reduction needs a sut with a symmetry payload (a \
             machine form with m_payload)"
  in
  (config, perms)

(* ------------------------------------------------- the depth-first walk *)

(* One step of [p] on the walk's live instance, metered as the engine's
   movement: a machine step under [Snapshot] (wall-timed in telemetry
   mode; the untimed path adds one counter increment per step, noise
   against the step itself, so the pinned snapshot benches are
   unperturbed), a replay step under [Path], counted in the shared
   gauge the step cap reads. *)
let advance_metered eng m p =
  let meter = eng.e_meter and snapshot = eng.e_config.engine = Snapshot in
  if snapshot && eng.e_config.telemetry then begin
    let t0 = Unix.gettimeofday () in
    Mirror.advance m p;
    Budget.note_machine_seconds meter (Unix.gettimeofday () -. t0)
  end
  else Mirror.advance m p;
  if snapshot then Budget.note_machine_step meter
  else begin
    Budget.note_replay_steps meter 1;
    Atomic.incr eng.e_gauge.g_replay_steps
  end

let restore_metered meter ~timed restore =
  if timed then begin
    let t0 = Unix.gettimeofday () in
    restore ();
    Budget.note_restore_seconds meter (Unix.gettimeofday () -. t0)
  end
  else restore ();
  Budget.note_restore meter

(* The depth-first walk below a materialized node, on one live instance
   [m] whose steps the worker's meter measures. The node is visited
   through [visit]; each child the walk steps into is gated like a pool
   take ([stopped], then [over] — take first, test second, so finishing
   on exactly the budget stays exhaustive), stepped on the live
   instance, possibly commutation-pruned (same arrival rule, with the
   pruned state already materialized for safety checks) and walked.
   The two depth-first engines differ only in how the walk reaches the
   node's other children:
   - [Path] pushes them as pool items, each rebuilt by a fresh instance
     that replays its prefix ([take]), and steps into the first child
     on [m]: every instance, machine form or fibers, walks forward only;
   - [Snapshot] takes one savepoint of the node and restores it after
     each child — never a replay. The savepoints of a path are
     last-in-first-out, so the machine, store and tally capture them
     into per-depth buffers they reuse. Above a split depth its
     children become pool items too: depth 2 with several workers, so
     each worker owns whole subtrees on its private instance; a single
     worker has no one to share with and walks from the root. *)
let rec walk eng m ~depth ~rev ~arrive_fp =
  let config = eng.e_config and meter = eng.e_meter in
  let step_into b =
    eng.e_tick ();
    if stopped eng then false
    else if over eng.e_gauge then begin
      truncate_run eng;
      false
    end
    else begin
      advance_metered eng m b;
      let fp_b = eng.e_footprint () in
      let rev' = b :: rev in
      if arrival_pruned config rev' ~prev:arrive_fp ~last:fp_b then
        commute_prune eng ~depth:(depth + 1) (fun () -> Mirror.state m)
      else walk eng m ~depth:(depth + 1) ~rev:rev' ~arrive_fp:fp_b;
      true
    end
  in
  let split_depth = if Parallel.Pool.workers eng.e_pool > 1 then 2 else 0 in
  match visit eng m (Mirror.state m) with
  | [] -> ()
  | first :: rest when config.engine <> Snapshot ->
      push_children eng rev rest;
      ignore (step_into first)
  | children when depth < split_depth -> push_children eng rev children
  | children ->
      let pending = eng.e_pending in
      pending := !pending + List.length children;
      Budget.note_frontier meter (frontier_size eng);
      (* one savepoint for the node, restored after each child *)
      let restore = Mirror.save m in
      List.iter
        (fun b ->
          decr pending;
          Budget.note_frontier meter (frontier_size eng);
          if step_into b then restore_metered meter ~timed:config.telemetry restore)
        children

(* One pool item of the walk: build a fresh instance, rebuild the prefix
   by steps — keeping the last two footprints for the arrival
   commutation check — then walk below it. Under [Path] an item is one
   replay, whose steps the walk keeps counting as it goes on. *)
let take eng rev_steps =
  let m = fresh_mirror eng in
  let depth = List.length rev_steps in
  let fp_prev = ref [||] and fp_last = ref [||] in
  List.iter
    (fun p ->
      advance_metered eng m p;
      fp_prev := !fp_last;
      fp_last := eng.e_footprint ())
    (List.rev rev_steps);
  if arrival_pruned eng.e_config rev_steps ~prev:!fp_prev ~last:!fp_last then
    commute_prune eng ~depth (fun () -> Mirror.state m)
  else walk eng m ~depth ~rev:rev_steps ~arrive_fp:!fp_last;
  if eng.e_config.engine <> Snapshot then begin
    Budget.note_replay eng.e_meter ~steps:0;
    let steps = Run.Tally.total_steps m.tally in
    emit eng "replay" [ ("depth", Json.Int steps); ("steps", Json.Int steps) ]
  end

(* ----------------------------------------------------------- explore *)

(* Every exploration runs on a pool of [domains] workers; one domain is
   a pool of one worker, which runs in the calling domain. Replays are
   embarrassingly parallel (each drives a fresh store/fiber
   instance); the shared state is the frontier (work-stealing deques),
   the fingerprint table (lock-striped), the verdict table (one mutex,
   written once per property), and the budget gauge (atomics + a
   wall-clock deadline). Owners take their newest item under [Dfs] and
   their oldest under [Bfs], so one worker runs the sequential search
   order. With more workers verdicts are the same — same violated
   set — but which counterexample is reported first, and the
   visited/pruned counts under fingerprint pruning, depend on the work
   interleaving (see DESIGN.md §8). *)
let explore ?(domains = 1) ?obs ?on_progress ?(progress_interval = 1.0) ~sut ~properties
    config =
  if domains < 1 then invalid_arg "Explorer.explore: domains must be >= 1";
  let config, perms = validate_explore ~sut config in
  let parent =
    Budget.start
      ~movement:(if config.engine = Snapshot then Budget.Machine else Budget.Replays)
      config.limits
  in
  let meters = Array.init domains (fun _ -> Budget.start Budget.unlimited) in
  let pending = Array.init domains (fun _ -> ref 0) in
  let gauge =
    {
      g_limits = config.limits;
      g_deadline = Budget.deadline parent;
      g_visited = Atomic.make 0;
      g_replay_steps = Atomic.make 0;
    }
  in
  (* a single worker never steals: no counter for it. Each thief
     counts in its own slot; the sum lands in the counter after the
     join. *)
  let steals = Array.make domains 0 in
  let steal_counter =
    match obs with
    | Some o when domains > 1 -> Some (Metrics.counter o.Obs.metrics "explorer.steals")
    | Some _ | None -> None
  in
  let on_steal =
    match steal_counter with
    | None -> None
    | Some _ ->
        let sink = engine_sink obs in
        Some
          (fun ~thief ~victim ->
            steals.(thief) <- steals.(thief) + 1;
            match sink with
            | Some s ->
                Events.emit s ~worker:thief
                  ~args:[ ("victim", Json.Int victim) ]
                  ~cat:"explorer" "steal"
            | None -> ())
  in
  let pool =
    Parallel.Pool.create ?on_steal ~fifo:(config.strategy = Bfs) ~workers:domains ()
  in
  let verdicts = verdict_table properties in
  (* Every worker ticks the one heartbeat, so it beats while any worker
     works: the run's stats so far, summed over the live worker meters
     (racy reads, never used for control) *)
  let tick =
    match (on_progress, engine_sink obs) with
    | None, None -> fun () -> ()
    | _, sink ->
        Budget.heartbeat ~interval:progress_interval (fun () ->
            let s = Budget.sum ~clock:parent meters in
            Option.iter (fun f -> f s) on_progress;
            Option.iter
              (fun sink ->
                Events.emit sink ~args:(Budget.stats_to_json s) ~cat:"explorer" "heartbeat")
              sink)
  in
  let fingerprints = Parallel.Shard_tbl.create () in
  let engines =
    Array.init domains (fun wid ->
        let hook, footprint = footprint_meter ~sleep_sets:config.sleep_sets in
        {
          e_sut = sut;
          e_config = config;
          e_meter = meters.(wid);
          e_verdicts = verdicts;
          e_gauge = gauge;
          e_pool = pool;
          e_fingerprints = fingerprints;
          e_perms = perms;
          e_pending = pending.(wid);
          e_tick = tick;
          e_ev = engine_sink obs;
          e_worker = wid;
          e_hook = hook;
          e_footprint = footprint;
        })
  in
  let work wid rev_steps =
    let eng = engines.(wid) in
    eng.e_tick ();
    (* take first, then test: completing the space on exactly the
       budget is exhaustive, not truncated. A replay pays the item's
       whole prefix up front. *)
    let steps = if config.engine = Snapshot then 1 else max 1 (List.length rev_steps) in
    if over ~steps gauge then truncate_run eng
    else
      match config.engine with
      | Per_state -> process_prefix eng rev_steps
      | Path | Snapshot -> take eng rev_steps
  in
  Parallel.Pool.push pool ~worker:0 [];
  Budget.note_frontier meters.(0) 1;
  Parallel.Pool.run pool work;
  Option.iter (Metrics.incr ~by:(Array.fold_left ( + ) 0 steals)) steal_counter;
  let stats = Budget.sum ~clock:parent meters in
  record_metrics obs ~engine:config.engine stats;
  report_of verdicts stats ~engine:config.engine

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
  Json.Obj
    (("schema", Json.String "setsync-search-summary/1")
    :: ("engine", Json.String (engine_name r.engine))
    :: Budget.stats_to_json r.stats)

(* ----------------------------------------------------------- printing *)

let pp_verdict ppf = function
  | Ok_bounded -> Fmt.string ppf "ok (no violation within bound)"
  | Violated { schedule; reason } ->
      Fmt.pf ppf "VIOLATED by %a: %s" Schedule.pp_full schedule reason

let pp_report ppf r =
  List.iter (fun (name, v) -> Fmt.pf ppf "%-40s %a@." name pp_verdict v) r.verdicts;
  Fmt.pf ppf "%a" Budget.pp_stats r.stats
