module Json = Setsync_obs.Json

type limits = {
  max_states : int option;
  max_replay_steps : int option;
  max_seconds : float option;
}

let unlimited = { max_states = None; max_replay_steps = None; max_seconds = None }

let limits ?max_states ?max_replay_steps ?max_seconds () =
  let non_negative name = function
    | Some v when v < 0 ->
        invalid_arg (Printf.sprintf "Budget.limits: %s must be >= 0 (got %d)" name v)
    | Some _ | None -> ()
  in
  non_negative "max_states" max_states;
  non_negative "max_replay_steps" max_replay_steps;
  (match max_seconds with
  | Some s when not (s >= 0.) ->
      invalid_arg (Printf.sprintf "Budget.limits: max_seconds must be >= 0 (got %g)" s)
  | Some _ | None -> ());
  { max_states; max_replay_steps; max_seconds }

(* Wall clock. [Sys.time] is CPU time summed over every thread of the
   process: under N domains a 1 s "wall" budget measured with it
   expires after ~1/N s of real time. [Unix.gettimeofday] is real
   (wall) time; not strictly monotonic under clock adjustment, but the
   elapsed-time arithmetic below tolerates small steps and the budget
   semantics only need approximate wall time. *)
let now_wall = Unix.gettimeofday

(* the movement an engine pays to reach a state *)
type movement = Replays | Machine

type t = {
  lim : limits;
  movement : movement;
  started_cpu : float;
  started_wall : float;
  mutable visited : int;
  mutable safety_checked : int;
  mutable pruned_fingerprint : int;
  mutable pruned_sleep : int;
  mutable replays : int;
  mutable replay_steps : int;
  mutable max_depth : int;
  mutable frontier_peak : int;
  mutable truncated : bool;
  (* per-depth search telemetry: index = prefix depth, growable *)
  mutable d_visited : int array;
  mutable d_fp : int array;
  mutable d_sleep : int array;
  (* snapshot-engine movement: live machine steps / savepoint restores
     (NOT replays; pp_stats prints the meter's [movement]) *)
  mutable machine_steps : int;
  mutable restores : int;
  (* accumulated only when the caller times the movement (telemetry
     mode); 0.0 otherwise *)
  mutable machine_seconds : float;
  mutable restore_seconds : float;
}

(* a meter with zero counts on the given clocks *)
let zero lim ~movement ~cpu ~wall =
  {
    lim;
    movement;
    started_cpu = cpu;
    started_wall = wall;
    visited = 0;
    safety_checked = 0;
    pruned_fingerprint = 0;
    pruned_sleep = 0;
    replays = 0;
    replay_steps = 0;
    max_depth = 0;
    frontier_peak = 0;
    truncated = false;
    d_visited = [||];
    d_fp = [||];
    d_sleep = [||];
    machine_steps = 0;
    restores = 0;
    machine_seconds = 0.;
    restore_seconds = 0.;
  }

let start ?(movement = Replays) lim =
  zero lim ~movement ~cpu:(Sys.time ()) ~wall:(now_wall ())

(* grow-on-demand for the per-depth counter arrays *)
let grown a d =
  if d < Array.length a then a
  else begin
    let b = Array.make (max (d + 1) ((2 * Array.length a) + 4)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let at a d = if d < Array.length a then a.(d) else 0

let wall_elapsed t = now_wall () -. t.started_wall

let cpu_elapsed t = Sys.time () -. t.started_cpu

let deadline t = Option.map (fun s -> t.started_wall +. s) t.lim.max_seconds

let over t =
  (match t.lim.max_states with Some c -> t.visited >= c | None -> false)
  || (match t.lim.max_replay_steps with Some c -> t.replay_steps >= c | None -> false)
  || match t.lim.max_seconds with Some s -> wall_elapsed t >= s | None -> false

let mark_truncated t = t.truncated <- true

let note_state t = t.visited <- t.visited + 1

let note_safety_check t = t.safety_checked <- t.safety_checked + 1

let note_replay t ~steps =
  t.replays <- t.replays + 1;
  t.replay_steps <- t.replay_steps + steps

let note_replay_steps t k = t.replay_steps <- t.replay_steps + k

let note_depth t d =
  if d > t.max_depth then t.max_depth <- d;
  t.d_visited <- grown t.d_visited d;
  t.d_visited.(d) <- t.d_visited.(d) + 1

let note_fingerprint_prune ?depth t =
  t.pruned_fingerprint <- t.pruned_fingerprint + 1;
  match depth with
  | None -> ()
  | Some d ->
      t.d_fp <- grown t.d_fp d;
      t.d_fp.(d) <- t.d_fp.(d) + 1

let note_sleep_prune ?depth t =
  t.pruned_sleep <- t.pruned_sleep + 1;
  match depth with
  | None -> ()
  | Some d ->
      t.d_sleep <- grown t.d_sleep d;
      t.d_sleep.(d) <- t.d_sleep.(d) + 1

let note_frontier t size = if size > t.frontier_peak then t.frontier_peak <- size

let note_machine_step t = t.machine_steps <- t.machine_steps + 1

let note_restore t = t.restores <- t.restores + 1

let note_machine_seconds t s = t.machine_seconds <- t.machine_seconds +. s

let note_restore_seconds t s = t.restore_seconds <- t.restore_seconds +. s

let absorb ~into w =
  into.visited <- into.visited + w.visited;
  into.safety_checked <- into.safety_checked + w.safety_checked;
  into.pruned_fingerprint <- into.pruned_fingerprint + w.pruned_fingerprint;
  into.pruned_sleep <- into.pruned_sleep + w.pruned_sleep;
  into.replays <- into.replays + w.replays;
  into.replay_steps <- into.replay_steps + w.replay_steps;
  if w.max_depth > into.max_depth then into.max_depth <- w.max_depth;
  if w.frontier_peak > into.frontier_peak then into.frontier_peak <- w.frontier_peak;
  if w.truncated then into.truncated <- true;
  let merge get set =
    let wa = get w in
    if Array.length wa > 0 then begin
      let ia = grown (get into) (Array.length wa - 1) in
      Array.iteri (fun d v -> ia.(d) <- ia.(d) + v) wa;
      set into ia
    end
  in
  merge (fun t -> t.d_visited) (fun t a -> t.d_visited <- a);
  merge (fun t -> t.d_fp) (fun t a -> t.d_fp <- a);
  merge (fun t -> t.d_sleep) (fun t a -> t.d_sleep <- a);
  into.machine_steps <- into.machine_steps + w.machine_steps;
  into.restores <- into.restores + w.restores;
  into.machine_seconds <- into.machine_seconds +. w.machine_seconds;
  into.restore_seconds <- into.restore_seconds +. w.restore_seconds

type depth_row = {
  dr_depth : int;
  dr_visited : int;
  dr_fp_pruned : int;
  dr_sleep_pruned : int;
}

type stats = {
  movement : movement;
  visited : int;
  safety_checked : int;
  pruned_fingerprint : int;
  pruned_sleep : int;
  replays : int;
  replay_steps : int;
  max_depth : int;
  frontier_peak : int;
  truncated : bool;
  cpu_seconds : float;
  wall_seconds : float;
  depth_profile : depth_row list;
  machine_steps : int;
  restores : int;
  machine_seconds : float;
  restore_seconds : float;
}

let depth_profile_of t =
  (* arrays grow geometrically, so drop the all-zero tail *)
  let len =
    let cap =
      max (Array.length t.d_visited) (max (Array.length t.d_fp) (Array.length t.d_sleep))
    in
    let rec go d =
      if d <= 0 then 0
      else if at t.d_visited (d - 1) > 0 || at t.d_fp (d - 1) > 0 || at t.d_sleep (d - 1) > 0
      then d
      else go (d - 1)
    in
    go cap
  in
  List.init len (fun d ->
      {
        dr_depth = d;
        dr_visited = at t.d_visited d;
        dr_fp_pruned = at t.d_fp d;
        dr_sleep_pruned = at t.d_sleep d;
      })

let stats (t : t) : stats =
  {
    movement = t.movement;
    visited = t.visited;
    safety_checked = t.safety_checked;
    pruned_fingerprint = t.pruned_fingerprint;
    pruned_sleep = t.pruned_sleep;
    replays = t.replays;
    replay_steps = t.replay_steps;
    max_depth = t.max_depth;
    frontier_peak = t.frontier_peak;
    truncated = t.truncated;
    cpu_seconds = cpu_elapsed t;
    wall_seconds = wall_elapsed t;
    depth_profile = depth_profile_of t;
    machine_steps = t.machine_steps;
    restores = t.restores;
    machine_seconds = t.machine_seconds;
    restore_seconds = t.restore_seconds;
  }

let sum ~clock meters =
  let into =
    zero clock.lim ~movement:clock.movement ~cpu:clock.started_cpu ~wall:clock.started_wall
  in
  Array.iter (absorb ~into) meters;
  stats into

let heartbeat ~interval beat =
  if not (interval > 0.) then fun () -> ()
  else
    let last = ref (now_wall ()) and lock = Mutex.create () in
    fun () ->
      let now = now_wall () in
      (* the unlocked read only filters; the beat is decided under the
         lock, which a domain that finds it taken skips *)
      if now -. !last >= interval && Mutex.try_lock lock then
        Fun.protect
          ~finally:(fun () -> Mutex.unlock lock)
          (fun () ->
            if now -. !last >= interval then begin
              last := now;
              beat ()
            end)

let pp_movement ppf s =
  match s.movement with
  | Machine -> Fmt.pf ppf "machine %d steps, %d restores" s.machine_steps s.restores
  | Replays -> Fmt.pf ppf "replays %d/%d steps" s.replays s.replay_steps

let pp_counts ppf s =
  Fmt.pf ppf
    "visited %d (fp-pruned %d, commute-pruned %d, safety-checked %d) %a, max depth %d, \
     frontier peak %d"
    s.visited s.pruned_fingerprint s.pruned_sleep s.safety_checked pp_movement s s.max_depth
    s.frontier_peak

let pp_stats ppf s =
  Fmt.pf ppf "%a, %s" pp_counts s (if s.truncated then "TRUNCATED by budget" else "exhaustive")

let pp_times ppf s = Fmt.pf ppf "%.3fs wall / %.3fs cpu" s.wall_seconds s.cpu_seconds

let stats_to_json s =
  let row d =
    Json.Obj
      [
        ("depth", Json.Int d.dr_depth);
        ("visited", Json.Int d.dr_visited);
        ("fp_pruned", Json.Int d.dr_fp_pruned);
        ("sleep_pruned", Json.Int d.dr_sleep_pruned);
      ]
  in
  [
    ("visited", Json.Int s.visited);
    ("safety_checked", Json.Int s.safety_checked);
    ("fp_pruned", Json.Int s.pruned_fingerprint);
    ("sleep_pruned", Json.Int s.pruned_sleep);
    ("replays", Json.Int s.replays);
    ("replay_steps", Json.Int s.replay_steps);
    ("machine_steps", Json.Int s.machine_steps);
    ("restores", Json.Int s.restores);
    ("machine_seconds", Json.Float s.machine_seconds);
    ("restore_seconds", Json.Float s.restore_seconds);
    ("max_depth", Json.Int s.max_depth);
    ("frontier_peak", Json.Int s.frontier_peak);
    ("truncated", Json.Bool s.truncated);
    ("wall_seconds", Json.Float s.wall_seconds);
    ("depth_profile", Json.List (List.map row s.depth_profile));
  ]
