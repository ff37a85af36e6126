module Proc = Setsync_schedule.Proc
module Schedule = Setsync_schedule.Schedule
module Procset = Setsync_schedule.Procset

type stop_reason = Source_exhausted | Step_budget | All_halted | Stopped_early | Stalled

type t = {
  n : int;
  taken : Schedule.t;
  steps_of : int array;
  crashes : (Proc.t * int) list;
  halted : Procset.t;
  reason : stop_reason;
}

let total_steps t = Schedule.length t.taken

let crashed t =
  List.fold_left (fun acc (p, _) -> Procset.add p acc) Procset.empty t.crashes

let correct t = Procset.diff (Procset.full ~n:t.n) (crashed t)

let pp_reason ppf = function
  | Source_exhausted -> Fmt.string ppf "source-exhausted"
  | Step_budget -> Fmt.string ppf "step-budget"
  | All_halted -> Fmt.string ppf "all-halted"
  | Stopped_early -> Fmt.string ppf "stopped-early"
  | Stalled -> Fmt.string ppf "stalled"

let pp ppf t =
  Fmt.pf ppf "run[n=%d steps=%d reason=%a crashed=%a halted=%a]" t.n (total_steps t)
    pp_reason t.reason Procset.pp (crashed t) Procset.pp t.halted

module Tally = struct
  type run = t

  (* Every per-step update is a flat array write; lists are touched
     only when a process crashes. [taken] grows by doubling and a
     savepoint needs just its length. Frozen runs view [taken] instead
     of copying it, so an entry below [viewed] is never overwritten:
     the first step after a restore below [viewed] moves the live
     prefix [0, total) to a fresh buffer first (copy-on-rewind). *)
  type t = {
    n : int;
    budget : int array;
    steps : int array;
    dead : bool array;
    halted : bool array;
    mutable crashes : (Proc.t * int) list;  (* most recent first *)
    mutable taken : Proc.t array;
    mutable total : int;
    mutable viewed : int;  (* entries of [taken] some frozen run shows *)
    points : Setsync_memory.Savestack.t;
    (* [save]'s captures, one slot per savepoint depth: per slot, the
       total, then each process's steps, dead and halted flags *)
    mutable saved : int array;
    mutable saved_crashes : (Proc.t * int) list array;
  }

  let create ~n plan =
    Fault.validate ~n plan;
    let budget = Array.make n max_int in
    List.iter (fun (p, s) -> budget.(p) <- s) plan;
    {
      n;
      budget;
      steps = Array.make n 0;
      dead = Array.map (fun s -> s = 0) budget;
      halted = Array.make n false;
      (* processes with a zero budget are dead before the run starts *)
      crashes = List.rev (List.filter_map (fun (p, s) -> if s = 0 then Some (p, 0) else None) plan);
      taken = [||];
      total = 0;
      viewed = 0;
      points = Setsync_memory.Savestack.create ();
      saved = [||];
      saved_crashes = [||];
    }

  let n t = t.n
  let total_steps t = t.total
  let steps t p = t.steps.(p)
  let budget t p = t.budget.(p)
  let crashed t p = t.dead.(p)
  let halted t p = t.halted.(p)
  let live t p = not (t.dead.(p) || t.halted.(p))

  let note_step t p =
    if t.total = Array.length t.taken || t.total < t.viewed then begin
      let fresh = Array.make (max 8 (2 * t.total)) 0 in
      Array.blit t.taken 0 fresh 0 t.total;
      t.taken <- fresh;
      t.viewed <- 0
    end;
    t.taken.(t.total) <- p;
    let s = t.steps.(p) + 1 in
    t.steps.(p) <- s;
    let died = s >= t.budget.(p) && not t.dead.(p) in
    if died then begin
      t.dead.(p) <- true;
      t.crashes <- (p, t.total) :: t.crashes
    end;
    t.total <- t.total + 1;
    died

  let halt t p = t.halted.(p) <- true

  let width t = 1 + (3 * t.n)

  let capture t depth =
    let w = width t in
    let base = depth * w in
    if base + w > Array.length t.saved then
      t.saved <- Setsync_memory.Savestack.grow t.saved (base + w) 0;
    if depth >= Array.length t.saved_crashes then
      t.saved_crashes <- Setsync_memory.Savestack.grow t.saved_crashes (depth + 1) [];
    let b = t.saved in
    b.(base) <- t.total;
    for p = 0 to t.n - 1 do
      let at = base + 1 + (3 * p) in
      b.(at) <- t.steps.(p);
      b.(at + 1) <- Bool.to_int t.dead.(p);
      b.(at + 2) <- Bool.to_int t.halted.(p)
    done;
    t.saved_crashes.(depth) <- t.crashes

  let restore t depth =
    let base = depth * width t in
    let b = t.saved in
    t.total <- b.(base);
    for p = 0 to t.n - 1 do
      let at = base + 1 + (3 * p) in
      t.steps.(p) <- b.(at);
      t.dead.(p) <- b.(at + 1) = 1;
      t.halted.(p) <- b.(at + 2) = 1
    done;
    t.crashes <- t.saved_crashes.(depth)

  let save t = Setsync_memory.Savestack.save t.points "Run.Tally.save" capture restore t

  let freeze t reason : run =
    let halted = ref Procset.empty in
    Array.iteri (fun p h -> if h then halted := Procset.add p !halted) t.halted;
    t.viewed <- max t.viewed t.total;
    {
      n = t.n;
      taken = Schedule.share ~n:t.n t.taken ~len:t.total;
      steps_of = Array.copy t.steps;
      crashes = List.rev t.crashes;
      halted = !halted;
      reason;
    }
end
