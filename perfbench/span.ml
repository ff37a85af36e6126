(* In-memory span recorder for the traced run.

   A span is a named interval on the monotonic clock. Spans nest: the
   recorder keeps a stack of open spans, and closing one charges its
   duration to its parent's child time, so each name's self time is
   its span time minus the part its children cover. Every span belongs
   to the task (one agreement instance, one bounded check, one fuzz
   hunt) that was open when it started.

   Totals are kept per name for every span. The first [capacity] spans
   are also kept whole (id, name, start, end, parent, task) and written
   out as JSONL when the run ends; later spans still count. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let capacity = 200_000

(* Span names. The traced run opens [task] once per task; the others
   wrap the calls the benchmark passes into each layer. The self time
   of [task] is time no wrapper covers. *)
let task = 0
let grant = 1 (* executor: from on_step to the next pre_step *)
let pull = 2 (* Source.next *)
let policy = 3 (* the boost policy (Netmem.round_policy) *)
let pre_step = 4 (* Substrate.pre_step: clock, delivery, batched pump *)
let local = 5 (* a client's fiber step: algorithm code plus its atomic *)
let owner_turn = 6 (* an owner's fiber step: Net.step_serve *)
let serve = 7 (* Netmem.serve on one message *)
let obs_write = 8 (* Events.save_jsonl *)
let fresh = 9 (* sut.fresh *)
let step = 10 (* one machine step, or a fiber step under replay *)
let save = 11 (* minstance.m_save *)
let restore = 12 (* the restore thunk m_save returned *)
let fingerprint = 13 (* sut.obs_fingerprint, minstance.m_payload *)
let observe = 14 (* instance.observe *)
let property = 15 (* Property.check *)
let harness = 16 (* Net.create, Netmem.install and Ag_harness.solve *)
let engine = 17 (* Explorer.explore, Fuzz.run *)
let obs_setup = 18 (* Obs.create with an in-memory event ring *)

let names =
  [|
    "task";
    "runtime.grant";
    "schedule.pull";
    "netmem.policy";
    "net.pre_step";
    "agreement.local";
    "netmem.owner_turn";
    "netmem.serve";
    "obs.write";
    "sut.fresh";
    "sut.step";
    "sut.save";
    "sut.restore";
    "sut.fingerprint";
    "sut.observe";
    "sut.property";
    "harness";
    "engine";
    "obs.setup";
  |]

let max_depth = 16

type t = {
  self : int array;
  total : int array;
  count : int array;
  stk_name : int array;
  stk_start : int array;
  stk_child : int array;
  stk_id : int array;
  mutable depth : int;
  mutable next_id : int;
  mutable cur_task : int;
  r_name : int array;
  r_start : int array;
  r_end : int array;
  r_parent : int array;
  r_task : int array;
}

let create () =
  let k = Array.length names in
  {
    self = Array.make k 0;
    total = Array.make k 0;
    count = Array.make k 0;
    stk_name = Array.make max_depth 0;
    stk_start = Array.make max_depth 0;
    stk_child = Array.make max_depth 0;
    stk_id = Array.make max_depth 0;
    depth = 0;
    next_id = 0;
    cur_task = -1;
    r_name = Array.make capacity 0;
    r_start = Array.make capacity 0;
    r_end = Array.make capacity 0;
    r_parent = Array.make capacity 0;
    r_task = Array.make capacity 0;
  }

let push t name at =
  let d = t.depth in
  if d >= max_depth then failwith "Span: nesting too deep";
  t.stk_name.(d) <- name;
  t.stk_start.(d) <- at;
  t.stk_child.(d) <- 0;
  t.stk_id.(d) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.depth <- d + 1

let pop t at =
  let d = t.depth - 1 in
  if d < 0 then failwith "Span: leave without enter";
  t.depth <- d;
  let name = t.stk_name.(d) and start = t.stk_start.(d) in
  let dur = at - start in
  t.total.(name) <- t.total.(name) + dur;
  t.self.(name) <- t.self.(name) + dur - t.stk_child.(d);
  t.count.(name) <- t.count.(name) + 1;
  if d > 0 then t.stk_child.(d - 1) <- t.stk_child.(d - 1) + dur;
  let id = t.stk_id.(d) in
  if id < capacity then begin
    t.r_name.(id) <- name;
    t.r_start.(id) <- start;
    t.r_end.(id) <- at;
    t.r_parent.(id) <- (if d > 0 then t.stk_id.(d - 1) else -1);
    t.r_task.(id) <- t.cur_task
  end

let enter t name = push t name (now ())

let leave t = pop t (now ())

(* Close the innermost span and open a sibling at the same instant:
   one clock read for two boundaries. *)
let switch t name =
  let at = now () in
  pop t at;
  push t name at

(* The name of the innermost open span, or -1. *)
let innermost t = if t.depth = 0 then -1 else t.stk_name.(t.depth - 1)

(* Close the innermost span as if it ended when its children did: it
   keeps no self time, and the rest of its interval falls to its
   parent's self time. *)
let cut t =
  let d = t.depth - 1 in
  pop t (t.stk_start.(d) + t.stk_child.(d))

let begin_task t ~id =
  if t.depth <> 0 then failwith "Span: task opened inside another span";
  t.cur_task <- id;
  enter t task

(* Closes every span still open, the task root last. *)
let end_task t =
  let at = now () in
  while t.depth > 0 do
    pop t at
  done

let self_s t name = float_of_int t.self.(name) *. 1e-9

let total_s t name = float_of_int t.total.(name) *. 1e-9

let count t name = t.count.(name)

let ns_per_call t name =
  if t.count.(name) = 0 then 0. else float_of_int t.total.(name) /. float_of_int t.count.(name)

let recorded t = t.next_id

(* One JSON object per kept span, times in ns from the first kept
   span's start, then one summary line per name. *)
let write_jsonl t ~path ~header =
  let oc = open_out path in
  Printf.fprintf oc "%s\n" header;
  let kept = min t.next_id capacity in
  let base = if kept > 0 then t.r_start.(0) else 0 in
  for id = 0 to kept - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"task\":%d}\n" id
      names.(t.r_name.(id))
      (t.r_start.(id) - base)
      (t.r_end.(id) - base)
      t.r_parent.(id) t.r_task.(id)
  done;
  Array.iteri
    (fun name label ->
      if t.count.(name) > 0 then
        Printf.fprintf oc
          "{\"summary\":\"%s\",\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}\n" label
          t.count.(name) t.total.(name) t.self.(name))
    names;
  close_out oc
