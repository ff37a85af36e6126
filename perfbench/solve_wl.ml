(* Workloads solve-net and solve-net-traced: a seeded stream of
   agreement instances over round-batched Netmem (one owner) under the
   crash + BRS loss adversary — what `setsync solve --backend net
   --solver kset|paxos` runs, one instance after another. *)

module Source = Setsync_schedule.Source
module Rng = Setsync_schedule.Rng
module Store = Setsync_memory.Store
module Run = Setsync_runtime.Run
module Problem = Setsync_agreement.Problem
module Ag_harness = Setsync_agreement.Ag_harness
module Net = Setsync_net.Net
module Netmem = Setsync_net.Netmem
module Adversary = Setsync_net.Adversary
module Net_agreement = Setsync_net.Net_agreement
module Obs = Setsync_obs.Obs
module Events = Setsync_obs.Events

type instance = {
  solver : [ `Auto | `Paxos ];
  problem : Problem.t;
  inputs : int array;
  delta : int;
  gst : int;
  combined : Adversary.combined;
  resend_after : int option;
}

let max_steps = 200_000

(* The stream is stratified: instance i runs Paxos when i is odd and the
   Theorem-24 k-set solver (t=2, k=2) when i is even, at n = 5, 7, 9 in
   turn, so every prefix of six instances holds each pairing once. The
   rest of each instance's shape (Δ, GST, how many clients crash and
   when) comes from [shape], a stream of its own that no seed moves; the
   workload seed draws the inputs and which clients crash. With shapes
   drawn per seed, the amount of work moved by several percent between
   seeds, and the largest trace, which sets the traced workload's peak
   heap, doubled it for about one seed in ten. *)
let make_instance ~shape rng i =
  let paxos = i mod 2 = 1 in
  let n = [| 5; 7; 9 |].(i / 2 mod 3) in
  let problem = if paxos then Problem.consensus ~t:2 ~n else Problem.make ~t:2 ~k:2 ~n in
  let delta = 1 + Rng.int shape 3 in
  let gst = if Rng.int shape 4 = 0 then 0 else 1 + Rng.int shape (8 * n) in
  (* Up to t=2 clients crash within their first three steps, before
     any of them can decide on either backend, so the decided sets over
     net and over shm stay comparable. Paxos here has a designated
     proposer, client 0, and cannot decide without it; its crash plans
     spare it. *)
  let first = if paxos then 1 else 0 in
  let victims = Array.init (n - first) (fun i -> first + i) in
  Rng.shuffle rng victims;
  let crashes = List.init (Rng.int shape 3) (fun c -> (victims.(c), Rng.int shape 4)) in
  let combined =
    Adversary.crash_brs ~delta ~gst ~total:(n + 1) ~k:problem.Problem.k ~crashes
  in
  {
    solver = (if paxos then `Paxos else `Auto);
    problem;
    inputs = Problem.random_inputs problem ~rng ~spread:(2 * n);
    delta;
    gst;
    combined;
    resend_after = (if gst > 0 then Some (2 * delta) else None);
  }

let shape_seed = 12

let stream ~seed ~count =
  let shape = Rng.create ~seed:shape_seed and rng = Rng.create ~seed in
  Array.init count (make_instance ~shape rng)

(* What one instance produced; every field but the wall time is
   deterministic and must match across runs of the same instance. *)
type result = {
  verdict : string;
  ok : bool;
  decide_step : int;
  steps : int;
  ops : int;
  sent : int;
  delivered : int;
  dropped : int;
  events : int;
  ev_dropped : int;
  bytes : int;
}

let same a b =
  a.verdict = b.verdict && a.decide_step = b.decide_step && a.steps = b.steps && a.ops = b.ops
  && a.sent = b.sent && a.delivered = b.delivered && a.dropped = b.dropped

let values inst = inst.solver = `Paxos

let result_of inst (o : Ag_harness.outcome) (s : Net.stats) ops =
  {
    verdict = Net_agreement.verdict ~values:(values inst) o;
    ok = Ag_harness.ok o;
    decide_step = Option.value (Ag_harness.last_decide_step o) ~default:(-1);
    steps = Run.total_steps o.Ag_harness.run;
    ops;
    sent = s.Net.sent;
    delivered = s.Net.delivered;
    dropped = s.Net.dropped;
    events = 0;
    ev_dropped = 0;
    bytes = 0;
  }

(* With [trace_path], the instance records into an in-memory event sink
   and writes it as JSONL, as `solve --trace-out` does. *)
let make_obs ?sp trace_path =
  Option.map
    (fun _ ->
      Option.iter (fun sp -> Span.enter sp Span.obs_setup) sp;
      let o = Obs.create ~events:(Events.memory ()) () in
      Option.iter Span.leave sp;
      o)
    trace_path

let write_trace ?sp obs trace_path r =
  match (obs, trace_path) with
  | Some o, Some path ->
      Option.iter (fun sp -> Span.enter sp Span.obs_write) sp;
      Events.save_jsonl o.Obs.events path;
      Option.iter Span.leave sp;
      {
        r with
        events = Events.recorded o.Obs.events;
        ev_dropped = Events.dropped o.Obs.events;
        bytes = (Unix.stat path).Unix.st_size;
      }
  | _ -> r

let solve ?trace_path inst =
  let obs = make_obs trace_path in
  let r =
    Net_agreement.solve ~solver:inst.solver ~mode:Netmem.Batched ~owners:1
      ?resend_after:inst.resend_after ?obs ~problem:inst.problem ~inputs:inst.inputs
      ~combined:inst.combined ~max_steps ()
  in
  write_trace obs trace_path
    (result_of inst r.Net_agreement.outcome r.Net_agreement.stats r.Net_agreement.ops)

(* The clients-only round-robin Net_agreement.solve uses in batched
   mode: owners never appear in the source, dead clients are skipped. *)
let clients_source ~clients ~total ~live =
  let cursor = ref 0 in
  Source.make ~n:total (fun () ->
      let rec scan tries =
        let x = !cursor in
        cursor := (x + 1) mod clients;
        if live x || tries >= clients then Some x else scan (tries + 1)
      in
      scan 0)

(* Net_agreement.solve rebuilt from its public parts, each wrapped in a
   span: the source factory, the boost policy, the substrate, on_step,
   and an owner body built from Net.step_serve and Netmem.serve. The
   whole of it runs in a [Span.harness] span, so set-up and teardown
   show as the harness's self time. *)
let solve_traced sp c ?trace_path inst =
  let obs = make_obs ~sp trace_path in
  let n = inst.problem.Problem.n in
  let total = n + 1 in
  Span.enter sp Span.harness;
  let store = Store.create () in
  let net = Net.create ?obs ~store ~n:total ~adversary:inst.combined.Adversary.adversary () in
  let nm =
    Netmem.install ~mode:Netmem.Batched ?resend_after:inst.resend_after ~net ~store ~clients:n
      ~owners:1 ()
  in
  let handle = Hooks.serve sp c (Netmem.serve nm) in
  let outcome =
    Ag_harness.solve ~problem:inst.problem ~inputs:inst.inputs
      ~source:(fun ~live -> Hooks.source sp (clients_source ~clients:n ~total ~live))
      ~max_steps ~fault:inst.combined.Adversary.fault ~solver:inst.solver ~store ~total
      ~extra_body:(fun _ () ->
        while true do
          Net.step_serve net ~handle
        done)
      ~boost:(Hooks.boost sp c (Netmem.round_policy nm))
      ~substrate:(Hooks.solve_substrate sp c ~clients:n (Net.substrate net))
      ~on_step:(Hooks.on_step sp c) ?obs ()
  in
  Hooks.end_solve sp;
  Span.leave sp;
  write_trace ~sp obs trace_path
    (result_of inst outcome (Net.stats net) (Netmem.ops_completed nm))

(* The shared-memory reference run; never timed. *)
let reference_ok inst r =
  let o =
    Net_agreement.solve_shm ~solver:inst.solver ~problem:inst.problem ~inputs:inst.inputs
      ~fault:inst.combined.Adversary.fault ~max_steps ()
  in
  r.ok && r.decide_step >= 0 && r.verdict = Net_agreement.verdict ~values:(values inst) o

(* ------------------------------------------------------------- runs *)

(* [tail]: the highest percentile with at least ten instances beyond it
   (p90 of 360; p75 of 60) *)
type config = { traced_obs : bool; count : int; tail : float }

let config_of = function
  | `Solve_net -> { traced_obs = false; count = 360; tail = 0.9 }
  | `Solve_net_traced -> { traced_obs = true; count = 60; tail = 0.75 }

let warmup = Array.to_list (stream ~seed:0 ~count:2)

let trace_path cfg out = if cfg.traced_obs then Some (Filename.concat out "solve-trace.jsonl") else None

(* One pass timed as a whole, for the traced run's baselines. *)
let pass ?trace_path insts =
  Measure.time (fun () -> Array.map (fun inst -> solve ?trace_path inst) insts)

let describe inst =
  Printf.sprintf "%s %s delta=%d gst=%d crashes=[%s]"
    (if inst.solver = `Paxos then "paxos" else "kset")
    (Problem.to_string inst.problem) inst.delta inst.gst
    (String.concat "; "
       (List.map (fun (p, s) -> Printf.sprintf "p%d after %d" p s) inst.combined.Adversary.fault))

let check_references insts results =
  let bad = ref 0 in
  Array.iteri
    (fun i inst ->
      let r = results.(i) in
      if not (reference_ok inst r) then begin
        if !bad < 5 then
          Printf.eprintf "failed: %s -> %s (decided at %d, %d steps)\n" (describe inst) r.verdict
            r.decide_step r.steps;
        incr bad
      end)
    insts;
  !bad

let run ~kind ~seed ~seconds ~out =
  let cfg = config_of kind in
  let trace_path = trace_path cfg out in
  let insts, setup_s =
    Measure.setup (fun () ->
        let insts = stream ~seed ~count:cfg.count in
        List.iter (fun i -> ignore (solve ?trace_path i)) warmup;
        insts)
  in
  let p = Measure.passes ~seconds ~same insts (fun inst -> solve ?trace_path inst) in
  (* the first pass is checked against the shm reference, every later
     pass against the first *)
  let failed = check_references insts p.Measure.first + p.Measure.differ in
  let steps = Array.fold_left (fun a r -> a + r.steps) 0 p.Measure.first in
  Printf.printf "%d steps per pass\n" steps;
  Measure.summarize ~setup_s ~passes:p ~failed ~pass_label:"pass_s" ~task_label:"solve_ms"
    ~task_unit:"ms" ~task_scale:1. ~work_label:"decide_steps"
    ~work:(Array.map (fun r -> float_of_int r.decide_step) p.Measure.first)
    ~tail:cfg.tail

(* The traced run: untraced and span-traced passes over the same
   instances (Report.alternate) and, for the obs workload, two obs-off
   passes for obs.overhead_frac. *)
let run_traced ~kind ~seed ~out =
  let cfg = config_of kind in
  let trace_path = trace_path cfg out in
  let insts = stream ~seed ~count:cfg.count in
  List.iter (fun i -> ignore (solve ?trace_path i)) warmup;
  let obs_off_wall =
    if cfg.traced_obs then Float.min (snd (pass insts)) (snd (pass insts)) else nan
  in
  let a =
    Report.alternate
      ~untraced:(fun () -> pass ?trace_path insts)
      ~traced:(fun sp c inst -> solve_traced sp c ?trace_path inst)
      insts
  in
  let base = a.Report.base and base_wall = a.Report.least_base_wall in
  let sp = a.Report.spans and c = a.Report.counters and traced = a.Report.results in
  let wall = a.Report.least_wall in
  let mismatches = ref 0 in
  Array.iteri (fun i a -> if not (same a traced.(i)) then incr mismatches) base;
  let mismatches = !mismatches in
  let failed = check_references insts base in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 base in
  let steps = sum (fun r -> r.steps) and ops = sum (fun r -> r.ops) in
  let sent = sum (fun r -> r.sent) and dropped = sum (fun r -> r.dropped) in
  let events = sum (fun r -> r.events) in
  let fsteps = float_of_int steps in
  let per_step ns = Measure.ratio ns fsteps in
  let metrics =
    [
      ("schedule.pulls", float_of_int (Span.count sp Span.pull));
      ("schedule.ns_per_pull", Span.ns_per_call sp Span.pull);
      ("runtime.steps", fsteps);
      ("runtime.steps_per_s", Measure.ratio fsteps base_wall);
      ("runtime.grant_ns_per_step", per_step (float_of_int sp.Span.self.(Span.grant)));
      ("runtime.boosted_steps", float_of_int c.Hooks.boosted);
      ("net.pre_step_ns_per_step", per_step (float_of_int sp.Span.total.(Span.pre_step)));
      ("net.msgs_sent", float_of_int sent);
      ("net.msgs_dropped", float_of_int dropped);
      ("net.msgs_per_op", Measure.iratio sent ops);
      ("netmem.ops", float_of_int ops);
      ("netmem.steps_per_op", Measure.iratio steps ops);
      ("netmem.owner_turns", float_of_int c.Hooks.owner_turns);
      ("netmem.serve_ns_per_msg", Span.ns_per_call sp Span.serve);
      ("netmem.useful_turn_ratio", Measure.iratio c.Hooks.useful_turns c.Hooks.owner_turns);
      ("netmem.policy_ns_per_call", Span.ns_per_call sp Span.policy);
      ("netmem.policy_hit_ratio", Measure.iratio c.Hooks.policy_hits c.Hooks.policy_calls);
      ("agreement.local_ns_per_step", Span.ns_per_call sp Span.local);
      ("obs.events", float_of_int events);
      ("obs.events_per_step", Measure.ratio (float_of_int events) fsteps);
      ("obs.dropped", float_of_int (sum (fun r -> r.ev_dropped)));
      ("obs.write_s", Span.total_s sp Span.obs_write);
      ("obs.jsonl_bytes_per_step", Measure.ratio (float_of_int (sum (fun r -> r.bytes))) fsteps);
      ("obs.overhead_frac", if cfg.traced_obs then (base_wall /. obs_off_wall) -. 1. else 0.);
      ("harness.self_s", Span.self_s sp Span.harness);
      ("schedule.self_s", Span.self_s sp Span.pull);
      ("runtime.self_s", Span.self_s sp Span.grant);
      ("net.self_s", Span.self_s sp Span.pre_step);
      ( "netmem.self_s",
        Span.self_s sp Span.owner_turn +. Span.self_s sp Span.serve +. Span.self_s sp Span.policy );
      ("agreement.self_s", Span.self_s sp Span.local);
      ("obs.self_s", Span.self_s sp Span.obs_write +. Span.self_s sp Span.obs_setup);
    ]
  in
  let counts_ok = c.Hooks.steps = steps && c.Hooks.client_steps + c.Hooks.owner_turns = steps in
  Printf.printf "fidelity: %d of %d instances differ from the untraced run; step counts %s\n"
    mismatches (Array.length insts)
    (if counts_ok then "agree" else "DISAGREE");
  ( Array.length insts,
    failed,
    mismatches = 0 && counts_ok,
    { Report.sp; wall; base_wall; metrics } )
