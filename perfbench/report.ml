(* What a traced run hands back, and the per-layer accounting. *)

type traced = {
  sp : Span.t;
  wall : float;  (** wall time of the fastest span-traced pass *)
  base_wall : float;  (** least wall time of the untraced passes over the same tasks *)
  metrics : (string * float) list;  (** per-layer metrics the workload measured *)
}

type ('b, 'r) alternated = {
  base : 'b;  (** results of the untraced passes *)
  least_base_wall : float;
  spans : Span.t;  (** spans of the fastest traced pass *)
  counters : Hooks.counters;  (** counters of that pass *)
  results : 'r array;  (** per-task results of the traced passes *)
  least_wall : float;
}

let rounds = 2

(* Untraced and span-traced passes over the same tasks, alternated
   [rounds] times so that both sides meet the same host. Each side
   keeps its least wall; the traced side keeps the spans and counters
   of its fastest pass. [untraced ()] makes one timed pass. *)
let alternate ~untraced ~traced tasks =
  let traced_pass () =
    let sp = Span.create () and c = Hooks.counters () in
    let t0 = Span.now () in
    let results =
      Array.mapi
        (fun i task ->
          Span.begin_task sp ~id:i;
          let r = traced sp c task in
          Span.end_task sp;
          (* end_task closed a fiber step left open, if any *)
          c.Hooks.step_open <- false;
          r)
        tasks
    in
    (sp, c, results, float_of_int (Span.now () - t0) *. 1e-9)
  in
  let rec go k acc =
    let base, base_wall = untraced () in
    let sp, c, results, wall = traced_pass () in
    let least_base_wall =
      match acc with Some a -> Float.min a.least_base_wall base_wall | None -> base_wall
    in
    let acc =
      match acc with
      | Some a when a.least_wall <= wall -> { a with base; least_base_wall }
      | _ -> { base; least_base_wall; spans = sp; counters = c; results; least_wall = wall }
    in
    if k + 1 < rounds then go (k + 1) (Some acc) else acc
  in
  go 0 None

(* The self times of the wrapped layers plus [unattributed_s] add up to
   the traced pass's wall time. [unattributed_s] is the time no wrapper
   covers: the self time of the task spans (the benchmark's own glue
   around each task) plus the loop over the tasks. The accounting
   closes when it is neither negative nor more than 5% of the wall. *)
let accounting t =
  Printf.printf "accounting (self time of each wrapped layer; sums to the traced wall time):\n";
  let attributed = ref 0. in
  Array.iteri
    (fun name label ->
      if name <> Span.task && Span.count t.sp name > 0 then begin
        let s = Span.self_s t.sp name in
        attributed := !attributed +. s;
        Printf.printf "  %-22s %10.6f s  %5.1f%%  (%d spans)\n" label s
          (100. *. Measure.ratio s t.wall)
          (Span.count t.sp name)
      end)
    Span.names;
  let unattributed = t.wall -. !attributed in
  Printf.printf "  %-22s %10.6f s  %5.1f%%  (task self %.6f s)\n" "unattributed_s" unattributed
    (100. *. Measure.ratio unattributed t.wall)
    (Span.self_s t.sp Span.task);
  Printf.printf "  %-22s %10.6f s\n" "wall (traced pass)" t.wall;
  let closes = unattributed >= 0. && unattributed <= 0.05 *. t.wall in
  Printf.printf "  accounting %s\n" (if closes then "closes" else "DOES NOT CLOSE");
  (unattributed, closes)

let overhead t = Measure.ratio t.wall t.base_wall -. 1.

let write_spans t ~path ~header =
  Span.write_jsonl t.sp ~path ~header;
  Printf.printf "spans: %d recorded, first %d written to %s\n" (Span.recorded t.sp)
    (min (Span.recorded t.sp) Span.capacity)
    path
