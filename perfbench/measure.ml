(* Clocks, summaries and the result line shared by every workload. *)

let wall () = Unix.gettimeofday ()

let time f =
  let t0 = Span.now () in
  let r = f () in
  (r, float_of_int (Span.now () - t0) *. 1e-9)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let ratio a b = if b = 0. then 0. else a /. b

let iratio a b = ratio (float_of_int a) (float_of_int b)

(* Host speed probe: a fixed loop of integer mixing and random reads
   and writes over a 2 MB table outside the OCaml heap. Other tenants
   on a shared host slow the program mostly through contention for
   caches and memory, and this loop feels the same contention. It
   allocates nothing, so it leaves the program's heap and GC alone. Of
   the probes tried (larger and cache-resident tables, a pointer chase,
   Stdlib maps and hash tables), none tracked the workloads' speed
   clearly better, and cache-resident ones missed slowdowns of 1.7x. *)
let probe_iters = 200_000

let probe_table = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 18)

let () = Bigarray.Array1.fill probe_table 0

let probe_once () =
  let a = probe_table in
  let mask = Bigarray.Array1.dim a - 1 in
  let x = ref 88172645463325252 in
  let t0 = Span.now () in
  for i = 1 to probe_iters do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    Bigarray.Array1.unsafe_set a (v land mask)
      (Bigarray.Array1.unsafe_get a ((v lsr 24) land mask) + i)
  done;
  float_of_int (Span.now () - t0) *. 1e-9

(* The probe's time now: the least of three, since a probe is short
   enough that a single interruption would dominate it. *)
let probe_s () = Float.min (probe_once ()) (Float.min (probe_once ()) (probe_once ()))

(* What the probe takes on an unloaded 2-vCPU host of the kind the
   benchmark was tuned on. *)
let nominal_probe_s = 1e-3

(* The factor that scales a wall time measured now to the unloaded
   host: below 1 when the host runs slow. The 2-vCPU host this was
   tuned on shares its cores; other tenants slow it by up to 2x in
   phases of seconds to minutes, slowing the probe and the program
   alike. *)
let host_factor () = nominal_probe_s /. probe_s ()

(* In million probe iterations per second: a diagnostic that tells a
   slower machine from a slower program. *)
let host_ref_rate () = float_of_int probe_iters /. probe_s () /. 1e6

(* Peak major-heap size of this process so far. *)
let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_row ?samples name unit_ value =
  match samples with
  | None -> Printf.printf "  %-34s %14.6g %s\n" name value unit_
  | Some n -> Printf.printf "  %-34s %14.6g %-6s (n=%d)\n" name value unit_ n

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The benchmark's last line: one JSON object, read by tooling. *)
let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name (json_number mt.value)
          mt.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " fields)

let median xs = percentile 0.5 xs

(* [f ()] timed on the wall clock, and that time scaled to the unloaded
   host by probes just before and just after it. *)
let scaled_time f =
  let f0 = host_factor () in
  let r, dt = time f in
  let factor = (f0 +. host_factor ()) /. 2. in
  (r, dt, dt *. factor)

(* The host is probed between tasks whenever this much time has passed
   since the last probe: host speed changes within a pass, and a probe
   costs about 3 ms. *)
let probe_every_s = 0.25

(* One pass over [tasks]. Each task's wall time is scaled by the mean of
   the host factors probed just before and just after the run of tasks
   it belongs to. Returns the results, each task's scaled time, and the
   pass's wall and scaled time. *)
let scaled_pass tasks run =
  let n = Array.length tasks in
  let raw = Array.make n 0. and scaled = Array.make n 0. in
  let pending = ref 0 and f_prev = ref (host_factor ()) in
  let last_probe = ref (Span.now ()) in
  let settle upto =
    let f_now = host_factor () in
    let factor = (!f_prev +. f_now) /. 2. in
    for j = !pending to upto - 1 do
      scaled.(j) <- raw.(j) *. factor
    done;
    pending := upto;
    f_prev := f_now;
    last_probe := Span.now ()
  in
  let results =
    Array.mapi
      (fun i task ->
        let r, dt = time (fun () -> run task) in
        raw.(i) <- dt;
        if float_of_int (Span.now () - !last_probe) *. 1e-9 >= probe_every_s then settle (i + 1);
        r)
      tasks
  in
  if !pending < n then settle n;
  let sum = Array.fold_left ( +. ) 0. in
  (results, scaled, sum raw, sum scaled)

type 'r passes = {
  first : 'r array;  (** results of the first pass *)
  task_ms : float array;  (** each task's median scaled time over the passes *)
  walls : float list;  (** time of each pass: the sum of its tasks' wall times *)
  scaled : float list;  (** the same, scaled to the unloaded host *)
  differ : int;  (** later results that differ from the first pass's *)
  heap_mb : float;  (** peak heap after the first pass *)
}

(* Passes over [tasks], timing each task. Passes repeat while the
   previous one would still fit before [seconds] have elapsed, at least
   once. A task's time is its median scaled time over the passes. Every
   later result must equal the first pass's ([same]). *)
let passes ~seconds ~same tasks run =
  let times = Array.make (Array.length tasks) [] in
  let deadline = wall () +. seconds in
  let rec go first walls scaled differ heap_mb =
    let results, task_scaled, pass_wall, pass_scaled = scaled_pass tasks run in
    Array.iteri (fun i dt -> times.(i) <- (dt *. 1e3) :: times.(i)) task_scaled;
    let first, differ, heap_mb =
      match first with
      | None -> (results, 0, heap_peak_mb ())
      | Some first ->
          let d = ref differ in
          Array.iteri (fun i r -> if not (same first.(i) r) then incr d) results;
          (first, !d, heap_mb)
    in
    let walls = pass_wall :: walls and scaled = pass_scaled :: scaled in
    if wall () +. pass_wall < deadline then go (Some first) walls scaled differ heap_mb
    else
      {
        first;
        task_ms = Array.map median times;
        walls = List.rev walls;
        scaled = List.rev scaled;
        differ;
        heap_mb;
      }
  in
  go None [] [] 0 0.

let setup_reps = 21

(* Set-up is timed [setup_reps] times from scratch, each time after a
   full major collection, so that every repetition starts from the same
   heap, and scaled by the host probes around it; the median is
   reported and the last result kept. *)
let setup f =
  let rec go i times last =
    if i = setup_reps then (Option.get last, median times)
    else begin
      Gc.full_major ();
      let r, _, scaled = scaled_time f in
      go (i + 1) (scaled :: times) (Some r)
    end
  in
  go 0 [] None

(* The end-to-end block every untraced run prints, under the names the
   workload's users know (solve_ms, hunt_s, ...), and the values of the
   JSON metrics, which share one set of names across workloads. [tail]
   is the workload's tail percentile: [task_ms.tail] and [work.tail]
   report it. *)
let summarize ~setup_s ~passes:p ~failed ~pass_label ~task_label ~task_unit ~task_scale
    ~work_label ~work ~tail =
  let n = Array.length p.first and k = List.length p.walls in
  let attempted = n * k in
  let ms = Array.to_list p.task_ms and work = Array.to_list work in
  let pass_s = median p.scaled in
  let secs xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs) in
  Printf.printf "tasks: %d per pass, %d passes; %d failed checks\n" n k failed;
  Printf.printf "pass walls: %s s\n" (secs p.walls);
  Printf.printf "scaled to the unloaded host: %s s\n" (secs p.scaled);
  Printf.printf
    "end to end (tracing off; times scaled to the unloaded host, a task's time is its median over \
     the passes):\n";
  print_row (Printf.sprintf "setup_s (median of %d)" setup_reps) "s" setup_s;
  print_row "heap_peak_mb" "MB" p.heap_mb;
  print_row ~samples:attempted "failed_frac" "ratio" (iratio failed attempted);
  print_row ~samples:k (pass_label ^ " (median pass)") "s" pass_s;
  let pct label q = Printf.sprintf "%s.p%.0f" label (q *. 100.) in
  List.iter
    (fun q -> print_row ~samples:n (pct task_label q) task_unit (percentile q ms *. task_scale))
    [ 0.5; tail ];
  List.iter (fun q -> print_row ~samples:n (pct work_label q) "count" (percentile q work)) [ 0.5; tail ];
  ( attempted,
    failed,
    [
      ("setup_s", setup_s);
      ("heap_peak_mb", p.heap_mb);
      ("pass_s", pass_s);
      ("task_ms.p50", percentile 0.5 ms);
      ("task_ms.tail", percentile tail ms);
      ("work.p50", percentile 0.5 work);
      ("work.tail", percentile tail work);
    ] )
