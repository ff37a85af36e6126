module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Machine = Setsync_runtime.Machine
module Layout = Setsync_memory.Layout

type params = { n : int; t : int; k : int }

let check_params { n; t; k } =
  Proc.check_n n;
  if not (1 <= k && k <= t && t <= n - 1) then
    invalid_arg
      (Printf.sprintf "Kanti_omega: need 1 <= k(%d) <= t(%d) <= n-1(%d)" k t (n - 1))

type shared = {
  sets : Procset.t array;  (** Π^k_n in canonical order *)
  heartbeat : int Register.t array;  (** Heartbeat[p] *)
  counter : int Register.t array array;  (** Counter[A, q], row = set index *)
}

let create_shared store params =
  check_params params;
  let { n; k; _ } = params in
  let sets = Array.of_list (Procset.subsets_of_size ~n k) in
  let heartbeat = Store.array store ~pp:Fmt.int ~name:"Heartbeat" n (fun _ -> 0) in
  let counter =
    Store.matrix store ~pp:Fmt.int ~name:"Counter" ~rows:(Array.length sets) ~cols:n
      (fun _ _ -> 0)
  in
  { sets; heartbeat; counter }

let sets shared = shared.sets

let peek_counter shared ~set_index ~proc = Register.peek shared.counter.(set_index).(proc)

let peek_heartbeat shared ~proc = Register.peek shared.heartbeat.(proc)

let accusation_counter shared params ~row ~set_index =
  let counters = shared.counter.(set_index) in
  if Array.length row <> Array.length counters then
    invalid_arg "Kanti_omega.accusation_counter: row length must be n";
  for q = 0 to Array.length row - 1 do
    row.(q) <- Register.peek counters.(q)
  done;
  Order_stat.select_in_place row (params.t + 1)

type process = {
  shared : shared;
  params : params;
  proc : Proc.t;
  (* local variables of Figure 2, declared once ([declare]) *)
  vars : int array;  (** fdOutput, winnerset (as {!Procset.to_bits}), myHb, iterations *)
  prev_heartbeat : int array;
  timeout : int array;  (** per set index *)
  timer : int array;
  accusation : int array;
  cnt : int array array;  (** cnt[A, q] *)
}

(* [vars]'s slots *)
let fd_output_at = 0
let winnerset_at = 1
let my_hb_at = 2
let iterations_at = 3

let make_process ?(initial_timeout = 1) shared params ~proc =
  check_params params;
  Proc.check ~n:params.n proc;
  if initial_timeout < 1 then invalid_arg "Kanti_omega.make_process: timeout must be >= 1";
  let num_sets = Array.length shared.sets in
  (* line "fdOutput = any set of processes of size n - k": the
     complement of the first canonical set *)
  let fd_output = Procset.diff (Procset.full ~n:params.n) shared.sets.(0) in
  {
    shared;
    params;
    proc;
    vars = [| Procset.to_bits fd_output; Procset.to_bits Procset.empty; 0; 0 |];
    prev_heartbeat = Array.make params.n 0;
    timeout = Array.make num_sets initial_timeout;
    timer = Array.make num_sets initial_timeout;
    accusation = Array.make num_sets 0;
    cnt = Array.make_matrix num_sets params.n 0;
  }

let fd_output p = Procset.of_bits p.vars.(fd_output_at)

let winnerset p = Procset.of_bits p.vars.(winnerset_at)

let iterations p = p.vars.(iterations_at)

(* Every local of Figure 2 is identity: [iterations] too, although
   myHb and the PC determine it, so that the identity reads exactly
   what a savepoint restores. *)
let declare layout p =
  Layout.ints layout p.vars;
  List.iter (Layout.ints layout) [ p.prev_heartbeat; p.timeout; p.timer; p.accusation ];
  Array.iter (Layout.ints layout) p.cnt

let declare_shared layout shared =
  Layout.registers layout shared.heartbeat Layout.put;
  Array.iter (fun row -> Layout.registers layout row Layout.put) shared.counter

(* {2 Machine form}

   Figure 2's loop body (lines 2-19), one shared-memory atomic per
   step. Each PC value names the atomic just performed, carrying its
   pending result; the resume function runs the local code that
   follows it and performs the next atomic through [acc]: [step] below
   is the machine every runner steps, and the k-set solver embeds the
   iteration in its own loop. *)

type mpc =
  | M_cnt of int * int * int  (** read [Counter[a][q]] = v; assignment pending *)
  | M_hb_written  (** wrote own [Heartbeat] (lines 6-7) *)
  | M_hb of int * int  (** read [Heartbeat[q]] = v; refresh pending *)
  | M_cnt_written of int  (** accused set [a] in the tick loop (line 19) *)

let num_sets p = Array.length p.shared.sets

let iterate_start (acc : Machine.access) p = M_cnt (0, 0, acc.read p.shared.counter.(0).(0))

(* lines 14-19 from set index [a0]: tick timers until one expires; the
   expiry's counter write ends the step. Falling off the end runs the
   iteration's trailing code (line 20's loop bookkeeping) and returns
   [None]: the caller owns this step's atomic. *)
let rec tick_from (acc : Machine.access) p a0 =
  if a0 >= num_sets p then begin
    p.vars.(iterations_at) <- p.vars.(iterations_at) + 1;
    None
  end
  else begin
    p.timer.(a0) <- p.timer.(a0) - 1;
    if p.timer.(a0) = 0 then begin
      p.timeout.(a0) <- p.timeout.(a0) + 1;
      p.timer.(a0) <- p.timeout.(a0);
      acc.write p.shared.counter.(a0).(p.proc) (p.cnt.(a0).(p.proc) + 1);
      Some (M_cnt_written a0)
    end
    else tick_from acc p (a0 + 1)
  end

let iterate_resume (acc : Machine.access) p pc =
  let { n; t; _ } = p.params in
  let ns = num_sets p in
  match pc with
  | M_cnt (a, q, v) ->
      p.cnt.(a).(q) <- v;
      if q = n - 1 then p.accusation.(a) <- Order_stat.kth_smallest p.cnt.(a) (t + 1);
      let a', q' = if q = n - 1 then (a + 1, 0) else (a, q + 1) in
      if a' < ns then Some (M_cnt (a', q', acc.read p.shared.counter.(a').(q')))
      else begin
        (* lines 4-7 *)
        let best = ref 0 in
        for a = 1 to ns - 1 do
          if p.accusation.(a) < p.accusation.(!best) then best := a
        done;
        let winnerset = p.shared.sets.(!best) in
        p.vars.(winnerset_at) <- Procset.to_bits winnerset;
        p.vars.(fd_output_at) <- Procset.to_bits (Procset.diff (Procset.full ~n) winnerset);
        let my_hb = p.vars.(my_hb_at) + 1 in
        p.vars.(my_hb_at) <- my_hb;
        acc.write p.shared.heartbeat.(p.proc) my_hb;
        Some M_hb_written
      end
  | M_hb_written -> Some (M_hb (0, acc.read p.shared.heartbeat.(0)))
  | M_hb (q, hbq) ->
      if hbq > p.prev_heartbeat.(q) then begin
        for a = 0 to ns - 1 do
          if Procset.mem q p.shared.sets.(a) then p.timer.(a) <- p.timeout.(a)
        done;
        p.prev_heartbeat.(q) <- hbq
      end;
      if q < n - 1 then Some (M_hb (q + 1, acc.read p.shared.heartbeat.(q + 1)))
      else tick_from acc p 0
  | M_cnt_written a -> tick_from acc p (a + 1)

(* [repeat forever]: an iteration's trailing local code flows into the
   next iteration's first atomic within the same step *)
let forever_step acc p = function
  | None -> iterate_start acc p
  | Some pc -> (
      match iterate_resume acc p pc with Some pc' -> pc' | None -> iterate_start acc p)

let encode_pc sink = function
  | M_cnt (a, q, v) ->
      Layout.put sink 0;
      Layout.put sink a;
      Layout.put sink q;
      Layout.put sink v
  | M_hb_written -> Layout.put sink 1
  | M_hb (q, v) ->
      Layout.put sink 2;
      Layout.put sink q;
      Layout.put sink v
  | M_cnt_written a ->
      Layout.put sink 3;
      Layout.put sink a

(* {2 The machine} — one process per id and their PCs: what every
   runner steps *)

type machine = {
  procs : process array;
  pcs : mpc option array;
  layout : Layout.t Lazy.t;
      (* registers, every process's locals, the PCs: declared on the
         first save or identity, which a harness run never asks for *)
}

let machine ?initial_timeout shared params =
  let procs =
    Array.init params.n (fun proc -> make_process ?initial_timeout shared params ~proc)
  in
  let pcs = Array.make params.n None in
  let layout =
    lazy
      (let layout = Layout.create "Kanti_omega.save" in
       declare_shared layout shared;
       Array.iter (declare layout) procs;
       Layout.values layout ~name:"pcs" pcs (Layout.option encode_pc);
       layout)
  in
  { procs; pcs; layout }

let processes m = m.procs

let step m acc p = m.pcs.(p) <- Some (forever_step acc m.procs.(p) m.pcs.(p))

let save m = Layout.save (Lazy.force m.layout)

let identity m = Layout.identity (Lazy.force m.layout)
