module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Machine = Setsync_runtime.Machine
module Savestack = Setsync_memory.Savestack

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

let accusation_counter shared params ~set_index =
  let row = Array.map Register.peek shared.counter.(set_index) in
  Order_stat.kth_smallest row (params.t + 1)

type process = {
  shared : shared;
  params : params;
  proc : Proc.t;
  (* local variables of Figure 2 *)
  mutable fd_output : Procset.t;
  mutable winnerset : Procset.t;
  mutable my_hb : int;
  prev_heartbeat : int array;
  timeout : int array;  (** per set index *)
  timer : int array;
  accusation : int array;
  cnt : int array array;  (** cnt[A, q] *)
  mutable iterations : int;
  (* [capture_process]'s per-depth buffers: the sets, and every int *)
  mutable saved_sets : Procset.t array;
  mutable saved : int array;
}

let make_process ?(initial_timeout = 1) shared params ~proc =
  check_params params;
  Proc.check ~n:params.n proc;
  if initial_timeout < 1 then invalid_arg "Kanti_omega.make_process: timeout must be >= 1";
  let num_sets = Array.length shared.sets in
  {
    shared;
    params;
    proc;
    (* line "fdOutput = any set of processes of size n - k": the
       complement of the first canonical set *)
    fd_output = Procset.diff (Procset.full ~n:params.n) shared.sets.(0);
    winnerset = Procset.empty;
    my_hb = 0;
    prev_heartbeat = Array.make params.n 0;
    timeout = Array.make num_sets initial_timeout;
    timer = Array.make num_sets initial_timeout;
    accusation = Array.make num_sets 0;
    cnt = Array.make_matrix num_sets params.n 0;
    iterations = 0;
    saved_sets = [||];
    saved = [||];
  }

let fd_output p = p.fd_output

let winnerset p = p.winnerset

let iterations p = p.iterations

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
    p.iterations <- p.iterations + 1;
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
        p.winnerset <- p.shared.sets.(!best);
        p.fd_output <- Procset.diff (Procset.full ~n) p.winnerset;
        p.my_hb <- p.my_hb + 1;
        acc.write p.shared.heartbeat.(p.proc) p.my_hb;
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

(* the ints one capture of [p] takes: my_hb, iterations, then the
   arrays in field order *)
let saved_width p = 2 + p.params.n + (num_sets p * (3 + p.params.n))

let capture_process p depth =
  let w = saved_width p in
  let at = depth * w in
  if at + w > Array.length p.saved then p.saved <- Savestack.grow p.saved (at + w) 0;
  if (2 * depth) + 2 > Array.length p.saved_sets then
    p.saved_sets <- Savestack.grow p.saved_sets ((2 * depth) + 2) Procset.empty;
  p.saved_sets.(2 * depth) <- p.fd_output;
  p.saved_sets.((2 * depth) + 1) <- p.winnerset;
  let b = p.saved in
  b.(at) <- p.my_hb;
  b.(at + 1) <- p.iterations;
  let n = p.params.n and ns = num_sets p in
  let at = at + 2 in
  Array.blit p.prev_heartbeat 0 b at n;
  let at = at + n in
  Array.blit p.timeout 0 b at ns;
  Array.blit p.timer 0 b (at + ns) ns;
  Array.blit p.accusation 0 b (at + (2 * ns)) ns;
  let at = at + (3 * ns) in
  for a = 0 to ns - 1 do
    Array.blit p.cnt.(a) 0 b (at + (a * n)) n
  done

let restore_process p depth =
  let at = depth * saved_width p in
  p.fd_output <- p.saved_sets.(2 * depth);
  p.winnerset <- p.saved_sets.((2 * depth) + 1);
  let b = p.saved in
  p.my_hb <- b.(at);
  p.iterations <- b.(at + 1);
  let n = p.params.n and ns = num_sets p in
  let at = at + 2 in
  Array.blit b at p.prev_heartbeat 0 n;
  let at = at + n in
  Array.blit b at p.timeout 0 ns;
  Array.blit b (at + ns) p.timer 0 ns;
  Array.blit b (at + (2 * ns)) p.accusation 0 ns;
  let at = at + (3 * ns) in
  for a = 0 to ns - 1 do
    Array.blit b (at + (a * n)) p.cnt.(a) 0 n
  done

(* {2 Symmetry} *)

let rec insert_everywhere x = function
  | [] -> [ [ x ] ]
  | y :: ys -> (x :: y :: ys) :: List.map (fun zs -> y :: zs) (insert_everywhere x ys)

let rec permutations = function
  | [] -> [ [] ]
  | x :: xs -> List.concat_map (insert_everywhere x) (permutations xs)

(* Admissible renamings: the initial [fd_output] is the complement of
   sets[0] = {0..k-1} at every process, so a renaming maps initial
   states to initial states only when it preserves {0..k-1} setwise. *)
let sym_perms { n; k; _ } =
  permutations (List.init n Fun.id)
  |> List.map Array.of_list
  |> List.filter (fun perm ->
         let ok = ref true in
         for p = 0 to k - 1 do
           if perm.(p) >= k then ok := false
         done;
         !ok)

let rename_set ~perm s =
  Procset.fold (fun p acc -> Procset.add perm.(p) acc) s Procset.empty

let set_index shared s =
  let rec go a =
    if a >= Array.length shared.sets then invalid_arg "Kanti_omega: renamed set not canonical"
    else if Procset.equal shared.sets.(a) s then a
    else go (a + 1)
  in
  go 0

let rename_pc ~set_idx ~perm = function
  | M_cnt (a, q, v) -> M_cnt (set_idx.(a), perm.(q), v)
  | M_hb_written -> M_hb_written
  | M_hb (q, v) -> M_hb (perm.(q), v)
  | M_cnt_written a -> M_cnt_written set_idx.(a)

let pc_string = function
  | M_cnt (a, q, v) -> Printf.sprintf "C%d.%d=%d" a q v
  | M_hb_written -> "HW"
  | M_hb (q, v) -> Printf.sprintf "H%d=%d" q v
  | M_cnt_written a -> Printf.sprintf "CW%d" a

let sym_payload shared params procs pcs ~perm =
  let { n; _ } = params in
  let ns = Array.length shared.sets in
  let set_idx = Array.init ns (fun a -> set_index shared (rename_set ~perm shared.sets.(a))) in
  let inv = Array.make n 0 in
  Array.iteri (fun p q -> inv.(q) <- p) perm;
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* shared registers, renamed: Heartbeat'[perm p] = Heartbeat[p],
     Counter'[set_idx a][perm q] = Counter[a][q] *)
  let hb = Array.make n 0 in
  for p = 0 to n - 1 do
    hb.(perm.(p)) <- Register.peek shared.heartbeat.(p)
  done;
  Array.iter (add "h%d,") hb;
  let cnt = Array.make_matrix ns n 0 in
  for a = 0 to ns - 1 do
    for q = 0 to n - 1 do
      cnt.(set_idx.(a)).(perm.(q)) <- Register.peek shared.counter.(a).(q)
    done
  done;
  Array.iter
    (fun row ->
      Array.iter (add "c%d,") row;
      add "|")
    cnt;
  (* per-process local state: renamed process perm p carries p's *)
  for p' = 0 to n - 1 do
    let p = procs.(inv.(p')) in
    add "/p%d:" p';
    add "f%s;w%s;m%d;i%d;"
      (Procset.to_string (rename_set ~perm p.fd_output))
      (Procset.to_string (rename_set ~perm p.winnerset))
      p.my_hb p.iterations;
    let prev = Array.make n 0 in
    for q = 0 to n - 1 do
      prev.(perm.(q)) <- p.prev_heartbeat.(q)
    done;
    Array.iter (add "v%d,") prev;
    let by_rows src tag =
      let out = Array.make ns 0 in
      for a = 0 to ns - 1 do
        out.(set_idx.(a)) <- src.(a)
      done;
      Array.iter (add "%s%d," tag) out
    in
    by_rows p.timeout "t";
    by_rows p.timer "r";
    by_rows p.accusation "a";
    let c = Array.make_matrix ns n 0 in
    for a = 0 to ns - 1 do
      for q = 0 to n - 1 do
        c.(set_idx.(a)).(perm.(q)) <- p.cnt.(a).(q)
      done
    done;
    Array.iter
      (fun row ->
        Array.iter (add "l%d,") row;
        add "|")
      c;
    (match pcs.(inv.(p')) with
    | None -> add "pc:-"
    | Some pc -> add "pc:%s" (pc_string (rename_pc ~set_idx ~perm pc)))
  done;
  Buffer.contents buf

(* {2 The machine} — one process per id and their PCs: what every
   runner steps *)

type machine = {
  m_shared : shared;
  m_params : params;
  procs : process array;
  pcs : mpc option array;
  points : Savestack.t;  (* [save]'s depths *)
  mutable saved_pcs : mpc option array;  (* n per depth *)
}

let machine ?initial_timeout shared params =
  let procs =
    Array.init params.n (fun proc -> make_process ?initial_timeout shared params ~proc)
  in
  {
    m_shared = shared;
    m_params = params;
    procs;
    pcs = Array.make params.n None;
    points = Savestack.create ();
    saved_pcs = [||];
  }

let processes m = m.procs

let step m acc p = m.pcs.(p) <- Some (forever_step acc m.procs.(p) m.pcs.(p))

let capture m depth =
  let n = Array.length m.procs in
  for p = 0 to n - 1 do
    capture_process m.procs.(p) depth
  done;
  let at = depth * n in
  if at + n > Array.length m.saved_pcs then
    m.saved_pcs <- Savestack.grow m.saved_pcs (at + n) None;
  Array.blit m.pcs 0 m.saved_pcs at n

let restore m depth =
  let n = Array.length m.procs in
  for p = 0 to n - 1 do
    restore_process m.procs.(p) depth
  done;
  Array.blit m.saved_pcs (depth * n) m.pcs 0 n

let save m = Savestack.save m.points "Kanti_omega.save" capture restore m

let payload m = sym_payload m.m_shared m.m_params m.procs m.pcs
