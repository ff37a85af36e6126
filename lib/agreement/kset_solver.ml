module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Store = Setsync_memory.Store
module Machine = Setsync_runtime.Machine
module Savestack = Setsync_memory.Savestack
module Kanti_omega = Setsync_detector.Kanti_omega

type t = {
  problem : Problem.t;
  inputs : int array;
  fd_shared : Kanti_omega.shared;
  fd_params : Kanti_omega.params;
  instances : Paxos.shared array;  (** one per winnerset rank *)
  dec : int option Setsync_memory.Register.t array;  (** decision gossip *)
  decisions : int option array;  (** local records, index = process *)
  fds : Kanti_omega.process array;
  props : Paxos.proposer array array;  (** [proc].(rank) *)
  engagement : (int * int) option array;
      (** per process: (instance, ballot) while inside a Paxos attempt *)
}

let create store ~problem ~inputs ?initial_timeout () =
  let { Problem.t = resilience; k; n } = problem in
  if Array.length inputs <> n then invalid_arg "Kset_solver.create: inputs must have length n";
  if k > resilience then
    invalid_arg "Kset_solver.create: requires k <= t (use Trivial when t < k)";
  let fd_params = { Kanti_omega.n; t = resilience; k } in
  Kanti_omega.check_params fd_params;
  (* allocation order fixes register ids: decisions, Paxos, detector *)
  let dec =
    Store.array store ~pp:(Fmt.option ~none:(Fmt.any "⊥") Fmt.int) ~name:"Dec" n (fun _ -> None)
  in
  let instances =
    Array.init k (fun r -> Paxos.create_shared store ~n ~name:(Printf.sprintf "Paxos%d" r))
  in
  let fd_shared = Kanti_omega.create_shared store fd_params in
  {
    problem;
    inputs;
    fd_shared;
    fd_params;
    instances;
    dec;
    decisions = Array.make n None;
    (* detector processes and proposers allocate no registers *)
    fds =
      Array.init n (fun proc ->
          Kanti_omega.make_process ?initial_timeout fd_shared fd_params ~proc);
    props =
      Array.init n (fun proc ->
          Array.map (fun inst -> Paxos.make_proposer inst ~proc ~input:inputs.(proc)) instances);
    engagement = Array.make n None;
  }

(* {2 Per-process step}

   The solver loop as a per-process machine, one shared-memory atomic
   per step: a Figure 2 iteration, a scan of the decision registers,
   then a Paxos attempt for every rank this process holds in its
   winnerset; a decided process publishes its decision and then idles
   (stays correct, so schedule contracts involving it keep holding).
   Each step runs the local code since the previous atomic and
   performs the next one through [acc]. *)

type spc =
  | S_fd of Kanti_omega.mpc  (** inside a detector iteration *)
  | S_dec of int * int option  (** read [Dec[q]]; adoption pending *)
  | S_paxos of int * Procset.t * Paxos.mpc
      (** attempting instance [r] with the winnerset the rank came from *)
  | S_dec_written  (** published own decision *)
  | S_paused  (** idling decided process *)

(* adopt or commit a decision: runs in the step that performs the
   decision-register write *)
let decide (acc : Machine.access) t proc v =
  t.engagement.(proc) <- None;
  t.decisions.(proc) <- Some v;
  acc.write t.dec.(proc) (Some v);
  S_dec_written

(* the rank loop from rank [r]: engage the first rank this process
   holds in [w]; falling off the end starts the next detector
   iteration. Always performs this step's atomic. *)
let rec ranks acc t proc w r =
  if r >= t.problem.Problem.k then S_fd (Kanti_omega.iterate_start acc t.fds.(proc))
  else if (not (Procset.is_empty w)) && Proc.equal (Procset.nth w r) proc then begin
    t.engagement.(proc) <- Some (r, Paxos.current_ballot t.props.(proc).(r));
    match Paxos.attempt_start acc t.props.(proc).(r) with
    | Paxos.M_more pc -> S_paxos (r, w, pc)
    | Paxos.M_decided v -> decide acc t proc v
    | Paxos.M_interfered -> assert false
  end
  else ranks acc t proc w (r + 1)

let step (acc : Machine.access) t proc = function
  | None -> S_fd (Kanti_omega.iterate_start acc t.fds.(proc))
  | Some (S_fd pc) -> (
      match Kanti_omega.iterate_resume acc t.fds.(proc) pc with
      | Some pc' -> S_fd pc'
      | None -> S_dec (0, acc.read t.dec.(0)))
  | Some (S_dec (_, Some v)) -> decide acc t proc v
  | Some (S_dec (q, None)) ->
      if q < t.problem.Problem.n - 1 then S_dec (q + 1, acc.read t.dec.(q + 1))
      else ranks acc t proc (Kanti_omega.winnerset t.fds.(proc)) 0
  | Some (S_paxos (r, w, pc)) -> (
      match Paxos.attempt_resume acc t.props.(proc).(r) pc with
      | Paxos.M_more pc' -> S_paxos (r, w, pc')
      | Paxos.M_interfered ->
          t.engagement.(proc) <- None;
          ranks acc t proc w (r + 1)
      | Paxos.M_decided v -> decide acc t proc v)
  | Some (S_dec_written | S_paused) ->
      acc.pause ();
      S_paused

(* {2 Machine form} *)

type machine = {
  solver : t;
  pcs : spc option array;
  points : Savestack.t;  (* [machine_save]'s depths *)
  (* n per depth *)
  mutable saved_pcs : spc option array;
  mutable saved_decisions : int option array;
  mutable saved_engagement : (int * int) option array;
}

let machine t =
  {
    solver = t;
    pcs = Array.make t.problem.Problem.n None;
    points = Savestack.create ();
    saved_pcs = [||];
    saved_decisions = [||];
    saved_engagement = [||];
  }

let machine_step m acc proc = m.pcs.(proc) <- Some (step acc m.solver proc m.pcs.(proc))

let capture m depth =
  let t = m.solver in
  let n = t.problem.Problem.n in
  for p = 0 to n - 1 do
    Kanti_omega.capture_process t.fds.(p) depth;
    for r = 0 to t.problem.Problem.k - 1 do
      Paxos.capture_proposer t.props.(p).(r) depth
    done
  done;
  let at = depth * n in
  if at + n > Array.length m.saved_pcs then begin
    m.saved_pcs <- Savestack.grow m.saved_pcs (at + n) None;
    m.saved_decisions <- Savestack.grow m.saved_decisions (at + n) None;
    m.saved_engagement <- Savestack.grow m.saved_engagement (at + n) None
  end;
  Array.blit m.pcs 0 m.saved_pcs at n;
  Array.blit t.decisions 0 m.saved_decisions at n;
  Array.blit t.engagement 0 m.saved_engagement at n

let restore m depth =
  let t = m.solver in
  let n = t.problem.Problem.n in
  for p = 0 to n - 1 do
    Kanti_omega.restore_process t.fds.(p) depth;
    for r = 0 to t.problem.Problem.k - 1 do
      Paxos.restore_proposer t.props.(p).(r) depth
    done
  done;
  let at = depth * n in
  Array.blit m.saved_pcs at m.pcs 0 n;
  Array.blit m.saved_decisions at t.decisions 0 n;
  Array.blit m.saved_engagement at t.engagement 0 n

let machine_save m = Savestack.save m.points "Kset_solver.machine_save" capture restore m

(* {2 Symmetry} *)

let rename_set ~perm s =
  Procset.fold (fun p acc -> Procset.add perm.(p) acc) s Procset.empty

(* Admissible renamings: the detector's (preserve the canonical first
   set) intersected with input invariance — renaming may only identify
   processes with equal proposal values, or validity-relevant state
   would be conflated. *)
let sym_perms t =
  Kanti_omega.sym_perms t.fd_params
  |> List.filter (fun perm ->
         let ok = ref true in
         Array.iteri (fun p q -> if t.inputs.(q) <> t.inputs.(p) then ok := false) perm;
         !ok)

let spc_string m ~perm = function
  | S_fd _ -> "F"  (* detail lives in the detector payload *)
  | S_dec (q, v) ->
      Printf.sprintf "D%d=%s" perm.(q)
        (match v with None -> "-" | Some v -> string_of_int v)
  | S_paxos (r, w, pc) ->
      Printf.sprintf "P%d;%s;%s" r
        (Procset.to_string (rename_set ~perm w))
        (Paxos.sym_payload_pc ~perm m.solver.instances.(r) pc)
  | S_dec_written -> "W"
  | S_paused -> "Z"

let sym_payload m ~perm =
  let t = m.solver in
  let { Problem.k; n; _ } = t.problem in
  let inv = Array.make n 0 in
  Array.iteri (fun p q -> inv.(q) <- p) perm;
  let kanti_pcs =
    Array.map (function Some (S_fd pc) -> Some pc | _ -> None) m.pcs
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Kanti_omega.sym_payload t.fd_shared t.fd_params t.fds kanti_pcs ~perm);
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  for r = 0 to k - 1 do
    add "!I%d:%s" r (Paxos.sym_payload_blocks ~perm t.instances.(r));
    for p' = 0 to n - 1 do
      add "~%s" (Paxos.sym_payload_proposer ~perm t.props.(inv.(p')).(r))
    done
  done;
  (* Dec registers, local decisions, engagement, solver PCs — renamed
     process perm p carries process p's slots; decision values are
     payload data and stay fixed. *)
  let str_of_opt = function None -> "-" | Some v -> string_of_int v in
  for p' = 0 to n - 1 do
    let p = inv.(p') in
    add "!d%s;D%s;e%s;pc%s"
      (str_of_opt (Setsync_memory.Register.peek t.dec.(p)))
      (str_of_opt t.decisions.(p))
      (match t.engagement.(p) with
      | None -> "-"
      | Some (r, b) ->
          Printf.sprintf "(%d,%d)" r (Paxos.rename_ballot ~n ~perm b))
      (match m.pcs.(p) with None -> "-" | Some pc -> spc_string m ~perm pc)
  done;
  Buffer.contents buf

let decisions t = Array.copy t.decisions

let fd_iterations t = Array.map Kanti_omega.iterations t.fds

let fd_winnerset t proc = Kanti_omega.winnerset t.fds.(proc)

type adversary_view = {
  winnersets : unit -> Procset.t array;
  engagement : unit -> (int * int) option array;
  instance_max_ballot : int -> int;
  current_argmin : unit -> Procset.t;
}

let adversary_view t =
  let { Problem.n; _ } = t.problem in
  let sets = Kanti_omega.sets t.fd_shared in
  let current_argmin () =
    let best = ref 0 in
    let best_acc = ref (Kanti_omega.accusation_counter t.fd_shared t.fd_params ~set_index:0) in
    for a = 1 to Array.length sets - 1 do
      let acc = Kanti_omega.accusation_counter t.fd_shared t.fd_params ~set_index:a in
      if acc < !best_acc then begin
        best := a;
        best_acc := acc
      end
    done;
    sets.(!best)
  in
  {
    winnersets = (fun () -> Array.init n (fun proc -> fd_winnerset t proc));
    engagement = (fun () -> Array.copy t.engagement);
    instance_max_ballot = (fun r -> Paxos.peek_max_ballot t.instances.(r));
    current_argmin;
  }

let empty_adversary_view ~n =
  {
    winnersets = (fun () -> Array.make n Procset.empty);
    engagement = (fun () -> Array.make n None);
    instance_max_ballot = (fun _ -> 0);
    current_argmin = (fun () -> Procset.empty);
  }
