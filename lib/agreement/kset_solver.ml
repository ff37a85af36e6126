module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Store = Setsync_memory.Store
module Machine = Setsync_runtime.Machine
module Layout = Setsync_memory.Layout
module Kanti_omega = Setsync_detector.Kanti_omega

type t = {
  problem : Problem.t;
  fd_shared : Kanti_omega.shared;
  fd_params : Kanti_omega.params;
  instances : Paxos.shared array;  (** one per winnerset rank *)
  dec : int option Setsync_memory.Register.t array;  (** decision gossip *)
  fds : Kanti_omega.process array;
  props : Paxos.proposer array array;  (** [proc].(rank) *)
  (* per-process locals, index = process; an option is a presence
     slot (0 or 1) and value slots, zero when absent *)
  decided : int array;  (** the local decision record: present? *)
  decision : int array;  (** its value *)
  engaged : int array;  (** inside a Paxos attempt? *)
  engaged_rank : int array;  (** the attempt's instance *)
  engaged_ballot : int array;  (** and its ballot *)
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
    fd_shared;
    fd_params;
    instances;
    dec;
    (* detector processes and proposers allocate no registers *)
    fds =
      Array.init n (fun proc ->
          Kanti_omega.make_process ?initial_timeout fd_shared fd_params ~proc);
    props =
      Array.init n (fun proc ->
          Array.map (fun inst -> Paxos.make_proposer inst ~proc ~input:inputs.(proc)) instances);
    decided = Array.make n 0;
    decision = Array.make n 0;
    engaged = Array.make n 0;
    engaged_rank = Array.make n 0;
    engaged_ballot = Array.make n 0;
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

let set_engagement t proc ~engaged ~rank ~ballot =
  t.engaged.(proc) <- engaged;
  t.engaged_rank.(proc) <- rank;
  t.engaged_ballot.(proc) <- ballot

let disengage t proc = set_engagement t proc ~engaged:0 ~rank:0 ~ballot:0

(* adopt or commit a decision: runs in the step that performs the
   decision-register write *)
let decide (acc : Machine.access) t proc v =
  disengage t proc;
  t.decided.(proc) <- 1;
  t.decision.(proc) <- v;
  acc.write t.dec.(proc) (Some v);
  S_dec_written

(* the rank loop from rank [r]: engage the first rank this process
   holds in [w]; falling off the end starts the next detector
   iteration. Always performs this step's atomic. *)
let rec ranks acc t proc w r =
  if r >= t.problem.Problem.k then S_fd (Kanti_omega.iterate_start acc t.fds.(proc))
  else if (not (Procset.is_empty w)) && Proc.equal (Procset.nth w r) proc then begin
    set_engagement t proc ~engaged:1 ~rank:r ~ballot:(Paxos.current_ballot t.props.(proc).(r));
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
          disengage t proc;
          ranks acc t proc w (r + 1)
      | Paxos.M_decided v -> decide acc t proc v)
  | Some (S_dec_written | S_paused) ->
      acc.pause ();
      S_paused

let encode_spc sink = function
  | S_fd pc ->
      Layout.put sink 0;
      Kanti_omega.encode_pc sink pc
  | S_dec (q, v) ->
      Layout.put sink 1;
      Layout.put sink q;
      Layout.option Layout.put sink v
  | S_paxos (r, w, pc) ->
      Layout.put sink 2;
      Layout.put sink r;
      Layout.put sink (Procset.to_bits w);
      Paxos.encode_pc sink pc
  | S_dec_written -> Layout.put sink 3
  | S_paused -> Layout.put sink 4

(* {2 Machine form} *)

type machine = {
  solver : t;
  pcs : spc option array;
  layout : Layout.t Lazy.t;
      (* registers, every local, the PCs: declared on the first save or
         identity, which a harness run never asks for *)
}

let machine t =
  let pcs = Array.make t.problem.Problem.n None in
  let layout =
    lazy
      (let layout = Layout.create "Kset_solver.machine_save" in
       Layout.registers layout t.dec (Layout.option Layout.put);
       Array.iter (Paxos.declare_shared layout) t.instances;
       Kanti_omega.declare_shared layout t.fd_shared;
       Array.iter (Kanti_omega.declare layout) t.fds;
       Array.iter (Array.iter (Paxos.declare layout)) t.props;
       List.iter (Layout.ints layout)
         [ t.decided; t.decision; t.engaged; t.engaged_rank; t.engaged_ballot ];
       Layout.values layout ~name:"pcs" pcs (Layout.option encode_spc);
       layout)
  in
  { solver = t; pcs; layout }

let machine_step m acc proc = m.pcs.(proc) <- Some (step acc m.solver proc m.pcs.(proc))

let machine_save m = Layout.save (Lazy.force m.layout)

let identity ?without m = Layout.identity ?without (Lazy.force m.layout)

(* a loop, not [Array.init]: every explored state observes this *)
let decisions t =
  let d = Array.make t.problem.Problem.n None in
  for p = 0 to Array.length d - 1 do
    if t.decided.(p) = 1 then d.(p) <- Some t.decision.(p)
  done;
  d

let decided t p = t.decided.(p) = 1

let fd_iterations t = Array.map Kanti_omega.iterations t.fds

let fd_winnerset t proc = Kanti_omega.winnerset t.fds.(proc)

type adversary_view = {
  winnersets : unit -> Procset.t array;
  engaged_instance : int -> int;
  engaged_ballot : int -> int;
  instance_max_ballot : int -> int;
  current_argmin : unit -> Procset.t;
}

let adversary_view t =
  let { Problem.n; _ } = t.problem in
  let sets = Kanti_omega.sets t.fd_shared in
  (* one reused row: an adversary polls the argmin at every pull *)
  let row = Array.make n 0 in
  let accusation a =
    Kanti_omega.accusation_counter t.fd_shared t.fd_params ~row ~set_index:a
  in
  let current_argmin () =
    let best = ref 0 in
    let best_acc = ref (accusation 0) in
    for a = 1 to Array.length sets - 1 do
      let acc = accusation a in
      if acc < !best_acc then begin
        best := a;
        best_acc := acc
      end
    done;
    sets.(!best)
  in
  {
    winnersets = (fun () -> Array.init n (fun proc -> fd_winnerset t proc));
    engaged_instance = (fun p -> if t.engaged.(p) = 1 then t.engaged_rank.(p) else -1);
    engaged_ballot = (fun p -> t.engaged_ballot.(p));
    instance_max_ballot = (fun r -> Paxos.peek_max_ballot t.instances.(r));
    current_argmin;
  }

let empty_adversary_view ~n =
  {
    winnersets = (fun () -> Array.make n Procset.empty);
    engaged_instance = (fun _ -> -1);
    engaged_ballot = (fun _ -> 0);
    instance_max_ballot = (fun _ -> 0);
    current_argmin = (fun () -> Procset.empty);
  }
