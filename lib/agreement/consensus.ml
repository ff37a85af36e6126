module Store = Setsync_memory.Store
module Machine = Setsync_runtime.Machine

(* PC: the atomic a process just performed, with its pending result *)
type cpc =
  | C_scan of int * int option  (** read [CDec[q]]; adoption pending *)
  | C_paxos of Paxos.mpc  (** inside the proposer's attempt *)
  | C_paused  (** a non-proposer's idle step between scans *)
  | C_idle  (** decided and published: pause steps from now on *)

type t = {
  n : int;
  shared : Paxos.shared;
  dec : int option Setsync_memory.Register.t array;
  decisions : int option array;
  proposer : int;
  prop : Paxos.proposer;  (** the designated proposer's local state *)
  pcs : cpc option array;
}

let create store ~n ~inputs ?(proposer = 0) () =
  if Array.length inputs <> n then invalid_arg "Consensus.create: inputs must have length n";
  if proposer < 0 || proposer >= n then invalid_arg "Consensus.create: proposer out of range";
  (* allocation order fixes register ids: decisions first *)
  let dec =
    Store.array store ~pp:(Fmt.option ~none:(Fmt.any "⊥") Fmt.int) ~name:"CDec" n (fun _ -> None)
  in
  let shared = Paxos.create_shared store ~n ~name:"Cons" in
  {
    n;
    shared;
    dec;
    decisions = Array.make n None;
    proposer;
    prop = Paxos.make_proposer shared ~proc:proposer ~input:inputs.(proposer);
    pcs = Array.make n None;
  }

(* record, then publish: the decision is visible in the step that
   writes it *)
let decide (acc : Machine.access) t proc v =
  t.decisions.(proc) <- Some v;
  acc.write t.dec.(proc) (Some v);
  C_idle

let scan (acc : Machine.access) t q = C_scan (q, acc.read t.dec.(q))

(* A loop of: scan every decision register, adopting the first
   published value; then the designated proposer runs one Paxos attempt
   and everyone else takes one pause step (what the paper's "take a
   step" correctness means for non-proposers). *)
let rec resume acc t proc = function
  | None | Some C_paused -> scan acc t 0
  | Some (C_scan (_, Some v)) -> decide acc t proc v
  | Some (C_scan (q, None)) when q < t.n - 1 -> scan acc t (q + 1)
  | Some (C_scan (_, None)) ->
      if proc = t.proposer then attempted acc t proc (Paxos.attempt_start acc t.prop)
      else begin
        acc.pause ();
        C_paused
      end
  | Some (C_paxos pc) -> attempted acc t proc (Paxos.attempt_resume acc t.prop pc)
  | Some C_idle ->
      acc.pause ();
      C_idle

and attempted acc t proc = function
  | Paxos.M_more pc -> C_paxos pc
  | Paxos.M_decided v -> decide acc t proc v
  | Paxos.M_interfered -> scan acc t 0

let step t acc proc = t.pcs.(proc) <- Some (resume acc t proc t.pcs.(proc))

let decisions t = Array.copy t.decisions

let decided t p = Option.is_some t.decisions.(p)
