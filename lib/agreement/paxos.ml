module Proc = Setsync_schedule.Proc
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Machine = Setsync_runtime.Machine
module Layout = Setsync_memory.Layout

(* One block per process: mbal = highest ballot this process has
   started, bal/inp = its highest accepted ballot and the value
   accepted at it (bal = 0: nothing accepted yet). *)
type block = { mbal : int; bal : int; inp : int }

let empty_block = { mbal = 0; bal = 0; inp = 0 }

let pp_block ppf b = Fmt.pf ppf "(mbal=%d bal=%d inp=%d)" b.mbal b.bal b.inp

let encode_block sink b =
  Layout.put sink b.mbal;
  Layout.put sink b.bal;
  Layout.put sink b.inp

type shared = { n : int; blocks : block Register.t array }

let create_shared store ~n ~name =
  Proc.check_n n;
  { n; blocks = Store.array store ~pp:pp_block ~name n (fun _ -> empty_block) }

type proposer = {
  shared : shared;
  proc : Proc.t;
  input : int;
  vars : int array;  (** ballot, decided (presence), decided value *)
}

(* [vars]'s slots *)
let ballot_at = 0
let decided_at = 1
let decision_at = 2

let make_proposer shared ~proc ~input =
  Proc.check ~n:shared.n proc;
  { shared; proc; input; vars = [| proc + 1; 0; 0 |] }

(* Smallest ballot of [proc]'s arithmetic class strictly above [floor]. *)
let next_ballot ~n ~proc ~floor =
  let rec bump b = if b > floor then b else bump (b + n) in
  bump (proc + 1)

let current_ballot p = p.vars.(ballot_at)

let declare layout p = Layout.ints layout p.vars

let declare_shared layout shared = Layout.registers layout shared.blocks encode_block

(* {2 Machine form}

   One round of the protocol, one register atomic per step: PC values
   name the atomic just performed, carrying its pending result and the
   attempt's accumulated locals, and the resume function runs the code
   up to the next atomic, performed through [acc]. The ballot is only
   read at attempt start and only written at resolution, so carrying
   it implicitly across a parked attempt is sound. *)

type mpc =
  | P_own of block  (** read own block; prepare write pending *)
  | P_mbal_written of block  (** announced the ballot; [block] is the prior own block *)
  | P_phase1 of { q : int; blk : block; intf : int; best_bal : int; best_inp : int }
      (** read [blocks.(q)] = blk during the collect loop *)
  | P_accept_written of int  (** wrote the accept block for this value *)
  | P_phase2 of { q : int; blk : block; intf : int; value : int }

type mres = M_more of mpc | M_decided of int | M_interfered

let attempt_start (acc : Machine.access) p =
  if p.vars.(decided_at) = 1 then M_decided p.vars.(decision_at)
  else M_more (P_own (acc.read p.shared.blocks.(p.proc)))

(* first/next other-process index, skipping our own slot *)
let first_other ~proc = if proc = 0 then 1 else 0

let next_other ~proc q =
  let q' = q + 1 in
  if q' = proc then q' + 1 else q'

let attempt_resume (acc : Machine.access) p pc =
  let { n; blocks } = p.shared in
  let b = p.vars.(ballot_at) in
  let note intf other =
    let intf = if other.mbal > b then max intf other.mbal else intf in
    if other.bal > b then max intf other.bal else intf
  in
  let interfered intf =
    p.vars.(ballot_at) <- next_ballot ~n ~proc:p.proc ~floor:intf;
    M_interfered
  in
  let accept ~best_bal ~best_inp =
    let value = if best_bal > 0 then best_inp else p.input in
    acc.write blocks.(p.proc) { mbal = b; bal = b; inp = value };
    M_more (P_accept_written value)
  in
  let decide value =
    p.vars.(decided_at) <- 1;
    p.vars.(decision_at) <- value;
    M_decided value
  in
  match pc with
  | P_own own ->
      acc.write blocks.(p.proc) { own with mbal = b };
      M_more (P_mbal_written own)
  | P_mbal_written own ->
      let q = first_other ~proc:p.proc in
      if q >= n then accept ~best_bal:own.bal ~best_inp:own.inp
      else
        M_more
          (P_phase1
             {
               q;
               blk = acc.read blocks.(q);
               intf = 0;
               best_bal = own.bal;
               best_inp = own.inp;
             })
  | P_phase1 { q; blk; intf; best_bal; best_inp } ->
      let intf = note intf blk in
      let best_bal, best_inp =
        if blk.bal > best_bal then (blk.bal, blk.inp) else (best_bal, best_inp)
      in
      let q' = next_other ~proc:p.proc q in
      if q' < n then
        M_more (P_phase1 { q = q'; blk = acc.read blocks.(q'); intf; best_bal; best_inp })
      else if intf > 0 then interfered intf
      else accept ~best_bal ~best_inp
  | P_accept_written value ->
      let q = first_other ~proc:p.proc in
      if q >= n then decide value
      else M_more (P_phase2 { q; blk = acc.read blocks.(q); intf = 0; value })
  | P_phase2 { q; blk; intf; value } ->
      let intf = note intf blk in
      let q' = next_other ~proc:p.proc q in
      if q' < n then M_more (P_phase2 { q = q'; blk = acc.read blocks.(q'); intf; value })
      else if intf > 0 then interfered intf
      else decide value

let encode_pc sink = function
  | P_own own ->
      Layout.put sink 0;
      encode_block sink own
  | P_mbal_written own ->
      Layout.put sink 1;
      encode_block sink own
  | P_phase1 { q; blk; intf; best_bal; best_inp } ->
      Layout.put sink 2;
      Layout.put sink q;
      encode_block sink blk;
      Layout.put sink intf;
      Layout.put sink best_bal;
      Layout.put sink best_inp
  | P_accept_written v ->
      Layout.put sink 3;
      Layout.put sink v
  | P_phase2 { q; blk; intf; value } ->
      Layout.put sink 4;
      Layout.put sink q;
      encode_block sink blk;
      Layout.put sink intf;
      Layout.put sink value

let peek_decision shared =
  (* Highest accepted (bal, inp) pair, if its acceptance was confirmed
     by being the unique maximum — debugging aid only. *)
  let best = ref None in
  Array.iter
    (fun reg ->
      let blk = Register.peek reg in
      if blk.bal > 0 then
        match !best with
        | Some (bal, _) when bal >= blk.bal -> ()
        | Some _ | None -> best := Some (blk.bal, blk.inp))
    shared.blocks;
  Option.map snd !best

let peek_max_ballot shared =
  Array.fold_left (fun acc reg -> max acc (Register.peek reg).mbal) 0 shared.blocks
