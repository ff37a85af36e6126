module Proc = Setsync_schedule.Proc
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Machine = Setsync_runtime.Machine

(* One block per process: mbal = highest ballot this process has
   started, bal/inp = its highest accepted ballot and the value
   accepted at it (bal = 0: nothing accepted yet). *)
type block = { mbal : int; bal : int; inp : int }

let empty_block = { mbal = 0; bal = 0; inp = 0 }

let pp_block ppf b = Fmt.pf ppf "(mbal=%d bal=%d inp=%d)" b.mbal b.bal b.inp

type shared = { n : int; blocks : block Register.t array }

let create_shared store ~n ~name =
  Proc.check_n n;
  { n; blocks = Store.array store ~pp:pp_block ~name n (fun _ -> empty_block) }

type proposer = {
  shared : shared;
  proc : Proc.t;
  input : int;
  mutable ballot : int;
  mutable decided : int option;
  (* [capture_proposer]'s per-depth buffers *)
  mutable saved_ballot : int array;
  mutable saved_decided : int option array;
}

let make_proposer shared ~proc ~input =
  Proc.check ~n:shared.n proc;
  {
    shared;
    proc;
    input;
    ballot = proc + 1;
    decided = None;
    saved_ballot = [||];
    saved_decided = [||];
  }

(* Smallest ballot of [proc]'s arithmetic class strictly above [floor]. *)
let next_ballot ~n ~proc ~floor =
  let rec bump b = if b > floor then b else bump (b + n) in
  bump (proc + 1)

let current_ballot p = p.ballot

(* {2 Machine form}

   One round of the protocol, one register atomic per step: PC values
   name the atomic just performed, carrying its pending result and the
   attempt's accumulated locals, and the resume function runs the code
   up to the next atomic, performed through [acc]. [p.ballot] is only
   read at attempt start and only written at resolution, so carrying
   [p.ballot] implicitly across a parked attempt is sound. *)

type mpc =
  | P_own of block  (** read own block; prepare write pending *)
  | P_mbal_written of block  (** announced the ballot; [block] is the prior own block *)
  | P_phase1 of { q : int; blk : block; intf : int; best_bal : int; best_inp : int }
      (** read [blocks.(q)] = blk during the collect loop *)
  | P_accept_written of int  (** wrote the accept block for this value *)
  | P_phase2 of { q : int; blk : block; intf : int; value : int }

type mres = M_more of mpc | M_decided of int | M_interfered

let attempt_start (acc : Machine.access) p =
  match p.decided with
  | Some v -> M_decided v
  | None -> M_more (P_own (acc.read p.shared.blocks.(p.proc)))

(* first/next other-process index, skipping our own slot *)
let first_other ~proc = if proc = 0 then 1 else 0

let next_other ~proc q =
  let q' = q + 1 in
  if q' = proc then q' + 1 else q'

let attempt_resume (acc : Machine.access) p pc =
  let { n; blocks } = p.shared in
  let b = p.ballot in
  let note intf other =
    let intf = if other.mbal > b then max intf other.mbal else intf in
    if other.bal > b then max intf other.bal else intf
  in
  let interfered intf =
    p.ballot <- next_ballot ~n ~proc:p.proc ~floor:intf;
    M_interfered
  in
  let accept ~best_bal ~best_inp =
    let value = if best_bal > 0 then best_inp else p.input in
    acc.write blocks.(p.proc) { mbal = b; bal = b; inp = value };
    M_more (P_accept_written value)
  in
  let decide value =
    p.decided <- Some value;
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

let capture_proposer p depth =
  if depth >= Array.length p.saved_ballot then begin
    p.saved_ballot <- Setsync_memory.Savestack.grow p.saved_ballot (depth + 1) 0;
    p.saved_decided <- Setsync_memory.Savestack.grow p.saved_decided (depth + 1) None
  end;
  p.saved_ballot.(depth) <- p.ballot;
  p.saved_decided.(depth) <- p.decided

let restore_proposer p depth =
  p.ballot <- p.saved_ballot.(depth);
  p.decided <- p.saved_decided.(depth)

(* {2 Symmetry} *)

(* Ballots encode their owner's identity (proposer [p] uses
   [{r·n + p + 1}]), so renaming processes renames ballots by shifting
   within the residue class: [b = r·n + owner + 1] maps to
   [r·n + perm(owner) + 1]. *)
let rename_ballot ~n ~perm b =
  if b = 0 then 0
  else
    let owner = (b - 1) mod n in
    b - owner + perm.(owner)

let rename_block ~n ~perm blk =
  {
    mbal = rename_ballot ~n ~perm blk.mbal;
    bal = rename_ballot ~n ~perm blk.bal;
    inp = blk.inp;
  }

let pc_string ~n ~perm = function
  | P_own own -> Printf.sprintf "O%s" (Fmt.to_to_string pp_block (rename_block ~n ~perm own))
  | P_mbal_written own ->
      Printf.sprintf "W%s" (Fmt.to_to_string pp_block (rename_block ~n ~perm own))
  | P_phase1 { q; blk; intf; best_bal; best_inp } ->
      Printf.sprintf "1.%d%s i%d b%d,%d" perm.(q)
        (Fmt.to_to_string pp_block (rename_block ~n ~perm blk))
        (rename_ballot ~n ~perm intf)
        (rename_ballot ~n ~perm best_bal)
        best_inp
  | P_accept_written v -> Printf.sprintf "A%d" v
  | P_phase2 { q; blk; intf; value } ->
      Printf.sprintf "2.%d%s i%d v%d" perm.(q)
        (Fmt.to_to_string pp_block (rename_block ~n ~perm blk))
        (rename_ballot ~n ~perm intf)
        value

let sym_payload_proposer ~perm p =
  let n = p.shared.n in
  Printf.sprintf "b%d;d%s"
    (rename_ballot ~n ~perm p.ballot)
    (match p.decided with None -> "-" | Some v -> string_of_int v)

let sym_payload_blocks ~perm shared =
  let n = shared.n in
  let out = Array.make n empty_block in
  for q = 0 to n - 1 do
    out.(perm.(q)) <- rename_block ~n ~perm (Register.peek shared.blocks.(q))
  done;
  Fmt.to_to_string Fmt.(array ~sep:(any ";") pp_block) out

let sym_payload_pc ~perm shared pc = pc_string ~n:shared.n ~perm pc

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
