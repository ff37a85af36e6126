module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Schedule = Setsync_schedule.Schedule
module Source = Setsync_schedule.Source
module Generators = Setsync_schedule.Generators
module Timeliness = Setsync_schedule.Timeliness
module Rng = Setsync_schedule.Rng
module Fault = Setsync_runtime.Fault

type candidate = { schedule : Schedule.t; fault : Fault.plan }

type env = {
  n : int;
  live : Proc.t -> bool;
  contracts : Generators.timely_contract list;
  max_len : int;
  max_crashes : int;
}

let env ?(live = Generators.all_live) ?(contracts = []) ?(max_crashes = 0) ~n ~max_len () =
  Proc.check_n n;
  if max_len < 1 then invalid_arg "Mutate.env: max_len must be >= 1";
  if max_crashes < 0 then invalid_arg "Mutate.env: negative max_crashes";
  if not (List.exists live (Proc.all ~n)) then
    invalid_arg "Mutate.env: no live process";
  List.iter
    (fun (c : Generators.timely_contract) ->
      if c.Generators.bound < 1 then invalid_arg "Mutate.env: contract bound < 1";
      Procset.iter (fun x -> Proc.check ~n x) c.Generators.p;
      Procset.iter (fun x -> Proc.check ~n x) c.Generators.q)
    contracts;
  { n; live; contracts; max_len; max_crashes }

let live_list env = List.filter env.live (Proc.all ~n:env.n)

let truncate env steps =
  let rec take k = function
    | x :: rest when k < env.max_len -> x :: take (k + 1) rest
    | _ -> []
  in
  take 0 steps

let of_steps env steps = Schedule.of_list ~n:env.n (truncate env steps)

let plan_ok env plan =
  List.length plan <= env.max_crashes
  && List.for_all (fun (p, s) -> p >= 0 && p < env.n && s >= 0) plan
  &&
  let procs = List.map fst plan in
  List.length (List.sort_uniq compare procs) = List.length procs

let valid env { schedule; fault } =
  Schedule.length schedule <= env.max_len
  && List.for_all env.live (Schedule.to_list schedule)
  && plan_ok env fault
  && List.for_all
       (fun (c : Generators.timely_contract) ->
         Timeliness.holds ~bound:c.Generators.bound ~p:c.Generators.p ~q:c.Generators.q
           schedule)
       env.contracts

(* ------------------------------------------------- structural moves *)

let seg_len rng hi = min hi (1 + Rng.geometric rng 0.35)

let swap env rng cand =
  let a = Array.of_list (Schedule.to_list cand.schedule) in
  let len = Array.length a in
  if len < 2 then cand
  else begin
    let i = Rng.int rng len and j = Rng.int rng len in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp;
    { cand with schedule = of_steps env (Array.to_list a) }
  end

let insert env rng cand =
  let steps = Schedule.to_list cand.schedule in
  let len = List.length steps in
  let pos = Rng.int rng (len + 1) in
  let x = Rng.pick rng (live_list env) in
  let rec go i = function
    | rest when i = pos -> x :: rest
    | s :: rest -> s :: go (i + 1) rest
    | [] -> [ x ]
  in
  { cand with schedule = of_steps env (go 0 steps) }

let delete_seg env rng cand =
  let len = Schedule.length cand.schedule in
  if len = 0 then cand
  else begin
    let pos = Rng.int rng len in
    let k = seg_len rng (len - pos) in
    let steps = Schedule.to_list cand.schedule in
    let rec go i = function
      | [] -> []
      | _ :: rest when i >= pos && i < pos + k -> go (i + 1) rest
      | s :: rest -> s :: go (i + 1) rest
    in
    { cand with schedule = of_steps env (go 0 steps) }
  end

let dup_seg env rng cand =
  let len = Schedule.length cand.schedule in
  if len = 0 then cand
  else begin
    let pos = Rng.int rng len in
    let k = seg_len rng (len - pos) in
    let steps = Array.of_list (Schedule.to_list cand.schedule) in
    let seg = Array.to_list (Array.sub steps pos k) in
    let at = Rng.int rng (len + 1) in
    let rec go i rest =
      if i = at then seg @ rest
      else
        match rest with
        | s :: tl -> s :: go (i + 1) tl
        | [] -> seg
    in
    { cand with schedule = of_steps env (go 0 (Array.to_list steps)) }
  end

(* crash-point shifts: move a crash earlier/later by a geometric step
   count, add a crash for an uncrashed live-named process, or remove
   one — within the [max_crashes] budget. *)
let crash_shift env rng cand =
  if env.max_crashes = 0 then cand
  else begin
    let len = Schedule.length cand.schedule in
    let plan = cand.fault in
    let can_add =
      List.length plan < env.max_crashes
      && List.exists (fun p -> not (List.mem_assoc p plan)) (live_list env)
    in
    let choices =
      (if plan <> [] then [ `Shift; `Remove ] else [])
      @ (if can_add then [ `Add ] else [])
    in
    match choices with
    | [] -> cand
    | _ -> (
        match Rng.pick rng choices with
        | `Shift ->
            let p, s = Rng.pick rng plan in
            let delta = 1 + Rng.geometric rng 0.4 in
            let s' = if Rng.bool rng then s + delta else max 0 (s - delta) in
            { cand with fault = List.map (fun (q, b) -> if q = p then (q, s') else (q, b)) plan }
        | `Remove ->
            let p, _ = Rng.pick rng plan in
            { cand with fault = List.filter (fun (q, _) -> q <> p) plan }
        | `Add ->
            let pool =
              List.filter (fun p -> not (List.mem_assoc p plan)) (live_list env)
            in
            let p = Rng.pick rng pool in
            { cand with fault = plan @ [ (p, Rng.int rng (len + 2)) ] })
  end

(* contract-preserving perturbation: keep a prefix, regenerate the
   suffix from Generators.timely seeded with the prefix's open gap so
   the contract holds across the seam. Without contracts the suffix is
   random-fair. *)
let regen_tail env rng cand =
  let len = Schedule.length cand.schedule in
  let target = max len (env.max_len / 2) in
  let cut = if len = 0 then 0 else Rng.int rng (len + 1) in
  let prefix = Schedule.prefix cand.schedule cut in
  let want = max 0 (target - cut) in
  let source =
    match env.contracts with
    | [] -> Generators.random_fair ~live:env.live ~n:env.n ~rng ()
    | contracts ->
        let contract = Rng.pick rng contracts in
        let { Generators.p; q; _ } = contract in
        let gap = Timeliness.Monitor.open_gap (Timeliness.Monitor.of_schedule ~p ~q prefix) in
        Generators.timely ~live:env.live ~gap ~n:env.n ~contract ~rng ()
  in
  let suffix = Source.take source want in
  { cand with schedule = of_steps env (Schedule.to_list prefix @ Schedule.to_list suffix) }

let mutators =
  [
    ("swap", swap);
    ("insert", insert);
    ("delete-seg", delete_seg);
    ("dup-seg", dup_seg);
    ("crash-shift", crash_shift);
    ("regen-tail", regen_tail);
  ]

(* ------------------------------------------------------------ repair *)

(* Enforce one contract by a linear patch pass: drop dead processes,
   and whenever a q-step would close a gap at the bound, schedule a
   live p-member first (round-robin) — or drop the q-step if p has no
   live member. Patching preserves the mutation's structure where the
   contract allows it. *)
let enforce_contract env (c : Generators.timely_contract) steps =
  let { Generators.p; q; bound } = c in
  (* hoisted once per pass: the patch loop indexes this pool on every
     critical gap, so an O(1) array beats a List.nth rescan *)
  let p_pool = Array.of_list (List.filter env.live (Procset.elements p)) in
  let cursor = ref 0 in
  let monitor = Timeliness.Monitor.create ~p ~q () in
  let critical () = Timeliness.Monitor.critical monitor ~bound in
  let out = ref [] in
  let emit x =
    Timeliness.Monitor.feed monitor x;
    out := x :: !out
  in
  List.iter
    (fun x ->
      if Procset.mem x p || not (Procset.mem x q) then emit x
      else begin
        if critical () && Array.length p_pool > 0 then begin
          emit p_pool.(!cursor mod Array.length p_pool);
          incr cursor
        end;
        if not (critical ()) then emit x
      end)
    steps;
  List.rev !out

let repair env cand =
  let steps = List.filter env.live (Schedule.to_list cand.schedule) in
  let steps = List.fold_left (fun s c -> enforce_contract env c s) steps env.contracts in
  { cand with schedule = of_steps env steps }

let apply env rng cand =
  let rec attempt k =
    if k = 0 then ("id", cand)
    else begin
      let name, m = Rng.pick rng mutators in
      let mutant = repair env (m env rng cand) in
      if valid env mutant then (name, mutant) else attempt (k - 1)
    end
  in
  attempt 8
