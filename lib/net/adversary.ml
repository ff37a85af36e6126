module Proc = Setsync_schedule.Proc

type action = Deliver of int | Drop

type t = {
  delta : int;
  gst : int;
  name : string;
  decide : now:int -> src:Proc.t -> dst:Proc.t -> seq:int -> action;
}

let make ?(name = "custom") ~delta ~gst decide =
  if delta < 1 then invalid_arg "Adversary.make: delta must be >= 1";
  if gst < 0 then invalid_arg "Adversary.make: gst must be >= 0";
  { delta; gst; name; decide }

type verdict = {
  due_at : int option;
  requested : int option;
  denied : int;
  forced : bool;
  pre_gst : bool;
}

(* Where a message sent [now] lands, before FIFO clamping, given the
   adversary's [action]; [-1] for a drop. Pre-GST the adversary is
   unconstrained except that nothing outlives GST + Δ: even a pre-GST
   send must arrive within Δ of GST (DLS semantics — the bound holds
   for all messages in flight at GST). [gst = max_int] encodes "GST
   never happens": skip the cap instead of overflowing. After GST
   every message is delivered within Δ, drops included. *)
let land_at t ~now = function
  | Drop -> if now >= t.gst then now + t.delta else -1
  | Deliver d ->
      let r = max 1 d in
      if now >= t.gst then now + min r t.delta
      else if t.gst > max_int - t.delta - 1 then now + r
      else min (now + r) (t.gst + t.delta)

let due_tick t ~now ~src ~dst ~seq = land_at t ~now (t.decide ~now ~src ~dst ~seq)

(* [due_tick] plus the outcome's attribution: what the adversary asked for
   ([requested], already floored at 1), how many ticks the model
   refused to grant ([denied], the Δ-clamp after GST or the gst+Δ cap
   before it), and whether a post-GST drop was overridden into a Δ
   delivery ([forced]). Invariant when [due_at = Some at]:
   [at - now = (if forced then delta else requested - denied)]. *)
let due_explained t ~now ~src ~dst ~seq =
  let action = t.decide ~now ~src ~dst ~seq in
  let at = land_at t ~now action and pre_gst = now < t.gst in
  match action with
  | Drop ->
      {
        due_at = (if at < 0 then None else Some at);
        requested = None;
        denied = 0;
        forced = not pre_gst;
        pre_gst;
      }
  | Deliver d ->
      let r = max 1 d in
      { due_at = Some at; requested = Some r; denied = now + r - at; forced = false; pre_gst }

let synchronous ~delta =
  make ~name:"synchronous" ~delta ~gst:0 (fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Deliver 1)

let gst_drop ~delta ~gst =
  make ~name:"gst_drop" ~delta ~gst (fun ~now ~src:_ ~dst:_ ~seq:_ ->
      if now < gst then Drop else Deliver 1)

let partition ~delta ~gst ~groups =
  let group = Hashtbl.create 16 in
  List.iteri (fun g ps -> List.iter (fun p -> Hashtbl.replace group p g) ps) groups;
  let same_group src dst =
    match (Hashtbl.find_opt group src, Hashtbl.find_opt group dst) with
    | Some a, Some b -> a = b
    | _ -> false
  in
  make ~name:"partition" ~delta ~gst (fun ~now ~src ~dst ~seq:_ ->
      if now < gst && not (same_group src dst) then Drop else Deliver 1)

(* Biely/Robinson/Schmid: to defeat k-set agreement with message loss,
   split the processes into k+1 near-equal groups and silence all
   cross-group traffic until GST — each group runs solo and decides
   its own value, giving k+1 > k distinct decisions. *)
let brs_kset ~delta ~gst ~n ~k =
  if k < 1 || k >= n then invalid_arg "Adversary.brs_kset: need 1 <= k < n";
  let groups =
    List.init (k + 1) (fun g ->
        List.filter (fun p -> p mod (k + 1) = g) (List.init n (fun p -> p)))
  in
  { (partition ~delta ~gst ~groups) with name = "brs_kset" }

let never ~delta =
  make ~name:"never" ~delta ~gst:max_int (fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Drop)

(* Crash + loss combined: the BRS partition runs over the full process
   universe — register owners included, so routed traffic is silenced
   across groups too — while the crash side is an ordinary fault plan
   the executor injects. Keeping them in one value pins the pairing a
   scenario means ("these crashes under this loss pattern") instead of
   letting call sites mix plans and adversaries freely. *)
type combined = { adversary : t; fault : (Proc.t * int) list }

let crash_brs ~delta ~gst ~total ~k ~crashes =
  if k < 1 || k + 1 > total then invalid_arg "Adversary.crash_brs: need 1 <= k < total";
  List.iter
    (fun (p, s) ->
      if p < 0 || p >= total then invalid_arg "Adversary.crash_brs: crash names unknown proc";
      if s < 0 then invalid_arg "Adversary.crash_brs: negative step budget")
    crashes;
  let groups =
    List.init (k + 1) (fun g ->
        List.filter (fun p -> p mod (k + 1) = g) (List.init total (fun p -> p)))
  in
  { adversary = { (partition ~delta ~gst ~groups) with name = "crash_brs" }; fault = crashes }
