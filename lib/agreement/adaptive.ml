module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Source = Setsync_schedule.Source
module Generators = Setsync_schedule.Generators
module Timeliness = Setsync_schedule.Timeliness

let source ?(live = Generators.all_live) ?(phase0 = 32) ?(growth = 16) ~n ~contract
    ~fault_budget ~defeat ~(view : Kset_solver.adversary_view) () =
  Proc.check_n n;
  let { Generators.p; q; bound } = contract in
  if bound < 1 then invalid_arg "Adaptive.source: bound must be >= 1";
  if Procset.is_empty p then invalid_arg "Adaptive.source: empty timely set";
  if defeat < 1 || defeat >= n then invalid_arg "Adaptive.source: need 1 <= defeat < n";
  if fault_budget < defeat then
    invalid_arg "Adaptive.source: fault budget below the candidate size";
  let candidates = Array.of_list (Procset.subsets_of_size ~n defeat) in
  (* Starving the target together with the contract's observed set is
     what keeps enforcement from interrupting the starvation — but an
     adversary may only deprive at most [fault_budget] (= t) processes
     of steps for a whole phase, or the run's faulty set exceeds the
     resilience bound and proves nothing. The cap keeps the target
     fully starved and fills the rest of the budget from [q]. This is
     exactly Theorem 27's arithmetic: the full set [A ∪ q] fits the
     budget iff [k + j - i <= t], i.e. iff the cell is unsolvable; on
     solvable cells some member of [q] necessarily survives, its steps
     keep triggering contract enforcement, and the timely set's leader
     pushes its instance through. *)
  let victim_of a =
    if not (Procset.subset p a) then a
    else begin
      let rec fill victims extras =
        match extras with
        | [] -> victims
        | x :: rest ->
            if Procset.cardinal victims >= fault_budget then victims
            else fill (Procset.add x victims) rest
      in
      fill a (Procset.elements (Procset.diff q a))
    end
  in
  Array.iter
    (fun a ->
      if Procset.cardinal (victim_of a) >= n then
        invalid_arg "Adaptive.source: a phase would starve everyone")
    candidates;
  (* Argmin targeting: each phase starves the candidate set currently
     winning the accusation argmin (the set the detector is converging
     towards), re-evaluated at phase boundaries. On solvable cells the
     eventual winner's counter stays bounded even under starvation
     (enough processes stop accusing it), so it keeps the argmin and
     stabilizes; on unsolvable cells starving the argmin always grows
     its counter, so the target rotates forever. The target's victims
     are computed when it changes. *)
  let target_victims = ref (victim_of candidates.(0)) in
  let refresh_target () =
    let a = view.current_argmin () in
    if Procset.cardinal a = defeat then target_victims := victim_of a
  in
  (* start inside a phase targeting the canonical first set: the
     initial winnerset of every process is exactly that set, and
     letting its leaders land winning ballots before the first phase
     would hand them completed attempts *)
  let clock =
    Generators.Phase_clock.create ~on_phase_start:refresh_target ~who:"Adaptive.source" ~phase0
      ~growth ~recovery:(4 * n) ~start_in_recovery:false ()
  in
  let monitor = Timeliness.Monitor.create ~p ~q () in
  let cursor = ref 0 in
  let picks = Array.init n Option.some in
  let emit x =
    Timeliness.Monitor.feed monitor x;
    Generators.Phase_clock.tick clock;
    picks.(x)
  in
  (* the cursor also rotates fallback picks through their pool *)
  let emit_cycling pool =
    let pool = Array.of_list pool in
    let x = pool.(!cursor mod Array.length pool) in
    cursor := (!cursor + 1) mod n;
    emit x
  in
  let of_phase _ = !target_victims in
  let phase_victims () = Generators.Phase_clock.starved clock of_phase in
  (* Freeze exactly the processes whose in-flight attempt has landed
     its prepare and currently holds its instance's maximum ballot —
     the only attempts that could complete. A pre-write attempt
     (instance max below its ballot) must be allowed to run so its
     ballot lands and releases the previously frozen proposer, whose
     resumed attempt then observes the higher ballot and aborts; an
     out-balloted attempt (instance max above) is doomed to abort and
     may also run. Every freeze is therefore transient as long as
     leadership keeps moving, respecting the fault budget. *)
  let frozen () =
    let acc = ref Procset.empty in
    for proc = 0 to n - 1 do
      let instance = view.engaged_instance proc in
      if instance >= 0 && view.instance_max_ballot instance = view.engaged_ballot proc then
        acc := Procset.add proc !acc
    done;
    !acc
  in
  (* Releasers: for every instance held by a frozen proposer, the
     process that would out-ballot it — the rank-r member of the
     current argmin set — must be exempt from phase starvation, or the
     ballot race stalls and the adversary is forced to push the frozen
     proposer itself through its (winning) attempt. The exemption is
     moot when the releaser is the frozen proposer. *)
  let releasers frozen_now =
    let argmin = view.current_argmin () in
    let acc = ref Procset.empty in
    for proc = 0 to n - 1 do
      let instance = view.engaged_instance proc in
      if instance >= 0 && Procset.mem proc frozen_now && instance < Procset.cardinal argmin
      then begin
        let releaser = Procset.nth argmin instance in
        if releaser <> proc then acc := Procset.add releaser !acc
      end
    done;
    !acc
  in
  (* the live processes, ascending; built only off the common path *)
  let live_now () = List.filter live (Proc.all ~n) in
  let rec any_live p = p < n && (live p || any_live (p + 1)) in
  Source.make ~n (fun () ->
      if not (any_live 0) then None
      else if Timeliness.Monitor.critical monitor ~bound then begin
        (* Contract enforcement first, as always — in phase-long
           single-member stints (the Figure 1 pattern), so no proper
           subset of p is granted timeliness the contract does not
           promise; the stint member avoids the current phase victim
           when it can. *)
        let phase_victims = phase_victims () in
        let members = List.filter live (Procset.elements p) in
        (* Dodge frozen winning proposers whenever p has a spare member
           — possible exactly when the winnerset cannot contain all of
           p (the i > k cells): granting a frozen proposer steps would
           complete its attempt, so avoiding it outranks keeping the
           phase starvation intact. Among unfrozen members, prefer one
           outside the current phase victim. *)
        let frozen_now = frozen () in
        let unfrozen = List.filter (fun x -> not (Procset.mem x frozen_now)) members in
        let best = List.filter (fun x -> not (Procset.mem x phase_victims)) unfrozen in
        (* The endgame — every live member of p is a frozen winning
           proposer, so stop scheduling q and keep the gap one step
           short of the bound — perpetually starves p together with
           q \ p: [j] processes. That is affordable only within the
           fault budget; when [j > t] (exactly the solvable cells with
           i = |p| <= k) the adversary must concede a step to a frozen
           proposer instead, which is how decisions happen against it. *)
        let endgame_cost =
          Procset.cardinal (Procset.union (Procset.inter p frozen_now) (Procset.diff q p))
        in
        let outside_q =
          if endgame_cost > fault_budget then []
          else
            List.filter
              (fun x -> (not (Procset.mem x q)) && not (Procset.mem x frozen_now))
              (live_now ())
        in
        match (best, unfrozen, outside_q, members) with
        | (_ :: _ as pool), _, _, _ | [], (_ :: _ as pool), _, _ ->
            let pool = Array.of_list pool in
            emit pool.(Generators.Phase_clock.phase clock mod Array.length pool)
        | [], [], (_ :: _ as pool), _ ->
            (* outside p and q: the gap stays one step short *)
            emit_cycling pool
        | [], [], [], (_ :: _ as pool) ->
            (* cornered: everyone live is in q or frozen, and all of p
               is frozen *)
            let pool = Array.of_list pool in
            emit pool.(Generators.Phase_clock.phase clock mod Array.length pool)
        | [], [], [], [] -> None
      end
      else begin
        let frozen_now = frozen () in
        let victims =
          Procset.union (Procset.diff (phase_victims ()) (releasers frozen_now)) frozen_now
        in
        let allowed x = live x && not (Procset.mem x victims) in
        match Generators.next_allowed cursor ~n allowed with
        | Some x -> emit x
        | None ->
            (* Everyone live is a victim: an adversary cannot starve all
               correct processes forever, so degrade to round-robin over
               the live processes outside the frozen set, else anybody. *)
            let frozen_now = frozen () in
            let live_now = live_now () in
            emit_cycling
              (match List.filter (fun x -> not (Procset.mem x frozen_now)) live_now with
              | [] -> live_now
              | unfrozen -> unfrozen)
      end)
