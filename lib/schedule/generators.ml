let all_live (_ : Proc.t) = true

let live_procs ~live ~n = List.filter live (Proc.all ~n)

let next_allowed cursor ~n allowed =
  let rec scan tries =
    if tries >= n then None
    else begin
      let x = !cursor in
      cursor := (x + 1) mod n;
      if allowed x then Some x else scan (tries + 1)
    end
  in
  scan 0

module Phase_clock = struct
  type t = {
    phase0 : int;
    growth : int;
    recovery : int;
    on_phase_start : unit -> unit;
    mutable phase : int;
    mutable pos : int;
    mutable in_recovery : bool;
  }

  let create ?(on_phase_start = ignore) ~who ~phase0 ~growth ~recovery ~start_in_recovery () =
    if phase0 < 1 || growth < 0 then invalid_arg (who ^ ": bad phase parameters");
    let in_recovery = start_in_recovery in
    { phase0; growth; recovery; on_phase_start; phase = 0; pos = 0; in_recovery }

  let phase t = t.phase

  let starved t victims = if t.in_recovery then Procset.empty else victims t.phase

  let tick t =
    t.pos <- t.pos + 1;
    let limit = if t.in_recovery then t.recovery else t.phase0 + (t.growth * t.phase) in
    if t.pos >= limit then begin
      t.pos <- 0;
      t.in_recovery <- not t.in_recovery;
      if t.in_recovery then t.phase <- t.phase + 1 else t.on_phase_start ()
    end
end

let round_robin ?(live = all_live) ~n () =
  Proc.check_n n;
  let cursor = ref 0 in
  Source.make ~n (fun () -> next_allowed cursor ~n live)

let figure1 ?(n = 3) ?(p1 = 0) ?(p2 = 1) ?(q = 2) () =
  Proc.check ~n p1;
  Proc.check ~n p2;
  Proc.check ~n q;
  (* Emits (p1·q)^i (p2·q)^i for i = 1, 2, 3, ...  State: the current
     block index i, which half we are in, and position inside it. *)
  let i = ref 1 in
  let second_half = ref false in
  let pair_pos = ref 0 (* 0 .. 2*i - 1 within the current half *) in
  Source.make ~n (fun () ->
      let even = !pair_pos mod 2 = 0 in
      let step = if even then (if !second_half then p2 else p1) else q in
      incr pair_pos;
      if !pair_pos >= 2 * !i then begin
        pair_pos := 0;
        if !second_half then begin
          second_half := false;
          incr i
        end
        else second_half := true
      end;
      Some step)

let net_adversary ?(live = all_live) ?(burst = 6) ~n ~groups () =
  Proc.check_n n;
  if burst < 1 then invalid_arg "Generators.net_adversary: burst must be >= 1";
  let order = List.concat groups in
  if order = [] then invalid_arg "Generators.net_adversary: empty groups";
  List.iter (Proc.check ~n) order;
  let order = Array.of_list order in
  let len = Array.length order in
  let pos = ref 0 in
  let left = ref burst in
  Source.make ~n (fun () ->
      (* serial bursts: the current process runs [burst] steps, then
         the next in group order; dead processes forfeit their burst *)
      let rec pick tries =
        if tries >= len then None
        else begin
          if !left = 0 then begin
            pos := (!pos + 1) mod len;
            left := burst
          end;
          let p = order.(!pos) in
          if live p then begin
            decr left;
            Some p
          end
          else begin
            left := 0;
            pick (tries + 1)
          end
        end
      in
      pick 0)

let random_fair ?(live = all_live) ~n ~rng () =
  Proc.check_n n;
  Source.make ~n (fun () ->
      match live_procs ~live ~n with
      | [] -> None
      | procs -> Some (Rng.pick rng procs))

type timely_contract = { p : Procset.t; q : Procset.t; bound : int }

let timely ?(live = all_live) ?fairness ?(burstiness = 0.7) ?(gap = 0) ~n ~contract ~rng () =
  Proc.check_n n;
  let { p; q; bound } = contract in
  if bound < 1 then invalid_arg "Generators.timely: bound must be >= 1";
  if Procset.is_empty p then invalid_arg "Generators.timely: empty timely set";
  if gap < 0 then invalid_arg "Generators.timely: negative gap";
  Procset.iter (fun x -> Proc.check ~n x) p;
  Procset.iter (fun x -> Proc.check ~n x) q;
  let fairness = match fairness with Some f -> f | None -> 8 * n * bound in
  if fairness < 4 * n then invalid_arg "Generators.timely: fairness below 4n is unsatisfiable";
  (* Serving a starved process can be delayed by contract-forced steps
     and by other starved processes draining first; triggering early by
     this margin keeps the documented cap exact. *)
  let fairness_trigger = fairness - (2 * n) in
  let monitor = Timeliness.Monitor.create ~gap ~p ~q () in
  (* age.(x) = emitted steps since x was last scheduled *)
  let age = Array.make n 0 in
  let last = ref (-1) in
  (* Long starvation of a single member of p: the victim is excluded
     from random picks (fairness still rescues it at the cap), which is
     what defeats individual timeliness while the set stays timely. *)
  let victim = ref (-1) in
  let victim_left = ref 0 in
  let emit x =
    Array.iteri (fun y a -> age.(y) <- (if y = x then 0 else a + 1)) age;
    Timeliness.Monitor.feed monitor x;
    last := x;
    Some x
  in
  let live_p () = List.filter live (Procset.elements p) in
  let p_cursor = ref 0 in
  let next_p_member () =
    let members =
      match List.filter (fun x -> x <> !victim || !victim_left = 0) (live_p ()) with
      | [] -> live_p () (* only the victim is left alive in p *)
      | rest -> rest
    in
    match members with
    | [] -> None
    | members ->
        let pool = Array.of_list members in
        let x = pool.(!p_cursor mod Array.length pool) in
        incr p_cursor;
        Some x
  in
  (* A step of x is safe iff it cannot complete a bad gap: members of p
     always are; q-members are safe only while the gap monitor is not
     critical; everyone else is always safe. *)
  let safe x =
    Procset.mem x p || (not (Procset.mem x q)) || not (Timeliness.Monitor.critical monitor ~bound)
  in
  Source.make ~n (fun () ->
      match live_procs ~live ~n with
      | [] -> None
      | live_now ->
          (* Priority 1: the contract. If the gap is one q-step away
             from the bound, a p-member must go next (when possible). *)
          let forced_p =
            if Timeliness.Monitor.critical monitor ~bound then next_p_member () else None
          in
          (match forced_p with
          | Some x -> emit x
          | None ->
              (* Priority 2: fairness. Schedule the most starved live
                 process once it hits the cap, provided it is safe;
                 unsafe means it is a q-member while the gap is critical
                 and p is dead, in which case it stays starved of q-steps
                 forever — exactly what the contract requires. *)
              let starved =
                List.filter (fun x -> age.(x) >= fairness_trigger && safe x) live_now
              in
              let pickable = List.filter safe live_now in
              (match (starved, pickable) with
              | x0 :: rest, _ ->
                  let oldest =
                    List.fold_left (fun acc x -> if age.(x) > age.(acc) then x else acc) x0 rest
                  in
                  emit oldest
              | [], [] -> None
              | [], _ ->
                  (* Priority 3: adversarial choice — continue a burst of
                     the previous process, or pick afresh, dodging the
                     current starvation victim when possible. *)
                  if !victim_left > 0 then decr victim_left
                  else if Rng.float rng < 0.02 then begin
                    victim := Procset.choose_rng rng p;
                    victim_left := max 1 (fairness_trigger / 2)
                  end;
                  let dodging =
                    if !victim_left > 0 then
                      match List.filter (fun x -> x <> !victim) pickable with
                      | [] -> pickable
                      | rest -> rest
                    else pickable
                  in
                  let continue_burst =
                    !last >= 0 && List.mem !last dodging && Rng.float rng < burstiness
                  in
                  if continue_burst then emit !last else emit (Rng.pick rng dodging))))

let exclusive_timely ?(live = all_live) ?(phase0 = 32) ?(growth = 16) ~n ~contract ~defeat () =
  Proc.check_n n;
  let { p; q; bound } = contract in
  if bound < 1 then invalid_arg "Generators.exclusive_timely: bound must be >= 1";
  if Procset.is_empty p then invalid_arg "Generators.exclusive_timely: empty timely set";
  if defeat < 1 || defeat >= n then invalid_arg "Generators.exclusive_timely: need 1 <= defeat < n";
  (* Candidate phases: starving A must not be interruptible by contract
     enforcement, so when p ⊆ A the whole of q is starved too (then no
     q-steps occur and no p-step is forced); otherwise forced p-steps
     can be served from p \ A. *)
  let victim_of a = if Procset.subset p a then Procset.union a q else a in
  let candidates = Array.of_list (Procset.subsets_of_size ~n defeat) in
  Array.iter
    (fun a ->
      if Procset.cardinal (victim_of a) >= n then
        invalid_arg "Generators.exclusive_timely: a phase would starve everyone")
    candidates;
  let clock =
    Phase_clock.create ~who:"Generators.exclusive_timely" ~phase0 ~growth ~recovery:(4 * n)
      ~start_in_recovery:true ()
  in
  let monitor = Timeliness.Monitor.create ~p ~q () in
  let cursor = ref 0 in
  let emit x =
    Timeliness.Monitor.feed monitor x;
    Phase_clock.tick clock;
    Some x
  in
  Source.make ~n (fun () ->
      match live_procs ~live ~n with
      | [] -> None
      | x0 :: _ as live_now ->
          let victim =
            Phase_clock.starved clock (fun m ->
                victim_of candidates.(m mod Array.length candidates))
          in
          if Timeliness.Monitor.critical monitor ~bound then begin
            (* Contract enforcement in phase-long single-member stints
               (the Figure 1 pattern): rotating through p's members
               step-by-step would make every subset of p timely, which
               the contract does not promise. The stint member is
               phase-stable and chosen outside the victim set when
               possible, so starvation of the current candidate stays
               intact. *)
            let members = List.filter live (Procset.elements p) in
            let preferred = List.filter (fun x -> not (Procset.mem x victim)) members in
            match (preferred, members) with
            | (_ :: _ as pool), _ | [], (_ :: _ as pool) ->
                let pool = Array.of_list pool in
                emit pool.(Phase_clock.phase clock mod Array.length pool)
            | [], [] -> (
                (* p is dead: stop emitting q forever (gap invariant) *)
                match List.filter (fun x -> not (Procset.mem x q)) live_now with
                | [] -> None
                | x :: _ -> emit x)
          end
          else
            (* round-robin among live processes outside the victim set;
               when everyone there is dead, fall back to any live
               process so the run keeps moving *)
            let allowed x = live x && not (Procset.mem x victim) in
            match next_allowed cursor ~n allowed with
            | Some x -> emit x
            | None -> emit x0)

let starvation_adversary ?(live = all_live) ?(phase0 = 8) ?(growth = 8) ~n ~i () =
  Proc.check_n n;
  if i < 1 || i >= n then invalid_arg "Generators.starvation_adversary: need 1 <= i < n";
  let clock =
    Phase_clock.create ~who:"Generators.starvation_adversary" ~phase0 ~growth
      ~recovery:(2 * n) ~start_in_recovery:false ()
  in
  let targets = Array.of_list (Procset.subsets_of_size ~n i) in
  let cursor = ref 0 in
  Source.make ~n (fun () ->
      let starved =
        Phase_clock.starved clock (fun m -> targets.(m mod Array.length targets))
      in
      let allowed x = live x && not (Procset.mem x starved) in
      let next =
        match next_allowed cursor ~n allowed with
        | Some _ as next -> next
        | None -> (
            (* everyone allowed is dead; if anybody at all is live, skip
               the rest of this phase rather than stalling *)
            match live_procs ~live ~n with [] -> None | x :: _ -> Some x)
      in
      if Option.is_some next then Phase_clock.tick clock;
      next)

let crash_after ~n plan =
  Proc.check_n n;
  List.iter (fun (p, s) ->
      Proc.check ~n p;
      if s < 0 then invalid_arg "Generators.crash_after: negative step budget")
    plan;
  let budget = Array.make n max_int in
  List.iter (fun (p, s) -> budget.(p) <- s) plan;
  let dead = Array.make n false in
  let live p = not dead.(p) in
  let observe p own_steps =
    if own_steps >= budget.(p) then dead.(p) <- true;
    dead.(p)
  in
  (live, observe)
