(* A window violates timeliness at bound [b] iff it contains [b] steps
   of [Q] and none of [P]. Such a window exists iff some maximal P-free
   gap contains at least [b] Q-steps, so a single left-to-right scan
   tracking the Q-count since the last P-step decides everything. *)

module Monitor = struct
  type t = {
    p : Procset.t;
    q : Procset.t;
    mutable open_gap : int;
    mutable worst_gap : int;
  }

  let create ?(gap = 0) ~p ~q () =
    if gap < 0 then invalid_arg "Timeliness.Monitor.create: negative gap";
    { p; q; open_gap = gap; worst_gap = gap }

  (* The gap rule: a P-step closes the open gap, a Q∖P step extends it. *)
  let feed t proc =
    if Procset.mem proc t.p then t.open_gap <- 0
    else if Procset.mem proc t.q then begin
      t.open_gap <- t.open_gap + 1;
      if t.open_gap > t.worst_gap then t.worst_gap <- t.open_gap
    end

  let of_schedule ?gap ~p ~q s =
    let t = create ?gap ~p ~q () in
    Schedule.iteri (fun _ proc -> feed t proc) s;
    t

  let open_gap t = t.open_gap

  let worst_gap t = t.worst_gap

  let critical t ~bound = t.open_gap >= bound - 1
end

let max_gap ~p ~q s = Monitor.worst_gap (Monitor.of_schedule ~p ~q s)

let observed_bound ~p ~q s = max_gap ~p ~q s + 1

let holds ~bound ~p ~q s =
  if bound < 1 then invalid_arg "Timeliness.holds: bound must be >= 1";
  max_gap ~p ~q s < bound

let process_timely ~bound ~p ~q s =
  holds ~bound ~p:(Procset.singleton p) ~q:(Procset.singleton q) s

let union_bound b1 b2 =
  if b1 < 1 || b2 < 1 then invalid_arg "Timeliness.union_bound";
  b1 + b2 - 1

let monotone ~p ~p' ~q ~q' = Procset.subset p p' && Procset.subset q' q

let self_timely_bound () = 1
