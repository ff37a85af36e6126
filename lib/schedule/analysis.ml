type curve = { lengths : int array; bounds : int array }

let bound_curve ~p ~q ~source ~lengths =
  (match lengths with
  | [] -> invalid_arg "Analysis.bound_curve: no lengths"
  | l ->
      let rec ascending = function
        | a :: (b :: _ as rest) ->
            if a >= b then invalid_arg "Analysis.bound_curve: lengths must increase";
            ascending rest
        | [ _ ] | [] -> ()
      in
      ascending l);
  let monitor = Timeliness.Monitor.create ~p ~q () in
  let fed = ref 0 in
  let taken_lengths = ref [] in
  let taken_bounds = ref [] in
  let exhausted = ref false in
  let advance_to target =
    while (not !exhausted) && !fed < target do
      match Source.next source with
      | None -> exhausted := true
      | Some proc ->
          Timeliness.Monitor.feed monitor proc;
          incr fed
    done;
    !fed = target
  in
  List.iter
    (fun target ->
      if advance_to target then begin
        taken_lengths := target :: !taken_lengths;
        taken_bounds := (Timeliness.Monitor.worst_gap monitor + 1) :: !taken_bounds
      end)
    lengths;
  {
    lengths = Array.of_list (List.rev !taken_lengths);
    bounds = Array.of_list (List.rev !taken_bounds);
  }

let singleton_matrix s =
  let n = Schedule.n s in
  let monitors =
    Array.init n (fun a ->
        Array.init n (fun b ->
            Timeliness.Monitor.create ~p:(Procset.singleton a) ~q:(Procset.singleton b) ()))
  in
  Schedule.iteri
    (fun _ proc ->
      Array.iter (fun row -> Array.iter (fun m -> Timeliness.Monitor.feed m proc) row) monitors)
    s;
  Array.map (Array.map (fun m -> Timeliness.Monitor.worst_gap m + 1)) monitors
