module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset

type verdict =
  | Satisfied of { witness : Proc.t; stable_from : int }
  | Vacuous of { crashed : int; t : int }
  | Violated of string

(* Over a timeline [(s1,v1); …; (sm,vm)] (change points, oldest first)
   the output contains c during [si, s_{i+1}) and, for the last record,
   through the end of the run. [last_bad] is the first step from which
   c is permanently outside the output, or [None] if c is inside at the
   end. *)
let last_bad timeline c =
  let rec scan acc = function
    | (_s, v) :: ((s', _) :: _ as rest) ->
        scan (if Procset.mem c v then Some s' else acc) rest
    | [ (_, v) ] -> if Procset.mem c v then None else acc
    | [] -> acc
  in
  scan (Some 0) timeline

let validate ~n ~t ~k ~crashed ~total_steps ?(margin = 0) ~outputs () =
  let correct = Procset.diff (Procset.full ~n) crashed in
  if Procset.cardinal crashed > t then Vacuous { crashed = Procset.cardinal crashed; t }
  else begin
    let correct_list = Procset.elements correct in
    let timelines = List.map (fun p -> (p, History.timeline outputs ~proc:p)) correct_list in
    let missing = List.filter (fun (_, tl) -> tl = []) timelines in
    let bad_size =
      List.exists
        (fun (_, tl) -> List.exists (fun (_, v) -> Procset.cardinal v <> n - k) tl)
        timelines
    in
    if missing <> [] then
      Violated
        (Fmt.str "no sampled output for correct process(es) %a"
           Fmt.(list ~sep:(any ", ") Proc.pp)
           (List.map fst missing))
    else if bad_size then Violated (Fmt.str "some output does not have size n - k = %d" (n - k))
    else begin
      (* candidate witnesses: correct processes stable outside every
         correct process's output *)
      let stable_from_of c =
        List.fold_left
          (fun acc (_, tl) ->
            match (acc, last_bad tl c) with
            | None, _ | _, None -> None
            | Some a, Some b -> Some (max a b))
          (Some 0) timelines
      in
      let best =
        List.fold_left
          (fun acc c ->
            match (acc, stable_from_of c) with
            | acc, None -> acc
            | None, Some s -> Some (c, s)
            | Some (_, s0), Some s when s < s0 -> Some (c, s)
            | acc, Some _ -> acc)
          None correct_list
      in
      match best with
      | Some (witness, stable_from) when stable_from <= total_steps - margin ->
          Satisfied { witness; stable_from }
      | Some (witness, stable_from) ->
          Violated
            (Fmt.str
               "best witness %a only stable from step %d of %d (margin %d not met)"
               Proc.pp witness stable_from total_steps margin)
      | None ->
          Violated "every correct process appears in some correct process's final output"
    end
  end

type winner_verdict =
  | Winner_stable of { winner : Procset.t; stable_from : int }
  | Winner_vacuous of { crashed : int; t : int }
  | Winner_unstable of string

let validate_winner ~n ~t ~crashed ~total_steps ?(margin = 0) ~winnersets () =
  let correct = Procset.diff (Procset.full ~n) crashed in
  if Procset.cardinal crashed > t then
    Winner_vacuous { crashed = Procset.cardinal crashed; t }
  else begin
    let finals =
      List.map (fun p -> (p, History.last winnersets ~proc:p)) (Procset.elements correct)
    in
    match finals with
    | [] -> Winner_unstable "no correct processes"
    | _ when List.exists (fun (_, l) -> l = None) finals ->
        Winner_unstable "some correct process has no sampled winnerset"
    | (_, None) :: _ -> assert false (* covered by the guard above *)
    | (_, Some (s0, w0)) :: rest ->
        let all_equal =
          List.for_all
            (fun (_, l) -> match l with Some (_, w) -> Procset.equal w w0 | None -> false)
            rest
        in
        if not all_equal then
          Winner_unstable "correct processes disagree on the final winnerset"
        else begin
          let stable_from =
            List.fold_left
              (fun acc (_, l) -> match l with Some (s, _) -> max acc s | None -> acc)
              s0 rest
          in
          if Procset.is_empty (Procset.inter w0 correct) then
            Winner_unstable
              (Fmt.str "final winnerset %a contains no correct process" Procset.pp w0)
          else if stable_from > total_steps - margin then
            Winner_unstable
              (Fmt.str "winnerset only stable from step %d of %d (margin %d not met)"
                 stable_from total_steps margin)
          else Winner_stable { winner = w0; stable_from }
        end
  end

let pp_verdict ppf = function
  | Satisfied { witness; stable_from } ->
      Fmt.pf ppf "satisfied (witness %a stable from step %d)" Proc.pp witness stable_from
  | Vacuous { crashed; t } -> Fmt.pf ppf "vacuous (%d crashes > t = %d)" crashed t
  | Violated why -> Fmt.pf ppf "VIOLATED: %s" why

let pp_winner_verdict ppf = function
  | Winner_stable { winner; stable_from } ->
      Fmt.pf ppf "stable winner %a from step %d" Procset.pp winner stable_from
  | Winner_vacuous { crashed; t } -> Fmt.pf ppf "vacuous (%d crashes > t = %d)" crashed t
  | Winner_unstable why -> Fmt.pf ppf "UNSTABLE: %s" why
