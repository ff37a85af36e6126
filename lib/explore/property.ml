module Procset = Setsync_schedule.Procset
module Timeliness = Setsync_schedule.Timeliness

type kind = Safety | Stabilization

type 'state t = { name : string; kind : kind; check : 'state -> string option }

let safety ~name check = { name; kind = Safety; check }

let stabilization ~name check = { name; kind = Stabilization; check }

let distinct_decided decisions =
  Array.to_list decisions
  |> List.filter_map (fun d -> d)
  |> List.sort_uniq Int.compare

let kset_agreement ~k ~decisions =
  safety
    ~name:(Fmt.str "kset-agreement(k=%d)" k)
    (fun st ->
      let values = distinct_decided (decisions st) in
      if List.length values <= k then None
      else
        Some
          (Fmt.str "%d distinct values decided (%a), at most %d allowed"
             (List.length values)
             Fmt.(list ~sep:(any ", ") int)
             values k))

let validity ~inputs ~decisions =
  safety ~name:"validity" (fun st ->
      let bad = ref None in
      Array.iteri
        (fun p d ->
          match d with
          | Some v when !bad = None && not (Array.exists (Int.equal v) inputs) ->
              bad := Some (p, v)
          | Some _ | None -> ())
        (decisions st);
      match !bad with
      | None -> None
      | Some (p, v) -> Some (Fmt.str "p%d decided %d, which is nobody's input" (p + 1) v))

let set_timely ~p ~q ~bound ~schedule =
  safety
    ~name:(Fmt.str "set-timely(%a wrt %a, bound %d)" Procset.pp p Procset.pp q bound)
    (fun st ->
      let s = schedule st in
      if Timeliness.holds ~bound ~p ~q s then None
      else
        Some
          (Fmt.str "observed bound %d exceeds %d"
             (Timeliness.observed_bound ~p ~q s)
             bound))

let anti_omega_stabilized ~k ~outputs ~correct =
  stabilization
    ~name:(Fmt.str "anti-omega-stabilized(k=%d)" k)
    (fun st ->
      let outs = outputs st in
      let n = Array.length outs in
      let corr = correct st in
      let bad_size = ref None in
      Procset.iter
        (fun pr ->
          if !bad_size = None && Procset.cardinal outs.(pr) <> n - k then
            bad_size := Some pr)
        corr;
      match !bad_size with
      | Some pr ->
          Some
            (Fmt.str "output of p%d has %d members, expected n - k = %d" (pr + 1)
               (Procset.cardinal outs.(pr))
               (n - k))
      | None ->
          let witnessed =
            Procset.exists
              (fun w ->
                Procset.for_all (fun pr -> not (Procset.mem w outs.(pr))) corr)
              corr
          in
          if witnessed then None
          else
            Some
              "no correct process is outside every correct process's output at the \
               horizon")
