module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Generators = Setsync_schedule.Generators
module Store = Setsync_memory.Store
module Run = Setsync_runtime.Run
module Executor = Setsync_runtime.Executor
module Explorer = Setsync_explore.Explorer
module Property = Setsync_explore.Property
module Systems = Setsync_explore.Systems
module Kanti_omega = Setsync_detector.Kanti_omega

(* ------------------------------------------ CT timeout detector SUT *)

type ct_obs = {
  leaders : Proc.t array;
  ct_rounds : int array;
  completed_start : int array;
  post_gst_end : int option array;
}

let ct_leader ?obs ?initial_timeout ?backoff ?gst_hint ~clients ~adversary () =
  Proc.check_n clients;
  let gst_hint = Option.value gst_hint ~default:adversary.Adversary.gst in
  {
    Explorer.n = clients;
    fresh =
      (fun ~store ->
        let net = Net.create ?obs ~store ~n:clients ~adversary () in
        let dets =
          Array.init clients (fun me ->
              Ct_detector.create ?initial_timeout ?backoff ~net ~clients ~me ~gst_hint ())
        in
        {
          Explorer.body = (fun p () -> Ct_detector.body dets.(p) ());
          observe =
            (fun () ->
              {
                leaders = Array.map Ct_detector.leader dets;
                ct_rounds = Array.map Ct_detector.rounds dets;
                completed_start = Array.map Ct_detector.completed_start dets;
                post_gst_end = Array.map Ct_detector.post_gst_end dets;
              });
          substrate = Some (Net.substrate net);
          machine = None;
        });
    obs_fingerprint =
      (fun o ->
        Fmt.str "%a|%a|%a|%a"
          Fmt.(array ~sep:semi int)
          o.leaders
          Fmt.(array ~sep:semi int)
          o.ct_rounds
          Fmt.(array ~sep:semi int)
          o.completed_start
          Fmt.(array ~sep:semi (option ~none:(any "-") int))
          o.post_gst_end);
  }

(* The stabilization claim, bounded: once every correct process has
   completed a round that started after everyone's first post-GST
   heartbeats had Δ ticks to land, all correct processes must agree on
   the smallest correct process as leader. Maximal prefixes that never
   reach that point (starved processes, too-small depth) satisfy the
   property vacuously — the bounded-exploration caveat of DESIGN.md §6
   applies; pick depths that let round-robin paths get there. *)
let ct_stabilized ~delta =
  Property.stabilization ~name:(Fmt.str "ct-stabilized(delta=%d)" delta) (fun st ->
      let o = st.Explorer.obs in
      let correct = Run.correct st.Explorer.run in
      let ready =
        Procset.for_all (fun p -> o.post_gst_end.(p) <> None) correct
        &&
        let horizon =
          Procset.fold
            (fun p acc ->
              match o.post_gst_end.(p) with Some e -> max e acc | None -> acc)
            correct 0
        in
        Procset.for_all (fun p -> o.completed_start.(p) >= horizon + delta) correct
      in
      if not ready then None
      else
        let expected = Procset.min_elt correct in
        let dissent =
          Procset.fold
            (fun p acc ->
              match acc with
              | Some _ -> acc
              | None -> if o.leaders.(p) <> expected then Some p else None)
            correct None
        in
        match dissent with
        | None -> None
        | Some p ->
            Some
              (Fmt.str "p%d trusts p%d as leader after stabilization, expected p%d"
                 (p + 1)
                 (o.leaders.(p) + 1)
                 (expected + 1)))

(* ----------------------------------------------- blind k-set SUT *)

let kset_blind ?obs ?rounds ~inputs ~adversary () =
  let clients = Array.length inputs in
  Proc.check_n clients;
  {
    Explorer.n = clients;
    fresh =
      (fun ~store ->
        let net = Net.create ?obs ~store ~n:clients ~adversary () in
        let solvers =
          Array.init clients (fun me ->
              Net_kset.create ?rounds ~net ~clients ~me ~input:inputs.(me) ())
        in
        {
          Explorer.body = (fun p () -> Net_kset.body solvers.(p) ());
          observe =
            (fun () -> { Systems.decisions = Array.map Net_kset.decision solvers });
          substrate = Some (Net.substrate net);
          machine = None;
        });
    obs_fingerprint =
      (fun o ->
        Fmt.str "%a"
          Fmt.(array ~sep:semi (option ~none:(any "-") int))
          o.Systems.decisions);
  }

(* ------------------------------- kanti_omega over routed registers *)

(* How many registers the detector allocates for these params — probed
   against a scratch store so the owner count can match. *)
let kanti_register_count params =
  let scratch = Store.create () in
  ignore (Kanti_omega.create_shared scratch params);
  Store.register_count scratch

(* --------------------------------------------- CLI / bench harness *)

type ct_run = {
  steps : int;
  stabilized_from : int option;
      (** first global step from which every leader equals the minimum
          correct process through the end of the run *)
  final_leaders : Proc.t array;
  net_stats : Net.stats;
}

let run_ct ?obs ?initial_timeout ?backoff ~clients ~adversary ~max_steps () =
  Proc.check_n clients;
  let gst_hint = adversary.Adversary.gst in
  let store = Store.create () in
  let net = Net.create ?obs ~store ~n:clients ~adversary () in
  let dets =
    Array.init clients (fun me ->
        Ct_detector.create ?initial_timeout ?backoff ~net ~clients ~me ~gst_hint ())
  in
  let expected = 0 in
  let last_bad = ref (-1) in
  let on_step ~global ~proc:_ =
    if Array.exists (fun d -> Ct_detector.leader d <> expected) dets then
      last_bad := global
  in
  let run =
    Executor.run ~n:clients
      ~source:(fun ~live -> Generators.round_robin ~live ~n:clients ())
      ~max_steps ~substrate:(Net.substrate net) ~on_step ?obs
      (fun p () -> Ct_detector.body dets.(p) ())
  in
  let steps = Run.total_steps run in
  let stabilized_from =
    if steps = 0 || !last_bad = steps - 1 then None else Some (!last_bad + 1)
  in
  (* Anchor the happens-before DAG: `trace-report` walks the critical
     path back from this event, whose [step] names the global step the
     stabilization claim holds from (and [proc] who took it). *)
  (match (obs, stabilized_from) with
  | Some o, Some s when Setsync_obs.Obs.events_on o ->
      let module Events = Setsync_obs.Events in
      let module Json = Setsync_obs.Json in
      Events.emit o.Setsync_obs.Obs.events
        ~proc:(Setsync_schedule.Schedule.get run.Run.taken s)
        ~args:[ ("step", Json.Int s); ("leader", Json.Int expected) ]
        ~ts:steps ~cat:"detector" "ct_stabilized"
  | _ -> ());
  {
    steps;
    stabilized_from;
    final_leaders = Array.map Ct_detector.leader dets;
    net_stats = Net.stats net;
  }
