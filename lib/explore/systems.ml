module Procset = Setsync_schedule.Procset
module Machine = Setsync_runtime.Machine
module Kanti_omega = Setsync_detector.Kanti_omega
module Kset_solver = Setsync_agreement.Kset_solver

(* All n! renamings — the admissible group of a system with no
   process-distinguishing state (pause_procs). *)
let rec insert_everywhere x = function
  | [] -> [ [ x ] ]
  | y :: ys as l -> (x :: l) :: List.map (fun r -> y :: r) (insert_everywhere x ys)

let permutations n =
  let rec go = function
    | [] -> [ [] ]
    | x :: xs -> List.concat_map (insert_everywhere x) (go xs)
  in
  List.map Array.of_list (go (List.init n (fun i -> i)))

let pause_procs ~n =
  let step (acc : Machine.access) _ = acc.pause () in
  (* one group for every instance: per-state search builds an instance
     per visited state *)
  let perms = permutations n in
  {
    Explorer.n;
    fresh =
      (fun ~store:_ ->
        {
          Explorer.body = Machine.body step;
          observe = (fun () -> ());
          substrate = None;
          machine =
            (* a pause step touches no registers: an empty footprint,
               and nothing to save *)
            Some
              {
                Explorer.m_step = step Machine.direct;
                m_halted = (fun _ -> false);
                m_save = (fun () -> fun () -> ());
                m_payload = Some (fun ~perm:_ -> "");
                m_perms = perms;
              };
        });
    obs_fingerprint = (fun () -> "");
  }

type detector_obs = {
  fd_outputs : Procset.t array;
  winnersets : Procset.t array;
  iterations : int array;
}

let kanti_detector ~params ?initial_timeout () =
  Kanti_omega.check_params params;
  let n = params.Kanti_omega.n in
  {
    Explorer.n;
    fresh =
      (fun ~store ->
        let m =
          Kanti_omega.machine ?initial_timeout (Kanti_omega.create_shared store params) params
        in
        let procs = Kanti_omega.processes m in
        {
          Explorer.body = Machine.body (Kanti_omega.step m);
          observe =
            (fun () ->
              {
                fd_outputs = Array.map Kanti_omega.fd_output procs;
                winnersets = Array.map Kanti_omega.winnerset procs;
                iterations = Array.map Kanti_omega.iterations procs;
              });
          substrate = None;
          machine =
            Some
              {
                Explorer.m_step = Kanti_omega.step m Machine.direct;
                m_halted = (fun _ -> false);
                m_save = (fun () -> Kanti_omega.save m);
                m_payload = Some (fun ~perm:_ -> Kanti_omega.identity m);
                m_perms = [ Array.init n Fun.id ];
              };
        });
    obs_fingerprint =
      (fun obs ->
        Fmt.str "%a|%a|%a"
          Fmt.(array ~sep:semi Procset.pp)
          obs.fd_outputs
          Fmt.(array ~sep:semi Procset.pp)
          obs.winnersets
          Fmt.(array ~sep:semi int)
          obs.iterations);
  }

type kset_obs = { decisions : int option array }

let kset_agreement ~problem ~inputs ?initial_timeout () =
  let { Setsync_agreement.Problem.t; k; n } = problem in
  if k > t then invalid_arg "Systems.kset_agreement: requires k <= t (use Trivial when t < k)";
  {
    Explorer.n;
    fresh =
      (fun ~store ->
        let solver = Kset_solver.create store ~problem ~inputs ?initial_timeout () in
        let machine = Kset_solver.machine solver in
        {
          Explorer.body = Machine.body (Kset_solver.machine_step machine);
          observe = (fun () -> { decisions = Kset_solver.decisions solver });
          substrate = None;
          machine =
            Some
              {
                Explorer.m_step = Kset_solver.machine_step machine Machine.direct;
                m_halted = (fun _ -> false);
                m_save = (fun () -> Kset_solver.machine_save machine);
                m_payload = Some (fun ~perm:_ -> Kset_solver.identity machine);
                m_perms = [ Array.init n Fun.id ];
              };
        });
    obs_fingerprint =
      (fun obs ->
        Fmt.str "%a" Fmt.(array ~sep:semi (option ~none:(any "-") int)) obs.decisions);
  }
