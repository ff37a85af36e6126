module Procset = Setsync_schedule.Procset
module Store = Setsync_memory.Store
module Machine = Setsync_runtime.Machine
module Layout = Setsync_memory.Layout
module Kanti_omega = Setsync_detector.Kanti_omega
module Order_stat = Setsync_detector.Order_stat
module Explorer = Setsync_explore.Explorer
module Property = Setsync_explore.Property

type obs = {
  chosen : int array;
  chosen_acc : int array;
  min_acc : int array;
  iterations : int array;
}

let default_params = { Kanti_omega.n = 2; t = 1; k = 1 }

(* One process of the counter-logic copy. Unlike the full Figure 2
   implementation this keeps its own column of every counter row
   locally (only [proc] ever writes it) and runs heartbeat timers only
   for sets not containing itself, so an iteration is a handful of
   steps — small enough for shrunk counterexamples to stay readable. *)
type pstate = {
  proc : int;
  local_cnt : int array;  (** own column per set: Counter[A, proc] *)
  cnt : int array array;  (** last read rows *)
  acc : int array;  (** accusation per set, this iteration *)
  prev_hb : int array;
  timeout : int array;
  timer : int array;
}

(* Machine form: each PC value names the atomic just performed,
   carrying its pending result; resuming runs the local code that
   follows it up to and including the next atomic. *)
type pc =
  | Cnt of int * int * int  (** read [Counter[a][q]] = v; assignment pending *)
  | Hb of int * int  (** read [Heartbeat[q]] = v; refresh pending *)
  | Cnt_written of int  (** accused set [a] in the tick loop *)
  | Hb_written  (** wrote own [Heartbeat]: the iteration is over *)

let encode_pc sink = function
  | Cnt (a, q, v) ->
      Layout.put sink 0;
      Layout.put sink a;
      Layout.put sink q;
      Layout.put sink v
  | Hb (q, v) ->
      Layout.put sink 1;
      Layout.put sink q;
      Layout.put sink v
  | Cnt_written a ->
      Layout.put sink 2;
      Layout.put sink a
  | Hb_written -> Layout.put sink 3

let counter_core ?(bug = true) ?(initial_timeout = 1) ~params () =
  Kanti_omega.check_params params;
  if initial_timeout < 1 then
    invalid_arg "Fuzz_systems.counter_core: timeout must be >= 1";
  let { Kanti_omega.n; t; k } = params in
  let sets = Array.of_list (Procset.subsets_of_size ~n k) in
  let num_sets = Array.length sets in
  {
    Explorer.n;
    fresh =
      (fun ~store ->
        let heartbeat = Store.array store ~pp:Fmt.int ~name:"Heartbeat" n (fun _ -> 0) in
        let counter =
          Store.matrix store ~pp:Fmt.int ~name:"Counter" ~rows:num_sets ~cols:n
            (fun _ _ -> 0)
        in
        let o =
          {
            chosen = Array.make n 0;
            chosen_acc = Array.make n 0;
            min_acc = Array.make n 0;
            iterations = Array.make n 0;
          }
        in
        let procs =
          Array.init n (fun proc ->
              {
                proc;
                local_cnt = Array.make num_sets 0;
                cnt = Array.make_matrix num_sets n 0;
                acc = Array.make num_sets 0;
                prev_hb = Array.make n 0;
                timeout = Array.make num_sets initial_timeout;
                timer = Array.make num_sets initial_timeout;
              })
        in
        let my_hb = Array.make n 0 in
        (* accusation counters from row [a], column [q] on: own column
           from local state, the others read from shared memory (lines
           2-3 of Figure 2); the scan's end runs the selection *)
        let rec scan (m : Machine.access) p a q =
          if a = num_sets then select m p
          else if q = n then begin
            p.acc.(a) <- Order_stat.kth_smallest p.cnt.(a) (t + 1);
            scan m p (a + 1) 0
          end
          else if q = p.proc then begin
            p.cnt.(a).(q) <- p.local_cnt.(a);
            scan m p a (q + 1)
          end
          else Cnt (a, q, m.read counter.(a).(q))
        (* line 4, with the seeded off-by-one: the buggy scan stops one
           set short, so sets.(num_sets-1) can never win *)
        and select m p =
          let hi = if bug then num_sets - 2 else num_sets - 1 in
          let best = ref 0 in
          for a = 1 to hi do
            if p.acc.(a) < p.acc.(!best) then best := a
          done;
          o.chosen.(p.proc) <- !best;
          o.chosen_acc.(p.proc) <- p.acc.(!best);
          o.min_acc.(p.proc) <- Array.fold_left min p.acc.(0) p.acc;
          o.iterations.(p.proc) <- o.iterations.(p.proc) + 1;
          heartbeats m p 0
        (* heartbeat-refreshed timers for sets not containing self
           (lines 8-19, minus the vacuous self-set timers) *)
        and heartbeats m p q =
          if q = n then tick m p 0
          else if q = p.proc then heartbeats m p (q + 1)
          else Hb (q, m.read heartbeat.(q))
        and tick m p a =
          if a = num_sets then begin
            my_hb.(p.proc) <- my_hb.(p.proc) + 1;
            m.write heartbeat.(p.proc) my_hb.(p.proc);
            Hb_written
          end
          else if Procset.mem p.proc sets.(a) then tick m p (a + 1)
          else begin
            p.timer.(a) <- p.timer.(a) - 1;
            if p.timer.(a) = 0 then begin
              p.timeout.(a) <- p.timeout.(a) + 1;
              p.timer.(a) <- p.timeout.(a);
              p.local_cnt.(a) <- p.local_cnt.(a) + 1;
              m.write counter.(a).(p.proc) p.local_cnt.(a);
              Cnt_written a
            end
            else tick m p (a + 1)
          end
        in
        let step m p = function
          | None | Some Hb_written -> scan m p 0 0
          | Some (Cnt (a, q, v)) ->
              p.cnt.(a).(q) <- v;
              scan m p a (q + 1)
          | Some (Hb (q, hbq)) ->
              if hbq > p.prev_hb.(q) then begin
                for a = 0 to num_sets - 1 do
                  if Procset.mem q sets.(a) then p.timer.(a) <- p.timeout.(a)
                done;
                p.prev_hb.(q) <- hbq
              end;
              heartbeats m p (q + 1)
          | Some (Cnt_written a) -> tick m p (a + 1)
        in
        let pcs = Array.make n None in
        let layout = Layout.create "Fuzz_systems.counter_core" in
        Array.iter
          (fun p ->
            List.iter (Layout.ints layout) [ p.local_cnt; p.acc; p.prev_hb; p.timeout; p.timer ];
            Array.iter (Layout.ints layout) p.cnt)
          procs;
        List.iter (Layout.ints layout)
          [ my_hb; o.chosen; o.chosen_acc; o.min_acc; o.iterations ];
        Layout.values layout ~name:"pcs" pcs (Layout.option encode_pc);
        let machine_step acc p = pcs.(p) <- Some (step acc procs.(p) pcs.(p)) in
        {
          Explorer.body = Machine.body machine_step;
          observe =
            (fun () ->
              {
                chosen = Array.copy o.chosen;
                chosen_acc = Array.copy o.chosen_acc;
                min_acc = Array.copy o.min_acc;
                iterations = Array.copy o.iterations;
              });
          substrate = None;
          machine =
            Some
              {
                Explorer.m_step = machine_step Machine.direct;
                m_halted = (fun _ -> false);
                m_save = (fun () -> Layout.save layout);
                m_payload = None;
                m_perms = [ Array.init n Fun.id ];
              };
        });
    obs_fingerprint =
      (fun obs ->
        Fmt.str "%a|%a|%a|%a"
          Fmt.(array ~sep:semi int)
          obs.chosen
          Fmt.(array ~sep:semi int)
          obs.chosen_acc
          Fmt.(array ~sep:semi int)
          obs.min_acc
          Fmt.(array ~sep:semi int)
          obs.iterations);
  }

let winner_argmin () =
  Property.safety ~name:"winner-argmin" (fun (st : obs Explorer.state) ->
      let o = st.Explorer.obs in
      let bad = ref None in
      Array.iteri
        (fun p ca ->
          if !bad = None && ca > o.min_acc.(p) then
            bad :=
              Some
                (Fmt.str
                   "process %d chose set %d with accusation %d but the minimum is %d \
                    (after %d iterations)"
                   p o.chosen.(p) ca o.min_acc.(p) o.iterations.(p)))
        o.chosen_acc;
      !bad)
