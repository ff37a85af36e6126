(* Tests for the message-passing substrate: delivery semantics under
   Δ/GST, FIFO channels, substrate conformance on both backends,
   registers-over-messages, the CT timeout detector's stabilization,
   and the BRS-style k-set violations the fuzzer must find. *)

open Setsync_schedule
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Fault = Setsync_runtime.Fault
module Run = Setsync_runtime.Run
module Executor = Setsync_runtime.Executor
module Substrate = Setsync_runtime.Substrate
module Shm = Setsync_runtime.Shm
module Machine = Setsync_runtime.Machine
module Msg = Setsync_net.Msg
module Adversary = Setsync_net.Adversary
module Net = Setsync_net.Net
module Netmem = Setsync_net.Netmem
module Ct_detector = Setsync_net.Ct_detector
module Net_kset = Setsync_net.Net_kset
module Net_systems = Setsync_net.Net_systems
module Explorer = Setsync_explore.Explorer
module Property = Setsync_explore.Property
module Systems = Setsync_explore.Systems
module Kanti_omega = Setsync_detector.Kanti_omega
module Obs = Setsync_obs.Obs
module Events = Setsync_obs.Events
module Metrics = Setsync_obs.Metrics
module Json = Setsync_obs.Json
module Fuzz = Setsync_fuzz.Fuzz
module Problem = Setsync_agreement.Problem
module Ag_harness = Setsync_agreement.Ag_harness
module Net_agreement = Setsync_net.Net_agreement

(* ------------------------------------------------------ adversaries *)

let test_adversary_due () =
  (* [due_tick] is the delivery tick, [-1] for a drop *)
  (* pre-GST: drops allowed, deliveries capped at gst + delta *)
  let a =
    Adversary.make ~delta:2 ~gst:5 (fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Adversary.Deliver 50)
  in
  Alcotest.(check int) "pre-GST capped" 7 (Adversary.due_tick a ~now:0 ~src:0 ~dst:1 ~seq:0);
  (* post-GST: within delta, drops overridden *)
  let d = Adversary.gst_drop ~delta:2 ~gst:5 in
  Alcotest.(check int) "pre-GST dropped" (-1) (Adversary.due_tick d ~now:4 ~src:0 ~dst:1 ~seq:0);
  Alcotest.(check int) "post-GST synchronous" 6
    (Adversary.due_tick d ~now:5 ~src:0 ~dst:1 ~seq:0);
  let always_drop =
    Adversary.make ~delta:2 ~gst:5 (fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Adversary.Drop)
  in
  Alcotest.(check int) "post-GST drop overridden" 7
    (Adversary.due_tick always_drop ~now:5 ~src:0 ~dst:1 ~seq:0);
  let a2 =
    Adversary.make ~delta:3 ~gst:0 (fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Adversary.Deliver 50)
  in
  Alcotest.(check int) "post-GST capped at delta" 13
    (Adversary.due_tick a2 ~now:10 ~src:0 ~dst:1 ~seq:0);
  (* GST-never: no overflow, pre-GST forever *)
  let nv = Adversary.never ~delta:1 in
  Alcotest.(check int) "never delivers" (-1)
    (Adversary.due_tick nv ~now:(max_int - 1) ~src:0 ~dst:1 ~seq:0)

(* ------------------------------------------------------- delivery *)

(* p0 sends one heartbeat then pauses; p1 records (clock, src) of every
   message it ever receives. [at] is read in the same granted step as
   the recv it labels (pure code before the atomic), so it names the
   receiving step's clock; the recording itself runs at p1's next
   granted step, which the schedules below always include. *)
let one_shot_harness ~adversary ~schedule =
  let store = Store.create () in
  let net = Net.create ~store ~n:2 ~adversary () in
  let got = ref [] in
  let body p () =
    if p = 0 then begin
      Net.send net ~dst:1 Msg.Hb;
      while true do
        Net.pause net
      done
    end
    else
      while true do
        let at = Net.now net in
        let msgs = Net.recv net in
        List.iter (fun m -> got := (at, m.Msg.src) :: !got) msgs
      done
  in
  ignore
    (Executor.replay ~n:2 ~schedule:(Schedule.of_list ~n:2 schedule)
       ~substrate:(Net.substrate net) body);
  (Net.stats net, List.rev !got)

let test_synchronous_delivery () =
  (* sent at step 0, due at 1, received by the recv executed at step 1 *)
  let stats, got = one_shot_harness ~adversary:(Adversary.synchronous ~delta:1) ~schedule:[ 0; 1; 1 ] in
  Alcotest.(check (list (pair int int))) "received at clock 1" [ (1, 0) ] got;
  Alcotest.(check int) "sent" 1 stats.Net.sent;
  Alcotest.(check int) "delivered" 1 stats.Net.delivered;
  Alcotest.(check int) "in flight drained" 0 stats.Net.in_flight

let test_pre_gst_drop () =
  let stats, got =
    one_shot_harness ~adversary:(Adversary.gst_drop ~delta:1 ~gst:100)
      ~schedule:[ 0; 1; 1; 1; 1; 1 ]
  in
  Alcotest.(check (list (pair int int))) "nothing received" [] got;
  Alcotest.(check int) "dropped" 1 stats.Net.dropped;
  Alcotest.(check int) "not delivered" 0 stats.Net.delivered

let test_pre_gst_delay_capped () =
  (* adversary wants 50 ticks; the Δ/GST contract forces gst + delta = 7 *)
  let a = Adversary.make ~delta:2 ~gst:5 (fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Deliver 50) in
  let schedule = 0 :: List.init 12 (fun _ -> 1) in
  let _, got = one_shot_harness ~adversary:a ~schedule in
  Alcotest.(check (list (pair int int))) "received exactly at gst+delta" [ (7, 0) ] got

let test_fifo_no_overtaking () =
  (* second message is faster but must not overtake the first *)
  let a =
    Adversary.make ~delta:10 ~gst:0 (fun ~now:_ ~src:_ ~dst:_ ~seq ->
        if seq = 0 then Deliver 5 else Deliver 1)
  in
  let store = Store.create () in
  let net = Net.create ~store ~n:2 ~adversary:a () in
  let got = ref [] in
  let body p () =
    if p = 0 then begin
      Net.send net ~dst:1 (Msg.Value 1);
      Net.send net ~dst:1 (Msg.Value 2);
      while true do
        Net.pause net
      done
    end
    else
      while true do
        let at = Net.now net in
        let msgs = Net.recv net in
        List.iter
          (fun m ->
            match m.Msg.payload with
            | Msg.Value v -> got := (at, v, m.Msg.seq) :: !got
            | _ -> ())
          msgs
      done
  in
  let schedule = [ 0; 0 ] @ List.init 8 (fun _ -> 1) in
  ignore
    (Executor.replay ~n:2 ~schedule:(Schedule.of_list ~n:2 schedule)
       ~substrate:(Net.substrate net) body);
  (* msg 0 sent at 0 due 5; msg 1 sent at 1 wants due 2, clamped to 5 *)
  Alcotest.(check (list (triple int int int)))
    "same tick, FIFO order" [ (5, 1, 0); (5, 2, 1) ] (List.rev !got)

let test_authenticated_src () =
  (* src is stamped from the stepping process, whatever the sender claims *)
  let store = Store.create () in
  let net = Net.create ~store ~n:3 ~adversary:(Adversary.synchronous ~delta:1) () in
  let srcs = ref [] in
  let body p () =
    if p < 2 then begin
      Net.send net ~dst:2 Msg.Hb;
      while true do
        Net.pause net
      done
    end
    else
      while true do
        List.iter (fun m -> srcs := m.Msg.src :: !srcs) (Net.recv net)
      done
  in
  (* the extra p2 step lets the post-recv recording code run *)
  ignore
    (Executor.replay ~n:3 ~schedule:(Schedule.of_list ~n:3 [ 0; 1; 2; 2 ])
       ~substrate:(Net.substrate net) body);
  Alcotest.(check (list int)) "distinct stamped sources" [ 0; 1 ] (List.sort compare !srcs)

(* ------------------------------------- substrate conformance functor *)

(* One functor, both backends: whatever the medium, the substrate
   contract must hold — nobody vetoed at start, pre_step idempotent on
   a fresh instance, replay deterministic (same schedule, same run,
   same snapshot), and skipped steps don't consume budget. *)
module Conformance (B : sig
  val name : string

  (* fresh instance: substrate + store + a 2-process body that runs forever *)
  val make : unit -> Substrate.t * Store.t * (Proc.t -> unit -> unit)
end) =
struct
  let test_live_at_start () =
    let s, _, _ = B.make () in
    Alcotest.(check bool) "p0 live" true (Substrate.live s 0);
    Alcotest.(check bool) "p1 live" true (Substrate.live s 1)

  let run_once sched =
    let s, store, body = B.make () in
    let run = Executor.replay ~n:2 ~schedule:(Schedule.of_list ~n:2 sched) ~substrate:s body in
    (run, Store.snapshot store)

  let test_deterministic_replay () =
    let sched = [ 0; 1; 1; 0; 0; 1 ] in
    let r1, snap1 = run_once sched in
    let r2, snap2 = run_once sched in
    Alcotest.(check int) "same steps" (Run.total_steps r1) (Run.total_steps r2);
    Alcotest.(check bool) "same snapshot" true (snap1 = snap2)

  let test_crash_veto_composes () =
    (* fault kills p0 after 1 step; its later schedule entries are
       skipped without consuming budget, on any substrate *)
    let s, _, body = B.make () in
    let run =
      Executor.replay ~n:2
        ~schedule:(Schedule.of_list ~n:2 [ 0; 0; 0; 1; 1 ])
        ~fault:[ (0, 1) ] ~substrate:s body
    in
    Alcotest.(check int) "p0 stepped once" 1 run.Run.steps_of.(0);
    Alcotest.(check int) "p1 stepped twice" 2 run.Run.steps_of.(1);
    Alcotest.(check bool) "crash recorded" true (Procset.mem 0 (Run.crashed run))

  let tests =
    [
      Alcotest.test_case (B.name ^ ": live at start") `Quick test_live_at_start;
      Alcotest.test_case (B.name ^ ": deterministic replay") `Quick test_deterministic_replay;
      Alcotest.test_case (B.name ^ ": crash veto composes") `Quick test_crash_veto_composes;
    ]
end

module Shm_conf = Conformance (struct
  let name = "shm"

  let make () =
    let store = Store.create () in
    let r = Store.array store ~pp:Fmt.int ~name:"R" 2 (fun _ -> 0) in
    let body p () =
      let i = ref 0 in
      while true do
        incr i;
        Shm.write r.(p) !i
      done
    in
    (Substrate.shm ~store, store, body)
end)

module Net_conf = Conformance (struct
  let name = "net"

  let make () =
    let store = Store.create () in
    let net = Net.create ~store ~n:2 ~adversary:(Adversary.gst_drop ~delta:2 ~gst:3) () in
    let body p () =
      while true do
        Net.send net ~dst:(1 - p) Msg.Hb;
        ignore (Net.recv net)
      done
    in
    (Net.substrate net, store, body)
end)

(* ------------------------------------------- indexed flush vs a scan *)

(* The network as a full scan: every channel visited on every step,
   the due part split off with [List.partition], the FIFO clamp read
   off the reversed queue. [Net] keeps a live-channel index instead;
   this is the model it must agree with, register for register. *)
module Scan_net = struct
  type t = {
    n : int;
    adversary : Adversary.t;
    chans : (int * Msg.t) list array array;
    inboxes : Msg.t list array;
    mutable clock : int;
    seqs : int array array;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable in_flight : int;
  }

  (* how often the FIFO clamp and the model's delay caps fired, across
     every network and restore *)
  let clamped = ref 0
  let capped = ref 0

  let create ~n ~adversary =
    {
      n;
      adversary;
      chans = Array.make_matrix n n [];
      inboxes = Array.make n [];
      clock = 0;
      seqs = Array.make_matrix n n 0;
      sent = 0;
      delivered = 0;
      dropped = 0;
      in_flight = 0;
    }

  let copy t =
    {
      t with
      chans = Array.map Array.copy t.chans;
      inboxes = Array.copy t.inboxes;
      seqs = Array.map Array.copy t.seqs;
    }

  let enqueue t ~src ~dst payload =
    let seq = t.seqs.(src).(dst) in
    t.seqs.(src).(dst) <- seq + 1;
    let m = { Msg.mid = t.sent; src; dst; seq; sent_at = t.clock; payload } in
    t.sent <- t.sent + 1;
    let v = Adversary.due_explained t.adversary ~now:t.clock ~src ~dst ~seq in
    if v.Adversary.denied > 0 then incr capped;
    match v.Adversary.due_at with
    | None -> t.dropped <- t.dropped + 1
    | Some at0 ->
        let q = t.chans.(src).(dst) in
        let at = match List.rev q with [] -> at0 | (tail, _) :: _ -> max at0 tail in
        if at > at0 then incr clamped;
        t.chans.(src).(dst) <- q @ [ (at, m) ];
        t.in_flight <- t.in_flight + 1

  let flush t ~clock =
    t.clock <- clock;
    for src = 0 to t.n - 1 do
      for dst = 0 to t.n - 1 do
        let due, rest = List.partition (fun (at, _) -> at <= clock) t.chans.(src).(dst) in
        if due <> [] then begin
          t.chans.(src).(dst) <- rest;
          t.inboxes.(dst) <- t.inboxes.(dst) @ List.map snd due;
          t.delivered <- t.delivered + List.length due;
          t.in_flight <- t.in_flight - List.length due
        end
      done
    done

  let servable t ~dst ~at =
    t.inboxes.(dst) <> []
    || Array.exists (fun row -> match row.(dst) with (h, _) :: _ -> h <= at | [] -> false) t.chans

  let pp_entry ppf (at, m) = Fmt.pf ppf "%d>%a" at Msg.pp m

  (* what [Store.snapshot] shows of a store holding only this network *)
  let snapshot t =
    let chans =
      List.concat
        (List.init t.n (fun i ->
             List.init t.n (fun j ->
                 ( Printf.sprintf "Chan[%d][%d]" i j,
                   Fmt.str "%a" Fmt.(brackets (list ~sep:comma pp_entry)) t.chans.(i).(j) ))))
    in
    let inboxes =
      List.init t.n (fun i ->
          ( Printf.sprintf "Inbox[%d]" i,
            Fmt.str "%a" Fmt.(brackets (list ~sep:comma Msg.pp)) t.inboxes.(i) ))
    in
    chans @ inboxes @ [ ("NetClock", string_of_int t.clock) ]

  let stats t =
    { Net.sent = t.sent; delivered = t.delivered; dropped = t.dropped; in_flight = t.in_flight }
end

(* Seeded random senders over n = 3..6 under an adversary mixing
   delays, drops and pre/post-GST sends, with random savepoints taken
   and restored: after every flush and every action, the registers,
   the stats and [servable] for every destination match the scan. *)
let test_indexed_flush_matches_scan () =
  let restores = ref 0 in
  List.iter
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let delta = 1 + Random.State.int rng 3 and gst = 10 + Random.State.int rng 40 in
      let decide ~now ~src ~dst ~seq =
        let h = Hashtbl.hash (seed, now, src, dst, seq) in
        if h mod 5 = 0 then Adversary.Drop else Adversary.Deliver (1 + (h / 5 mod (gst / 2)))
      in
      let adversary = Adversary.make ~delta ~gst decide in
      let store = Store.create () in
      let net = Net.create ~store ~n ~adversary () in
      let s = Net.substrate net in
      let scan = ref (Scan_net.create ~n ~adversary) in
      let check what g =
        let label = Printf.sprintf "n=%d seed=%d step %d %s" n seed g what in
        Alcotest.(check (list (pair string string)))
          (label ^ ": registers") (Scan_net.snapshot !scan) (Store.snapshot store);
        let st = Net.stats net and want = Scan_net.stats !scan in
        Alcotest.(check (list int))
          (label ^ ": stats")
          [ want.Net.sent; want.Net.delivered; want.Net.dropped; want.Net.in_flight ]
          [ st.Net.sent; st.Net.delivered; st.Net.dropped; st.Net.in_flight ];
        for dst = 0 to n - 1 do
          List.iter
            (fun at ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: servable dst=%d at=%d" label dst at)
                (Scan_net.servable !scan ~dst ~at) (Net.servable net ~dst ~at))
            [ g; g + 1; g + delta; gst + delta ]
        done
      in
      let saves = ref [] in
      for g = 0 to 2 * gst do
        let p = Random.State.int rng n in
        Substrate.pre_step s ~global:g ~proc:p;
        Scan_net.flush !scan ~clock:g;
        check "after flush" g;
        for _ = 1 to Random.State.int rng 4 do
          let dst = Random.State.int rng n and payload = Msg.Value (Random.State.int rng 100) in
          Net.send_now net ~src:p ~dst payload;
          Scan_net.enqueue !scan ~src:p ~dst payload
        done;
        if Random.State.int rng 3 = 0 then begin
          ignore (Net.drain_now net p);
          !scan.Scan_net.inboxes.(p) <- []
        end;
        check "after sends" g;
        match (Random.State.int rng 8, !saves) with
        | 0, _ -> saves := (Store.save store, Substrate.save s, Scan_net.copy !scan) :: !saves
        | 1, (_ :: _ as sp) ->
            let restore_store, restore_net, saved = List.nth sp (Random.State.int rng (List.length sp)) in
            restore_store ();
            restore_net ();
            scan := Scan_net.copy saved;
            incr restores;
            check "after restore" g
        | _ -> ()
      done)
    [ (3, 1); (3, 2); (4, 3); (4, 4); (5, 5); (5, 6); (6, 7); (6, 8) ];
  Alcotest.(check bool) "FIFO clamps fired" true (!Scan_net.clamped > 0);
  Alcotest.(check bool) "delay caps fired" true (!Scan_net.capped > 0);
  Alcotest.(check bool) "savepoints restored" true (!restores > 0)

(* ------------------------------------------- registers over messages *)

(* One client, one owner: write 42 then read it back. Under the
   synchronous adversary each op is exactly three steps — client send,
   owner serve, client recv — so write is global steps 0-2, read is
   3-5, and step 6 (a pause) lets the client's post-recv code record
   the value it read. *)
let test_netmem_write_read () =
  let store = Store.create () in
  let net = Net.create ~store ~n:2 ~adversary:(Adversary.synchronous ~delta:1) () in
  let nm = Netmem.install ~net ~store ~clients:1 ~owners:1 () in
  let reg = Store.register store ~pp:Fmt.int ~name:"X" 0 in
  let seen = ref None in
  let body p () =
    if p = 0 then begin
      Shm.write reg 42;
      seen := Some (Shm.read reg);
      while true do
        Net.pause net
      done
    end
    else Netmem.owner_body nm p ()
  in
  let sched = [ 0; 1; 0; 0; 1; 0; 0 ] in
  let run =
    Executor.replay ~n:2 ~schedule:(Schedule.of_list ~n:2 sched) ~substrate:(Net.substrate net)
      body
  in
  Alcotest.(check (option int)) "read own write" (Some 42) !seen;
  Alcotest.(check int) "cell holds the value" 42 (Register.peek reg);
  Alcotest.(check int) "authoritative write counted once" 1 (Register.writes reg);
  Alcotest.(check int) "authoritative read counted once" 1 (Register.reads reg);
  Alcotest.(check int) "7 scheduled steps" 7 (Run.total_steps run)

let test_netmem_owner_mapping () =
  let store = Store.create () in
  let net = Net.create ~store ~n:5 ~adversary:(Adversary.synchronous ~delta:1) () in
  let nm = Netmem.install ~net ~store ~clients:2 ~owners:3 () in
  let regs = Store.array store ~pp:Fmt.int ~name:"Y" 4 (fun _ -> 0) in
  let owners =
    Array.to_list regs
    |> List.map (fun r ->
           match Netmem.owner_of_name nm (Register.name r) with
           | Some o -> o
           | None -> Alcotest.fail "register not routed")
  in
  List.iter
    (fun o -> Alcotest.(check bool) "owner in owner range" true (o >= 2 && o < 5))
    owners;
  (* consecutive rids shard round-robin across the three owners *)
  Alcotest.(check int) "4 registers, 3 distinct owners" 3
    (List.length (List.sort_uniq compare owners))

(* A resend period below one tick would retransmit every unanswered
   request on every pump, so install refuses it. *)
let test_netmem_resend_after_positive () =
  List.iter
    (fun r ->
      let store = Store.create () in
      let net = Net.create ~store ~n:2 ~adversary:(Adversary.synchronous ~delta:1) () in
      Alcotest.check_raises
        (Printf.sprintf "resend_after %d" r)
        (Invalid_argument "Netmem.install: resend_after must be >= 1")
        (fun () -> ignore (Netmem.install ~resend_after:r ~net ~store ~clients:1 ~owners:1 ())))
    [ 0; -1 ]

(* -------------------------------------- cross-backend equivalence *)

(* Replay the unchanged k-anti-Ω detector on shared memory, recording
   which register each step touched; expand every step [p] into
   [p; owner; p] and run the same detector over message-served
   registers on that schedule. Detector outputs must match exactly. *)
let test_kanti_cross_backend () =
  let params = { Kanti_omega.n = 2; t = 1; k = 1 } in
  let shm_len = 40 in
  (* shared-memory run, noting one register access per step *)
  let last = ref (-1) in
  let store = Store.create ~hook:(fun id _ -> last := id) () in
  let shared = Kanti_omega.create_shared store params in
  let machine = Kanti_omega.machine shared params in
  let procs = Kanti_omega.processes machine in
  (* register ids are allocation indices, the snapshot's order *)
  let names = Array.of_list (List.map fst (Store.snapshot store)) in
  let sched = Schedule.to_list (Source.take (Generators.round_robin ~n:2 ()) shm_len) in
  let touched = Array.make shm_len "" in
  let on_step ~global ~proc:_ =
    if !last < 0 then Alcotest.fail "step without register access";
    touched.(global) <- names.(!last)
  in
  ignore
    (Executor.replay ~n:2 ~schedule:(Schedule.of_list ~n:2 sched) ~on_step
       (Machine.body (Kanti_omega.step machine)));
  let shm_obs p = (Kanti_omega.fd_output p, Kanti_omega.winnerset p, Kanti_omega.iterations p) in
  let expect = Array.map shm_obs procs in
  (* net run over routed registers *)
  let owners = Net_systems.kanti_register_count params in
  let total = 2 + owners in
  let store2 = Store.create () in
  let net = Net.create ~store:store2 ~n:total ~adversary:(Adversary.synchronous ~delta:1) () in
  let nm = Netmem.install ~net ~store:store2 ~clients:2 ~owners () in
  let shared2 = Kanti_omega.create_shared store2 params in
  let machine2 = Kanti_omega.machine shared2 params in
  let procs2 = Kanti_omega.processes machine2 in
  let expanded =
    List.concat
      (List.mapi
         (fun i p ->
           match Netmem.owner_of_name nm touched.(i) with
           | Some o -> [ p; o; p ]
           | None -> Alcotest.fail ("no owner for " ^ touched.(i)))
         sched)
  in
  let run =
    Executor.replay ~n:total
      ~schedule:(Schedule.of_list ~n:total expanded)
      ~substrate:(Net.substrate net)
      (fun p () ->
        if p < 2 then Machine.body (Kanti_omega.step machine2) p ()
        else Netmem.owner_body nm p ())
  in
  Alcotest.(check int) "3x the steps" (3 * shm_len) (Run.total_steps run);
  Array.iteri
    (fun p (fd, ws, iters) ->
      let fd2, ws2, iters2 = shm_obs procs2.(p) in
      Alcotest.(check bool) "fd_output equal" true (Procset.equal fd fd2);
      Alcotest.(check bool) "winnerset equal" true (Procset.equal ws ws2);
      Alcotest.(check int) "iterations equal" iters iters2)
    expect

(* --------------------------------------------- CT timeout detector *)

let test_ct_stabilizes_after_gst () =
  (* initial_timeout 2 makes the pre-GST silence cause a real false
     suspicion, which post-GST heartbeats must undo *)
  let adversary = Adversary.gst_drop ~delta:1 ~gst:4 in
  let r = Net_systems.run_ct ~initial_timeout:2 ~clients:2 ~adversary ~max_steps:40 () in
  Alcotest.(check bool) "stabilized" true (r.Net_systems.stabilized_from <> None);
  Alcotest.(check (list int)) "everyone trusts p0" [ 0; 0 ]
    (Array.to_list r.Net_systems.final_leaders);
  (match r.Net_systems.stabilized_from with
  | Some s -> Alcotest.(check bool) "suspicion actually happened" true (s > 0)
  | None -> ());
  Alcotest.(check bool) "pre-GST messages were dropped" true (r.Net_systems.net_stats.Net.dropped > 0)

let test_ct_property_positive () =
  let adversary = Adversary.gst_drop ~delta:1 ~gst:4 in
  let sut = Net_systems.ct_leader ~clients:2 ~adversary () in
  let property = Net_systems.ct_stabilized ~delta:1 in
  (* the round-robin maximal prefix at depth 14 is ready and correct *)
  let rr = Source.take (Generators.round_robin ~n:2 ()) 14 in
  let st = Explorer.evaluate ~sut rr in
  let o = st.Explorer.obs in
  Alcotest.(check bool) "readiness is reachable in bound" true
    (Array.for_all (fun x -> x <> None) o.Net_systems.post_gst_end);
  Alcotest.(check (option string)) "round robin conforms" None (property.Property.check st);
  (* and no maximal prefix within the bound refutes stabilization *)
  let report =
    Explorer.explore ~sut ~properties:[ property ]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~depth:14 ())
  in
  (match report.Explorer.verdicts with
  | [ (_, Explorer.Ok_bounded) ] -> ()
  | [ (_, v) ] -> Alcotest.failf "expected Ok_bounded, got %a" Explorer.pp_verdict v
  | _ -> Alcotest.fail "one verdict expected")

let test_ct_property_negative_control () =
  (* network that never honours the claimed GST: the property must
     have teeth and report a violation *)
  let adversary = Adversary.never ~delta:1 in
  let sut = Net_systems.ct_leader ~clients:2 ~adversary ~gst_hint:4 () in
  let property = Net_systems.ct_stabilized ~delta:1 in
  let rr = Source.take (Generators.round_robin ~n:2 ()) 14 in
  (match Explorer.check_schedule ~sut ~property rr with
  | Some _ -> ()
  | None -> Alcotest.fail "drop-everything network passed the stabilization check");
  let report =
    Explorer.explore ~sut ~properties:[ property ]
      (Explorer.config ~prune_fingerprints:false ~sleep_sets:false ~depth:14 ())
  in
  match report.Explorer.verdicts with
  | [ (_, Explorer.Violated _) ] -> ()
  | [ (_, v) ] -> Alcotest.failf "expected Violated, got %a" Explorer.pp_verdict v
  | _ -> Alcotest.fail "one verdict expected"

(* ------------------------------------------------ BRS k-set breakage *)

let kset_inputs = [| 0; 10; 20 |]

let kset_groups = [ [ 0 ]; [ 1; 2 ] ]

let kset_adversary = Adversary.partition ~delta:1 ~gst:9 ~groups:kset_groups

let brs_burst_schedule =
  Source.take (Generators.net_adversary ~n:3 ~groups:[ [ 1; 2 ]; [ 0 ] ] ~burst:7 ()) 21

let run_kset schedule =
  let store = Store.create () in
  let net = Net.create ~store ~n:3 ~adversary:kset_adversary () in
  let solvers =
    Array.init 3 (fun me -> Net_kset.create ~net ~clients:3 ~me ~input:kset_inputs.(me) ())
  in
  ignore
    (Executor.replay ~n:3 ~schedule ~substrate:(Net.substrate net) (fun p () ->
         Net_kset.body solvers.(p) ()));
  Array.map Net_kset.decision solvers

let test_brs_burst_violates () =
  let decisions = run_kset brs_burst_schedule in
  let distinct =
    Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq compare
  in
  Alcotest.(check bool) "everyone decided" true (Array.for_all (fun d -> d <> None) decisions);
  Alcotest.(check bool) "more than k=1 distinct decisions" true (List.length distinct > 1)

let test_round_robin_agrees () =
  let decisions = run_kset (Source.take (Generators.round_robin ~n:3 ()) 21) in
  Alcotest.(check (list (option int))) "all decide the global minimum"
    [ Some 0; Some 0; Some 0 ] (Array.to_list decisions)

let test_fuzzer_finds_brs_violation () =
  let sut = Net_systems.kset_blind ~inputs:kset_inputs ~adversary:kset_adversary () in
  let property =
    Property.kset_agreement ~k:1 ~decisions:(fun st -> st.Explorer.obs.Systems.decisions)
  in
  let report =
    Fuzz.run ~len:21 ~seeds:[ brs_burst_schedule ]
      ~limits:(Setsync_explore.Budget.limits ~max_states:50 ())
      ~sut ~properties:[ property ] ~seed:7 ()
  in
  match report.Fuzz.outcome with
  | Fuzz.Passed -> Alcotest.fail "fuzzer missed the seeded BRS violation"
  | Fuzz.Violation v ->
      Alcotest.(check bool) "shrunk no longer than found" true
        (Schedule.length v.Fuzz.shrunk <= Schedule.length v.Fuzz.found);
      (* the shrunk schedule still violates on replay *)
      let decisions = run_kset v.Fuzz.shrunk in
      let distinct =
        Array.to_list decisions |> List.filter_map Fun.id |> List.sort_uniq compare
      in
      Alcotest.(check bool) "shrunk reproduces" true (List.length distinct > 1)

(* --------------------------------------- batched routing and rounds *)

(* Regression for the wait-loop discard bug: a heartbeat sitting in the
   client's inbox next to a routed reply must survive the reply wait
   and still be returned by a later [Net.recv]. The old loop drained
   the inbox and kept only the awaited reply, silently eating
   everything else. p1 sends the heartbeat at step 0 so it is in p0's
   inbox before the write's ack arrives. *)
let test_per_op_pushback () =
  let store = Store.create () in
  let net = Net.create ~store ~n:3 ~adversary:(Adversary.synchronous ~delta:1) () in
  let nm = Netmem.install ~net ~store ~clients:2 ~owners:1 () in
  let reg = Store.register store ~pp:Fmt.int ~name:"X" 0 in
  let got_hb = ref None in
  let body p () =
    match p with
    | 0 ->
        Shm.write reg 42;
        let rec recv_one () =
          match Net.recv net with [] -> recv_one () | m :: _ -> m
        in
        got_hb := Some (recv_one ()).Msg.payload;
        while true do
          Net.pause net
        done
    | 1 ->
        Net.send net ~dst:0 Msg.Hb;
        while true do
          Net.pause net
        done
    | _ -> Netmem.owner_body nm p ()
  in
  ignore
    (Executor.replay ~n:3
       ~schedule:(Schedule.of_list ~n:3 [ 1; 0; 2; 0; 0; 0; 0 ])
       ~substrate:(Net.substrate net) body);
  Alcotest.(check int) "routed write applied" 42 (Register.peek reg);
  (match !got_hb with
  | Some Msg.Hb -> ()
  | Some _ -> Alcotest.fail "recv returned something other than the heartbeat"
  | None -> Alcotest.fail "heartbeat was eaten by the reply wait loop")

(* Batched mode: several routed ops in flight on one client — two
   writes and two reads against distinct registers behind one owner —
   must all complete, in program order, under the clients-only source
   with the round policy supplying every owner turn. *)
let test_batched_interleaved () =
  let store = Store.create () in
  let net = Net.create ~store ~n:2 ~adversary:(Adversary.synchronous ~delta:1) () in
  let nm = Netmem.install ~mode:Netmem.Batched ~net ~store ~clients:1 ~owners:1 () in
  let x = Store.register store ~pp:Fmt.int ~name:"X" 0 in
  let y = Store.register store ~pp:Fmt.int ~name:"Y" 0 in
  let seen = ref None in
  let finished = ref false in
  let body p () =
    if p = 0 then begin
      Shm.write x 7;
      Shm.write y 9;
      let a = Shm.read x in
      let b = Shm.read y in
      seen := Some (a, b);
      finished := true;
      while true do
        Shm.pause ()
      done
    end
    else Netmem.owner_body nm p ()
  in
  let source ~live:_ = Source.make ~n:2 (fun () -> Some 0) in
  ignore
    (Executor.run ~n:2 ~source ~max_steps:200 ~boost:(Netmem.round_policy nm)
       ~substrate:(Net.substrate net)
       ~stop:(fun () -> !finished)
       body);
  Alcotest.(check bool) "client finished" true !finished;
  Alcotest.(check (option (pair int int))) "both reads see their writes" (Some (7, 9)) !seen;
  Alcotest.(check int) "all four routed ops completed" 4 (Netmem.ops_completed nm)

(* The round-batching acceptance bound, in miniature: 50 write+read
   iterations against one owner must amortize to <= 1.5 executed steps
   per routed op, boosted owner serves included (the bench's C=1 row
   measures ~1.0; per-op mode costs 3 by construction). *)
let test_batched_step_cost () =
  let store = Store.create () in
  let net = Net.create ~store ~n:2 ~adversary:(Adversary.synchronous ~delta:1) () in
  let nm = Netmem.install ~mode:Netmem.Batched ~net ~store ~clients:1 ~owners:1 () in
  let x = Store.register store ~pp:Fmt.int ~name:"X" 0 in
  let finished = ref false in
  let body p () =
    if p = 0 then begin
      for i = 1 to 50 do
        Shm.write x i;
        ignore (Shm.read x)
      done;
      finished := true;
      while true do
        Shm.pause ()
      done
    end
    else Netmem.owner_body nm p ()
  in
  let source ~live:_ = Source.make ~n:2 (fun () -> Some 0) in
  let run =
    Executor.run ~n:2 ~source ~max_steps:2_000 ~boost:(Netmem.round_policy nm)
      ~substrate:(Net.substrate net)
      ~stop:(fun () -> !finished)
      body
  in
  Alcotest.(check int) "100 routed ops" 100 (Netmem.ops_completed nm);
  Alcotest.(check bool)
    (Printf.sprintf "%d steps for 100 ops stays under 1.5/op" (Run.total_steps run))
    true
    (Run.total_steps run <= 150)

(* Owner crash mid-round: a step budget of 1 lets the owner serve the
   first read, then it crashes; the client's next read must surface
   [Unserved] after [max_wait] empty spins instead of wedging the run
   against max_steps. *)
let test_batched_owner_crash () =
  let store = Store.create () in
  let net = Net.create ~store ~n:2 ~adversary:(Adversary.synchronous ~delta:1) () in
  let nm =
    Netmem.install ~mode:Netmem.Batched ~max_wait:8 ~net ~store ~clients:1 ~owners:1 ()
  in
  let x = Store.register store ~pp:Fmt.int ~name:"X" 5 in
  let first = ref None in
  let escaped = ref false in
  let finished = ref false in
  let body p () =
    if p = 0 then begin
      first := Some (Shm.read x);
      (try ignore (Shm.read x)
       with Netmem.Unserved _ -> escaped := true);
      finished := true;
      while true do
        Shm.pause ()
      done
    end
    else Netmem.owner_body nm p ()
  in
  let source ~live:_ = Source.make ~n:2 (fun () -> Some 0) in
  let run =
    Executor.run ~n:2 ~source ~max_steps:100 ~fault:[ (1, 1) ]
      ~boost:(Netmem.round_policy nm) ~substrate:(Net.substrate net)
      ~stop:(fun () -> !finished)
      body
  in
  Alcotest.(check (option int)) "first read served before the crash" (Some 5) !first;
  Alcotest.(check bool) "second read raised Unserved" true !escaped;
  Alcotest.(check bool) "run ended without wedging" true (Run.total_steps run < 100)

(* An op given up with [Unserved] is withdrawn in both modes: it is
   not retransmitted to its dead owner, and in batched mode it no
   longer holds the owner-change barrier, so the client's next read —
   bound to a live owner — goes out and completes. The only traffic
   after the give-up is that read's request and its reply. *)
let test_given_up_op_withdrawn () =
  List.iter
    (fun (label, mode) ->
      let store = Store.create () in
      let net = Net.create ~store ~n:3 ~adversary:(Adversary.synchronous ~delta:1) () in
      let nm =
        Netmem.install ~mode ~resend_after:4 ~max_wait:8 ~net ~store ~clients:1 ~owners:2 ()
      in
      let x = Store.register store ~pp:Fmt.int ~name:"X" 5 in
      let y = Store.register store ~pp:Fmt.int ~name:"Y" 7 in
      let dead = Option.get (Netmem.owner_of_name nm "X") in
      Alcotest.(check bool) (label ^ ": X and Y on different owners") true
        (Netmem.owner_of_name nm "Y" <> Some dead);
      let gave_up = ref false and second = ref None and sent_after = ref (-1) in
      let body p () =
        if p = 0 then begin
          (try ignore (Shm.read x) with Netmem.Unserved _ -> gave_up := true);
          let s0 = (Net.stats net).Net.sent in
          second := Some (Shm.read y);
          sent_after := (Net.stats net).Net.sent - s0;
          while true do
            Shm.pause ()
          done
        end
        else Netmem.owner_body nm p ()
      in
      ignore
        (Executor.run ~n:3
           ~source:(fun ~live -> Generators.round_robin ~live ~n:3 ())
           ~max_steps:200 ~fault:[ (dead, 0) ] ~boost:(Netmem.round_policy nm)
           ~substrate:(Net.substrate net)
           ~stop:(fun () -> !second <> None)
           body);
      Alcotest.(check bool) (label ^ ": read of X gave up") true !gave_up;
      Alcotest.(check (option int)) (label ^ ": read of Y served") (Some 7) !second;
      Alcotest.(check int) (label ^ ": only Y's request and reply after the give-up") 2
        !sent_after)
    [ ("per-op", Netmem.Per_op); ("batched", Netmem.Batched) ]

(* Regression for the resend write-reorder bug: with retransmission
   on, W1 and W2 to one owner are both unacked in flight; the
   adversary drops W1's first copy, the owner applies W2, and W1's
   resent copy arrives after — FIFO does not order a retransmission
   relative to messages sent in between, so the owner must re-ack the
   stale tag WITHOUT applying it, or the register regresses to the
   overwritten value after every op was acked. *)
let test_resend_does_not_regress () =
  let store = Store.create () in
  let adversary =
    Adversary.make ~name:"drop-first-req" ~delta:1 ~gst:1000
      (fun ~now:_ ~src ~dst ~seq ->
        if src = 0 && dst = 1 && seq = 0 then Adversary.Drop else Adversary.Deliver 1)
  in
  let net = Net.create ~store ~n:2 ~adversary () in
  let nm =
    Netmem.install ~mode:Netmem.Batched ~resend_after:3 ~net ~store ~clients:1 ~owners:1 ()
  in
  let x = Store.register store ~pp:Fmt.int ~name:"X" 0 in
  let seen = ref None in
  let body p () =
    if p = 0 then begin
      Shm.write x 1;
      Shm.write x 2;
      seen := Some (Shm.read x);
      while true do
        Shm.pause ()
      done
    end
    else Netmem.owner_body nm p ()
  in
  (* round robin, not clients-only: the resent W1 lands after the read
     unparked the client, so the owner needs turns the blocked-only
     round policy no longer boosts *)
  ignore
    (Executor.run ~n:2
       ~source:(fun ~live -> Generators.round_robin ~live ~n:2 ())
       ~max_steps:200 ~boost:(Netmem.round_policy nm) ~substrate:(Net.substrate net)
       ~stop:(fun () -> Netmem.ops_completed nm = 3)
       body);
  Alcotest.(check int) "all three routed ops completed" 3 (Netmem.ops_completed nm);
  Alcotest.(check (option int)) "read sees the later write" (Some 2) !seen;
  Alcotest.(check int) "register did not regress to the resent W1" 2 (Register.peek x);
  Alcotest.(check int) "stale resend was not applied" 1 (Register.writes x)

(* ------------------------------------------ combined crash+loss plan *)

let test_crash_brs_shape () =
  let c = Adversary.crash_brs ~delta:2 ~gst:10 ~total:5 ~k:2 ~crashes:[ (3, 4) ] in
  Alcotest.(check (list (pair int int))) "crash plan passes through" [ (3, 4) ]
    c.Adversary.fault;
  (* groups are p mod (k+1): {0,3} {1,4} {2} — same-group traffic
     flows pre-GST, cross-group is silenced, everything flows post-GST
     within delta *)
  let due ~now ~src ~dst = Adversary.due_tick c.Adversary.adversary ~now ~src ~dst ~seq:0 in
  Alcotest.(check bool) "same group delivers pre-GST" true (due ~now:0 ~src:0 ~dst:3 >= 0);
  Alcotest.(check int) "cross group dropped pre-GST" (-1) (due ~now:0 ~src:0 ~dst:1);
  (match due ~now:10 ~src:0 ~dst:1 with
  | -1 -> Alcotest.fail "cross-group message dropped after GST"
  | at -> Alcotest.(check bool) "post-GST within delta" true (at <= 12));
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Adversary.crash_brs: need 1 <= k < total") (fun () ->
      ignore (Adversary.crash_brs ~delta:1 ~gst:1 ~total:3 ~k:3 ~crashes:[]));
  Alcotest.check_raises "crash names unknown proc"
    (Invalid_argument "Adversary.crash_brs: crash names unknown proc") (fun () ->
      ignore (Adversary.crash_brs ~delta:1 ~gst:1 ~total:3 ~k:1 ~crashes:[ (7, 0) ]))

(* -------------------------------------------- agreement over the net *)

(* End-to-end: the kset solver and paxos both decide over routed
   registers under combined crash+loss, and the checker verdict (ok +
   who decided, + the value for paxos) matches the shared-memory
   reference run with the same crash plan. This is the bench §N2
   acceptance, pinned at n=5 as a tier-1 test. *)
let test_net_agreement_matches_shm () =
  let n = 5 in
  let combined =
    Adversary.crash_brs ~delta:2 ~gst:60 ~total:(n + 1) ~k:2 ~crashes:[ (n - 1, 5) ]
  in
  List.iter
    (fun (label, solver, problem, values) ->
      let inputs = Problem.distinct_inputs problem in
      let r =
        Net_agreement.solve ~solver ~resend_after:8 ~problem ~inputs ~combined
          ~max_steps:200_000 ()
      in
      let shm =
        Net_agreement.solve_shm ~solver ~problem ~inputs ~fault:combined.Adversary.fault
          ~max_steps:200_000 ()
      in
      Alcotest.(check bool) (label ^ ": net run passes its checker") true
        (Ag_harness.ok r.Net_agreement.outcome);
      Alcotest.(check string)
        (label ^ ": net verdict matches shm")
        (Net_agreement.verdict ~values shm)
        (Net_agreement.verdict ~values r.Net_agreement.outcome);
      Alcotest.(check bool) (label ^ ": routed ops actually flowed") true
        (r.Net_agreement.ops > 0))
    [
      ("kset", `Auto, Problem.make ~t:2 ~k:2 ~n, false);
      ("paxos", `Paxos, Problem.consensus ~t:2 ~n, true);
    ]

(* Golden step counts over routed registers: the kset solver and Paxos
   at n=5 under the crash_brs instance above, batched and per-op. The
   fiber bodies are derived from the machine forms, and the lockstep
   tests cannot cover Netmem routes, so any derivation that shifts a
   step here fails tier-1. *)
let test_net_agreement_golden_steps () =
  let n = 5 in
  let combined =
    Adversary.crash_brs ~delta:2 ~gst:60 ~total:(n + 1) ~k:2 ~crashes:[ (n - 1, 5) ]
  in
  List.iter
    (fun (label, solver, problem, mode, total, ops, decide_steps) ->
      let inputs = Problem.distinct_inputs problem in
      let r =
        Net_agreement.solve ~solver ~mode ~resend_after:8 ~problem ~inputs ~combined
          ~max_steps:200_000 ()
      in
      let o = r.Net_agreement.outcome in
      Alcotest.(check int) (label ^ ": total steps") total (Run.total_steps o.Ag_harness.run);
      Alcotest.(check int) (label ^ ": routed ops") ops r.Net_agreement.ops;
      Alcotest.(check (array (option int)))
        (label ^ ": decide steps") decide_steps o.Ag_harness.decide_steps)
    [
      ( "kset batched", `Auto, Problem.make ~t:2 ~k:2 ~n, Netmem.Batched, 891, 423,
        [| Some 617; Some 618; Some 829; Some 890; None |] );
      ( "kset per-op", `Auto, Problem.make ~t:2 ~k:2 ~n, Netmem.Per_op, 1344, 423,
        [| Some 880; Some 881; Some 1287; Some 1343; None |] );
      ( "paxos batched", `Paxos, Problem.consensus ~t:2 ~n, Netmem.Batched, 196, 75,
        [| Some 162; Some 193; Some 194; Some 195; None |] );
      ( "paxos per-op", `Paxos, Problem.consensus ~t:2 ~n, Netmem.Per_op, 239, 70,
        [| Some 220; Some 236; Some 237; Some 238; None |] );
    ]

(* A seeded batched k-set run at n = 5 under [crash_brs], with resends,
   built from its public parts as perfbench's traced solve does;
   [on_snapshot] sees [Store.snapshot] after every step. *)
let routed_kset_run ~on_snapshot =
  let n = 5 in
  let total = n + 1 in
  let problem = Problem.make ~t:2 ~k:2 ~n in
  let combined = Adversary.crash_brs ~delta:2 ~gst:40 ~total ~k:2 ~crashes:[ (n - 1, 3) ] in
  let store = Store.create () in
  let net = Net.create ~store ~n:total ~adversary:combined.Adversary.adversary () in
  let nm =
    Netmem.install ~mode:Netmem.Batched ~resend_after:4 ~net ~store ~clients:n ~owners:1 ()
  in
  let source ~live =
    let cursor = ref 0 in
    Source.make ~n:total (fun () ->
        let rec scan tries =
          let x = !cursor in
          cursor := (x + 1) mod n;
          if live x || tries >= n then Some x else scan (tries + 1)
        in
        scan 0)
  in
  Ag_harness.solve ~problem ~inputs:(Problem.distinct_inputs problem) ~source ~max_steps:20_000
    ~fault:combined.Adversary.fault ~store ~total ~extra_body:(Netmem.owner_body nm)
    ~boost:(Netmem.round_policy nm) ~substrate:(Net.substrate net)
    ~on_step:(fun ~global ~proc:_ -> on_snapshot global (Store.snapshot store))
    ()

(* Routed values are rendered when a channel or inbox is printed, by
   their register's renderer, not when they are sent. The digest of
   every step's snapshot was recorded when payloads carried a string
   rendered at send time; the pinned step shows a write request on a
   channel and read replies in inboxes. *)
let test_routed_payloads_print_as_before () =
  let render snap = String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) snap) in
  let net_nonempty (k, v) =
    (String.starts_with ~prefix:"Chan" k || String.starts_with ~prefix:"Inbox" k) && v <> "[]"
  in
  let digest = ref (Digest.string "") and at_384 = ref [] in
  let o =
    routed_kset_run ~on_snapshot:(fun g snap ->
        digest := Digest.string (!digest ^ render snap);
        if g = 384 then at_384 := List.filter net_nonempty snap)
  in
  Alcotest.(check int) "steps" 869 (Run.total_steps o.Ag_harness.run);
  Alcotest.(check string) "digest of every step's snapshot" "9cf025aafb882e60199153f369cb5963"
    (Digest.to_hex !digest);
  Alcotest.(check (list (pair string string)))
    "nonempty channels and inboxes after step 384"
    [
      ("Chan[2][5]", "[385>p3->p6#50@384:wr?60.180=1, 385>p3->p6#51@384:rd?58.181]");
      ("Inbox[0]", "[p6->p1#42@381:rd!105.178=0]");
      ("Inbox[1]", "[p6->p2#42@383:rd!105.179=0]");
      ("Inbox[3]", "[p6->p4#42@379:rd!105.177=0]");
    ]
    !at_384

(* ------------------------------------------------------- net events *)

let test_net_event_invariants () =
  let events = Events.memory ~capacity:4096 () in
  let obs = Obs.create ~events () in
  let adversary = Adversary.gst_drop ~delta:1 ~gst:4 in
  ignore (Net_systems.run_ct ~obs ~initial_timeout:2 ~clients:2 ~adversary ~max_steps:30 ());
  let key args =
    match (List.assoc_opt "src" args, List.assoc_opt "dst" args, List.assoc_opt "seq" args) with
    | Some (Json.Int s), Some (Json.Int d), Some (Json.Int q) -> (s, d, q)
    | _ -> Alcotest.fail "net event missing src/dst/seq"
  in
  let mid args =
    match List.assoc_opt "mid" args with
    | Some (Json.Int m) -> m
    | _ -> Alcotest.fail "net event missing mid"
  in
  let sent = Hashtbl.create 64 in
  let sent_mids = Hashtbl.create 64 in
  let dropped = Hashtbl.create 64 in
  let inflight = Hashtbl.create 64 in
  let delivered = ref 0 in
  let gst_events = ref 0 in
  List.iter
    (fun (e : Events.event) ->
      if e.cat = "net" then
        match e.name with
        | "send" ->
            Hashtbl.replace sent (key e.args) ();
            Hashtbl.replace sent_mids (mid e.args) ()
        | "drop" ->
            Alcotest.(check bool) "drop follows send" true (Hashtbl.mem sent (key e.args));
            Hashtbl.replace dropped (key e.args) ()
        | "deliver" ->
            incr delivered;
            Alcotest.(check bool) "deliver follows send" true (Hashtbl.mem sent (key e.args));
            Alcotest.(check bool) "deliver mid was sent" true
              (Hashtbl.mem sent_mids (mid e.args));
            Alcotest.(check bool) "no deliver after drop" false (Hashtbl.mem dropped (key e.args))
        | "inflight" -> (
            let id = match e.id with Some i -> i | None -> Alcotest.fail "inflight without id" in
            match e.phase with
            | Events.Async_begin ->
                Alcotest.(check bool) "inflight begin follows send" true
                  (Hashtbl.mem sent_mids id);
                Hashtbl.replace inflight id ()
            | Events.Async_end ->
                Alcotest.(check bool) "inflight end follows begin" true (Hashtbl.mem inflight id)
            | _ -> Alcotest.fail "inflight with a non-async phase")
        | "gst" -> incr gst_events
        | other -> Alcotest.failf "unexpected net event %s" other)
    (Events.events events);
  Alcotest.(check bool) "messages were sent" true (Hashtbl.length sent > 0);
  Alcotest.(check bool) "messages were dropped pre-GST" true (Hashtbl.length dropped > 0);
  Alcotest.(check bool) "messages were delivered post-GST" true (!delivered > 0);
  Alcotest.(check int) "exactly one gst event" 1 !gst_events

(* the substrate's beyond-the-store state: per-pair sequence counters
   and the GST latch must show up in [snapshot] (they decide drops and
   the gst event, so states differing there must not be merged) and
   must round-trip through [save] *)
let test_substrate_snapshot_save () =
  let store = Store.create () in
  let net = Net.create ~store ~n:2 ~adversary:(Adversary.gst_drop ~delta:1 ~gst:3) () in
  let s = Net.substrate net in
  let snap0 = Substrate.snapshot s in
  Alcotest.(check (list (pair string string)))
    "fresh: zero seqs, latch down"
    [ ("NetSeqs", "0,0,0,0,"); ("NetGst", "false") ]
    snap0;
  let restore = Substrate.save s in
  (* one send p0->p1 bumps a sequence counter; five global steps pass
     gst=3 and raise the latch *)
  let body p () =
    if p = 0 then begin
      Net.send net ~dst:1 Msg.Hb;
      while true do
        Net.pause net
      done
    end
    else
      while true do
        ignore (Net.recv net)
      done
  in
  ignore
    (Executor.replay ~n:2 ~schedule:(Schedule.of_list ~n:2 [ 0; 1; 1; 1; 1 ])
       ~substrate:s body);
  let snap1 = Substrate.snapshot s in
  Alcotest.(check (list (pair string string)))
    "after run: seq bumped, latch up"
    [ ("NetSeqs", "0,1,0,0,"); ("NetGst", "true") ]
    snap1;
  restore ();
  Alcotest.(check (list (pair string string)))
    "save/restore round-trips the hidden state" snap0 (Substrate.snapshot s)

(* A delivery's delay decomposition is re-derived from the message
   itself, so it survives an exploration restore: deliver, restore the
   store and substrate to the savepoint taken while the message was in
   flight, and deliver again — both deliver events carry the same
   adv/forced/fifo/denied/pre_gst args. *)
let test_deliver_after_restore_attributed () =
  let events = Events.memory ~capacity:64 () in
  let obs = Obs.create ~events () in
  let store = Store.create () in
  let net = Net.create ~obs ~store ~n:2 ~adversary:(Adversary.synchronous ~delta:1) () in
  let s = Net.substrate net in
  Net.send_now net ~src:0 ~dst:1 Msg.Hb;
  let restore_store = Store.save store in
  let restore_net = Substrate.save s in
  Substrate.pre_step s ~global:1 ~proc:1;
  restore_store ();
  restore_net ();
  Substrate.pre_step s ~global:1 ~proc:1;
  let decomposition (e : Events.event) =
    List.map
      (fun k ->
        match List.assoc_opt k e.args with
        | Some v -> Json.to_string v
        | None -> Alcotest.failf "deliver event lacks %s" k)
      [ "adv"; "forced"; "fifo"; "denied"; "pre_gst" ]
  in
  let delivers =
    List.filter (fun (e : Events.event) -> e.cat = "net" && e.name = "deliver")
      (Events.events events)
  in
  Alcotest.(check (list (list string)))
    "both deliveries decomposed alike"
    [ [ "1"; "0"; "0"; "0"; "false" ]; [ "1"; "0"; "0"; "0"; "false" ] ]
    (List.map decomposition delivers)

(* One flush delivers every due message: after [pre_step], the inbox
   holds its old messages, then the due ones channel by channel in
   (src, dst) order, each channel's in FIFO order; a channel keeps only
   its undue suffix; the tallies move by the count delivered, whether
   deliveries are booked one by one (a memory event sink) or counted
   (no obs); and the deliver events come out in inbox order. Message
   1->2 is sent before the 0->2 ones, so channel order and send order
   disagree. *)
let test_flush_order () =
  (* seq 2 on channel 0->2 is held for 5 ticks; everything else takes 1 *)
  let adversary =
    Adversary.make ~delta:10 ~gst:0 (fun ~now:_ ~src ~dst:_ ~seq ->
        if src = 0 && seq = 2 then Adversary.Deliver 5 else Adversary.Deliver 1)
  in
  let flush_once obs =
    let store = Store.create () in
    let net = Net.create ?obs ~store ~n:3 ~adversary () in
    let s = Net.substrate net in
    let reg name = List.assoc name (Store.snapshot store) in
    Substrate.pre_step s ~global:0 ~proc:2;
    Net.send_now net ~src:1 ~dst:2 (Msg.Value 100);
    Substrate.pre_step s ~global:1 ~proc:2;
    Alcotest.(check string) "old inbox" "[p2->p3#0@0:val:100]" (reg "Inbox[2]");
    Net.send_now net ~src:1 ~dst:2 (Msg.Value 4);
    List.iter (fun v -> Net.send_now net ~src:0 ~dst:2 (Msg.Value v)) [ 1; 2; 3 ];
    let before = Net.stats net in
    Substrate.pre_step s ~global:2 ~proc:0;
    let after = Net.stats net in
    Alcotest.(check string) "inbox: old, then channel 0->2, then channel 1->2"
      "[p2->p3#0@0:val:100, p1->p3#0@1:val:1, p1->p3#1@1:val:2, p2->p3#1@1:val:4]"
      (reg "Inbox[2]");
    Alcotest.(check string) "channel keeps its undue suffix" "[6>p1->p3#2@1:val:3]"
      (reg "Chan[0][2]");
    Alcotest.(check string) "drained channel" "[]" (reg "Chan[1][2]");
    Alcotest.(check int) "delivered moves by 3" (before.Net.delivered + 3) after.Net.delivered;
    Alcotest.(check int) "in flight moves by 3" (before.Net.in_flight - 3) after.Net.in_flight
  in
  flush_once None;
  let events = Events.memory ~capacity:256 () in
  flush_once (Some (Obs.create ~events ()));
  let mid (e : Events.event) =
    match List.assoc_opt "mid" e.args with
    | Some (Json.Int m) -> m
    | _ -> Alcotest.fail "deliver event without a mid"
  in
  let delivers =
    List.filter (fun (e : Events.event) -> e.cat = "net" && e.name = "deliver")
      (Events.events events)
  in
  (* mids are send order: 100 is 0, 4 is 1, then 1, 2, 3 are 2, 3, 4 *)
  Alcotest.(check (list int)) "deliver events in inbox order" [ 0; 2; 3; 1 ]
    (List.map mid delivers)

let test_net_metrics () =
  let obs = Obs.create () in
  let adversary = Adversary.gst_drop ~delta:1 ~gst:4 in
  let r = Net_systems.run_ct ~obs ~initial_timeout:2 ~clients:2 ~adversary ~max_steps:30 () in
  let m name = Metrics.counter_value (Metrics.counter obs.Obs.metrics name) in
  Alcotest.(check int) "net.sent matches stats" r.Net_systems.net_stats.Net.sent (m "net.sent");
  Alcotest.(check int) "net.delivered matches stats" r.Net_systems.net_stats.Net.delivered
    (m "net.delivered");
  Alcotest.(check int) "net.dropped matches stats" r.Net_systems.net_stats.Net.dropped
    (m "net.dropped")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "setsync_net"
    [
      ( "adversary",
        [ Alcotest.test_case "due: delta/gst contract" `Quick test_adversary_due ] );
      ( "delivery",
        [
          Alcotest.test_case "synchronous delivery" `Quick test_synchronous_delivery;
          Alcotest.test_case "pre-GST drop" `Quick test_pre_gst_drop;
          Alcotest.test_case "pre-GST delay capped at gst+delta" `Quick test_pre_gst_delay_capped;
          Alcotest.test_case "FIFO: no overtaking" `Quick test_fifo_no_overtaking;
          Alcotest.test_case "flush order: old inbox, channel order, FIFO" `Quick
            test_flush_order;
          Alcotest.test_case "authenticated src" `Quick test_authenticated_src;
        ] );
      ( "indexed flush",
        [
          Alcotest.test_case "matches a full scan, across restores" `Quick
            test_indexed_flush_matches_scan;
        ] );
      ("conformance", Shm_conf.tests @ Net_conf.tests);
      ( "substrate state",
        [
          Alcotest.test_case "snapshot exposes seqs + gst latch; save round-trips"
            `Quick test_substrate_snapshot_save;
        ] );
      ( "netmem",
        [
          Alcotest.test_case "write/read over messages, 3 steps per op" `Quick
            test_netmem_write_read;
          Alcotest.test_case "owner sharding" `Quick test_netmem_owner_mapping;
          Alcotest.test_case "resend_after must be >= 1" `Quick test_netmem_resend_after_positive;
          Alcotest.test_case "per-op wait pushes back unrelated messages" `Quick
            test_per_op_pushback;
        ] );
      ( "batched",
        [
          Alcotest.test_case "interleaved routed ops all complete" `Quick
            test_batched_interleaved;
          Alcotest.test_case "amortized cost <= 1.5 steps/op" `Quick test_batched_step_cost;
          Alcotest.test_case "owner crash raises Unserved, no wedge" `Quick
            test_batched_owner_crash;
          Alcotest.test_case "a given-up op is withdrawn, both modes" `Quick
            test_given_up_op_withdrawn;
          Alcotest.test_case "stale resend after a later write does not regress" `Quick
            test_resend_does_not_regress;
        ] );
      ( "agreement-over-net",
        [
          Alcotest.test_case "crash_brs adversary shape" `Quick test_crash_brs_shape;
          Alcotest.test_case "kset + paxos verdicts match shm" `Quick
            test_net_agreement_matches_shm;
          Alcotest.test_case "golden step counts, batched and per-op" `Quick
            test_net_agreement_golden_steps;
          Alcotest.test_case "routed payloads print as before" `Quick
            test_routed_payloads_print_as_before;
        ] );
      ( "cross-backend",
        [ Alcotest.test_case "kanti outputs identical" `Quick test_kanti_cross_backend ] );
      ( "ct-detector",
        [
          Alcotest.test_case "stabilizes after GST" `Quick test_ct_stabilizes_after_gst;
          Alcotest.test_case "explorer: stabilization holds in bound" `Quick
            test_ct_property_positive;
          Alcotest.test_case "explorer: negative control violates" `Quick
            test_ct_property_negative_control;
        ] );
      ( "brs-kset",
        [
          Alcotest.test_case "burst schedule violates k-set" `Quick test_brs_burst_violates;
          Alcotest.test_case "round robin agrees" `Quick test_round_robin_agrees;
          Alcotest.test_case "fuzzer finds and shrinks it" `Quick test_fuzzer_finds_brs_violation;
        ] );
      ( "obs",
        [
          Alcotest.test_case "event invariants" `Quick test_net_event_invariants;
          Alcotest.test_case "counters match stats" `Quick test_net_metrics;
          Alcotest.test_case "delivery after a restore keeps its delay decomposition" `Quick
            test_deliver_after_restore_attributed;
        ] );
    ]
