(* Tests for the trace-analysis toolchain: JSONL round-trips of the
   event schema (including the async/id span kinds the net layer
   emits), critical-path extraction on a hand-built 3-process
   happens-before DAG with a known longest chain, the telescoping
   invariant on a real traced CT run, and the adversary's explained
   verdicts agreeing with its opaque [due]. *)

module Events = Setsync_obs.Events
module Json = Setsync_obs.Json
module Analyze = Setsync_obs.Analyze
module Obs = Setsync_obs.Obs
module Adversary = Setsync_net.Adversary
module Net_systems = Setsync_net.Net_systems

(* ------------------------------------------------- event round-trips *)

let mk ?proc ?worker ?id ?(args = []) ~phase ~cat ~ts name : Events.event =
  { ts; name; cat; phase; proc; worker; id; args }

let sample_events =
  [
    mk ~phase:Events.Instant ~cat:"runtime" ~ts:0.25 ~proc:1
      ~args:[ ("global", Json.Int 3); ("pidx", Json.Int 1) ]
      "step";
    mk ~phase:Events.Begin ~cat:"explorer" ~ts:0.5 ~worker:2 "replay";
    mk ~phase:Events.End ~cat:"explorer" ~ts:0.75 ~worker:2 "replay";
    mk ~phase:Events.Async_begin ~cat:"net" ~ts:1.5 ~proc:0 ~id:7
      ~args:[ ("due", Json.Int 5) ]
      "inflight";
    mk ~phase:Events.Async_end ~cat:"net" ~ts:2.25 ~proc:1 ~id:7 "inflight";
    mk ~phase:Events.Instant ~cat:"net" ~ts:3.0 ~proc:0
      ~args:
        [
          ("mid", Json.Int 4);
          ("src", Json.Int 0);
          ("dst", Json.Int 1);
          ("seq", Json.Int 2);
          ("step", Json.Int 9);
          ("pre_gst", Json.Bool false);
        ]
      "send";
  ]

let check_event_eq label (a : Events.event) (b : Events.event) =
  Alcotest.(check string) (label ^ " name") a.name b.name;
  Alcotest.(check string) (label ^ " cat") a.cat b.cat;
  Alcotest.(check bool) (label ^ " phase") true (a.phase = b.phase);
  Alcotest.(check (option int)) (label ^ " proc") a.proc b.proc;
  Alcotest.(check (option int)) (label ^ " worker") a.worker b.worker;
  Alcotest.(check (option int)) (label ^ " id") a.id b.id;
  Alcotest.(check (float 1e-9)) (label ^ " ts") a.ts b.ts;
  Alcotest.(check string)
    (label ^ " args")
    (Json.to_string (Json.Obj a.args))
    (Json.to_string (Json.Obj b.args))

let test_event_roundtrip () =
  List.iter
    (fun e ->
      (* through the full serialized form, as a JSONL reader sees it *)
      let line = Json.to_string (Events.event_to_json e) in
      match Json.of_string line with
      | Error err -> Alcotest.failf "reparse of %s: %s" line err
      | Ok j -> (
          match Events.event_of_json j with
          | Error err -> Alcotest.failf "event_of_json of %s: %s" line err
          | Ok e' -> check_event_eq e.name e e'))
    sample_events

let test_event_of_json_rejects () =
  let bad =
    [
      "{\"name\":\"x\",\"cat\":\"c\",\"ph\":\"i\"}" (* no ts *);
      "{\"ts\":1,\"cat\":\"c\",\"ph\":\"i\"}" (* no name *);
      "{\"ts\":1,\"name\":\"x\",\"ph\":\"i\"}" (* no cat *);
      "{\"ts\":1,\"name\":\"x\",\"cat\":\"c\",\"ph\":\"zz\"}" (* bad phase *);
    ]
  in
  List.iter
    (fun line ->
      let j = Result.get_ok (Json.of_string line) in
      match Events.event_of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "event_of_json accepted %s" line)
    bad

let test_load_jsonl_roundtrip () =
  let sink = Events.memory () in
  List.iter
    (fun (e : Events.event) ->
      Events.emit sink ?proc:e.proc ?worker:e.worker ?id:e.id ~args:e.args
        ~phase:e.phase ~cat:e.cat e.name)
    sample_events;
  let f = Filename.temp_file "setsync_analyze" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      Events.save_jsonl sink f;
      match Analyze.load_jsonl f with
      | Error e -> Alcotest.failf "load_jsonl: %s" e
      | Ok evs ->
          Alcotest.(check int) "count" (List.length sample_events) (List.length evs);
          List.iter2
            (fun (a : Events.event) (b : Events.event) ->
              (* ts is re-stamped by the sink; everything else survives *)
              Alcotest.(check string) "name" a.name b.name;
              Alcotest.(check (option int)) "id" a.id b.id;
              Alcotest.(check bool) "phase" true (a.phase = b.phase))
            sample_events evs)

(* ------------------------------- hand-built 3-process causal DAG *)

(* Schedule: g0=p0, g1=p1, g2=p1, g3=p2, g4=p2.
   p0's step at g0 sends m0 to p1; m0 is delivered at tick 1 (adv 1).
   p1's step at g2 sends m1 to p2; m1 is delivered at tick 3 (adv 1).
   The anchor fires at g4 on p2. Longest chain (weights telescope):
     Start(p0@0) -> Recv m0 (1 adv + 1 wait) -> Recv m1 (1 adv + 1 wait)
   total 0 + 2 + 2 = 4 = anchor step. *)
let step ~ts p ~global ~pidx =
  mk ~phase:Events.Instant ~cat:"runtime" ~ts ~proc:p
    ~args:[ ("global", Json.Int global); ("pidx", Json.Int pidx) ]
    "step"

let send ~ts ~mid ~src ~dst ~seq ~step =
  mk ~phase:Events.Instant ~cat:"net" ~ts ~proc:src
    ~args:
      [
        ("mid", Json.Int mid);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("seq", Json.Int seq);
        ("step", Json.Int step);
      ]
    "send"

let deliver ~ts ~mid ~src ~dst ~seq ~step ~sent ~adv ~forced ~fifo =
  mk ~phase:Events.Instant ~cat:"net" ~ts ~proc:dst
    ~args:
      [
        ("mid", Json.Int mid);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("seq", Json.Int seq);
        ("step", Json.Int step);
        ("sent", Json.Int sent);
        ("delay", Json.Int (step - sent));
        ("adv", Json.Int adv);
        ("forced", Json.Int forced);
        ("fifo", Json.Int fifo);
        ("denied", Json.Int 0);
        ("pre_gst", Json.Bool false);
      ]
    "deliver"

let dag_events =
  [
    step ~ts:0.0 0 ~global:0 ~pidx:0;
    send ~ts:0.0 ~mid:0 ~src:0 ~dst:1 ~seq:0 ~step:0;
    step ~ts:0.1 1 ~global:1 ~pidx:0;
    deliver ~ts:0.1 ~mid:0 ~src:0 ~dst:1 ~seq:0 ~step:1 ~sent:0 ~adv:1 ~forced:0
      ~fifo:0;
    step ~ts:0.2 1 ~global:2 ~pidx:1;
    send ~ts:0.2 ~mid:1 ~src:1 ~dst:2 ~seq:0 ~step:2;
    (* a dropped message keeps its lineage without joining the path *)
    send ~ts:0.2 ~mid:2 ~src:0 ~dst:2 ~seq:0 ~step:2;
    mk ~phase:Events.Instant ~cat:"net" ~ts:0.25 ~proc:0
      ~args:
        [
          ("mid", Json.Int 2);
          ("src", Json.Int 0);
          ("dst", Json.Int 2);
          ("seq", Json.Int 0);
          ("step", Json.Int 2);
          ("pre_gst", Json.Bool true);
        ]
      "drop";
    step ~ts:0.3 2 ~global:3 ~pidx:0;
    deliver ~ts:0.3 ~mid:1 ~src:1 ~dst:2 ~seq:0 ~step:3 ~sent:2 ~adv:1 ~forced:0
      ~fifo:0;
    step ~ts:0.4 2 ~global:4 ~pidx:1;
    mk ~phase:Events.Instant ~cat:"detector" ~ts:0.4 ~proc:2
      ~args:[ ("step", Json.Int 4); ("leader", Json.Int 0) ]
      "ct_stabilized";
  ]

let test_dag_critical_path () =
  match Analyze.of_events dag_events with
  | Error e -> Alcotest.failf "of_events: %s" e
  | Ok r ->
      Alcotest.(check int) "procs" 3 r.Analyze.procs;
      Alcotest.(check int) "steps" 5 r.Analyze.steps;
      Alcotest.(check bool) "stabilized" true (r.Analyze.stabilized = Some (4, 2));
      let p =
        match r.Analyze.critical with
        | Some p -> p
        | None -> Alcotest.fail "no critical path"
      in
      Alcotest.(check string) "anchor name" "ct_stabilized" p.Analyze.end_name;
      Alcotest.(check int) "end step" 4 p.Analyze.end_step;
      Alcotest.(check int) "end proc" 2 p.Analyze.end_proc;
      (* the telescoping invariant: total attributed delay along the
         path equals the observed stabilization step *)
      Alcotest.(check int) "total telescopes" 4 p.Analyze.total;
      (match p.Analyze.hops with
      | [ Analyze.Start s; Analyze.Recv r0; Analyze.Recv r1 ] ->
          Alcotest.(check int) "starts at p0" 0 s.proc;
          Alcotest.(check int) "start global" 0 s.global;
          Alcotest.(check int) "first msg" 0 r0.msg.Analyze.mid;
          Alcotest.(check int) "first hop weight" 2 (Analyze.hop_weight (Analyze.Recv r0));
          Alcotest.(check int) "second msg" 1 r1.msg.Analyze.mid;
          Alcotest.(check int) "second hop lands at anchor" 4 r1.to_global
      | hops -> Alcotest.failf "unexpected hop shape (%d hops)" (List.length hops));
      (* drop lineage is reported even off the critical path *)
      let dropped = List.filter (fun m -> m.Analyze.dropped) r.Analyze.msgs in
      Alcotest.(check int) "one dropped msg" 1 (List.length dropped);
      Alcotest.(check int) "dropped mid" 2 (List.hd dropped).Analyze.mid

let test_dag_rejects_orphan_deliver () =
  let orphan =
    [
      step ~ts:0.0 0 ~global:0 ~pidx:0;
      deliver ~ts:0.1 ~mid:9 ~src:0 ~dst:1 ~seq:0 ~step:1 ~sent:0 ~adv:1 ~forced:0
        ~fifo:0;
    ]
  in
  match Analyze.of_events orphan with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_events accepted a deliver with no send edge"

(* --------------------------------------- traced CT run, end to end *)

let test_run_ct_telescopes () =
  let events = Events.memory () in
  let obs = Obs.create ~events () in
  let adversary = Adversary.gst_drop ~delta:1 ~gst:4 in
  let run = Net_systems.run_ct ~obs ~clients:2 ~adversary ~max_steps:60 () in
  let s =
    match run.Net_systems.stabilized_from with
    | Some s -> s
    | None -> Alcotest.fail "run_ct did not stabilize"
  in
  match Analyze.of_events (Events.events events) with
  | Error e -> Alcotest.failf "of_events on traced run: %s" e
  | Ok r ->
      let p =
        match r.Analyze.critical with
        | Some p -> p
        | None -> Alcotest.fail "traced run has no critical path"
      in
      Alcotest.(check string) "ends at the anchor" "ct_stabilized" p.Analyze.end_name;
      Alcotest.(check int) "end step is stabilized_from" s p.Analyze.end_step;
      Alcotest.(check int)
        "attributed delay telescopes to stabilization time" s p.Analyze.total

(* --------------------------------------- due_explained agrees with due *)

let test_due_explained_consistent () =
  let policies =
    [
      ("drop", fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Adversary.Drop);
      ("fast", fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Adversary.Deliver 1);
      ("slow", fun ~now:_ ~src:_ ~dst:_ ~seq:_ -> Adversary.Deliver 50);
      ( "alternating",
        fun ~now ~src:_ ~dst:_ ~seq:_ ->
          if now mod 2 = 0 then Adversary.Drop else Adversary.Deliver (now + 1) );
    ]
  in
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun (delta, gst) ->
          let a = Adversary.make ~delta ~gst policy in
          for now = 0 to gst + (2 * delta) + 2 do
            let v = Adversary.due_explained a ~now ~src:0 ~dst:1 ~seq:now in
            let label = Printf.sprintf "%s delta=%d gst=%d now=%d" pname delta gst now in
            Alcotest.(check (option int))
              (label ^ ": due_at = due_tick")
              (match Adversary.due_tick a ~now ~src:0 ~dst:1 ~seq:now with
              | -1 -> None
              | at -> Some at)
              v.Adversary.due_at;
            Alcotest.(check bool) (label ^ ": denied >= 0") true (v.Adversary.denied >= 0);
            (* pre_gst marks exactly the verdicts decided before GST *)
            Alcotest.(check bool)
              (label ^ ": pre_gst flag")
              (now < gst) v.Adversary.pre_gst;
            (* a forced verdict is a post-GST drop held to exactly Δ *)
            if v.Adversary.forced then
              Alcotest.(check (option int))
                (label ^ ": forced is a Δ-clamp")
                (Some (now + delta))
                v.Adversary.due_at;
            (* realized + denied ticks account for the request *)
            match (v.Adversary.due_at, v.Adversary.requested) with
            | Some at, Some r when not v.Adversary.forced ->
                Alcotest.(check int)
                  (label ^ ": realized + denied = requested")
                  (max 1 r) (at - now + v.Adversary.denied)
            | _ -> ()
          done)
        [ (1, 4); (2, 5); (3, 0) ])
    policies

let () =
  Alcotest.run "analyze"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "event json round-trip (all phases)" `Quick
            test_event_roundtrip;
          Alcotest.test_case "event_of_json rejects malformed" `Quick
            test_event_of_json_rejects;
          Alcotest.test_case "jsonl file round-trip" `Quick test_load_jsonl_roundtrip;
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "hand-built 3-process DAG" `Quick test_dag_critical_path;
          Alcotest.test_case "orphan deliver rejected" `Quick
            test_dag_rejects_orphan_deliver;
        ] );
      ( "integration",
        [
          Alcotest.test_case "traced CT run telescopes" `Quick test_run_ct_telescopes;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "due_explained agrees with due" `Quick
            test_due_explained_consistent;
        ] );
    ]
