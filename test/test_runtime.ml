(* Tests for the execution engine: fibers, step discipline, executor,
   crash injection, run records. *)

open Setsync_schedule
module Fiber = Setsync_runtime.Fiber
module Shm = Setsync_runtime.Shm
module Fault = Setsync_runtime.Fault
module Run = Setsync_runtime.Run
module Executor = Setsync_runtime.Executor
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store

let schedule = Alcotest.testable Schedule.pp Schedule.equal

(* ------------------------------------------------------------------ *)
(* Fiber *)

let test_fiber_one_action_per_step () =
  let log = ref [] in
  let fiber =
    Fiber.spawn (fun () ->
        for i = 1 to 3 do
          Fiber.atomic (fun () -> log := i :: !log)
        done)
  in
  Alcotest.(check bool) "not done" false (Fiber.is_done fiber);
  Alcotest.(check bool) "step 1" true (Fiber.step fiber = Fiber.Performed);
  Alcotest.(check (list int)) "one action" [ 1 ] !log;
  Alcotest.(check bool) "step 2" true (Fiber.step fiber = Fiber.Performed);
  Alcotest.(check (list int)) "two actions" [ 2; 1 ] !log;
  ignore (Fiber.step fiber);
  Alcotest.(check bool) "final step finishes" true (Fiber.step fiber = Fiber.Finished);
  Alcotest.(check bool) "done" true (Fiber.is_done fiber);
  Alcotest.(check bool) "already done" true (Fiber.step fiber = Fiber.Already_done);
  Alcotest.(check (list int)) "no extra actions" [ 3; 2; 1 ] !log

let test_fiber_result_delivery () =
  let seen = ref 0 in
  let fiber =
    Fiber.spawn (fun () ->
        let x = Fiber.atomic (fun () -> 21) in
        let y = Fiber.atomic (fun () -> x * 2) in
        seen := y)
  in
  ignore (Fiber.step fiber);
  ignore (Fiber.step fiber);
  ignore (Fiber.step fiber);
  Alcotest.(check int) "results flow through" 42 !seen

let test_fiber_empty_body () =
  let fiber = Fiber.spawn (fun () -> ()) in
  Alcotest.(check bool) "finishes immediately" true (Fiber.step fiber = Fiber.Finished)

let test_fiber_exception_propagates () =
  let fiber = Fiber.spawn (fun () -> failwith "boom") in
  Alcotest.check_raises "propagates" (Failure "boom") (fun () -> ignore (Fiber.step fiber))

let test_atomic_outside_fiber () =
  Alcotest.check_raises "outside"
    (Failure "Fiber.atomic: called outside a fiber (no executor is granting steps)")
    (fun () -> ignore (Fiber.atomic (fun () -> 1)))

(* ------------------------------------------------------------------ *)
(* Fault *)

let test_fault_budgets () =
  let tally = Run.Tally.create ~n:3 [ (1, 2); (2, 0) ] in
  Alcotest.(check bool) "p3 dead at start" false (Run.Tally.live tally 2);
  Alcotest.(check bool) "p2 alive" true (Run.Tally.live tally 1);
  Alcotest.(check bool) "first step survives" false (Run.Tally.note_step tally 1);
  Alcotest.(check bool) "second step kills" true (Run.Tally.note_step tally 1);
  Alcotest.(check bool) "now dead" false (Run.Tally.live tally 1);
  Alcotest.(check int) "steps recorded" 2 (Run.Tally.steps tally 1);
  Alcotest.(check bool) "unplanned never dies" false (Run.Tally.note_step tally 0);
  let run = Run.Tally.freeze tally Run.Source_exhausted in
  Alcotest.(check int) "crashed set" 2 (Procset.cardinal (Run.crashed run));
  (* the dead-at-start crash sits at position 0, the budget crash at
     the global index of the step that used the budget up *)
  Alcotest.(check (list (pair int int))) "crash positions" [ (2, 0); (1, 1) ] run.Run.crashes;
  Alcotest.(check (list int)) "taken" [ 1; 1; 0 ] (Schedule.to_list run.Run.taken)

let test_fault_validate () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Fault.validate: duplicate process in plan")
    (fun () -> Fault.validate ~n:3 [ (0, 1); (0, 2) ]);
  Alcotest.check_raises "negative" (Invalid_argument "Fault.validate: negative step budget")
    (fun () -> Fault.validate ~n:3 [ (0, -1) ])

let test_tally_save_restore () =
  let tally = Run.Tally.create ~n:2 [ (0, 2) ] in
  ignore (Run.Tally.note_step tally 1);
  let restore = Run.Tally.save tally in
  ignore (Run.Tally.note_step tally 0);
  Alcotest.(check bool) "budget crash" true (Run.Tally.note_step tally 0);
  Run.Tally.halt tally 1;
  Alcotest.(check bool) "p2 halted" false (Run.Tally.live tally 1);
  restore ();
  let run = Run.Tally.freeze tally Run.Source_exhausted in
  Alcotest.(check (list int)) "taken restored" [ 1 ] (Schedule.to_list run.Run.taken);
  Alcotest.(check (list int)) "steps restored" [ 0; 1 ] (Array.to_list run.Run.steps_of);
  Alcotest.(check bool) "no crash" true (run.Run.crashes = []);
  Alcotest.(check bool) "nobody halted" true (Procset.is_empty run.Run.halted);
  Alcotest.(check bool) "p1 live again" true (Run.Tally.live tally 0)

(* Tally savepoints are last-in-first-out: one restores the same
   record any number of times, a shallower restore frees the depths
   above it, and a savepoint whose depth a later save reused raises. *)
let test_tally_savepoint_stack () =
  let tally = Run.Tally.create ~n:3 [ (2, 3) ] in
  let record () =
    let r = Run.Tally.freeze tally Run.Source_exhausted in
    (Schedule.to_list r.Run.taken, Array.to_list r.Run.steps_of, r.Run.crashes, r.Run.halted)
  in
  List.iter (fun p -> ignore (Run.Tally.note_step tally p)) [ 0; 2; 1 ];
  let at = record () in
  let restore = Run.Tally.save tally in
  List.iter
    (fun steps ->
      List.iter (fun p -> ignore (Run.Tally.note_step tally p)) steps;
      Run.Tally.halt tally 1;
      restore ();
      Alcotest.(check bool)
        (Printf.sprintf "restored after %d steps" (List.length steps))
        true
        (record () = at);
      Alcotest.(check bool) "p2 live again" true (Run.Tally.live tally 1))
    [ [ 2; 2; 0 ]; [ 0; 0; 0; 0; 1 ]; []; [ 2; 2; 2 ] ];
  ignore (Run.Tally.note_step tally 0);
  let deeper = Run.Tally.save tally in
  let at_deeper = record () in
  ignore (Run.Tally.note_step tally 2);
  deeper ();
  Alcotest.(check bool) "the deeper savepoint" true (record () = at_deeper);
  restore ();
  ignore (Run.Tally.note_step tally 1);
  let _reused = Run.Tally.save tally in
  (match deeper () with
  | () -> Alcotest.fail "a saved-over savepoint restored"
  | exception Invalid_argument _ -> ());
  restore ();
  Alcotest.(check bool) "the shallower one still restores" true (record () = at)

(* ------------------------------------------------------------------ *)
(* Executor *)

let test_executor_replay_interleaving () =
  (* the classic lost-update interleaving: under strict alternation,
     each read-read-write-write round nets only the second writer's
     increment *)
  let store = Store.create () in
  let counter = Store.register store ~name:"counter" 0 in
  let body p () =
    for _ = 1 to 5 do
      let v = Shm.read counter in
      Shm.write counter (v + p + 1)
    done
  in
  let sched =
    Schedule.repeat (Schedule.of_list ~n:2 [ 0; 1 ]) 11 (* 20 ops + 2 final halts *)
  in
  let run = Executor.replay ~n:2 ~schedule:sched body in
  Alcotest.(check int) "lost updates" 10 (Register.peek counter);
  Alcotest.(check bool) "all halted" true (run.Run.reason = Run.All_halted)

let test_executor_sequential_no_race () =
  let store = Store.create () in
  let counter = Store.register store ~name:"counter" 0 in
  let body p () =
    for _ = 1 to 5 do
      let v = Shm.read counter in
      Shm.write counter (v + p + 1)
    done
  in
  (* p1 runs fully, then p2: no lost updates *)
  let sched =
    Schedule.append (Schedule.repeat (Schedule.of_list ~n:2 [ 0 ]) 11)
      (Schedule.repeat (Schedule.of_list ~n:2 [ 1 ]) 11)
  in
  ignore (Executor.replay ~n:2 ~schedule:sched body);
  Alcotest.(check int) "sequential sum" 15 (Register.peek counter)

let test_executor_records_taken_schedule () =
  let body _ () = while true do Shm.pause () done in
  let source ~live = Generators.round_robin ~live ~n:3 () in
  let run = Executor.run ~n:3 ~source ~max_steps:9 body in
  Alcotest.check schedule "taken" (Schedule.repeat (Schedule.of_list ~n:3 [ 0; 1; 2 ]) 3)
    run.Run.taken;
  Alcotest.(check bool) "budget" true (run.Run.reason = Run.Step_budget);
  Alcotest.(check (list int)) "steps per proc" [ 3; 3; 3 ] (Array.to_list run.Run.steps_of)

let test_executor_crash_injection () =
  let store = Store.create () in
  let flag = Store.register store ~name:"flag" false in
  let body p () =
    if p = 0 then begin
      Shm.write flag true;
      while true do
        Shm.pause ()
      done
    end
    else while not (Shm.read flag) do () done
  in
  let source ~live = Generators.round_robin ~live ~n:2 () in
  let run = Executor.run ~n:2 ~source ~max_steps:100 ~fault:[ (0, 3) ] body in
  Alcotest.(check bool) "p1 crashed" true (Procset.mem 0 (Run.crashed run));
  Alcotest.(check int) "p1 took exactly its budget" 3 run.Run.steps_of.(0);
  Alcotest.(check bool) "p2 correct" true (Procset.mem 1 (Run.correct run));
  Alcotest.(check bool) "p2 halted after seeing flag" true (Procset.mem 1 run.Run.halted);
  (* crash position recorded *)
  match run.Run.crashes with
  | [ (0, global) ] -> Alcotest.(check bool) "crash step sane" true (global < 10)
  | _ -> Alcotest.fail "expected exactly one crash"

(* a caller-supplied tally is the record the executor advances: read
   live from [on_step], and frozen into the returned run *)
let test_executor_live_tally () =
  let body _ () = while true do Shm.pause () done in
  let source ~live = Generators.round_robin ~live ~n:2 () in
  let tally = Run.Tally.create ~n:2 [ (1, 2) ] in
  let seen = ref [] in
  let on_step ~global ~proc =
    Alcotest.(check int) "position" (global + 1) (Run.Tally.total_steps tally);
    seen := (proc, Run.Tally.steps tally proc, Run.Tally.live tally proc) :: !seen
  in
  let run = Executor.run ~n:2 ~source ~max_steps:5 ~tally ~on_step body in
  Alcotest.(check (list (triple int int bool)))
    "live reads"
    [ (0, 1, true); (1, 1, true); (0, 2, true); (1, 2, false); (0, 3, true) ]
    (List.rev !seen);
  Alcotest.(check (list (pair int int))) "crash at its global index" [ (1, 3) ] run.Run.crashes;
  Alcotest.(check (list int)) "steps_of" [ 3; 2 ] (Array.to_list run.Run.steps_of);
  Alcotest.(check (list int)) "run is the tally" (Array.to_list run.Run.steps_of)
    [ Run.Tally.steps tally 0; Run.Tally.steps tally 1 ];
  Alcotest.check_raises "tally and fault together"
    (Invalid_argument "Executor.run: pass either a tally or a fault plan") (fun () ->
      ignore
        (Executor.run ~n:2 ~source ~max_steps:5 ~tally:(Run.Tally.create ~n:2 []) ~fault:[]
           body));
  Alcotest.check_raises "used tally"
    (Invalid_argument "Executor.run: the tally is not fresh") (fun () ->
      ignore (Executor.run ~n:2 ~source ~max_steps:5 ~tally body))

let test_executor_crash_at_zero () =
  let body _ () = while true do Shm.pause () done in
  let source ~live = Generators.round_robin ~live ~n:2 () in
  let run = Executor.run ~n:2 ~source ~max_steps:10 ~fault:[ (1, 0) ] body in
  Alcotest.(check int) "never scheduled" 0 run.Run.steps_of.(1);
  Alcotest.(check int) "other got all" 10 run.Run.steps_of.(0)

let test_executor_all_crash () =
  let body _ () = while true do Shm.pause () done in
  let source ~live = Generators.round_robin ~live ~n:2 () in
  let run = Executor.run ~n:2 ~source ~max_steps:1000 ~fault:[ (0, 2); (1, 2) ] body in
  Alcotest.(check bool) "all halted reason" true (run.Run.reason = Run.All_halted);
  Alcotest.(check int) "total steps" 4 (Run.total_steps run)

let test_executor_stop_predicate () =
  let count = ref 0 in
  let body _ () =
    while true do
      Shm.pause ();
      incr count
    done
  in
  let source ~live = Generators.round_robin ~live ~n:2 () in
  let run =
    Executor.run ~n:2 ~source ~max_steps:1000 ~stop:(fun () -> !count >= 7) body
  in
  Alcotest.(check bool) "stopped early" true (run.Run.reason = Run.Stopped_early);
  (* local code after a pause runs on the process's next grant, so the
     counter lags the step count by up to one step per process *)
  Alcotest.(check int) "count at stop" 7 !count;
  Alcotest.(check bool) "within the lag window" true
    (let s = Run.total_steps run in
     s >= 7 && s <= 9)

let test_executor_on_step_observer () =
  let seen = ref [] in
  let body _ () = while true do Shm.pause () done in
  let source ~live = Generators.round_robin ~live ~n:2 () in
  let on_step ~global ~proc = seen := (global, proc) :: !seen in
  ignore (Executor.run ~n:2 ~source ~max_steps:4 ~on_step body);
  Alcotest.(check (list (pair int int))) "observed in order"
    [ (0, 0); (1, 1); (2, 0); (3, 1) ]
    (List.rev !seen)

let test_executor_source_exhaustion () =
  let body _ () = while true do Shm.pause () done in
  let source ~live:_ = Source.of_schedule (Schedule.of_list ~n:2 [ 0; 1; 0 ]) in
  let run = Executor.run ~n:2 ~source ~max_steps:100 body in
  Alcotest.(check bool) "exhausted" true (run.Run.reason = Run.Source_exhausted);
  Alcotest.(check int) "three steps" 3 (Run.total_steps run)

let test_executor_skips_dead_in_replay () =
  (* a fixed schedule naming a crashed process: steps are skipped, not
     executed *)
  let store = Store.create () in
  let counter = Store.register store ~name:"c" 0 in
  let body _ () =
    while true do
      let v = Shm.read counter in
      Shm.write counter (v + 1)
    done
  in
  let sched = Schedule.of_list ~n:2 [ 0; 0; 0; 0; 1; 0; 1; 0 ] in
  let run = Executor.replay ~n:2 ~schedule:sched ~fault:[ (0, 2) ] body in
  Alcotest.(check int) "p1 stopped at 2" 2 run.Run.steps_of.(0);
  Alcotest.(check int) "p2 took its steps" 2 run.Run.steps_of.(1);
  (* taken schedule contains only executed steps *)
  Alcotest.check schedule "taken" (Schedule.of_list ~n:2 [ 0; 0; 1; 1 ]) run.Run.taken

let test_executor_stall_detection () =
  (* a source that forever names a crashed process stalls the run *)
  let body _ () = while true do Shm.pause () done in
  let source ~live:_ = Source.cycle (Schedule.of_list ~n:2 [ 1 ]) in
  let run = Executor.run ~n:2 ~source ~max_steps:10_000 ~fault:[ (1, 0) ] body in
  Alcotest.(check bool) "stalled" true (run.Run.reason = Run.Stalled);
  Alcotest.(check int) "nothing executed" 0 (Run.total_steps run)

let test_run_correct_and_pp () =
  let body _ () = while true do Shm.pause () done in
  let source ~live = Generators.round_robin ~live ~n:3 () in
  let run = Executor.run ~n:3 ~source ~max_steps:50 ~fault:[ (2, 5) ] body in
  Alcotest.(check int) "correct count" 2 (Procset.cardinal (Run.correct run));
  Alcotest.(check bool) "pp smoke" true (String.length (Fmt.str "%a" Run.pp run) > 0)

(* pause steps consume schedule budget without touching any register *)
let test_pause_step_accounting () =
  let store = Store.create () in
  let r = Store.register store ~name:"r" 0 in
  let body p () =
    if p = 0 then
      while true do
        Shm.pause ()
      done
    else
      while true do
        Shm.write r (Shm.read r + 1)
      done
  in
  let source ~live = Generators.round_robin ~live ~n:2 () in
  let run = Executor.run ~n:2 ~source ~max_steps:10 body in
  Alcotest.(check int) "pauses counted as steps" 5 run.Run.steps_of.(0);
  Alcotest.(check int) "worker stepped as often" 5 run.Run.steps_of.(1);
  Alcotest.(check int) "pauses left no footprint" 5
    (Register.reads r + Register.writes r)

(* a fault whose budget runs out on a pause step: the pause executes,
   the process is dead from then on, and the local code after the pause
   (which would run on the next grant) is never reached *)
let test_crash_on_pause_step () =
  let after_pause = ref 0 in
  let body p () =
    if p = 0 then
      while true do
        Shm.pause ();
        incr after_pause
      done
    else
      while true do
        Shm.pause ()
      done
  in
  let sched = Schedule.of_list ~n:2 [ 0; 0; 0; 1; 0; 0; 1 ] in
  let run = Executor.replay ~n:2 ~schedule:sched ~fault:[ (0, 3) ] body in
  Alcotest.(check int) "exactly the budget" 3 run.Run.steps_of.(0);
  Alcotest.(check bool) "crashed" true (Procset.mem 0 (Run.crashed run));
  (* the grant resuming after pause k is step k+1; with the crash on
     step 3 only the code after pauses 1 and 2 ever ran *)
  Alcotest.(check int) "post-pause code stops with the crash" 2 !after_pause;
  (* schedule entries naming the dead process are skipped, not executed *)
  Alcotest.check schedule "taken" (Schedule.of_list ~n:2 [ 0; 0; 0; 1; 1 ]) run.Run.taken;
  match run.Run.crashes with
  | [ (0, 2) ] -> ()
  | _ -> Alcotest.fail "expected p0's crash recorded at global step 2"

(* step accounting: one shared op per scheduled step *)
let test_step_accounting () =
  let store = Store.create () in
  let r = Store.register store ~name:"r" 0 in
  let body _ () =
    for _ = 1 to 10 do
      ignore (Shm.read r)
    done
  in
  let source ~live = Generators.round_robin ~live ~n:1 () in
  let run = Executor.run ~n:1 ~source ~max_steps:100 body in
  (* 10 reads + 1 finishing step *)
  Alcotest.(check int) "reads counted" 10 (Register.reads r);
  Alcotest.(check int) "steps = ops + final halt" 11 (Run.total_steps run)

let () =
  Alcotest.run "setsync_runtime"
    [
      ( "fiber",
        [
          Alcotest.test_case "one action per step" `Quick test_fiber_one_action_per_step;
          Alcotest.test_case "result delivery" `Quick test_fiber_result_delivery;
          Alcotest.test_case "empty body" `Quick test_fiber_empty_body;
          Alcotest.test_case "exception propagates" `Quick test_fiber_exception_propagates;
          Alcotest.test_case "atomic outside fiber" `Quick test_atomic_outside_fiber;
        ] );
      ( "fault",
        [
          Alcotest.test_case "budgets" `Quick test_fault_budgets;
          Alcotest.test_case "validation" `Quick test_fault_validate;
          Alcotest.test_case "tally save/restore" `Quick test_tally_save_restore;
          Alcotest.test_case "tally savepoints: a stack" `Quick test_tally_savepoint_stack;
        ] );
      ( "executor",
        [
          Alcotest.test_case "race interleaving" `Quick test_executor_replay_interleaving;
          Alcotest.test_case "sequential execution" `Quick test_executor_sequential_no_race;
          Alcotest.test_case "records taken schedule" `Quick test_executor_records_taken_schedule;
          Alcotest.test_case "crash injection" `Quick test_executor_crash_injection;
          Alcotest.test_case "live tally" `Quick test_executor_live_tally;
          Alcotest.test_case "crash at zero" `Quick test_executor_crash_at_zero;
          Alcotest.test_case "all crash" `Quick test_executor_all_crash;
          Alcotest.test_case "stop predicate" `Quick test_executor_stop_predicate;
          Alcotest.test_case "on_step observer" `Quick test_executor_on_step_observer;
          Alcotest.test_case "source exhaustion" `Quick test_executor_source_exhaustion;
          Alcotest.test_case "replay skips dead" `Quick test_executor_skips_dead_in_replay;
          Alcotest.test_case "stall detection" `Quick test_executor_stall_detection;
          Alcotest.test_case "run record" `Quick test_run_correct_and_pp;
          Alcotest.test_case "pause step accounting" `Quick test_pause_step_accounting;
          Alcotest.test_case "crash on a pause step" `Quick test_crash_on_pause_step;
          Alcotest.test_case "step accounting" `Quick test_step_accounting;
        ] );
    ]
