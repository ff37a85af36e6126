(* The traced run's instrumentation: wrappers around the public values
   and functions the benchmark hands to each layer. Each wrapper opens
   a span (see Span) around the call it forwards and bumps a counter.
   Nothing here changes what the wrapped value computes, which the
   fidelity check confirms against an untraced run. *)

module Substrate = Setsync_runtime.Substrate
module Source = Setsync_schedule.Source
module Explorer = Setsync_explore.Explorer
module Property = Setsync_explore.Property

type counters = {
  mutable steps : int;  (** substrate pre-steps: executor-granted steps *)
  mutable client_steps : int;
  mutable owner_turns : int;
  mutable useful_turns : int;  (** owner turns that served at least one message *)
  mutable serves : int;
  mutable turn_start_serves : int;
  mutable in_owner_turn : bool;
  mutable policy_calls : int;
  mutable policy_hits : int;
  mutable boost_pending : int;  (** process the last policy hit named, or -1 *)
  mutable boosted : int;
  mutable step_open : bool;
}

let counters () =
  {
    steps = 0;
    client_steps = 0;
    owner_turns = 0;
    useful_turns = 0;
    serves = 0;
    turn_start_serves = 0;
    in_owner_turn = false;
    policy_calls = 0;
    policy_hits = 0;
    boost_pending = -1;
    boosted = 0;
    step_open = false;
  }

(* A substrate that forwards to [inner] except for [pre_step] and
   [snapshot], which the caller supplies. *)
module Forward = struct
  type t = {
    inner : Substrate.t;
    pre : global:int -> proc:int -> unit;
    snap : unit -> (string * string) list;
  }

  let name w = Substrate.name w.inner

  let live w p = Substrate.live w.inner p

  let pre_step w ~global ~proc = w.pre ~global ~proc

  let snapshot w = w.snap ()

  let save w = Substrate.save w.inner
end

let forward inner ~pre ~snap = Substrate.S ((module Forward), { Forward.inner; pre; snap })

(* ------------------------------------------------------------ solve *)

(* Executor-driven runs. The executor calls pre_step, then the fiber
   step, then on_step; the traced solve keeps [Span.grant] open from
   each on_step to the next pre_step, so the executor's own work lands
   there, with source pulls and policy calls as its children. Work
   before the first pre_step and after the last on_step is the
   harness's set-up and teardown, and stays out of [Span.grant]. *)

let source sp src =
  Source.make ~n:(Source.n src) (fun () ->
      Span.enter sp Span.pull;
      let r = Source.next src in
      Span.leave sp;
      r)

let boost sp c policy ~global ~next =
  Span.enter sp Span.policy;
  let r = policy ~global ~next in
  Span.leave sp;
  c.policy_calls <- c.policy_calls + 1;
  (match r with
  | Some q ->
      c.policy_hits <- c.policy_hits + 1;
      if q <> next then c.boost_pending <- q
  | None -> ());
  r

let solve_substrate sp c ~clients inner =
  let pre ~global ~proc =
    if Span.innermost sp = Span.grant then Span.switch sp Span.pre_step
    else Span.enter sp Span.pre_step;
    Substrate.pre_step inner ~global ~proc;
    c.steps <- c.steps + 1;
    if c.boost_pending = proc then c.boosted <- c.boosted + 1;
    c.boost_pending <- -1;
    if proc < clients then begin
      c.client_steps <- c.client_steps + 1;
      Span.switch sp Span.local
    end
    else begin
      c.owner_turns <- c.owner_turns + 1;
      c.turn_start_serves <- c.serves;
      c.in_owner_turn <- true;
      Span.switch sp Span.owner_turn
    end
  in
  forward inner ~pre ~snap:(fun () -> Substrate.snapshot inner)

let on_step sp c ~global:_ ~proc:_ =
  if c.in_owner_turn then begin
    if c.serves > c.turn_start_serves then c.useful_turns <- c.useful_turns + 1;
    c.in_owner_turn <- false
  end;
  Span.switch sp Span.grant

(* Once the harness returns, the grant the last on_step opened covers
   its teardown, not executor work. *)
let end_solve sp = if Span.innermost sp = Span.grant then Span.cut sp

let serve sp c handle m =
  Span.enter sp Span.serve;
  let r = handle m in
  Span.leave sp;
  c.serves <- c.serves + 1;
  r

(* ----------------------------------------------------- explore, fuzz *)

(* Engine-driven runs. The engines call the sut's hooks; a fiber step
   under replay has no closing hook of its own, so its span stays open
   until the next hook of any kind starts. *)

let close_step sp c =
  if c.step_open then begin
    Span.leave sp;
    c.step_open <- false
  end

let hook sp c name f =
  close_step sp c;
  Span.enter sp name;
  let r = f () in
  Span.leave sp;
  r

(* The engine call itself (Explorer.explore, Fuzz.run): its self time
   is the engine's own work between hooks. *)
let engine sp c f =
  Span.enter sp Span.engine;
  let r = f () in
  close_step sp c;
  Span.leave sp;
  r

(* [timed_pre]: time the substrate's own pre-step work as net.pre_step
   (the shared-memory substrate has none worth a span). *)
let replay_substrate sp c ~timed_pre inner =
  let pre ~global ~proc =
    close_step sp c;
    if timed_pre then begin
      Span.enter sp Span.pre_step;
      Substrate.pre_step inner ~global ~proc;
      Span.switch sp Span.step
    end
    else begin
      Substrate.pre_step inner ~global ~proc;
      Span.enter sp Span.step
    end;
    c.steps <- c.steps + 1;
    c.step_open <- true
  in
  let snap () =
    close_step sp c;
    Substrate.snapshot inner
  in
  forward inner ~pre ~snap

let machine sp c (m : Explorer.minstance) =
  {
    m with
    Explorer.m_step =
      (fun p ->
        close_step sp c;
        Span.enter sp Span.step;
        m.Explorer.m_step p;
        Span.leave sp);
    m_save =
      (fun () ->
        let restore = hook sp c Span.save m.Explorer.m_save in
        fun () -> hook sp c Span.restore restore);
    m_payload =
      Option.map
        (fun render ~perm -> hook sp c Span.fingerprint (fun () -> render ~perm))
        m.Explorer.m_payload;
  }

let sut sp c (s : 'o Explorer.sut) : 'o Explorer.sut =
  let fresh ~store =
    let inst = hook sp c Span.fresh (fun () -> s.Explorer.fresh ~store) in
    let machine = Option.map (machine sp c) inst.Explorer.machine in
    let substrate =
      match (inst.Explorer.substrate, machine) with
      | Some sub, _ -> Some (replay_substrate sp c ~timed_pre:true sub)
      | None, None -> Some (replay_substrate sp c ~timed_pre:false (Substrate.shm ~store))
      | None, Some _ -> None
    in
    {
      inst with
      Explorer.observe = (fun () -> hook sp c Span.observe inst.Explorer.observe);
      substrate;
      machine;
    }
  in
  {
    s with
    Explorer.fresh;
    obs_fingerprint = (fun o -> hook sp c Span.fingerprint (fun () -> s.Explorer.obs_fingerprint o));
  }

let property sp c (p : 's Property.t) =
  { p with Property.check = (fun st -> hook sp c Span.property (fun () -> p.Property.check st)) }
