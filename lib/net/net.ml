module Proc = Setsync_schedule.Proc
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Fiber = Setsync_runtime.Fiber
module Substrate = Setsync_runtime.Substrate
module Obs = Setsync_obs.Obs
module Metrics = Setsync_obs.Metrics
module Events = Setsync_obs.Events
module Json = Setsync_obs.Json

type meters = {
  sent_c : Metrics.counter;
  delivered_c : Metrics.counter;
  dropped_c : Metrics.counter;
  in_flight_g : Metrics.gauge;
  delay_h : Metrics.histogram;
  (* latency attribution (DESIGN.md §9): for every delivered message,
     delay = adv + forced + fifo; the excess histogram isolates the
     pre-GST allowance (the part of the delay only a pre-GST send may
     have, i.e. max 0 (delay - Δ)). *)
  adv_h : Metrics.histogram;
  forced_h : Metrics.histogram;
  fifo_h : Metrics.histogram;
  excess_h : Metrics.histogram;
}

type t = {
  n : int;
  adversary : Adversary.t;
  (* Per-pair FIFO channels and per-process inboxes are ordinary
     registers of the run's own store, so Mirror snapshots and state
     fingerprints see the network for free. Channel entries are
     [(deliver_at, msg)], monotone in [deliver_at] by the FIFO clamp,
     so the due part is always a prefix. *)
  chans : (int * Msg.t) list Register.t array array;
  inboxes : Msg.t list Register.t array;
  clock : int Register.t;
  (* Per-pair sequence counters live outside the store but are NOT
     derivable from it: dropped messages bump the counter without ever
     touching a channel register, and [Adversary.due_tick] keys drop
     decisions on [seq], so two states with equal registers and
     different counters can have different futures. The substrate's
     [snapshot]/[save] expose and capture them (and the GST latch)
     for exactly that reason. *)
  seqs : int array array;
  (* A derived index of the channel registers, so a step pays for the
     messages that are due rather than for all n² channels. [live]
     holds the ids [src * n + dst] of the nonempty channels in
     ascending (src, dst) order, in its first [n_live] slots;
     [tail_due.(id)] is the due tick of channel [id]'s last entry
     (meaningful while it is live); [next_due] is the least head due
     tick over all live channels ([max_int] when none is). Unlike the
     counters it is a function of the registers, so [snapshot] leaves
     it out, but [save] captures it: a restore pokes the registers
     back and must bring the index with them. *)
  live : int array;
  mutable n_live : int;
  tail_due : int array;
  mutable next_due : int;
  mutable gst_passed : bool;
  (* running tallies for reports; behaviour-invisible *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable in_flight : int;
  mutable current : int;  (* the stepping process, [-1] before the first step *)
  meters : meters option;
  ev : (Events.t * int array) option;  (* the sink, and the values of the event being traced *)
  (* per-granted-step hook, run at the end of [pre_step] after the
     flush: the round-batched register layer ({!Netmem}) installs its
     pump here so stashed operations move at the owning process's own
     grant, never at another's. *)
  mutable step_hook : (global:int -> proc:Proc.t -> unit) option;
}

(* The per-message events, declared once. Every shape but the inflight
   pair keys a message by its lineage: [mid], its [(src, dst, seq)]
   FIFO slot, and the [step] of the event. *)
let lineage = List.map (fun k -> (k, Events.Int_key)) [ "mid"; "src"; "dst"; "seq"; "step" ]

let send_shape = Events.shape ~cat:"net" "send" lineage

let drop_shape = Events.shape ~cat:"net" "drop" (lineage @ [ ("pre_gst", Events.Bool_key) ])

let deliver_shape =
  Events.shape ~cat:"net" "deliver"
    (lineage
    @ List.map
        (fun k -> (k, Events.Int_key))
        [ "sent"; "delay"; "adv"; "forced"; "fifo"; "denied" ]
    @ [ ("pre_gst", Events.Bool_key) ])

let inflight_begin =
  Events.shape ~phase:Events.Async_begin ~id:true ~cat:"net" "inflight" [ ("due", Events.Int_key) ]

let inflight_end = Events.shape ~phase:Events.Async_end ~id:true ~cat:"net" "inflight" []

(* [vals]' first six slots: the event's proc, then [lineage] *)
let put_lineage vals ~proc ~mid ~src ~dst ~seq ~step =
  vals.(0) <- proc;
  vals.(1) <- mid;
  vals.(2) <- src;
  vals.(3) <- dst;
  vals.(4) <- seq;
  vals.(5) <- step

let pp_entry ppf (at, m) = Fmt.pf ppf "%d>%a" at Msg.pp m

let pp_chan ppf q = Fmt.(brackets (list ~sep:comma pp_entry)) ppf q

let pp_inbox ppf q = Fmt.(brackets (list ~sep:comma Msg.pp)) ppf q

(* State keys split channels and inboxes where these printers do: a
   message id is lineage metadata that [Msg.pp] leaves out. *)
let anon m = { m with Msg.mid = 0 }

let hash_chan q = Store.hash (List.map (fun (at, m) -> (at, anon m)) q)

let hash_inbox q = Store.hash (List.map anon q)

let create ?obs ~store ~n ~adversary () =
  Proc.check_n n;
  let chans =
    Store.matrix store ~pp:pp_chan ~hash:hash_chan ~name:"Chan" ~rows:n ~cols:n
      (fun _ _ -> [])
  in
  let inboxes = Store.array store ~pp:pp_inbox ~hash:hash_inbox ~name:"Inbox" n (fun _ -> []) in
  let clock = Store.register store ~pp:Fmt.int ~name:"NetClock" 0 in
  let meters =
    match obs with
    | None -> None
    | Some o ->
        Some
          {
            sent_c = Metrics.counter o.Obs.metrics "net.sent";
            delivered_c = Metrics.counter o.Obs.metrics "net.delivered";
            dropped_c = Metrics.counter o.Obs.metrics "net.dropped";
            in_flight_g = Metrics.gauge o.Obs.metrics "net.in_flight";
            delay_h = Metrics.histogram o.Obs.metrics "net.delivery_delay";
            adv_h = Metrics.histogram o.Obs.metrics "net.delay_adversary";
            forced_h = Metrics.histogram o.Obs.metrics "net.delay_forced";
            fifo_h = Metrics.histogram o.Obs.metrics "net.delay_fifo";
            excess_h = Metrics.histogram o.Obs.metrics "net.delay_pregst_excess";
          }
  in
  let ev =
    match obs with
    | Some o when Obs.events_on o -> Some (o.Obs.events, Array.make (Events.arity deliver_shape) 0)
    | _ -> None
  in
  {
    n;
    adversary;
    chans;
    inboxes;
    clock;
    seqs = Array.make_matrix n n 0;
    live = Array.make (n * n) 0;
    n_live = 0;
    tail_due = Array.make (n * n) 0;
    next_due = max_int;
    gst_passed = false;
    sent = 0;
    delivered = 0;
    dropped = 0;
    in_flight = 0;
    current = -1;
    meters;
    ev;
    step_hook = None;
  }

let n t = t.n

let now t = Register.peek t.clock

let current t =
  if t.current < 0 then invalid_arg "Net: no process is stepping (primitive used outside a run?)";
  t.current

(* Insert channel [id], just become nonempty, into [live], keeping
   the ascending order the flush visits channels in. *)
let add_live t id =
  let i = ref t.n_live in
  while !i > 0 && t.live.(!i - 1) > id do
    t.live.(!i) <- t.live.(!i - 1);
    decr i
  done;
  t.live.(!i) <- id;
  t.n_live <- t.n_live + 1

(* Enqueue or drop one message; runs inside the sender's atomic action.
   Nothing about the delay's make-up is stored: delivery re-derives it
   (see [attribute]). The message record is built only for a message
   that is enqueued: a dropped one lives on in its events alone. *)
let enqueue t ~src ~dst payload =
  Proc.check ~n:t.n dst;
  let now = Register.peek t.clock in
  let seq = t.seqs.(src).(dst) in
  t.seqs.(src).(dst) <- seq + 1;
  let mid = t.sent in
  t.sent <- t.sent + 1;
  (match t.meters with Some ms -> Metrics.incr ms.sent_c | None -> ());
  (match t.ev with
  | Some (sink, vals) ->
      put_lineage vals ~proc:src ~mid ~src ~dst ~seq ~step:now;
      Events.emit_shape sink send_shape ~ts:now vals
  | None -> ());
  match Adversary.due_tick t.adversary ~now ~src ~dst ~seq with
  | -1 ->
      t.dropped <- t.dropped + 1;
      (match t.meters with Some ms -> Metrics.incr ms.dropped_c | None -> ());
      (match t.ev with
      | Some (sink, vals) ->
          put_lineage vals ~proc:src ~mid ~src ~dst ~seq ~step:now;
          vals.(6) <- 1;
          Events.emit_shape sink drop_shape ~ts:now vals
      | None -> ())
  | at0 ->
      let q = Register.peek t.chans.(src).(dst) in
      let id = (src * t.n) + dst in
      (* FIFO: never overtake the message already at the tail *)
      let at =
        match q with
        | [] ->
            add_live t id;
            if at0 < t.next_due then t.next_due <- at0;
            at0
        | _ -> max at0 t.tail_due.(id)
      in
      t.tail_due.(id) <- at;
      let m = { Msg.mid; src; dst; seq; sent_at = now; payload } in
      Register.write t.chans.(src).(dst) (q @ [ (at, m) ]);
      t.in_flight <- t.in_flight + 1;
      (match t.ev with
      | Some (sink, vals) ->
          vals.(0) <- src;
          vals.(1) <- mid;
          vals.(2) <- at;
          Events.emit_shape sink inflight_begin ~ts:now vals
      | None -> ());
      (match t.meters with
      | Some ms -> Metrics.set ms.in_flight_g (float_of_int t.in_flight)
      | None -> ())

(* Latency attribution of a message delivered from a channel entry
   [(at, m)] (DESIGN.md §9). [Adversary.decide] is a pure function of
   [(now, src, dst, seq)], so asking again at the send's coordinates
   reproduces the enqueue-time verdict, and [at0] is its unclamped due
   tick. [adv]: adversary-chosen ticks that survived the clamps;
   [forced]: model-imposed ticks (a post-GST drop held for Δ); [fifo]:
   extra ticks from the no-overtaking clamp; [denied]: requested ticks
   the model refused (not part of the realized delay); [pre_gst]: sent
   before GST. *)
let attribute t (at, m) =
  let v =
    Adversary.due_explained t.adversary ~now:m.Msg.sent_at ~src:m.Msg.src ~dst:m.Msg.dst
      ~seq:m.Msg.seq
  in
  match v.Adversary.due_at with
  | None -> invalid_arg "Net: a delivered message re-decides as a drop (impure Adversary.decide)"
  | Some at0 ->
      let sched = at0 - m.Msg.sent_at in
      let adv, forced = if v.Adversary.forced then (0, sched) else (sched, 0) in
      (adv, forced, at - at0, v.Adversary.denied, v.Adversary.pre_gst)

(* Book one delivered channel entry [(at, m)]: tallies, meters and
   events. Called only when meters or events are on. *)
let book_delivery t ~clock ~dst ((_, m) as entry) =
  t.delivered <- t.delivered + 1;
  t.in_flight <- t.in_flight - 1;
  let delay = clock - m.Msg.sent_at in
  let adv, forced, fifo, denied, pre_gst = attribute t entry in
  (match t.meters with
  | Some ms ->
      Metrics.incr ms.delivered_c;
      Metrics.observe ms.delay_h (float_of_int delay);
      Metrics.observe ms.adv_h (float_of_int adv);
      Metrics.observe ms.forced_h (float_of_int forced);
      Metrics.observe ms.fifo_h (float_of_int fifo);
      if pre_gst then
        Metrics.observe ms.excess_h
          (float_of_int (max 0 (delay - t.adversary.Adversary.delta)))
  | None -> ());
  match t.ev with
  | Some (sink, vals) ->
      put_lineage vals ~proc:dst ~mid:m.Msg.mid ~src:m.Msg.src ~dst:m.Msg.dst ~seq:m.Msg.seq
        ~step:clock;
      vals.(6) <- m.Msg.sent_at;
      vals.(7) <- delay;
      vals.(8) <- adv;
      vals.(9) <- forced;
      vals.(10) <- fifo;
      vals.(11) <- denied;
      vals.(12) <- Bool.to_int pre_gst;
      Events.emit_shape sink deliver_shape ~ts:clock vals;
      (* its first two values, [dst] and [mid], are the span end's fields *)
      Events.emit_shape sink inflight_end ~ts:clock vals
  | None -> ()

(* The length of a channel's due prefix: FIFO keeps due ticks
   monotone along a channel, so the due entries come first. *)
let rec due_count clock k = function
  | (at, _) :: rest when at <= clock -> due_count clock (k + 1) rest
  | _ -> k

let rec drop k q = if k = 0 then q else match q with _ :: rest -> drop (k - 1) rest | [] -> []

(* [inbox] followed by the messages of [q]'s first [k] entries. *)
let[@tail_mod_cons] rec append_due inbox q k =
  match inbox with
  | m :: rest -> m :: append_due rest q k
  | [] -> (
      if k = 0 then []
      else match q with (_, m) :: rest -> m :: append_due [] rest (k - 1) | [] -> [])

let rec book_prefix t ~clock ~dst q k =
  if k > 0 then
    match q with
    | entry :: rest ->
        book_delivery t ~clock ~dst entry;
        book_prefix t ~clock ~dst rest (k - 1)
    | [] -> ()

(* Move every due message to its inbox. Reads are observer [peek]s
   (cheap, uncounted); the writes that change behaviour go through
   [Register.write] so replay footprints include them. Runs in
   [pre_step], before the granted process's atomic action — a message
   due at tick [g] is readable by a recv executed at global step [g].
   Before [next_due] nothing is due; after it only the live channels
   are visited, in (src, dst) order, and those left empty drop out.
   Deliveries are booked one by one only when meters or events need
   them; otherwise the tallies move by the count. *)
let flush t ~clock =
  if clock >= t.next_due then begin
    let kept = ref 0 and next_due = ref max_int in
    let itemized = Option.is_some t.meters || Option.is_some t.ev in
    for i = 0 to t.n_live - 1 do
      let id = t.live.(i) in
      let src = id / t.n and dst = id mod t.n in
      let q = Register.peek t.chans.(src).(dst) in
      let due = due_count clock 0 q in
      let rest = drop due q in
      if due > 0 then begin
        Register.write t.chans.(src).(dst) rest;
        Register.write t.inboxes.(dst) (append_due (Register.peek t.inboxes.(dst)) q due);
        if itemized then book_prefix t ~clock ~dst q due
        else begin
          t.delivered <- t.delivered + due;
          t.in_flight <- t.in_flight - due
        end
      end;
      match rest with
      | [] -> ()
      | (head, _) :: _ ->
          t.live.(!kept) <- id;
          incr kept;
          if head < !next_due then next_due := head
    done;
    t.n_live <- !kept;
    t.next_due <- !next_due
  end;
  match t.meters with
  | Some ms -> Metrics.set ms.in_flight_g (float_of_int t.in_flight)
  | None -> ()

let pre_step t ~global ~proc =
  Register.poke t.clock global;
  t.current <- proc;
  if (not t.gst_passed) && global >= t.adversary.Adversary.gst then begin
    t.gst_passed <- true;
    match t.ev with
    | Some (sink, _) ->
        Events.emit sink ~args:[ ("step", Json.Int global) ] ~ts:global ~cat:"net" "gst"
    | None -> ()
  end;
  flush t ~clock:global;
  match t.step_hook with None -> () | Some hook -> hook ~global ~proc

let set_step_hook t hook = t.step_hook <- hook

module Net_substrate = struct
  type nonrec t = t

  let name t = Printf.sprintf "net(%s,delta=%d)" t.adversary.Adversary.name t.adversary.Adversary.delta

  let live _ _ = true

  let pre_step = pre_step

  (* Channels, inboxes and the clock are store registers, so the run's
     own snapshot covers those — but the per-pair sequence counters and
     the GST latch live outside the store and do change behaviour
     ([Adversary.due_tick ~seq] decides drops; the latch gates the gst
     event), so they are the substrate's contribution to a state.
     The running tallies stay out: they are stats-only and including
     them would make every state fingerprint-distinct. *)
  let snapshot t =
    let b = Buffer.create 64 in
    Array.iter
      (fun row ->
        Array.iter
          (fun s ->
            Buffer.add_string b (string_of_int s);
            Buffer.add_char b ',')
          row)
      t.seqs;
    [ ("NetSeqs", Buffer.contents b); ("NetGst", string_of_bool t.gst_passed) ]

  let save t =
    let seqs = Array.map Array.copy t.seqs in
    let live = Array.sub t.live 0 t.n_live
    and tail_due = Array.copy t.tail_due
    and next_due = t.next_due in
    let gst_passed = t.gst_passed in
    let sent = t.sent
    and delivered = t.delivered
    and dropped = t.dropped
    and in_flight = t.in_flight in
    fun () ->
      Array.iteri (fun i row -> Array.blit row 0 t.seqs.(i) 0 (Array.length row)) seqs;
      Array.blit live 0 t.live 0 (Array.length live);
      t.n_live <- Array.length live;
      Array.blit tail_due 0 t.tail_due 0 (Array.length tail_due);
      t.next_due <- next_due;
      t.gst_passed <- gst_passed;
      t.sent <- sent;
      t.delivered <- delivered;
      t.dropped <- dropped;
      t.in_flight <- in_flight
end

let substrate t = Substrate.S ((module Net_substrate), t)

let send t ~dst payload =
  Fiber.atomic (fun () ->
      let src = current t in
      enqueue t ~src ~dst payload)

(* Hook-side primitives: the same footprints as their fiber
   counterparts, but callable from inside an already-running atomic
   action or the pre-step hook (no [Fiber.atomic] wrapper, explicit
   identity where the ambient [current] is not the acting process). *)

let send_now t ~src ~dst payload = enqueue t ~src ~dst payload

let drain_now t p =
  match Register.read t.inboxes.(p) with
  | [] -> []
  | msgs ->
      Register.write t.inboxes.(p) [];
      msgs

let recv t = Fiber.atomic (fun () -> drain_now t (current t))

let pause _t = Fiber.atomic (fun () -> ())

let rec send_replies t ~src = function
  | [] -> ()
  | (dst, payload) :: rest ->
      enqueue t ~src ~dst payload;
      send_replies t ~src rest

let rec serve_all t ~handle ~src = function
  | [] -> ()
  | m :: rest ->
      send_replies t ~src (handle m);
      serve_all t ~handle ~src rest

let step_serve t ~handle =
  Fiber.atomic (fun () ->
      let p = current t in
      serve_all t ~handle ~src:p (drain_now t p))

let push_back_now t p msgs =
  if msgs <> [] then Register.write t.inboxes.(p) (msgs @ Register.peek t.inboxes.(p))

(* Would a serve step by [dst] at network time [at] do useful work?
   True iff its inbox is nonempty or some channel toward it has a due
   head (FIFO keeps [deliver_at] monotone per channel, so checking the
   head suffices). Answered from the live-channel index, with observer
   peeks only — usable by a scheduling policy without perturbing replay
   footprints. *)
let rec due_toward t ~dst ~at i =
  i < t.n_live
  && ((let id = t.live.(i) in
       id mod t.n = dst
       && match Register.peek t.chans.(id / t.n).(dst) with (h, _) :: _ -> h <= at | [] -> false)
     || due_toward t ~dst ~at (i + 1))

let servable t ~dst ~at =
  Register.peek t.inboxes.(dst) <> [] || (at >= t.next_due && due_toward t ~dst ~at 0)

type stats = { sent : int; delivered : int; dropped : int; in_flight : int }

let stats (t : t) =
  { sent = t.sent; delivered = t.delivered; dropped = t.dropped; in_flight = t.in_flight }
