module Proc = Setsync_schedule.Proc

type t = {
  net : Net.t;
  me : Proc.t;
  n : int;
  gst_hint : int;
  backoff : int;
  last_hb : int array;
  timeout : int array;
  suspects : bool array;
  mutable leader : Proc.t;
  mutable rounds : int;
  mutable cur_start : int;
  mutable completed_start : int;
  mutable post_gst_end : int option;
}

let create ?(initial_timeout = 3) ?(backoff = 64) ~net ~clients ~me ~gst_hint () =
  if initial_timeout < 1 then invalid_arg "Ct_detector.create: initial_timeout >= 1";
  Proc.check ~n:clients me;
  {
    net;
    me;
    n = clients;
    gst_hint;
    backoff;
    last_hb = Array.make clients 0;
    timeout = Array.make clients initial_timeout;
    suspects = Array.make clients false;
    leader = 0;
    rounds = 0;
    cur_start = 0;
    completed_start = -1;
    post_gst_end = None;
  }

let elect t =
  let rec first q = if q >= t.n then t.me else if not t.suspects.(q) then q else first (q + 1) in
  t.leader <- first 0

(* One round: broadcast a heartbeat (n-1 send steps), then one recv
   step. [now] is captured just before the recv, so it names the recv
   step's clock; the bookkeeping below it executes during the process's
   next granted step, which is when the round counts as completed. *)
let round t =
  t.cur_start <- Net.now t.net;
  for q = 0 to t.n - 1 do
    if q <> t.me then Net.send t.net ~dst:q Msg.Hb
  done;
  let now = Net.now t.net in
  let msgs = Net.recv t.net in
  List.iter
    (fun m ->
      match m.Msg.payload with
      | Msg.Hb ->
          let q = m.Msg.src in
          t.last_hb.(q) <- now;
          if t.suspects.(q) then begin
            (* wrongly suspected once: back off so far that within any
               bounded horizon q is never suspected again *)
            t.suspects.(q) <- false;
            t.timeout.(q) <- t.timeout.(q) + t.backoff
          end
      | _ -> ())
    msgs;
  for q = 0 to t.n - 1 do
    if q <> t.me && (not t.suspects.(q)) && now - t.last_hb.(q) > t.timeout.(q) then
      t.suspects.(q) <- true
  done;
  elect t;
  t.rounds <- t.rounds + 1;
  t.completed_start <- t.cur_start;
  if t.post_gst_end = None && t.cur_start >= t.gst_hint then t.post_gst_end <- Some now

let body t () =
  while true do
    round t
  done

let leader t = t.leader

let rounds t = t.rounds

let suspects t = Array.copy t.suspects

let completed_start t = t.completed_start

let post_gst_end t = t.post_gst_end
