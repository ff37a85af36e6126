module Proc = Setsync_schedule.Proc
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store
module Fiber = Setsync_runtime.Fiber

type mode = Per_op | Batched

exception Unserved of { rid : int; op : int }

type handler = { h_read : unit -> exn; h_write : exn -> unit; h_show : exn -> string }

(* One routed operation in flight from a client: issued at the call
   site, retired when its reply is absorbed. Per-op mode transmits it
   in its own send step; batched mode stashes it for the pump. *)
type pending = {
  op : int;  (** run-unique tag, echoed by the owner; dedups resends *)
  p_rid : int;
  owner : Proc.t;
  request : Msg.payload;
  mutable last_send : int;  (** network clock at the last transmission *)
}

type cstate = {
  mutable outq : pending list;  (** stashed, unsent — program order (batched) *)
  mutable sent : pending list;  (** in flight, awaiting reply — send order *)
  mutable got : (int * exn option) list;  (** op -> absorbed reply, awaiting its wait loop *)
  mutable blocked : bool;  (** parked in a reply wait loop *)
}

type t = {
  net : Net.t;
  clients : int;
  owners : int;
  mode : mode;
  resend_after : int option;
  max_wait : int option;
  handlers : (int, handler) Hashtbl.t;
  names : (string, int) Hashtbl.t;
  applied : (int, int) Hashtbl.t;
      (** rid -> highest write [op] applied to that register. The
          owner-side dedup line: with retransmission on, two unacked
          writes to one owner can be in flight at once, and FIFO does
          not order a retransmitted copy relative to messages sent in
          between it and its original — so a resent W1 can arrive
          after a later W2 was applied. Tags come from one monotone
          counter, so tag order extends program order (and any
          cross-client happens-before); a write at or below the
          register's high-water mark is stale — already applied, or
          superseded by an applied successor — and must be re-acked
          without applying, or the register regresses. *)
  cstates : cstate array;  (** indexed by client proc *)
  mutable op_ctr : int;
  mutable completed : int;
}

let owner_of t ~rid = t.clients + (rid mod t.owners)

let owner_of_name t name =
  match Hashtbl.find_opt t.names name with
  | Some rid -> Some (owner_of t ~rid)
  | None -> None

let fresh_op t =
  let op = t.op_ctr in
  t.op_ctr <- t.op_ctr + 1;
  op

(* ------------------------------------------------------ client pump *)

(* Transmit stashed ops in program order. An op may only go out while
   every unacked predecessor targets the same owner: per-channel FIFO
   then serializes same-owner ops at the server, and the barrier stops
   a later op from being applied before an earlier one bound elsewhere
   — all the sequential consistency a single client's program needs,
   since processes share state only through these registers. *)
let flush_ready t st ~src =
  let rec go () =
    match st.outq with
    | [] -> ()
    | o :: rest ->
        if List.for_all (fun s -> s.owner = o.owner) st.sent then begin
          o.last_send <- Net.now t.net;
          Net.send_now t.net ~src ~dst:o.owner o.request;
          st.outq <- rest;
          st.sent <- st.sent @ [ o ];
          go ()
        end
  in
  go ()

(* Classify one drained inbox: replies matching an in-flight op retire
   it (a batched write completes on the spot; read values and per-op
   write acks park in [got] for the wait loop); replies matching
   nothing are dead retransmission duplicates and are dropped;
   everything else — heartbeats, native values — is returned for
   push-back so the fiber still sees it. *)
let absorb t st msgs =
  List.filter
    (fun m ->
      let retire op value =
        match List.find_opt (fun s -> s.op = op) st.sent with
        | Some o ->
            st.sent <- List.filter (fun s -> s.op <> op) st.sent;
            (match (o.request, t.mode) with
            | Msg.Write_req _, Batched -> t.completed <- t.completed + 1
            | _ -> st.got <- (op, value) :: st.got);
            false
        | None -> false (* stale duplicate *)
      in
      match m.Msg.payload with
      | Msg.Read_reply { op; v; _ } -> retire op (Some v)
      | Msg.Write_ack { op; _ } -> retire op None
      | Msg.Hb | Msg.Value _ | Msg.Read_req _ | Msg.Write_req _ -> true)
    msgs

let resend t st ~src =
  match t.resend_after with
  | None -> ()
  | Some r ->
      let now = Net.now t.net in
      List.iter
        (fun o ->
          if now - o.last_send >= r then begin
            o.last_send <- now;
            Net.send_now t.net ~src ~dst:o.owner o.request
          end)
        st.sent

(* The pump: one full client turn, run inside whatever granted step is
   executing (batched mode's pre-step hook, or a wait-loop atomic in
   either mode). Absorb first — retiring replies may lift the
   owner-change barrier — then transmit, then retransmit the overdue.
   In per-op mode the stash is always empty, so a pump is a drain,
   a reply match and at most one retransmission. *)
let pump t p =
  if p < t.clients then begin
    let st = t.cstates.(p) in
    let keep = absorb t st (Net.drain_now t.net p) in
    Net.push_back_now t.net p keep;
    flush_ready t st ~src:p;
    resend t st ~src:p
  end

(* The mode decides when a request leaves. Per-op transmits it in a
   send step of its own; its retransmission clock starts at the
   caller's next step, when the fiber resumes. Batched stashes it and
   returns: this code runs inside the granted step that resumed the
   fiber, so mutating the client's own state here is race-free, and
   the pump transmits it at this client's next atomic or pre-step. *)
let issue t o =
  match t.mode with
  | Batched ->
      let st = t.cstates.(Net.current t.net) in
      st.outq <- st.outq @ [ o ]
  | Per_op ->
      Fiber.atomic (fun () ->
          let p = Net.current t.net in
          Net.send_now t.net ~src:p ~dst:o.owner o.request;
          t.cstates.(p).sent <- t.cstates.(p).sent @ [ o ]);
      o.last_send <- Net.now t.net

(* The one reply wait loop: each spin is one atomic that pumps, so
   replies flushed this very step are absorbed. The success check runs
   BETWEEN atomics: in batched mode the substrate's pre-step hook
   pumps before the fiber resumes, so a reply delivered this step is
   already parked in [got] when the resumed code looks — consuming
   reply k and stashing op k+1 then share one granted step, the hinge
   that takes C=1 from 1.5 to ~1.0 steps/op (DESIGN.md §10). *)
let await t o =
  let rec go spins =
    let st = t.cstates.(Net.current t.net) in
    match List.assoc_opt o.op st.got with
    | Some v ->
        st.got <- List.remove_assoc o.op st.got;
        st.blocked <- false;
        t.completed <- t.completed + 1;
        v
    | None ->
        (match t.max_wait with
        | Some w when spins >= w ->
            (* give the op up: withdrawn, it is neither resent nor
               holds the owner-change barrier for the client's next op *)
            st.outq <- List.filter (fun s -> s.op <> o.op) st.outq;
            st.sent <- List.filter (fun s -> s.op <> o.op) st.sent;
            st.blocked <- false;
            raise (Unserved { rid = o.p_rid; op = o.op })
        | _ -> ());
        Fiber.atomic (fun () ->
            let p = Net.current t.net in
            pump t p;
            t.cstates.(p).blocked <- not (List.mem_assoc o.op t.cstates.(p).got));
        go (spins + 1)
  in
  go 0

(* ---------------------------------------------------------- routing *)

(* The universal-type trick: each routed register gets its own local
   [exception V of a] constructor, so values cross the wire as [exn]
   yet only this register's handler and proxy can (un)pack them. *)
let route_for : type a. t -> a Register.t -> a Register.route option =
 fun t reg ->
  let module M = struct
    exception V of a
  end in
  let rid = Register.id reg in
  let show = function M.V v -> Register.render reg v | _ -> assert false in
  Hashtbl.replace t.names (Register.name reg) rid;
  Hashtbl.replace t.handlers rid
    {
      h_read = (fun () -> M.V (Register.read reg));
      h_write = (fun e -> match e with M.V v -> Register.write reg v | _ -> assert false);
      h_show = show;
    };
  let owner = owner_of t ~rid in
  let pending request =
    let op = fresh_op t in
    { op; p_rid = rid; owner; request = request op; last_send = 0 }
  in
  let route_read () =
    let o = pending (fun op -> Msg.Read_req { rid; op }) in
    issue t o;
    match await t o with Some (M.V v) -> v | _ -> assert false
  in
  let route_write v =
    let o = pending (fun op -> Msg.Write_req { rid; op; v = M.V v; show }) in
    issue t o;
    if t.mode = Per_op then match await t o with None -> () | Some _ -> assert false
  in
  Some { Register.route_read; route_write }

let install ?(mode = Per_op) ?resend_after ?max_wait ~net ~store ~clients ~owners () =
  if clients < 1 then invalid_arg "Netmem.install: need at least one client";
  if owners < 1 then invalid_arg "Netmem.install: need at least one owner";
  if clients + owners > Net.n net then
    invalid_arg "Netmem.install: clients + owners exceeds the network size";
  (match resend_after with
  | Some r when r < 1 -> invalid_arg "Netmem.install: resend_after must be >= 1"
  | _ -> ());
  let t =
    {
      net;
      clients;
      owners;
      mode;
      resend_after;
      max_wait;
      handlers = Hashtbl.create 64;
      names = Hashtbl.create 64;
      applied = Hashtbl.create 64;
      cstates =
        Array.init clients (fun _ -> { outq = []; sent = []; got = []; blocked = false });
      op_ctr = 0;
      completed = 0;
    }
  in
  Store.set_router store { Store.route_for = (fun reg -> route_for t reg) };
  if mode = Batched then
    Net.set_step_hook net (Some (fun ~global:_ ~proc -> pump t proc));
  t

let ops_completed t = t.completed

let serve t m =
  match m.Msg.payload with
  | Msg.Read_req { rid; op } ->
      let h = Hashtbl.find t.handlers rid in
      [ (m.Msg.src, Msg.Read_reply { rid; op; v = h.h_read (); show = h.h_show }) ]
  | Msg.Write_req { rid; op; v; _ } ->
      let stale =
        match Hashtbl.find_opt t.applied rid with Some last -> op <= last | None -> false
      in
      if not stale then begin
        (Hashtbl.find t.handlers rid).h_write v;
        Hashtbl.replace t.applied rid op
      end;
      (* stale or not, the ack goes out: the client may still be
         waiting on a lost ack for this very op *)
      [ (m.Msg.src, Msg.Write_ack { rid; op }) ]
  | Msg.Hb | Msg.Value _ | Msg.Read_reply _ | Msg.Write_ack _ -> []

let serve_batch t = Net.step_serve t.net ~handle:(serve t)

let owner_body t _p () =
  while true do
    serve_batch t
  done

(* ------------------------------------------------------ round policy *)

(* Opportunistic owner turns: when the source is about to grant a
   client that is parked waiting for a reply, first grant any owner
   with deliverable work — its serve step is never wasted (it answers
   every pending request in one atomic), and the round advances without
   the client burning spin steps. Observer peeks only. *)
let round_policy t ~global ~next =
  if t.mode = Batched && next < t.clients && t.cstates.(next).blocked then begin
    let found = ref None in
    let o = ref t.clients in
    while !found = None && !o < t.clients + t.owners do
      if Net.servable t.net ~dst:!o ~at:global then found := Some !o;
      incr o
    done;
    !found
  end
  else None
