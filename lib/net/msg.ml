(* Wire format of the simulated network. Payloads carry either native
   protocol content (heartbeats, values) or one half of the
   register-over-messages protocol ({!Netmem}). Register values travel
   as [exn] — the universal type trick: each register's router creates
   a local [exception V of a] constructor, so only the matching handler
   can project the value back out — alongside that register's renderer
   [show], so queue snapshots stay printable and deterministic. The
   value is rendered only when a channel or inbox is printed, not when
   it is sent; this prints what a send-time rendering would have
   printed because register values are immutable (the rule
   {!Setsync_memory.Store.save} relies on too). *)

module Proc = Setsync_schedule.Proc

type payload =
  | Hb  (** heartbeat, no content *)
  | Value of int  (** native protocol value (e.g. a proposal) *)
  | Read_req of { rid : int; op : int }
  | Read_reply of { rid : int; op : int; v : exn; show : exn -> string }
      (** [show v] renders [v] with its register's printer; one
          renderer per register, shared by all its messages *)
  | Write_req of { rid : int; op : int; v : exn; show : exn -> string }
  | Write_ack of { rid : int; op : int }

type t = {
  mid : int;
      (** run-unique message id (the substrate's send counter at send
          time): the cause id that links a [deliver]/[drop] trace event
          back to its [send]. Lineage metadata only — deliberately kept
          out of {!pp}, and out of the hashes [Net] keys its channels
          and inboxes by, so state fingerprints and keys never
          distinguish states by global send count. *)
  src : Proc.t;  (** stamped by the substrate, not the sender *)
  dst : Proc.t;
  seq : int;  (** per-(src,dst) sequence number *)
  sent_at : int;  (** network clock at send *)
  payload : payload;
}

let pp_payload ppf = function
  | Hb -> Fmt.string ppf "hb"
  | Value v -> Fmt.pf ppf "val:%d" v
  (* [op] is printed, unlike [mid]: retransmitted copies share their
     original's [op], so it never distinguishes states by retry count
     — but it does decide whether an in-flight reply matches the op a
     client is parked on, so two channel states differing only in [op]
     can diverge and must fingerprint apart. *)
  | Read_req { rid; op } -> Fmt.pf ppf "rd?%d.%d" rid op
  | Read_reply { rid; op; v; show } -> Fmt.pf ppf "rd!%d.%d=%s" rid op (show v)
  | Write_req { rid; op; v; show } -> Fmt.pf ppf "wr?%d.%d=%s" rid op (show v)
  | Write_ack { rid; op } -> Fmt.pf ppf "wr!%d.%d" rid op

let pp ppf m =
  Fmt.pf ppf "%a->%a#%d@%d:%a" Proc.pp m.src Proc.pp m.dst m.seq m.sent_at pp_payload
    m.payload
