(** Shared registers over messages — the paper's bridge, run backwards.

    The paper derives partial synchrony for shared memory from set
    timeliness; this module implements atomic registers {e on top of}
    the message substrate so every shared-memory algorithm in the repo
    (the detectors, the agreement harnesses) runs unchanged against
    Δ/GST channels. Each register is served by an owner process: a
    client's [Shm.read]/[Shm.write] is routed
    ({!Setsync_memory.Register.route}) into a request message, the
    owner answers in a single serve step applying the authoritative
    access to the underlying cell, and the client waits until the
    reply lands.

    {b One client path, two modes.} Every routed access is a pending
    op in its client's state: replies are drained, matched to their
    op, deduplicated and retransmitted by one pump, and a caller
    awaiting a reply spins in one wait loop whose atomic is that pump.
    The mode decides only when a request leaves and whether a write
    waits for its ack. [Per_op] (the default) sends each request in a
    step of its own and awaits every reply, writes included — a window
    of one: under the synchronous adversary (Δ = 1, GST = 0) with ops
    serialized, one access costs exactly three steps — client send,
    owner serve, client recv — and the shared-memory emulation
    schedules used by the cross-backend tests expand each shm step [p]
    into [p, owner, p] accordingly. [Batched] runs the round protocol:
    writes are stashed and return in zero steps, a per-step pump
    transmits stashed ops and absorbs replies, owners answer their
    whole inbox in one serve step, and {!round_policy}
    (install as {!Setsync_runtime.Executor.run}'s [boost]) grants
    owners serve turns while the next client is parked — dropping
    amortized cost toward one step per op (DESIGN.md §10 states the
    step-accounting contract).

    {b Ordering (batched).} Stashed ops are transmitted in program
    order, and an op is only transmitted while every unacked
    predecessor targets the same owner; per-channel FIFO then
    serializes same-owner ops at the server. Reads block until their
    value arrives. Single-writer registers plus this barrier give the
    same register semantics the per-op mode provides, one client's
    program at a time.

    {b Duplicates and loss.} Every request carries a run-unique [op]
    tag echoed by the reply. With [resend_after] set, an unanswered
    request is retransmitted after that many network ticks. FIFO alone
    does {e not} make retransmission safe: a resent write is a fresh
    message, unordered relative to traffic sent between it and its
    dropped original, so a resent W1 can reach the owner after a later
    W2 was applied. The owner therefore applies each register's writes
    at most once and in tag order — a [Write_req] at or below the
    register's high-water tag is re-acked without applying — and
    clients drop reply duplicates by tag. Without [resend_after], a
    lossy adversary can wedge an op forever (the run then ends at its
    step budget, or loudly via [max_wait]).

    {b Layout.} Processes [0..clients-1] run the algorithm; processes
    [clients..clients+owners-1] run {!owner_body}. Register [rid] is
    owned by [clients + rid mod owners] — pass [owners] equal to the
    algorithm's register count for a per-register owner, or fewer to
    shard.

    {b Undelivered messages are preserved.} The pump drains its
    client's inbox, consumes the replies of that client's in-flight
    ops, and writes every other message {e back} for the fiber —
    except replies matching no in-flight op, which are by construction
    this client's own dead retransmission duplicates. Clients that mix
    routed registers with native messaging (heartbeats, values)
    therefore lose nothing. *)

type t

type mode = Per_op | Batched

exception Unserved of { rid : int; op : int }
(** Raised by a routed access that waited [max_wait] granted steps
    without a reply — the loud no-wedge path when an owner is crashed
    or partitioned away for good. The op is withdrawn: it is not
    retransmitted, and a later reply to it is dropped as stale. *)

val install :
  ?mode:mode ->
  ?resend_after:int ->
  ?max_wait:int ->
  net:Net.t ->
  store:Setsync_memory.Store.t ->
  clients:int ->
  owners:int ->
  unit ->
  t
(** Install the router on [store]: every register created {e after}
    this call is proxied (the network's own registers, created by
    {!Net.create} before, stay local). [mode] defaults to [Per_op].
    [resend_after] retransmits unanswered requests after that many
    network ticks; [max_wait] bounds reply waits in granted steps
    (default: wait forever). Batched mode installs a pre-step hook on
    [net] ({!Net.set_step_hook}). Raises [Invalid_argument] if
    [clients + owners] exceeds the network size, or if [resend_after]
    is given and below 1: at 0 every pump would retransmit every
    unanswered request, one resend per granted step. *)

val ops_completed : t -> int
(** Routed ops retired so far (reads returned, writes acked) — the
    denominator of the amortized steps-per-op metric bench §N2 pins. *)

val owner_of_name : t -> string -> Setsync_schedule.Proc.t option
(** Owner of the register with that name, if one was routed — how
    emulation schedules map a register access to the serving process. *)

val owner_body : t -> Setsync_schedule.Proc.t -> unit -> unit
(** Process body for owners: serve requests forever. Each granted
    step drains the owner's inbox and answers {e every} pending request
    in a single atomic action — the whole round's turnaround in one
    serve step. *)

val serve : t -> Msg.t -> (Setsync_schedule.Proc.t * Msg.payload) list
(** The owner's per-message handler (exposed for custom bodies). *)

val round_policy : t -> global:int -> next:Setsync_schedule.Proc.t -> Setsync_schedule.Proc.t option
(** The round policy, shaped for {!Setsync_runtime.Executor.run}'s
    [boost]: when the source's next pick is a client parked on a
    reply, grant the first owner with deliverable work a serve turn
    first. Returns [None] outside batched mode. *)
