(** The simulated message-passing substrate.

    Per-pair FIFO channels with an in-flight queue, driven by the same
    step discipline as shared memory: {!send} and {!recv} each cost
    exactly one scheduled step. The network clock ticks with the global
    step counter ({!Setsync_runtime.Substrate.pre_step}), and delivery
    is interleaved with process steps: at the start of each granted
    step, every message whose delivery tick has arrived moves to its
    destination inbox. The {!Adversary} decides delays and drops under
    the Δ/GST contract it documents.

    {b Authentication.} A message's [src] field is stamped by the
    substrate from the identity of the currently stepping process — the
    sender never supplies it — so processes cannot forge origins, the
    message-passing analogue of single-writer registers.

    {b Where the state lives.} Channels, inboxes and the clock are
    registers of the run's own {!Setsync_memory.Store}, created by
    {!create} before any router is installed (so they are never proxied
    through themselves). Mirror snapshots and explorer fingerprints
    therefore capture network state with no extra plumbing. Outside
    the store live the per-pair sequence counters, the GST latch and
    the stat tallies. The counters are {e not} derivable from the
    registers: a dropped message bumps its pair's counter without ever
    touching a channel, and the adversary keys drops on [seq], so two
    states with equal registers can have different futures. The
    substrate's [snapshot] therefore exports the counters and the latch
    ([NetSeqs]/[NetGst]), and its [save] captures them with the
    tallies. Also outside the store is a derived index of the
    channels: which are nonempty (in (src, dst) order), each one's tail
    due tick, and the least head due tick over all of them. A step
    before that tick delivers nothing and reads no channel; a later one
    visits only the nonempty channels. Unlike the counters the index
    is a function of the channel registers, so [snapshot] leaves it
    out — two states with equal registers have equal indexes — but
    [save] captures it, since a restore pokes the registers back
    without going through the network. Nothing trace-only is kept per
    message: a delivery re-derives its delay decomposition from the
    message and its channel entry, so it survives a restore.

    {b Exploration caveat.} The flush performed in [pre_step] reads
    channels with observer peeks, process code reads the clock with
    peeks (timeouts) and the adversary keys its delivery decisions on
    sequence counters outside the store, so replay footprints
    under-approximate what a step depends on. The explorer refuses
    sleep-set reduction on a sut with a substrate. *)

type t

val create :
  ?obs:Setsync_obs.Obs.t ->
  store:Setsync_memory.Store.t ->
  n:int ->
  adversary:Adversary.t ->
  unit ->
  t
(** Allocate the network's registers in [store]. With [obs], maintains
    counters [net.sent]/[net.delivered]/[net.dropped], the
    [net.in_flight] gauge, the [net.delivery_delay] histogram, and the
    latency-attribution histograms [net.delay_adversary] /
    [net.delay_forced] / [net.delay_fifo] / [net.delay_pregst_excess]
    (per delivered message: [delay = adv + forced + fifo]; the excess
    histogram records [max 0 (delay - delta)] for pre-GST sends — the
    pre-GST allowance). When the event sink is on, emits
    ["send"]/["deliver"]/["drop"] events carrying the causal lineage
    (args [mid]/[src]/[dst]/[seq]/[step]; delivers add
    [sent]/[delay]/[adv]/[forced]/[fifo]/[denied]/[pre_gst]) plus an
    ["inflight"] async span per enqueued message (correlated by
    [id = mid]) and one ["gst"] event, all under category ["net"].
    DESIGN.md §9 documents the causal-tracing model. *)

val substrate : t -> Setsync_runtime.Substrate.t
(** Pass to {!Setsync_runtime.Executor.run} — ticks the clock, stamps
    the stepping process, delivers due messages. A net primitive used
    in a run driven without this substrate raises. *)

val n : t -> int

val now : t -> int
(** Current network clock (observer read; for harnesses and tests). *)

val current : t -> Setsync_schedule.Proc.t
(** The process whose step is executing. Raises [Invalid_argument]
    outside a granted step. *)

val send : t -> dst:Setsync_schedule.Proc.t -> Msg.payload -> unit
(** One step: emit a message to [dst] (src stamped, seq assigned,
    delivery decided by the adversary, FIFO-clamped per channel). *)

val recv : t -> Msg.t list
(** One step: drain and return the caller's inbox, possibly empty —
    receives are non-blocking, as in the round-based reduction model;
    poll again (each poll costs a step) to wait. *)

val pause : t -> unit
(** One no-op step, like {!Setsync_runtime.Shm.pause}. *)

val step_serve : t -> handle:(Msg.t -> (Setsync_schedule.Proc.t * Msg.payload) list) -> unit
(** One step: drain the inbox, run [handle] on each message in arrival
    order, and send all returned replies — a receive-compute-send round
    in a single atomic action. This is what makes a register owner's
    turnaround cost one step ({!Netmem}), mirroring how a shared-memory
    register serves any access in the accessor's own step. *)

(** {1 Hook-side primitives}

    The round-batched register layer ({!Netmem}) runs inside granted
    steps it does not own the fiber of: a pre-step hook and the bodies
    of other atomics. These primitives are the hook-safe counterparts
    of {!send}/{!recv} — identical store footprints, no [Fiber.atomic]
    wrapper, explicit identity. *)

val set_step_hook :
  t -> (global:int -> proc:Setsync_schedule.Proc.t -> unit) option -> unit
(** Install (or clear) a hook run at the end of every [pre_step],
    after the flush and inside the granted process's step. The hook
    runs before the process's atomic action resumes, so state it
    deposits (e.g. absorbed replies) is visible to that action. *)

val send_now :
  t -> src:Setsync_schedule.Proc.t -> dst:Setsync_schedule.Proc.t -> Msg.payload -> unit
(** [enqueue] with explicit source, charged to the enclosing step. *)

val drain_now : t -> Setsync_schedule.Proc.t -> Msg.t list
(** Drain [p]'s inbox with the same footprint as {!recv}'s body. *)

val push_back_now : t -> Setsync_schedule.Proc.t -> Msg.t list -> unit
(** Prepend undelivered messages back onto [p]'s inbox so a later
    drain (by the fiber or another handler) sees them in order. *)

val servable : t -> dst:Setsync_schedule.Proc.t -> at:int -> bool
(** Whether a serve step by [dst] at network time [at] would find work:
    its inbox is nonempty, or some channel toward it has a due head.
    Answered from the channel index with observer peeks only — safe
    for scheduling policy decisions. *)

type stats = { sent : int; delivered : int; dropped : int; in_flight : int }

val stats : t -> stats
