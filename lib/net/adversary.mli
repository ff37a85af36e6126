(** Message-delay/loss adversaries: the Δ/GST side of the bridge.

    An adversary decides, per message, whether it is dropped or how
    long it floats. The Dwork-Lynch-Stockmeyer contract is enforced by
    the substrate regardless of what [decide] returns:

    - before GST the adversary is unconstrained — arbitrary finite
      delays, outright drops — except that a delivered message still
      arrives no later than [gst + delta];
    - from GST on, every message (including ones the adversary tries
      to drop) is delivered within [delta] network ticks.

    Per-pair channels are FIFO: the substrate additionally clamps each
    delivery to be no earlier than the previous message on the same
    channel. The network clock ticks once per executed process step,
    so Δ and GST are measured in global steps. *)

type action = Deliver of int | Drop  (** [Deliver d]: arrive after [d >= 1] ticks *)

type t = {
  delta : int;
  gst : int;
  name : string;
  decide :
    now:int -> src:Setsync_schedule.Proc.t -> dst:Setsync_schedule.Proc.t -> seq:int -> action;
}
(** [decide] must be a pure function of [(now, src, dst, seq)]: the
    same arguments always give the same action. Replay and exploration
    rebuild runs by re-executing them, and {!Net}'s delivery
    attribution asks again at a message's send coordinates to recover
    how its delay was made up. *)

val make :
  ?name:string ->
  delta:int ->
  gst:int ->
  (now:int ->
  src:Setsync_schedule.Proc.t ->
  dst:Setsync_schedule.Proc.t ->
  seq:int ->
  action) ->
  t
(** Raises [Invalid_argument] unless [delta >= 1] and [gst >= 0]. The
    decision function must be pure (see {!t}). *)

val due :
  t -> now:int -> src:Setsync_schedule.Proc.t -> dst:Setsync_schedule.Proc.t -> seq:int -> int option
(** Delivery tick for a message sent at [now], with the Δ/GST contract
    applied on top of [decide]; [None] means dropped (only possible
    before GST). Exposed for tests; {!Net.send} applies it plus the
    FIFO clamp. *)

type verdict = {
  due_at : int option;  (** as returned by {!due} *)
  requested : int option;
      (** adversary-chosen delay, floored at 1; [None] when [decide]
          said [Drop] *)
  denied : int;
      (** ticks of requested delay refused by the model: the Δ cap
          after GST, the gst+Δ cap before it; [0] for drops *)
  forced : bool;  (** a post-GST [Drop] overridden into a Δ delivery *)
  pre_gst : bool;  (** the message was sent before GST *)
}

val due_explained :
  t ->
  now:int ->
  src:Setsync_schedule.Proc.t ->
  dst:Setsync_schedule.Proc.t ->
  seq:int ->
  verdict
(** {!due} plus latency attribution: when [due_at = Some at],
    [at - now] equals [delta] for forced deliveries and
    [requested - denied] otherwise. The substrate uses this to
    decompose each realized delay into adversary-chosen vs.
    model-imposed ticks (DESIGN.md §9). *)

val synchronous : delta:int -> t
(** GST at step 0, every message takes exactly one tick — the lock-step
    network used for shared-memory emulation. *)

val gst_drop : delta:int -> gst:int -> t
(** Drops everything before GST, synchronous after. The classic
    eventual-synchrony scenario for timeout-detector stabilization. *)

val partition : delta:int -> gst:int -> groups:Setsync_schedule.Proc.t list list -> t
(** Silences cross-group messages before GST; intra-group traffic is
    synchronous throughout. Processes absent from every group are in
    no group (all their traffic drops pre-GST). *)

val brs_kset : delta:int -> gst:int -> n:int -> k:int -> t
(** The Biely/Robinson/Schmid construction against k-set agreement:
    [k + 1] near-equal groups ([p mod (k+1)]), cross-group silence
    until GST. Raises [Invalid_argument] unless [1 <= k < n]. *)

val never : delta:int -> t
(** GST never arrives and everything drops — the negative control for
    stabilization properties. *)

type combined = { adversary : t; fault : (Setsync_schedule.Proc.t * int) list }
(** A loss adversary paired with the crash plan it is meant to run
    under ([fault] is an {!Setsync_runtime.Fault.plan}): one value per
    scenario, so call sites cannot pair them inconsistently. *)

val crash_brs :
  delta:int ->
  gst:int ->
  total:int ->
  k:int ->
  crashes:(Setsync_schedule.Proc.t * int) list ->
  combined
(** Crash + loss: the {!brs_kset} partition ([k + 1] groups,
    [p mod (k+1)], cross-group silence until GST) over the {e full}
    [total]-process universe — register owners included, so routed
    requests crossing groups drop too — combined with [crashes], each
    [(p, s)] killing [p] after [s] steps. Clients of a routed store
    should appear in [crashes], not owners (a crashed owner takes its
    registers with it; see the no-wedge test for that case). Raises
    [Invalid_argument] unless [1 <= k < total], every crashed proc is
    in the universe, and budgets are non-negative. *)
