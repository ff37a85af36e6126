(** A Chandra-Toueg-style timeout failure detector over {!Net}.

    Each process repeatedly broadcasts a heartbeat and polls its inbox
    (one round = [clients - 1] send steps plus one recv step), suspects
    any process whose last heartbeat is older than its current timeout,
    and bumps that timeout whenever a suspicion is refuted — the
    classic eventually-perfect recipe: after GST heartbeats arrive
    within Δ, so every false timeout is eventually corrected and, with
    a backoff larger than the exploration horizon, never recurs within
    bound. The leader is the smallest unsuspected process.

    [gst_hint] does not influence the algorithm — timeouts adapt with
    no knowledge of GST, as the model demands. It only feeds the
    {e observer}: {!post_gst_end} records when this process finished
    its first round started at or after the claimed GST, which is what
    {!Net_systems.ct_stabilized} uses to know heartbeats sent under the
    Δ bound have had time to land. *)

type t

val create :
  ?initial_timeout:int ->
  ?backoff:int ->
  net:Net.t ->
  clients:int ->
  me:Setsync_schedule.Proc.t ->
  gst_hint:int ->
  unit ->
  t
(** [initial_timeout] defaults to 3 clock ticks; [backoff] (added on
    each refuted suspicion) defaults to 64, an over-horizon value. *)

val round : t -> unit
(** One heartbeat round ([clients] scheduled steps). *)

val body : t -> unit -> unit
(** Round forever — the process body for {!Setsync_runtime.Executor.run}. *)

val leader : t -> Setsync_schedule.Proc.t
(** Smallest currently-unsuspected process (observer read). *)

val rounds : t -> int
(** Completed rounds. *)

val suspects : t -> bool array

val completed_start : t -> int
(** Network clock at which the last completed round started ([-1] if
    none). *)

val post_gst_end : t -> int option
(** Clock at which the first round started at-or-after [gst_hint]
    completed, once any has. *)
