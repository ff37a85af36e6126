(** Systems under test and harnesses for the net backend — the
    message-passing counterparts of {!Setsync_explore.Systems}. *)

type ct_obs = {
  leaders : Setsync_schedule.Proc.t array;
  ct_rounds : int array;
  completed_start : int array;
  post_gst_end : int option array;
}

val ct_leader :
  ?obs:Setsync_obs.Obs.t ->
  ?initial_timeout:int ->
  ?backoff:int ->
  ?gst_hint:int ->
  clients:int ->
  adversary:Adversary.t ->
  unit ->
  ct_obs Setsync_explore.Explorer.sut
(** One {!Ct_detector} per process over a fresh {!Net} under
    [adversary]; the observer's [gst_hint] defaults to the adversary's
    GST (override it to test the property against a network that does
    not honour the claimed GST — the negative control). *)

val ct_stabilized : delta:int -> ct_obs Setsync_explore.Explorer.state Setsync_explore.Property.t
(** Stabilization: on maximal prefixes where every correct process has
    completed a round starting ≥ everyone's first post-GST round end
    plus Δ, all correct processes must trust the minimum correct
    process. Vacuously true on prefixes that never get there. *)

val kset_blind :
  ?obs:Setsync_obs.Obs.t ->
  ?rounds:int ->
  inputs:int array ->
  adversary:Adversary.t ->
  unit ->
  Setsync_explore.Systems.kset_obs Setsync_explore.Explorer.sut
(** {!Net_kset} over [Array.length inputs] processes — pair with
    {!Setsync_explore.Property.kset_agreement}. *)

val kanti_register_count : Setsync_detector.Kanti_omega.params -> int
(** Registers the k-anti-Ω detector allocates for these parameters
    (probed on a scratch store). *)

type ct_run = {
  steps : int;
  stabilized_from : int option;
      (** first global step from which every leader equals the minimum
          correct process through the end of the run, if any *)
  final_leaders : Setsync_schedule.Proc.t array;
  net_stats : Net.stats;
}

val run_ct :
  ?obs:Setsync_obs.Obs.t ->
  ?initial_timeout:int ->
  ?backoff:int ->
  clients:int ->
  adversary:Adversary.t ->
  max_steps:int ->
  unit ->
  ct_run
(** Round-robin CT run for the CLI and bench §N1: deterministic, so
    [stabilized_from] is machine-independent for fixed parameters. *)
