(** A deliberately blind best-effort k-set protocol, fuzzing prey.

    Every process gossips its minimum-so-far for a fixed number of
    rounds (one round = [clients - 1] sends plus one recv) and then
    decides it, with no quorums and no failure detector — so it is
    correct exactly when the network is kind. Under a
    Biely/Robinson/Schmid partition that silences cross-group traffic
    until after the decision point, each group decides its own minimum
    and k-set agreement breaks with [k + 1] distinct decisions; under
    a schedule whose cross-group messages land in time (e.g. plain
    round-robin with an early GST), everyone decides the global
    minimum. That gap is what {!Generators.net_adversary} seeds and
    the fuzzer's shrinker minimizes. *)

type t

val create :
  ?rounds:int ->
  net:Net.t ->
  clients:int ->
  me:Setsync_schedule.Proc.t ->
  input:int ->
  unit ->
  t
(** [rounds] defaults to 2. *)

val body : t -> unit -> unit

val decision : t -> int option
(** Observer read. *)
