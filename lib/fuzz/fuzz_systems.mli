(** Systems under test for the fuzzer's own validation.

    {!counter_core} is a self-contained copy of the {e counter logic}
    of the paper's Figure 2 k-anti-Ω detector (accusation counters =
    (t+1)-st smallest column of [Counter[A,*]], heartbeat-refreshed
    timers, argmin winner selection) with one planted defect available
    on demand: with [~bug:true] the line-4 argmin scan stops one set
    short of the end of [Π^k_n], so the canonically-last set can never
    win even when it is the strict minimum. The observation captures,
    {e at selection time}, the accusation of the chosen set and the
    honest minimum over all sets; {!winner_argmin} is the safety
    property that the chosen accusation equals that minimum — an
    invariant of the correct scan, violated by the buggy one as soon
    as the dropped set becomes the unique argmin (for the default
    [n=2, t=1, k=1] instance: after 8 consecutive steps of process 1,
    the minimal counterexample the shrinker must reach).

    Like the paper's algorithms, the counter core defines its step code
    once, as a machine form (an explicit PC over
    {!Setsync_runtime.Machine.access}); its fiber body is that step's
    {!Setsync_runtime.Machine.body}, so the two forms perform the same
    register operations in the same order. The machine form is
    what lets {!Fuzz.run} run a whole hunt on one live instance
    ({!Setsync_explore.Explorer.Session}). *)

type obs = {
  chosen : int array;  (** per process: winner set index at the last selection *)
  chosen_acc : int array;  (** accusation of the chosen set, at selection time *)
  min_acc : int array;  (** honest minimum accusation at the same instant *)
  iterations : int array;
}

val default_params : Setsync_detector.Kanti_omega.params
(** [n = 2, t = 1, k = 1]: the smallest instance (two singleton sets;
    the bug drops set [{p1}] from the scan). *)

val counter_core :
  ?bug:bool ->
  ?initial_timeout:int ->
  params:Setsync_detector.Kanti_omega.params ->
  unit ->
  obs Setsync_explore.Explorer.sut
(** [bug] defaults to [true] (the seeded defect); [~bug:false] is the
    faithful control — {!winner_argmin} holds on every schedule.
    [initial_timeout] defaults to 1.

    The instance has a machine form. Its locals, PCs and observation
    arrays are declared once ({!Setsync_memory.Layout}), and [m_save]
    is derived from that declaration; it has no payload, so explorer
    fingerprints key it by {!Setsync_explore.Explorer.digest}.
    [obs_fingerprint] renders the observation only — enough for corpus
    novelty, not for sound fingerprint pruning. *)

val winner_argmin : unit -> obs Setsync_explore.Explorer.state Setsync_explore.Property.t
(** Safety: for every process, the chosen set's accusation (at
    selection time) is the minimum over all sets. *)
