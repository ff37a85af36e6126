(** Umbrella namespace: the whole system behind one module.

    {!Setsync} re-exports every public module of the library family so
    applications can [open] or alias a single entry point. Substrate
    layers remain directly usable under their own names
    ([Setsync_schedule], [Setsync_runtime], …).

    Every export is a module {e alias}, so this interface adds no
    indirection: each alias keeps the strengthened (fully transparent)
    signature of the module it names, and the compiled artifact stays
    a table of references. The interface exists to make the umbrella's
    surface explicit — a module not listed here is not part of the
    library's public API. *)

(* schedules and set timeliness (the model, §2) *)
module Rng = Setsync_schedule.Rng
module Proc = Setsync_schedule.Proc
module Procset = Setsync_schedule.Procset
module Schedule = Setsync_schedule.Schedule
module Source = Setsync_schedule.Source
module Timeliness = Setsync_schedule.Timeliness
module System = Setsync_schedule.System
module Generators = Setsync_schedule.Generators
module Analysis = Setsync_schedule.Analysis

(* shared memory *)
module Register = Setsync_memory.Register
module Store = Setsync_memory.Store

(* execution engine *)
module Fiber = Setsync_runtime.Fiber
module Shm = Setsync_runtime.Shm
module Fault = Setsync_runtime.Fault
module Run = Setsync_runtime.Run
module Executor = Setsync_runtime.Executor

(* failure detectors (§4.1, Figure 2) *)
module Order_stat = Setsync_detector.Order_stat
module History = Setsync_detector.History
module Anti_omega = Setsync_detector.Anti_omega
module Omega = Setsync_detector.Omega
module Kanti_omega = Setsync_detector.Kanti_omega
module Fd_harness = Setsync_detector.Fd_harness

(* agreement (§3, §4.3) *)
module Problem = Setsync_agreement.Problem
module Checker = Setsync_agreement.Checker
module Paxos = Setsync_agreement.Paxos
module Kset_solver = Setsync_agreement.Kset_solver
module Trivial = Setsync_agreement.Trivial
module Consensus = Setsync_agreement.Consensus
module Ag_harness = Setsync_agreement.Ag_harness

(* BG simulation (Theorem 26's machinery) *)
module Safe_agreement = Setsync_bg.Safe_agreement
module Iis = Setsync_bg.Iis
module Simulation = Setsync_bg.Simulation

(* the characterization (Theorem 27) *)
module Characterization = Setsync_solvability.Characterization
module Lattice = Setsync_solvability.Lattice

(* observability: metrics + structured event tracing *)
module Obs = Setsync_obs.Obs
module Metrics = Setsync_obs.Metrics
module Events = Setsync_obs.Events
module Json = Setsync_obs.Json
module Analyze = Setsync_obs.Analyze

(* bounded model checking (schedule-space exploration) *)
module Budget = Setsync_explore.Budget
module Property = Setsync_explore.Property
module Explorer = Setsync_explore.Explorer
module Shrink = Setsync_explore.Shrink
module Explore_systems = Setsync_explore.Systems

(* coverage-guided randomized schedule fuzzing *)
module Mutate = Setsync_fuzz.Mutate
module Corpus = Setsync_fuzz.Corpus
module Fuzz = Setsync_fuzz.Fuzz
module Fuzz_systems = Setsync_fuzz.Fuzz_systems

(* message passing: the Δ/GST bridge *)
module Substrate = Setsync_runtime.Substrate
module Msg = Setsync_net.Msg
module Adversary = Setsync_net.Adversary
module Net = Setsync_net.Net
module Netmem = Setsync_net.Netmem
module Ct_detector = Setsync_net.Ct_detector
module Net_kset = Setsync_net.Net_kset
module Net_systems = Setsync_net.Net_systems
module Net_agreement = Setsync_net.Net_agreement

(* high-level scenarios *)
module Scenario = Scenario
