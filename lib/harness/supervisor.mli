open Convex_machine

(** The run supervisor: a Livermore suite run that always finishes.

    [run] wraps {!Macs_report.Suite} with the three robustness layers the
    bare suite lacks:

    - {b watchdog budgets} ({!Budget}): each kernel's simulation is
      cancelled with a typed [Budget_exceeded] diagnostic when it
      overruns its simulated-cycle or wall-clock cap;
    - {b graceful degradation}: a kernel that fails for any reason —
      over budget, stalled out under a fault plan, livelocked — gets the
      analytic estimate ({!Macs.Estimate}) substituted for its measured
      numbers, tagged [Estimated] and excluded from the measured harmonic
      means.  The suite result never aborts and never loses the
      diagnostic;
    - {b checkpoint/resume} ({!Suite_journal}): with a journal path, the
      supervisor checkpoints every completed row to disk; a re-run with
      [~resume:true] replays completed rows byte-identically and picks up
      at the first missing kernel.  [~retry_failed:true] instead re-runs
      only the rows that carry diagnostics (failed or estimated), keeping
      every measured row.

    Every measured row is also cross-checked against the bound oracle
    ({!Macs.Oracle.check_row}); violations ride along in the suite result
    and the journal.

    Kernels run through the fault-tolerant executor
    ({!Convex_exec.Executor}): [~jobs] fans the suite out over worker
    domains with per-worker journal shards, and a kernel whose cell
    raises is quarantined into {!outcome.quarantined} (no row) instead of
    sinking the run.  [~jobs:1] (the default) is pinned byte-identical to
    the historical sequential journaling. *)

type stats = {
  resumed : int;  (** rows replayed from the journal *)
  executed : int;  (** rows simulated by this invocation *)
  estimated : int;
      (** of the executed rows, how many degraded to analytic estimates *)
}

type outcome = {
  suite : Macs_report.Suite.t;
  stats : stats;
  quarantined : Convex_exec.Executor.poison list;
      (** cells whose exception escaped the suite machinery entirely;
          they contribute no row and [--retry-failed] re-runs them *)
  cache_counters : Convex_cache.Cache.counters option;
      (** hit/miss/store/quarantine counts when [~cache] was given;
          never rendered into the suite report, so cold and warm runs
          stay byte-identical *)
}

val run :
  ?machine:Machine.t ->
  ?opt:Fcc.Opt_level.t ->
  ?faults:Convex_fault.Fault.t ->
  ?budget:Budget.t ->
  ?oracle_tol:float ->
  ?jobs:int ->
  ?journal:string ->
  ?resume:bool ->
  ?retry_failed:bool ->
  ?cache:string ->
  ?fidelity:Convex_vpsim.Fastpath.fidelity ->
  unit ->
  (outcome, string) result
(** Errors only on journal problems the caller must decide about: an
    unreadable or corrupt journal, or a resume whose journaled config
    (machine digest, opt level, fault plan, and the progress guard the
    plan implies, {!Convex_vpsim.Sim.guard_for}) differs from the
    requested run — replaying rows measured under different conditions
    would silently mix incomparable numbers; the message names every
    differing field.  [retry_failed] implies resume.
    Simulation failures never surface here; they degrade to estimates.

    [cache] points at a {!Convex_cache.Cache} directory: each cell's
    journal record block is memoised under a key of (machine digest, opt
    level, fault plan, guard, budget, oracle tolerance, kernel), so a
    warm re-run journals byte-identical records without simulating.
    Journal, cache and executor wiring is {!Convex_exec.Durable}.  A resume aimed at a [Fresh] journal
    (missing, empty, or an interrupted create — see
    {!Macs_util.Journal.inspect}) starts over instead of failing.

    [fidelity] selects the simulator tier exactly as in
    {!Convex_vpsim.Sim.run} (default tiered).  Rows, journals and cache
    payloads are bit-identical across tiers, so the flag is a pure speed
    knob and is excluded from both the journal config and the cache
    key. *)

val cell_key : machine:Machine.t -> int -> string
(** The cache key [run ~machine] uses for kernel cell [i], every other
    argument at its default. *)
