open Convex_machine
open Convex_memsys

(** High-level measurement wrapper: runs a job on the simulator and reports
    the paper's units.

    Every level of the MACS hierarchy is built from the same handful of
    measurements (t_p, t_a, t_x of one kernel, on one machine, at one code
    level), so a long-lived caller can hand {!run} a {!Memo.t}: a bounded
    in-memory table from a measurement's inputs to its result, which
    answers a repeated measurement without simulating it again.  Without
    a memo every call simulates, exactly as before. *)

type t = {
  cpl : float;  (** cycles per original inner-loop iteration *)
  cpf : float;  (** cycles per floating-point operation *)
  mflops : float;
  cycles : float;
  stats : Sim.stats;
}

(** A domain-safe memo of successful measurements.

    {b Key.}  Everything {!Sim.run} and the unit conversion read, each
    resolved to the value the run uses: {!Convex_machine.Machine.digest},
    the layout ({!Convex_memsys.Layout.bindings}, or "absent", which
    {!Sim.run} derives from the job), the fault plan (an absent plan is
    {!Convex_fault.Fault.none}), the guard (absent is
    {!Sim.default_guard}), the fidelity (absent is [Tiered]),
    [flops_per_iteration] and the job, hashed by its marshalled bytes.
    Two calls share an entry only when all of these are equal.

    {b Bound.}  At most {!capacity} entries; storing into a full table
    clears it first.  Only [Ok] results are stored.

    {b Watchdogs.}  A hit returns exactly what a fresh run would return.
    A run that finishes returns the same measurement with or without a
    watchdog (a watchdog that never fires is invisible).  Every cycle the
    simulator passes to a watchdog is at most the run's final
    [stats.cycles]: before each instruction it passes the max of the issue
    front and the finish time, and inside a spin a cycle at or below the
    access finally granted.  {!Convex_harness.Budget} cycle caps are
    monotone in the cycle.  So a hit calls the watchdog once, with
    [~cycle:stats.cycles]: if it answers [None], no earlier poll of a
    fresh run would have fired either, and the hit stands; if it answers
    [Some], the hit is dropped and the measurement simulated, so a
    budgeted run degrades with exactly the diagnostic it gives today.
    (Wall-clock caps are not a function of the cycle; a hit only finishes
    sooner than the run it replaces.) *)
module Memo : sig
  type t

  val capacity : int
  (** The entry bound: 4096 measurements, about 600 bytes each with
      the table's own overhead. *)

  val create : unit -> t

  type counters = {
    hits : int;  (** calls answered from the table *)
    misses : int;  (** calls that simulated, including dropped hits *)
    entries : int;  (** measurements held now, at most {!capacity} *)
  }

  val counters : t -> counters
end

val run :
  ?machine:Machine.t ->
  ?layout:Layout.t ->
  ?faults:Convex_fault.Fault.t ->
  ?guard:int ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?fidelity:Fastpath.fidelity ->
  ?memo:Memo.t ->
  flops_per_iteration:int ->
  Job.t ->
  (t, Macs_util.Macs_error.t) Stdlib.result
(** Simulate and convert to the paper's units.  [fidelity] selects the
    stepper tier exactly as in {!Sim.run} (default [Tiered]); both tiers
    produce bit-identical measurements.  Simulation failures
    (livelock, fault-induced stall-out, watchdog cancellation) come back
    as [Error].  [watchdog] is threaded to {!Sim.run} unchanged.  With
    [memo], a repeated measurement is answered from the table (see
    {!Memo}) and a fresh [Ok] result is stored there.  Raises
    [Invalid_argument] if [flops_per_iteration <= 0] — a caller bug, not
    a runtime outcome. *)

val run_exn :
  ?machine:Machine.t ->
  ?layout:Layout.t ->
  ?faults:Convex_fault.Fault.t ->
  ?guard:int ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?fidelity:Fastpath.fidelity ->
  ?memo:Memo.t ->
  flops_per_iteration:int ->
  Job.t ->
  t
(** Like {!run}; raises {!Macs_util.Macs_error.Error} on failure. *)

val pp : Format.formatter -> t -> unit
