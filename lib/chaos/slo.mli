open Convex_machine
module Fault = Convex_fault.Fault

(** Per-cell recovery SLOs: what a chaos cell must do to count as
    surviving its fault plan.

    - {b no-crash}: the run ends in a measured row or a typed
      {!Macs_util.Macs_error.t} — an escaped exception is a violation;
    - {b checksum}: faults perturb timing, never data;
    - {b bound oracle}: the MACS hierarchy links of
      {!Macs.Oracle.check_row} hold on the measured row;
    - {b faulted-never-faster}: the monotone load probe under the plan
      never beats the healthy run;
    - {b transient recovery}: for a windowed plan, the probe's
      fault overhead stops growing once the window closes — the tail of
      the run converges back to healthy-rate timing.

    A typed diagnostic (e.g. a stall-out under a dead bank) is
    {!Degraded}: an accepted, explained outcome, not a violation. *)

type verdict =
  | Pass
  | Degraded of Macs_util.Macs_error.t
      (** the run was stopped by a typed diagnostic — graceful
          degradation, the contract PR 1 introduced *)
  | Violation of { check : string; detail : string }
      (** an SLO broke; [check] is the stable identifier delta-debugging
          re-checks candidates against (e.g. ["oracle:MAC<=MACS"],
          ["transient-recovery"]) *)

type outcome = { verdict : verdict; cpl : float option }

val probe_tol : float

val recovery_check :
  ?fidelity:Convex_vpsim.Fastpath.fidelity ->
  machine:Machine.t ->
  Fault.t ->
  verdict option
(** [None] for plans without a transient window, or when the windowed
    probe pair converges; [Some] carries the violation (or the
    degradation, if the probe itself stalls under the plan). *)

val check_cell :
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?fidelity:Convex_vpsim.Fastpath.fidelity ->
  machine:Machine.t ->
  opt:Fcc.Opt_level.t ->
  Fault.t ->
  Lfk.Kernel.t ->
  outcome
(** Run one cell (kernel under plan) through {!Macs_report.Suite.run_kernel}
    and every applicable SLO, first failure wins.  Deterministic: the
    same cell always produces the same outcome, which is what makes
    delta-debugging over plans sound.  [fidelity] selects the stepper
    tier (default tiered); outcomes are bit-identical across tiers. *)
