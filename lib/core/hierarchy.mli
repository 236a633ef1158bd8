open Convex_machine
open Convex_memsys
open Convex_vpsim

(** The complete MACS hierarchy of bounds and measurements for one kernel
    (paper Figure 1): MA and MAC bounds from workload counts, the MACS
    bound and its f-only / m-only components from the compiled schedule,
    and simulator measurements of the full code (t_p), the A-process (t_a)
    and the X-process (t_x).  All three run over the compiled job's own
    layout ({!Convex_vpsim.Job.layout}): the A- and X-processes are copies
    of the job, so they inherit its storage, and no caller chooses it.

    Intended for kernels that vectorize; a kernel that falls back to
    scalar mode gets a degenerate (zero) MACS bound here — analyze those
    with {!Scalar_bound} instead (as {!Macs_report.Suite} and {!Advisor}
    do). *)

type t = {
  kernel : Lfk.Kernel.t;
  compiled : Fcc.Compiler.t;
  machine : Machine.t;
  flops : int;
  ma : Counts.t;
  mac : Counts.t;
  (* bounds, in CPL *)
  t_ma : float;
  t_mac : float;
  t_macs : Macs_bound.result;
  t_macs_f : Macs_bound.result;
  t_macs_m : Macs_bound.result;
  (* measurements, from the simulator *)
  t_p : Measure.t;  (** full code *)
  t_a : Measure.t;  (** access-only (A-process) *)
  t_x : Measure.t;  (** execute-only (X-process) *)
}

val layout_of : Fcc.Compiler.t -> Layout.t
(** The layout every measurement of a compilation result runs over:
    {!Convex_vpsim.Job.layout} of its job, i.e. every array of
    {!Fcc.Compiler.storage} placed in order, aliased names (LFK2's XS,
    LFK6's WS) sharing their target's base.  No data is built.  Callers
    need it only to inspect the placement; {!Convex_vpsim.Sim.run} uses
    it by default. *)

val analyze :
  ?machine:Machine.t ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?fidelity:Convex_vpsim.Fastpath.fidelity ->
  ?memo:Measure.Memo.t ->
  ?opt:Fcc.Opt_level.t ->
  Lfk.Kernel.t ->
  t
(** Compile the kernel, compute every bound, and run the three
    measurements.  [fidelity] selects the simulator tier for the
    measurements (default tiered; [Cycle] is the explicit oracle tier);
    both tiers measure identically.
    [watchdog] is threaded into every measurement exactly as in
    {!Convex_vpsim.Sim.run}; a firing watchdog raises
    {!Macs_util.Macs_error.Error} (conventionally [Budget_exceeded]),
    which deadline-bounded callers catch and degrade to an
    {!Estimate}-tier answer.  [memo] answers measurements already taken
    with the same inputs ({!Convex_vpsim.Measure.Memo}); the result is
    the same with or without it. *)

val of_compiled :
  ?machine:Machine.t ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?fidelity:Convex_vpsim.Fastpath.fidelity ->
  ?memo:Measure.Memo.t ->
  Fcc.Compiler.t ->
  t
(** Same, for an already-compiled kernel. *)

val cpf_of_cpl : t -> float -> float

(** {1 CPF accessors (the units of paper Tables 4 and 5)} *)

val t_ma_cpf : t -> float
val t_mac_cpf : t -> float
val t_macs_cpf : t -> float
val t_p_cpf : t -> float

val pct_ma : t -> float
(** [t_MA / t_p]: how much of the measured time the MA bound explains. *)

val pct_mac : t -> float
val pct_macs : t -> float

val eq18_holds : t -> bool
(** Paper eq. 18: [max(t_x, t_a) <= t_p <= t_x + t_a] (CPL), with a small
    tolerance for simulator start-up noise. *)

val pp_summary : Format.formatter -> t -> unit
