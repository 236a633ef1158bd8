(** Renderers for the paper's tables, each with side-by-side
    ours-vs-paper columns.  All functions return ready-to-print strings
    (no trailing newline). *)

val table1 : unit -> string
(** Table 1: vector instruction execution times — the machine
    specification against the parameters recovered by running calibration
    loops on the simulator (X+Y, Z, B fits). *)

val table2 : Dataset.t -> string
(** Table 2: LFK workload — MA counts from the high-level IR, MAC counts
    from the compiled assembly (dashes where unchanged, as in the
    paper). *)

val table3 : Dataset.t -> string
(** Table 3: performance bounds in CPL (f-side, m-side, and combined),
    with the paper's (reconstructed) values. *)

val table4 : Dataset.t -> string
(** Table 4: bounds vs measured CPF, percent-of-bound columns, the AVG
    row, and the harmonic-mean MFLOPS row. *)

val table5 : Dataset.t -> string
(** Table 5: MACS bounds and A/X measurements in CPL. *)

val lfk1_example : unit -> string
(** The §3.5 worked example: LFK1's chime partition, per-chime bound,
    per-chime calibration-loop measurement, chime sum, MACS bound and
    measured cycles. *)

val diagnosis : Dataset.t -> string
(** §4.4: automated per-kernel gap diagnosis. *)

val ablation_compiler : unit -> string
(** Ours: MACS bound and measured CPF under the three compiler
    optimization levels (v61 / ideal reuse / loads-first scheduling). *)

val ablation_machine : unit -> string
(** Ours: measured CPF on machine variants (baseline, B=0, no refresh,
    dual load/store pipes). *)

val scalar_mode : unit -> string
(** Extension: the non-vectorizable kernels (LFK5, LFK11) in C-240 scalar
    mode — vectorizer verdicts, the scalar bound components (issue,
    memory, FP, dependence pseudo-unit), measured CPL, and forced-scalar
    vectorization speedups for three vector kernels. *)

val parallel_mode : unit -> string
(** Extension: four-CPU throughput — lockstep (same executable) vs four
    different programs, against the paper's 5-10% and ~20% rules of
    thumb (§4.2). *)

val stride_sweep : unit -> string
(** Extension (the paper's "fifth degree of freedom, D"): sustained
    memory rate vs stride, model against simulator, and the MACD bound on
    a stride-32 demonstration kernel. *)

val advice : unit -> string
(** The goal-directed advisor (paper conclusion) over all twelve kernels:
    ranked, quantified optimization suggestions. *)

val utilization : Dataset.t -> string
(** Per-kernel function-pipe utilization from the measured runs. *)

val roofline : unit -> string
(** The roofline view of the MA bound over the ten kernels: arithmetic
    intensity, the roofline bound, and where MA refines it. *)

val gallery : unit -> string
(** The synthetic kernel gallery: MA/MAC/MACS/MACD bounds vs measured,
    with functional verification. *)

val hockney : unit -> string
(** Hockney (r_inf, n_half) characterization of all twelve kernels against
    the MACS steady-state rate. *)

val design_space : unit -> string
(** Hardware design-space sweep: measured CPF vs maximum vector length,
    and sustained stream rate vs bank count. *)

val application : unit -> string
(** The application profile of the example mix LFK 7/1/10/2 weighted
    40/30/20/10: aggregate MFLOPS, per-kernel shares and the advice
    ranked by total time saved.  No trailing newline. *)
