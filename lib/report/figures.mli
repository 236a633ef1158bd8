(** Renderers for the paper's figures. *)

val figure2 : unit -> string
(** Figure 2: chaining with perfect tailgating — the ld/add/mul example
    of §3.3 traced on the simulator, with an ASCII timeline per pipe, the
    162-cycle chained total, the ~422-cycle unchained total, and the
    VL + ΣB steady-state chime. *)

val figure3 : ?load_average:float -> Dataset.t -> string
(** Figure 3: CPF per kernel as grouped bars — MA bound, MAC bound, MACS
    bound, measured single-process, and measured multi-process.  Below the
    chart, the derived multi-process slowdown and the cycles per access of
    the memory-bound kernels, each beside the paper's value (~20%,
    56-64 ns).  The multi-process series is {!multi_cpf}. *)

val multi_cpf : ?load_average:float -> Dataset.t -> float array
(** Figure 3's measured multi-process series, in the dataset's order.  Each
    kernel is co-simulated ({!Convex_vpsim.Cosim}) with the next
    [min (round (load_average - 1)) (ports - 2)] kernels of the list,
    taken cyclically, and its single-process CPF is scaled by its own
    CPU's slowdown.  [load_average] (the number of busy CPUs; default the
    paper's 5.1) at or below 1 gives the single-process CPFs unchanged. *)

val pipeline_trace : ?kernel:int -> unit -> string
(** A Gantt view of the first two strips of a kernel (default LFK1) on the
    simulator: one bar per vector instruction, grouped by strip, showing
    chaining hand-offs and the steady-state chime cadence. *)
