(** Automated gap diagnosis (paper §4.4).

    The paper reads the hierarchy of bounds and measurements to name, for
    each kernel, the factors that keep delivered performance below
    deliverable performance.  This module encodes those readings as rules
    over a {!Hierarchy.t}:

    - a MA→MAC gap means the compiler inserted operations (reloads of
      shifted reuse streams);
    - a MAC→MACS gap means schedule-specific effects: bubbles, refresh,
      and — when t_MACS far exceeds both t_MACS^f and t_MACS^m — chimes
      split by scalar memory accesses (LFK8);
    - a MACS→t_p gap means unmodeled run time: short vectors exposing
      start-up, outer-loop scalar code, memory dependences between passes;
    - t_p near max(t_a, t_x) with the two far apart means one process
      dominates; t_p well above both means poor access–execute overlap;
    - t_x far above t_MACS^f in a reduction kernel points at the
      reduction–memory interaction (LFK4/6). *)

type issue =
  | Compiler_inserted_ops of { extra_memory_ops : int }
  | Schedule_effects of { macs_over_mac : float }
  | Chime_splitting of { split_chimes : int }
  | Short_vector_startup of { average_vl : float }
  | Outer_loop_overhead
  | Reduction_serialization
  | Poor_overlap of { overlap_excess : float }
  | Access_bound
  | Execute_bound
  | Well_modeled of { macs_coverage : float }

val issue_name : issue -> string
val describe : issue -> string

val coverage_floor : float
(** 0.9: a bound that explains at least this share of measured time
    explains the run; below it {!diagnose} looks for unmodeled run time. *)

val diagnose : Hierarchy.t -> issue list
(** Issues in decreasing order of estimated impact; always nonempty (a
    kernel with no significant gaps reports [Well_modeled]). *)

val report : Hierarchy.t -> string
(** Multi-line human-readable diagnosis, in the style of the paper's
    per-kernel commentary. *)
