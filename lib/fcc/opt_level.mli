(** Compiler optimization levels.

    [v61] mimics the Convex `fc` V6.1 behaviour the paper measures: every
    distinct array reference is loaded each iteration (values reused at a
    shifted index across iterations are reloaded, the cause of the MA→MAC
    gap in LFK 1, 2, 7, 12), and instructions are emitted depth-first so
    loads chain into their consumers.

    [ideal] keeps each reuse stream in a single register — one load per
    stream per iteration, approximating the MA workload.  Its output is
    {e not} functionally faithful (the C-240 has no vector-shift rotation
    to realign streams) and is meant only for timing ablations.

    [loads_first] keeps V6.1 reuse but hoists each statement's loads ahead
    of its arithmetic, degrading chime packing — the scheduling ablation.

    [packed] keeps V6.1 reuse but re-schedules the lowered body with a
    chime-aware list scheduler (see {!Schedule}), improving on the
    depth-first order where long statements burst same-pipe instructions
    (LFK8) — the scheduling ablation in the other direction. *)

type reuse = Reload_shifted | Stream_reuse
type schedule = Depth_first | Loads_first | Packed

type t = { reuse : reuse; schedule : schedule }

val v61 : t
val ideal : t
val loads_first : t
val packed : t

val functional : t -> bool
(** Whether compiled output computes the kernel's real results
    ([Stream_reuse] does not). *)

val name : t -> string

val all : t list
(** The four named levels, in the order above: [v61], [ideal],
    [loads_first], [packed]. *)

val of_name : string -> t option
(** The level of {!all} whose {!name} is this ("v61", "ideal",
    "loads-first", "packed"). *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
