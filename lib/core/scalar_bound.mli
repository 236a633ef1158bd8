open Convex_isa
open Convex_machine

(** Bounds for scalar-mode loops.

    The paper's §3.1 names the bottleneck units of scalar machines: the
    instruction issue unit, the memory interface, the floating-point
    units, "and a dependence pseudo-unit to model loop-carried
    dependence" (its references [4][5] develop the model for the ZS-1 and
    RS/6000).  This module applies that recipe to the C-240's scalar
    mode, per iteration of a scalar loop body:

    - [issue]: every instruction occupies the single in-order issue stage;
    - [memory]: scalar loads/stores through the one memory port;
    - [fp]: scalar floating-point ALU operations;
    - [dependence]: the critical path through scalar registers and, for
      loops whose store feeds a later iteration's load (LFK5/LFK11), the
      carried chain load → ALU ops → store → next load.

    The bound is the maximum of the four; the simulator's measured CPL
    should approach it from above. *)

type t = {
  issue : float;
  memory : float;
  fp : float;
  dependence : float;
  cpl : float;  (** max of the four components *)
}

val compute :
  ?carried:bool -> machine:Machine.t -> Instr.t list -> t
(** Bound for one iteration of a scalar loop body.  [carried] (default
    [false]) adds the cross-iteration memory edge to the dependence
    chain: the next iteration's loads wait for this iteration's last
    store. *)

val of_compiled : machine:Machine.t -> Fcc.Compiler.t -> t
(** Convenience: compute the bound on [machine] for a scalar-mode
    compilation result (using its vectorization verdict to set
    [carried]).  Raises [Invalid_argument] when the compilation is in
    vector mode. *)

val pp : Format.formatter -> t -> unit
