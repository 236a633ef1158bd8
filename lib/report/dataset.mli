open Convex_machine

(** One full evaluation of the benchmark set: every kernel compiled,
    bounded, and measured.  Computed once and shared by the table and
    figure renderers. *)

type t = {
  machine : Machine.t;
  opt : Fcc.Opt_level.t;
  rows : Macs.Hierarchy.t list;  (** paper order: 1,2,3,4,6,7,8,9,10,12 *)
}

val compute :
  ?machine:Machine.t -> ?opt:Fcc.Opt_level.t ->
  ?fidelity:Convex_vpsim.Fastpath.fidelity -> unit -> t
(** [fidelity] selects the simulator tier of every measurement exactly as
    in {!Macs.Hierarchy.analyze} (default tiered); both tiers give
    identical rows. *)

val find : t -> int -> Macs.Hierarchy.t
(** By LFK id; raises [Not_found]. *)

val cpf_columns : t -> float array * float array * float array * float array
(** (MA, MAC, MACS, measured) CPF per kernel, in paper order. *)
