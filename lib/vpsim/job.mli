open Convex_isa

(** A complete runnable workload for the simulator: a strip-mined inner-loop
    body plus the sequence of inner-loop instances ({e segments}) the outer
    loop structure produces.

    For a simple kernel like LFK1 there is a single segment of length [n].
    For LFK6 (triangular recurrence) there is one segment per outer
    iteration, of growing length; for LFK2 (ICCG) the segment lengths halve.
    Each segment may shift the effective base address of arrays (modeling
    outer-loop address arithmetic for 2-D arrays) and may carry scalar or
    vector prologue/epilogue instructions that execute once per segment
    (modeling the paper's "outer loop overhead").

    A job also carries where its data sits in memory.  The paper binds
    "the allocation of the data structures in memory" as a degree of
    freedom of its own (the D extension), so a measured time means
    something only once the layout is fixed: a compiled job records the
    compiler's {!storage}, {!layout} places it, and {!Sim.run} runs over
    that placement unless a caller passes another.  Every front end that
    simulates a compiled kernel therefore measures it over the same
    layout. *)

type segment = {
  base : int;  (** loop-index value of the segment's first element *)
  vl : int;  (** number of elements; strip-mined into chunks of max VL *)
  shifts : (string * int) list;
      (** per-array extra word offset for this segment *)
  prologue : Instr.t list;
  epilogue : Instr.t list;
}

val segment : ?base:int -> ?shifts:(string * int) list ->
  ?prologue:Instr.t list -> ?epilogue:Instr.t list -> int -> segment
(** [segment n] is a plain segment of [n] elements starting at index 0. *)

(** Execution mode.  In [Vector] mode the body is a strip-mined vector
    loop: one body execution covers up to max-VL elements.  In [Scalar]
    mode the body processes a single element per execution (the C-240's
    scalar mode, used for loops the compiler cannot vectorize). *)
type mode = Vector | Scalar

(** The storage a job addresses, as its compiler allocated it. *)
type storage = {
  arrays : (string * int) list;
      (** each distinct array with its size in words, in placement order *)
  aliases : (string * string) list;
      (** each alias with the array whose storage it shares (LFK2's XS,
          LFK6's WS) *)
}

type t = {
  name : string;
  body : Instr.t list;
  segments : segment list;
  mode : mode;
  storage : storage option;
      (** [None] for hand-built probes: {!layout} then gives every array
          8192 words *)
}

val make :
  ?mode:mode -> ?storage:storage -> name:string -> body:Instr.t list ->
  segments:segment list -> unit -> t
(** Raises [Invalid_argument] on an empty body, empty segment list, or a
    nonpositive segment length.  [mode] defaults to [Vector], [storage]
    to [None]. *)

val of_program : Program.t -> n:int -> t
(** Single-segment job over a program's body. *)

val total_elements : t -> int
(** Sum of segment lengths: the number of original inner-loop iterations,
    the denominator of CPL. *)

val strip_count : t -> max_vl:int -> int
(** Number of body executions: strips in vector mode, elements in scalar
    mode. *)

val arrays : t -> string list
(** All arrays referenced by body, prologues and epilogues. *)

val layout : t -> Convex_memsys.Layout.t
(** The job's memory layout: with [storage], its arrays placed in order
    by {!Convex_memsys.Layout.build} and each alias bound to its target's
    base, so bank behaviour and memory dependences see through the alias;
    without, every array of {!arrays} placed at 8192 words.  A fresh
    layout on every call. *)

val map_body : (Instr.t list -> Instr.t list) -> t -> t
(** Transform the body (and each segment's prologue/epilogue) — used by the
    A/X process generators.  The storage is kept, so the A- and X-process
    run over the full code's layout. *)
