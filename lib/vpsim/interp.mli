(** Functional (timing-free) interpreter for jobs.

    Executes a job's instructions over a {!Store.t}, giving the compiled
    code a reference semantics: tests compare its results against the
    direct OCaml implementations of the Livermore kernels (and the fuzzer
    against {!Convex_fuzz.Eval}'s direct IR evaluator) to establish that
    the compiler substrate preserves meaning before its output is fed to
    the timing model.

    Scalar registers are initialised from [sregs]; vector registers start
    zero-filled.  [Sop], [Smovvl] and [Sbranch] are no-ops (the driver
    performs loop control).  Out-of-bounds accesses and references to
    unknown arrays come back as [Error (Interp_fault _)]
    ({!Macs_util.Macs_error.t}) — on compiler output they mean the emitted
    code does not match its kernel's storage, a diagnosable outcome rather
    than a crash.

    Operands are resolved once per segment and an affine stream is
    range-checked at its first and last element, but the typed error is
    the one an element-by-element walk gives: the first unknown array or
    out-of-bounds element in program order.  The store's contents after a
    fault are unspecified; no caller reads them. *)

val run :
  ?max_vl:int ->
  ?sregs:(int * float) list ->
  store:Store.t ->
  Job.t ->
  (float array, Macs_util.Macs_error.t) result
(** Run all segments and strips; returns the final scalar register file
    (length {!Convex_isa.Reg.scalar_count}).  [max_vl] defaults to 128.
    Raises [Invalid_argument] on an [sregs] index outside the register
    file — a caller bug, not a runtime outcome. *)

val run_exn :
  ?max_vl:int ->
  ?sregs:(int * float) list ->
  store:Store.t ->
  Job.t ->
  float array
(** Like {!run}; raises {!Macs_util.Macs_error.Error} on failure.  The
    convenience for contexts (suite verification, paper tables) where an
    interpreter fault is a programming error, not an outcome. *)
