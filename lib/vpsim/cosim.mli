open Convex_machine

(** Trace-replay co-simulation of the shared memory system: the one model
    of several CPUs sharing memory.  Figure 3's multi-process series,
    parallel vector mode and the resilience report's contention probes
    all come from it.

    Cross-CPU interference is not calibrated here but made to {e emerge}:
    each workload first runs solo (traced), its memory accesses are
    reconstructed as a time-stamped stream, and the streams of up to
    {!max_cpus} CPUs are then replayed together, cycle by cycle, against
    the shared banks — each CPU has its own port (as on the C-240), but a
    bank in its busy window rejects everyone.  A rejected access slips
    that CPU's entire remaining stream by a cycle, so contention compounds
    exactly as queueing does.

    Nothing is fitted to the paper's §4.2 rules of thumb (5–10% for
    lockstep copies, ~20% for four different programs, one access every
    56–64 ns): the renderers print what bank capacity alone derives
    beside them, misses included. *)

type access = { cycle : int; word : int }

type stream = {
  name : string;
  accesses : access list;  (** time-ordered solo access stream *)
  solo_cycles : float;
}

type cpu_outcome = {
  stream : stream;
  delay : int;  (** cycles of slip accumulated by the replay *)
  slowdown : float;  (** (solo + delay) / solo *)
}

type t = { cpus : cpu_outcome list; average_slowdown : float }

val stream_of_job :
  ?machine:Machine.t ->
  ?faults:Convex_fault.Fault.t ->
  ?fidelity:Fastpath.fidelity ->
  name:string ->
  Job.t ->
  stream
(** Solo-run the job (traced) and reconstruct its memory-access stream:
    each vector memory instruction contributes one access per element
    starting at its observed start cycle; scalar accesses contribute one.
    The solo run places every array at 8192 words, as for a job without
    storage, whatever the job's {!Job.storage}; bank addresses come from
    that layout.  [faults] applies the plan to the solo run; raises
    {!Macs_util.Macs_error.Error} if the solo run stalls out under it. *)

val max_cpus : Machine.t -> int
(** CPUs the machine's memory ports serve: one port per CPU plus one for
    I/O, so [ports - 1] (4 on the C-240). *)

val replay :
  ?machine:Machine.t ->
  ?stagger:int ->
  ?equalize:bool ->
  ?faults:Convex_fault.Fault.t ->
  stream list ->
  (t, Macs_util.Macs_error.t) Stdlib.result
(** Replay up to four streams against shared banks.  [stagger] offsets
    CPU [i]'s start by [i * stagger] cycles (default 3 — processes never
    start on the same cycle).  [equalize] (default true) repeats shorter
    streams until they cover the longest, modeling a machine that stays
    loaded; per-CPU slip is then averaged back to one repetition.
    [faults] injects bank degradation, stuck/scrubbed banks and port
    spikes into the shared-bank replay; a plan that blocks some access
    forever yields [Error (Stall_out _)] once the progress guard trips.
    Raises [Invalid_argument] on an empty list or more than
    [max_cpus machine] streams (contract violations, not runtime
    outcomes). *)

val replay_exn :
  ?machine:Machine.t ->
  ?stagger:int ->
  ?equalize:bool ->
  ?faults:Convex_fault.Fault.t ->
  stream list ->
  t
(** Like {!replay}; raises {!Macs_util.Macs_error.Error} on failure. *)

val run :
  ?machine:Machine.t ->
  ?stagger:int ->
  ?faults:Convex_fault.Fault.t ->
  (Job.t * string) list ->
  (t, Macs_util.Macs_error.t) Stdlib.result
(** [stream_of_job] each workload, then [replay].  [faults] applies to
    both the solo trace runs and the shared replay; any stall-out is
    returned as [Error], never raised. *)

val run_exn :
  ?machine:Machine.t ->
  ?stagger:int ->
  ?faults:Convex_fault.Fault.t ->
  (Job.t * string) list ->
  t
(** Like {!run}; raises {!Macs_util.Macs_error.Error} on failure. *)

val pp : Format.formatter -> t -> unit
