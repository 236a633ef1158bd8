(** Deterministic crash-point sweep over every durable write boundary.

    Every durable write in the repo — journal lines, shard cells, corpus
    entries, cache objects — is a numbered {!Macs_util.Sink} boundary.
    [sweep] runs a scenario once disarmed to learn the boundary count and
    the golden artifact bytes, then once per injection point with the
    sink armed to kill the simulated process at that boundary ({!Sink.Before}
    the write, {!Sink.Torn} mid-write, or {!Sink.After} it), drives the
    scenario's recovery path against the wreckage, and asserts the
    crash-consistency contract: recovered artifacts byte-identical to an
    uninterrupted run — no lost cells, no duplicates, no torn or stale
    cache entry ever served. *)

module Sink = Macs_util.Sink

(** One scenario instantiation, rooted in a private directory. *)
type phases = {
  run : unit -> unit;  (** the workload; raises {!Sink.Crashed} when armed *)
  recover : unit -> unit;  (** restart against whatever the crash left *)
  artifacts : string list;
      (** files whose final bytes must match the uninterrupted run *)
}

type scenario = { name : string; prepare : dir:string -> phases }

type failure = {
  point : int;
  mode : Sink.mode;
  stage : string;  (** ["run"], ["recover"], or the artifact that differed *)
  detail : string;
}

type report = {
  scenario : string;
  boundaries : int;  (** write boundaries in the uninterrupted run *)
  points : int;  (** armed runs performed *)
  crashes : int;  (** of those, how many actually died at their boundary *)
  failures : failure list;
}

val ok : report -> bool
val render : report -> string

val sweep :
  ?modes:Sink.mode list ->
  ?cross:bool ->
  ?stride:int ->
  dir:string ->
  scenario ->
  report
(** Run the sweep under [dir] (created; one subdirectory per injection
    point, removed again unless that point failed).  [modes] defaults to
    all three; with [cross = false] (the default) the modes rotate across
    the points so every boundary is hit once, with [cross = true] every
    (point, mode) pair runs.  [stride] arms every [stride]'th boundary
    (the first and last always included).  Never raises on a failing
    point — failures are collected in the report. *)

(** {1 Canned scenarios} *)

val scenario_exec_shards : ?cells:int -> unit -> scenario
(** Bare {!Convex_exec.Executor} with sharded journaling and a
    pure-arithmetic cell body: shard create/appends, canonical-rewrite
    tmp create and publish rename.  Recovery merges surviving shards and
    replays. *)

val scenario_chaos : ?cells:int -> unit -> scenario
(** A small cached chaos campaign; recovery is [~resume]. *)

val scenario_fuzz : ?count:int -> unit -> scenario
(** A small cached fuzz campaign; recovery re-runs over the same cache,
    so every case the crashed run stored must replay byte-identically
    (the artifact is a wall-clock-free summary digest). *)

val scenario_corpus : ?entries:int -> unit -> scenario
(** Direct {!Convex_fuzz.Corpus} appends; recovery loads the survivors
    and appends only the missing entries — nothing lost, nothing
    duplicated. *)

val scenario_suite : ?machine:Convex_machine.Machine.t -> unit -> scenario
(** The supervised Livermore suite with journal and cache on [machine]
    (default c240); recovery is [~resume].  Expensive — meant for
    strided sweeps. *)

val scenario_serve : unit -> scenario
(** A scripted [macs_serve] session against a session journal and reply
    cache: healthy simulate/hierarchy frames (one on a what-if DSL
    machine), a malformed frame, an over-budget frame that degrades to
    an estimate-tier answer, and an unknown preset.  Every session
    append and cache publish is a {!Sink} boundary; recovery restarts a
    server on the same session file and re-sends every frame, so
    completed items must replay from the journal instead of
    re-executing.  Artifacts: the session journal and the reply log,
    both byte-identical to an uninterrupted session. *)

val scenario_serve_net : unit -> scenario
(** [scenario_serve] pushed through the wire: the same frames travel a
    real (socketpair) connection under the
    {!Convex_serve.Supervisor}, so deadline reads, the reply
    sequencer, and the connection close path sit between the crash
    points and the client — and the drive ends with the graceful-drain
    journal compaction, arming {!Macs_util.Journal.write_atomic}'s
    two-phase publish.  A crash mid-compaction must leave the old
    journal or the new one, never a torn file. *)

val scenarios :
  ?cells:int -> ?count:int -> ?entries:int -> unit -> scenario list
(** The default sweep set: exec-shards, corpus, chaos, fuzz-warm, serve,
    serve-net (the suite scenario is opt-in by name). *)

val scenario_of_name :
  ?cells:int -> ?count:int -> ?entries:int -> string -> scenario option
(** ["exec-shards"], ["corpus"], ["chaos"], ["fuzz-warm"], ["serve"],
    ["suite"]. *)

val cleanup : string -> unit
(** Recursively delete a sweep workspace; missing paths are ignored. *)
