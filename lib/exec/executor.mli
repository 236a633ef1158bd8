(** Fault-tolerant work-stealing executor over OCaml 5 domains.

    The suite, fuzz and chaos harnesses are all embarrassingly parallel
    over independent cells (kernel, fuzz case, fault plan).  This module
    runs [cells] numbered [0 .. cells-1] through a client function on
    [jobs] worker domains, with robustness as the contract:

    - every cell runs inside an exception barrier — an escaping exception
      quarantines that one cell into a poison list instead of sinking the
      run;
    - {!Transient} failures get bounded retry with exponential backoff
      whose jitter derives deterministically from the retry seed and the
      cell index, so reruns are reproducible;
    - {!Worker_killed} quarantines the cell {e and} retires the worker
      domain that ran it; the run degrades gracefully to fewer workers
      (the coordinator finishes any orphaned cells itself if every worker
      dies);
    - with [jobs = 1] the executor runs cells inline in index order and
      appends journal records exactly as the sequential harnesses always
      have — byte-identical output is the determinism pin;
    - with [jobs > 1] each worker appends to a private journal shard
      ({!Macs_util.Journal.shard_append}); on completion the coordinator
      atomically rewrites the main journal in cell-index order (the same
      bytes a sequential run produces) and removes the shards.  A crash
      mid-run leaves the shards behind for
      {!Macs_util.Journal.merge_shards} to recover. *)

exception Transient of string
(** Raise from a cell to request a bounded retry with backoff.  A cell
    that still raises [Transient] after [max_attempts] is quarantined. *)

exception Worker_killed of string
(** Raise from a cell to simulate (or report) a lethal cell: the cell is
    quarantined and the worker domain that ran it retires. *)

type retry = {
  max_attempts : int;  (** total attempts per cell, including the first *)
  base_delay_s : float;  (** backoff before the second attempt *)
  max_delay_s : float;  (** cap on any single backoff sleep *)
  seed : int;  (** jitter seed; same seed + cell index → same schedule *)
}

val default_retry : retry
(** 3 attempts, 5 ms base delay, 250 ms cap, seed 0. *)

val backoff_delay : retry:retry -> index:int -> attempt:int -> float
(** Sleep before attempt [attempt + 1] of cell [index]:
    [base * 2^(attempt-1) * (1 + jitter)] capped at [max_delay_s], where
    jitter in [0, 0.5) is drawn from a PRNG keyed on
    [(retry.seed, index, attempt)] — deterministic per (seed, cell). *)

type poison = {
  index : int;  (** which cell *)
  attempts : int;  (** attempts spent before quarantine *)
  error : string;  (** the escaping exception, printed *)
  context : string;  (** minimal client-provided context for triage *)
}

type 'r outcome = Done of 'r | Poisoned of poison

val poison_record : poison -> Macs_util.Journal.record
(** Journal form of a quarantined cell (tag ["poison"]).  Deliberately
    excludes the worker id so parallel and sequential runs journal the
    same bytes. *)

val poison_of_record : Macs_util.Journal.record -> (poison, string) result

type 'r journal = {
  path : string;
  format : string;
  config : Macs_util.Journal.record;
      (** config record for shard headers and the final rewrite; on
          resume pass the original record loaded from the main journal so
          its bytes survive. *)
  records_of : int -> 'r -> Macs_util.Journal.record list;
      (** journal records for a completed cell, in the order a sequential
          run would append them. *)
}

val records_of_outcome :
  'r journal -> int -> 'r outcome -> Macs_util.Journal.record list
(** The journal block of a finished cell: its records, or its poison
    record. *)

type stats = {
  jobs : int;  (** worker count actually used *)
  executed : int;  (** cells run fresh this invocation *)
  replayed : int;  (** cells supplied by [already] *)
  retried : int;  (** transient retries performed *)
  quarantined : int;  (** cells that ended up poisoned *)
  lost_workers : int;  (** worker domains retired by lethal cells *)
  stopped_early : bool;  (** [should_stop] fired before all cells ran *)
}

val run :
  ?jobs:int ->
  ?retry:retry ->
  ?journal:'r journal ->
  ?rewrite:bool ->
  ?already:(int -> 'r outcome option) ->
  ?context:(int -> string) ->
  ?progress:(int -> unit) ->
  ?should_stop:(unit -> bool) ->
  cells:int ->
  (int -> 'r) ->
  'r outcome option array * stats
(** [run ~cells f] executes [f i] for every cell [i] not already
    supplied by [already] and returns one outcome per cell (replayed
    outcomes included; [None] only for cells skipped by an early stop),
    plus run statistics.

    [jobs] (default 1) is clamped to [1 .. cells].  [jobs = 1] runs
    inline — no domain is spawned — and, when a [journal] is given,
    appends each fresh cell's records directly to the main journal in
    index order (creating it with header and config first if the caller
    has not): byte-identical to the historical sequential behaviour.

    [jobs > 1] (or [rewrite = true], for resuming after a parallel
    crash) switches to sharded journaling: each worker writes its own
    [<path>.shard<K>]; after all workers join, the main journal is
    atomically rewritten in cell-index order from the in-memory outcomes
    and the shards are removed.  The rewrite is skipped when no cell ran
    fresh, leaving an already-complete journal untouched.

    [progress i] is called (serialized under a mutex) as each cell is
    claimed.  [should_stop] is polled before each claim; once it returns
    [true] no further cells start — cells never started stay [None] in
    the returned array, are not journaled, and [stopped_early] is set, so
    a later resume re-runs them. *)
