(** The durable cell-runner behind the suite, fuzz and chaos harnesses.

    A harness describes its cells — the key parts of each, a payload
    codec, [compute] — and, when it journals, its config fields and a
    journal codec.  The runner owns the rest, once:

    - the journal's [config] record: written on a fresh run, compared
      field by field on resume (a mismatch refuses and names every
      differing field);
    - shard merge ({!Macs_util.Journal.merge_shards}) and replay of the
      prior [Done] and [poison] blocks;
    - the cache step: find, decode, and on a miss compute and store;
    - the {!Executor.run} call;
    - {!Convex_cache.Cache.log_run} and the hit/miss counters.

    Machine identity is {!Convex_machine.Machine.digest}: the runner puts
    it into every cache key and every config record (field [machine]), so
    a stored result is reused only under the exact machine that produced
    it.  With neither a journal nor a cache, [run] computes no digest and
    no key and touches no file. *)

type 'r codec = {
  encode : 'r -> Macs_util.Journal.record list;
  decode : int -> Macs_util.Journal.record list -> ('r, string) result;
      (** the cell index, then its record block *)
}

type 'r spec = {
  kind : string;  (** cache entry kind, e.g. ["suite-cell"] *)
  machine : Convex_machine.Machine.t;
  cells : int;
  key : int -> (string * string) list;
      (** every input that determines cell [i], beyond the machine;
          called only when a cache is configured *)
  payload : 'r codec;  (** the cache entry body, one record per line *)
  compute : int -> 'r;
  context : int -> string;  (** triage context for a quarantined cell *)
  label : string;  (** the cache-log run label *)
}

type 'r journal = {
  path : string;
  format : string;  (** journal schema name *)
  resume : bool;
      (** replay a live journal; a [Fresh] one (missing, empty, or an
          interrupted create) is started over instead *)
  config : (string * string) list;
      (** the result-determining run fields after [machine]; resume
          refuses a journal whose record differs in any of them *)
  records : 'r codec;  (** the journal block of one completed cell *)
  closes : Macs_util.Journal.record -> int option;
      (** the cell a record closes; [poison] records are handled here *)
}

type 'r run = {
  outcomes : 'r Executor.outcome option array;
  replayed : bool array;  (** cell [i] came from the journal *)
  stats : Executor.stats;
  counters : Convex_cache.Cache.counters option;
      (** present when a cache was configured *)
}

val run :
  ?jobs:int ->
  ?progress:(int -> unit) ->
  ?should_stop:(unit -> bool) ->
  ?around:(int -> (int -> 'r) -> 'r) ->
  ?replay:('r Executor.outcome -> bool) ->
  ?journal:'r journal ->
  ?cache:string ->
  'r spec ->
  ('r run, string) result
(** Run every cell not replayed from the journal.  [around i f] wraps
    the cached computation of fresh cell [i] (default [f i]) — for side
    effects a cache hit must not skip.  [replay], on resume, keeps only
    the prior cells it accepts: the journal is rewritten without the
    others before anything runs, and they run again.  Errors only on
    journal problems: unreadable, corrupt, or a config mismatch. *)

val key : 'r spec -> int -> string
(** The cache key of cell [i]: kind, machine digest, then [spec.key i]. *)

val value_digest : 'a -> string
(** Hex MD5 of a marshalled value — a key part for structured inputs
    such as a kernel. *)
