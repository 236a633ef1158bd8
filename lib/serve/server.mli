(** The [macs_serve] request handler: one newline-delimited JSON frame
    in, one reply line out, hardened end to end.  Connections — stdio
    and TCP alike — are {!Supervisor}'s.

    - {b One reply per frame, always.}  {!handle_line} is total: any
      line — malformed JSON, envelope violations, oversized frames,
      unknown presets, mid-request faults — produces exactly one
      structured reply line.  The only exceptions that escape are
      {!Macs_util.Sink.Crashed} (simulated process death) and
      asynchronous runtime failures.
    - {b Deadlines degrade, never drop.}  A frame's [deadline_ms] /
      [budget_cycles] (or the server defaults) compile into one
      {!Convex_harness.Budget} watchdog shared by the whole batch; items
      whose measurement is cancelled come back as [Estimate]-tier
      answers on the same connection.
    - {b Idempotent retries.}  A frame's replies are keyed by
      {!Session.frame_key} (id + payload bytes) in the session journal
      and fronted by {!Convex_cache.Cache}; resending a frame replays
      the original reply byte-for-byte.
    - {b Crash-safe resume.}  Batch items journal as they complete; a
      server killed mid-batch and restarted on the same session file
      recomputes only the missing items and never re-executes completed
      work. *)

type config = {
  jobs : int;  (** worker domains per batch (via {!Convex_exec.Executor}) *)
  max_batch : int;  (** items per frame before [batch-too-large] *)
  max_frame_bytes : int;  (** request line length before [frame-too-large] *)
  default_deadline_ms : float option;
  default_budget_cycles : float option;
  session : string option;  (** session journal path *)
  cache_dir : string option;  (** reply cache directory *)
}

val default_config : config
(** jobs 1, max_batch 64, 1 MiB frames, no deadline, no
    session, no cache. *)

type t

val create : config -> (t, string) result
(** Fails only when the session journal exists and is not a macs-serve
    session (it is never clobbered). *)

type stats = {
  frames : int;  (** work frames answered *)
  control : int;  (** control frames answered *)
  rejected : int;  (** frames rejected whole with a typed error *)
  replayed_frames : int;  (** served byte-identically from journal/cache *)
  coalesced : int;  (** of those, concurrent duplicates that parked on an
                        in-flight twin (single-flight dedup) *)
  items : int;  (** batch items evaluated or replayed *)
  replayed_items : int;  (** items replayed from the session journal *)
  degraded : int;  (** items answered at estimate tier *)
}

val stats : t -> stats

val stats_json : t -> Json.t
(** Server counters plus cache counters (when a cache is attached) plus
    any {!set_stats_extra} sections, as one JSON object — the body of
    the [stats] control reply. *)

val set_stats_extra : t -> (unit -> (string * Json.t) list) -> unit
(** Register extra top-level sections for {!stats_json} (the connection
    supervisor reports its counters through this). *)

val max_frame_bytes_of : t -> int
(** The configured request-line cap (the supervisor reads it to bound
    raw reads before the line ever reaches {!handle_line}). *)

val handle_line : t -> string -> string
(** Serve one request line to one reply line (no trailing newline).
    Thread-safe: concurrent callers carrying the same frame key
    coalesce onto a single computation ({e single flight}) — one
    journal append, one cache store, byte-identical replies. *)

val shutdown_requested : t -> bool
(** Whether a [shutdown] control frame has been served (or {!drain}
    called). *)

val drain : t -> within_ms:float -> unit
(** Begin graceful drain: marks the server stopping and arms a global
    wall-clock deadline [within_ms] from now that every in-flight (and
    subsequent) batch watchdog polls — batches still running when the
    window closes degrade to analytic estimate-tier answers, exactly
    like budget expiry.  The accept loop is the supervisor's to stop. *)

val draining : t -> bool

val finish : t -> unit
(** Flush the session to its canonical durable form
    ({!Session.compact}); call after the last connection closes. *)
