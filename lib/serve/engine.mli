(** Evaluation of one protocol item to one reply-item JSON object.

    The hardening contract lives here: {!eval_item} never raises — a
    malformed item, a fault-induced stall-out, a blown deadline, even an
    unexpected exception all come back as structured result objects —
    with exactly one deliberate exception: {!Macs_util.Sink.Crashed}
    (and asynchronous runtime exceptions) re-raise, because a simulated
    process death must kill the process, not be quarantined into a
    reply.

    Deadline semantics: when the [watchdog] cancels a measurement with
    [Budget_exceeded], the item degrades to an [Estimate]-tier answer
    ([tier = estimate], with the diagnostic in [degraded]) instead of
    failing — the analytic bound never simulates, so it is always
    affordable.  Every other {!Macs_util.Macs_error.t} is a diagnosed
    outcome and is returned as a typed item error. *)

val eval_item :
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?memo:Convex_vpsim.Measure.Memo.t ->
  (Protocol.item, Protocol.perror) result ->
  Json.t
(** Evaluate one decoded batch item (or embed its decode error).  The
    result object always carries [ok] — plus [op], [kernel] and
    [machine] when known — and either data fields or [error].  [memo]
    is threaded into every measurement the item takes
    ({!Convex_vpsim.Measure.Memo}); the reply is byte-identical with or
    without it. *)
