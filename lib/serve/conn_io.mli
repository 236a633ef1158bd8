(** Deadline-aware newline-delimited I/O over raw file descriptors, for
    both transports of a supervised connection: a TCP socket, or the
    stdin/stdout pipes.

    A supervised connection cannot block forever on a silent or stalled
    peer the way [in_channel]/[out_channel] do.  Reads and writes here
    are bounded by [Unix.select] deadlines against an injectable clock,
    and every peer-inflicted failure — hangup, trickle, stall — comes
    back as a typed value, never an exception. *)

type reader

val reader : ?wake:Unix.file_descr -> Unix.file_descr -> reader
(** Partial-frame state (a started line, discarded-overflow count)
    lives in the reader and persists across {!read_line} calls.  Once
    [wake] is readable, every read ends as if the peer had closed its
    side ({!Eof}, or {!Torn} mid-frame) — the drain signal, which works
    on pipes where [shutdown(2)] does not. *)

type read_event =
  | Line of string  (** a complete frame, newline stripped *)
  | Oversized of int  (** a complete frame over the cap: its true length *)
  | Eof  (** clean close between frames *)
  | Torn of int  (** the peer vanished mid-frame, [n] bytes in *)
  | Idle_timeout  (** no frame started within the idle cap *)
  | Frame_timeout of int  (** a started frame missed its completion deadline *)
  | Read_error of string

val read_line :
  ?idle_timeout_s:float ->
  ?frame_timeout_s:float ->
  now:(unit -> float) ->
  limit:int ->
  reader ->
  read_event
(** Read the next frame.  [idle_timeout_s] caps silence before the
    frame's first byte; [frame_timeout_s] caps first byte to newline
    (the slow-loris defense: a client trickling one byte per tick is
    never idle but still misses this); [limit] caps retained bytes —
    the rest of an oversized line streams through a counter and is
    answered as {!Oversized} with its true length. *)

type write_error =
  | Peer_closed  (** EPIPE / ECONNRESET: the client hung up mid-reply *)
  | Write_timeout  (** stalled reader: the client stopped draining replies *)
  | Write_failed of string

val write_line :
  ?write_timeout_s:float ->
  now:(unit -> float) ->
  Unix.file_descr ->
  string ->
  (unit, write_error) result
(** Write [line] plus a trailing newline; the whole reply must land
    within one [write_timeout_s] deadline. *)
