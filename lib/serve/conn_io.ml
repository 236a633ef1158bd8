(* Deadline-aware line I/O over raw file descriptors, for both
   transports of a supervised connection: a TCP socket, or stdin/stdout
   pipes.

   Frames are read with [Unix.select]-bounded waits — an idle gap
   between frames and a completion deadline per started frame are
   separate caps, so a slow-loris client (one byte per tick, forever)
   trips the frame deadline even though it is never idle — and replies
   are written with a writability deadline, so a client that stops
   reading (stalled-reader attack: the kernel send buffer fills) cannot
   wedge the server either.  Every wait also selects on an optional
   wake descriptor: once it turns readable the reader reports end of
   input, which is how a drain unblocks a read on a socket and a pipe
   alike.  Every failure is a typed result; nothing here raises on peer
   behaviour. *)

type reader = {
  fd : Unix.file_descr;
  wake : Unix.file_descr list;  (* readable = stop reading *)
  rbuf : Bytes.t;
  mutable rpos : int;  (* next unread byte in rbuf *)
  mutable rlen : int;  (* valid bytes in rbuf *)
  line : Buffer.t;
  mutable over : int;  (* bytes discarded past the frame cap *)
  mutable at_eof : bool;
}

let reader ?wake fd =
  {
    fd;
    wake = Option.to_list wake;
    rbuf = Bytes.create 8192;
    rpos = 0;
    rlen = 0;
    line = Buffer.create 256;
    over = 0;
    at_eof = false;
  }

type read_event =
  | Line of string  (* a complete frame, newline stripped *)
  | Oversized of int  (* a complete frame over the cap: its true length *)
  | Eof  (* clean close between frames *)
  | Torn of int  (* peer vanished mid-frame, [n] bytes in *)
  | Idle_timeout  (* no frame started within the idle cap *)
  | Frame_timeout of int  (* a started frame missed its deadline *)
  | Read_error of string

(* [select] timeouts must fit in a [timeval] — an unbounded deadline
   (Float.max_float) passed straight through is EINVAL on Linux — so
   waits run in bounded slices and re-check the deadline between them.
   EINTR also just restarts the slice. *)
let max_slice_s = 60.0

(* Wait until [r.fd] is readable, a wake descriptor is readable (which
   wins), or [deadline] (a [now]-clock value) passes. *)
let rec wait_readable ~now r ~deadline =
  let remaining = deadline -. now () in
  if remaining <= 0.0 then `Timeout
  else
    match
      Unix.select (r.fd :: r.wake) [] [] (Float.min remaining max_slice_s)
    with
    | [], _, _ ->
        if now () >= deadline then `Timeout
        else wait_readable ~now r ~deadline
    | ready, _, _ when List.exists (fun w -> List.memq w ready) r.wake ->
        `Woken
    | _ :: _, _, _ -> `Ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        wait_readable ~now r ~deadline

let far_future = Float.max_float

(* Read the next frame.  [idle_timeout_s] caps the silence before its
   first byte; [frame_timeout_s] caps first byte to newline; [limit]
   caps retained bytes (the excess is discarded as it streams in).
   Partial-frame state persists across calls, so a frame delivered in
   many small reads accumulates — but never outlives its deadline. *)
let read_line ?idle_timeout_s ?frame_timeout_s ~now ~limit r =
  let deadline_of = function
    | None -> far_future
    | Some s -> now () +. s
  in
  let started = Buffer.length r.line > 0 || r.over > 0 in
  let frame_deadline = ref (if started then deadline_of frame_timeout_s else far_future) in
  let idle_deadline = ref (if started then far_future else deadline_of idle_timeout_s) in
  let finish_line () =
    let n = Buffer.length r.line + r.over in
    let line = Buffer.contents r.line in
    Buffer.clear r.line;
    let over = r.over in
    r.over <- 0;
    if over > 0 then Oversized n else Line line
  in
  let consume_byte c =
    if c = '\n' then Some (finish_line ())
    else begin
      (if Buffer.length r.line >= limit then r.over <- r.over + 1
       else Buffer.add_char r.line c);
      (* first byte of a frame: switch from the idle cap to the frame cap *)
      if Buffer.length r.line + r.over = 1 then begin
        frame_deadline := deadline_of frame_timeout_s;
        idle_deadline := far_future
      end;
      None
    end
  in
  let rec drain_buffer () =
    if r.rpos >= r.rlen then refill ()
    else
      let c = Bytes.get r.rbuf r.rpos in
      r.rpos <- r.rpos + 1;
      match consume_byte c with
      | Some event -> event
      | None -> drain_buffer ()
  and refill () =
    if r.at_eof then at_eof ()
    else
      let deadline = Float.min !idle_deadline !frame_deadline in
      match wait_readable ~now r ~deadline with
      | `Woken ->
          r.at_eof <- true;
          at_eof ()
      | `Timeout ->
          if Buffer.length r.line > 0 || r.over > 0 then
            Frame_timeout (Buffer.length r.line + r.over)
          else Idle_timeout
      | `Ready -> (
          match Unix.read r.fd r.rbuf 0 (Bytes.length r.rbuf) with
          | 0 ->
              r.at_eof <- true;
              at_eof ()
          | n ->
              r.rpos <- 0;
              r.rlen <- n;
              drain_buffer ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
              r.at_eof <- true;
              at_eof ()
          | exception Unix.Unix_error (e, _, _) ->
              Read_error (Unix.error_message e))
  and at_eof () =
    if Buffer.length r.line > 0 || r.over > 0 then begin
      let n = Buffer.length r.line + r.over in
      Buffer.clear r.line;
      r.over <- 0;
      Torn n
    end
    else Eof
  in
  drain_buffer ()

(* ---- writes ---- *)

type write_error =
  | Peer_closed  (* EPIPE / ECONNRESET: the client hung up mid-reply *)
  | Write_timeout  (* the client stopped reading and the buffer filled *)
  | Write_failed of string

let rec wait_writable ~now fd ~deadline =
  let remaining = deadline -. now () in
  if remaining <= 0.0 then `Timeout
  else
    match Unix.select [] [ fd ] [] (Float.min remaining max_slice_s) with
    | _, [], _ ->
        if now () >= deadline then `Timeout
        else wait_writable ~now fd ~deadline
    | _, _ :: _, _ -> `Ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        wait_writable ~now fd ~deadline

(* Write [line] plus a newline, bounded by [write_timeout_s] per call
   (not per chunk: a reply must land whole within one deadline). *)
let write_line ?write_timeout_s ~now fd line =
  let payload = Bytes.of_string (line ^ "\n") in
  let total = Bytes.length payload in
  let deadline =
    match write_timeout_s with
    | None -> far_future
    | Some s -> now () +. s
  in
  let rec go off =
    if off >= total then Ok ()
    else
      match wait_writable ~now fd ~deadline with
      | `Timeout -> Error Write_timeout
      | `Ready -> (
          match Unix.write fd payload off (total - off) with
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception
              Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              Error Peer_closed
          | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> go off
          | exception Unix.Unix_error (e, _, _) ->
              Error (Write_failed (Unix.error_message e)))
  in
  go 0
