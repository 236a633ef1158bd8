(* Tests for convex_serve: the handwritten JSON codec, frame decoding,
   the request handler's error envelope, deadline degradation, idempotent
   replay through the session journal, crash-tail repair, the supervised
   connection over sockets and stdio pipes, and the protocol-fuzz
   rung. *)

module Json = Convex_serve.Json
module Protocol = Convex_serve.Protocol
module Session = Convex_serve.Session
module Server = Convex_serve.Server
module Serve_fuzz = Convex_serve.Serve_fuzz

let tmp_dir =
  let counter = ref 0 in
  fun label ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "macs_serve_test_%d_%s_%d" (Unix.getpid ()) label
           !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let json = Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (Json.to_string j)) ( = )

let parse_ok s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" s e

(* ---- Json ---- *)

let test_json_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        (s ^ ": print (parse s) = s")
        s
        (Json.to_string (parse_ok s)))
    [
      "null";
      "true";
      "false";
      "42";
      "-7";
      "3.25";
      "1e+30";
      {|""|};
      {|"hi"|};
      {|"tab\tquote\"backslash\\"|};
      {|[1,2,[3,null]]|};
      {|{"a":1,"b":[true,{"c":"d"}]}|};
      "9007199254740992";
    ]

let test_json_unicode () =
  (* \uXXXX escapes decode to UTF-8, surrogate pairs included *)
  Alcotest.(check string) "bmp" "\xc3\xa9"
    (match parse_ok {|"é"|} with Json.Str s -> s | _ -> assert false);
  Alcotest.(check string) "astral" "\xf0\x9d\x84\x9e"
    (match parse_ok {|"𝄞"|} with
    | Json.Str s -> s
    | _ -> assert false);
  (match Json.parse {|"\udc00"|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unpaired low surrogate must be rejected");
  match Json.parse "\"raw\x01control\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "raw control byte must be rejected"

let test_json_hostile () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error msg ->
          Alcotest.(check bool) (s ^ ": error nonempty") true (msg <> "")
      | Ok _ -> Alcotest.failf "%S must be rejected" s)
    [
      "";
      "{";
      "[1,";
      "{\"a\":}";
      "nul";
      "01";
      "- 1";
      "\"unterminated";
      "{\"a\":1} trailing";
      String.concat "" (List.init 100 (fun _ -> "[")) ^ "1";
    ]

let test_json_depth_cap () =
  let deep n = String.concat "" (List.init n (fun _ -> "[")) in
  let closed n =
    deep n ^ "1" ^ String.concat "" (List.init n (fun _ -> "]"))
  in
  (match Json.parse (closed 63) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 63 must parse: %s" e);
  match Json.parse (closed 65) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth 65 must be rejected"

let test_json_accessors () =
  let j = parse_ok {|{"s":"x","n":3,"i":7,"b":true,"a":[1],"z":null}|} in
  Alcotest.(check (option string)) "str" (Some "x")
    (Option.bind (Json.mem j "s") Json.str);
  Alcotest.(check (option (float 0.0))) "num" (Some 3.0)
    (Option.bind (Json.mem j "n") Json.num);
  Alcotest.(check (option int)) "int" (Some 7)
    (Option.bind (Json.mem j "i") Json.int);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (Json.mem j "b") Json.bool);
  Alcotest.(check bool) "arr" true
    (Option.bind (Json.mem j "a") Json.arr = Some [ Json.Num 1.0 ]);
  Alcotest.(check (option string)) "missing" None
    (Option.bind (Json.mem j "nope") Json.str);
  Alcotest.(check (option int)) "non-integral int" None
    (Json.int (Json.Num 1.5))

let test_json_float_rendering () =
  Alcotest.(check string) "integral" "3" (Json.to_string (Json.Num 3.0));
  Alcotest.(check string) "negative zero keeps value" "0"
    (Json.to_string (Json.Num 0.0));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Num Float.infinity));
  (* round-trip through the printer preserves the float bit pattern *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Num f)) with
      | Ok (Json.Num f') ->
          Alcotest.(check int64) "bits" (Int64.bits_of_float f)
            (Int64.bits_of_float f')
      | _ -> Alcotest.failf "float %h did not round-trip" f)
    [ 0.1; 1.0 /. 3.0; 1e-300; 4.2177822177822177; 123456789.125 ]

(* ---- Protocol ---- *)

let test_decode_batch () =
  match
    Protocol.decode_frame ~max_batch:64
      {|{"id":"x","budget_cycles":500,"batch":[{"op":"simulate","kernel":7},{"op":"hierarchy","kernel":3}]}|}
  with
  | Ok (Protocol.Batch { id; budget_cycles; items; _ }) ->
      Alcotest.(check string) "id" "x" id;
      Alcotest.(check (option (float 0.0))) "budget" (Some 500.0)
        budget_cycles;
      Alcotest.(check int) "items" 2 (List.length items);
      Alcotest.(check bool) "all well-formed" true
        (List.for_all Result.is_ok items)
  | Ok _ -> Alcotest.fail "expected a batch"
  | Error e -> Alcotest.fail e.Protocol.message

let test_decode_inline_sugar () =
  match
    Protocol.decode_frame ~max_batch:64
      {|{"id":"y","op":"simulate","kernel":7}|}
  with
  | Ok (Protocol.Batch { items; _ }) ->
      Alcotest.(check int) "one item" 1 (List.length items)
  | _ -> Alcotest.fail "inline sugar must decode as a one-item batch"

let test_decode_envelope_errors () =
  let kind_of line =
    match Protocol.decode_frame ~max_batch:2 line with
    | Error e -> e.Protocol.kind
    | Ok _ -> Alcotest.failf "%s: must be rejected" line
  in
  Alcotest.(check string) "no id" "bad-request"
    (kind_of {|{"op":"simulate","kernel":7}|});
  Alcotest.(check string) "non-string id" "bad-request"
    (kind_of {|{"id":7,"op":"simulate","kernel":7}|});
  Alcotest.(check string) "not json" "bad-frame" (kind_of "{nope");
  Alcotest.(check string) "not an object" "bad-frame" (kind_of "[1,2]");
  Alcotest.(check string) "oversized batch" "batch-too-large"
    (kind_of
       {|{"id":"x","batch":[{"op":"simulate","kernel":1},{"op":"simulate","kernel":2},{"op":"simulate","kernel":3}]}|})

let test_decode_item_errors () =
  (* item-level problems stay per-item: the envelope still decodes *)
  match
    Protocol.decode_frame ~max_batch:64
      {|{"id":"x","batch":[{"op":"simulate","kernel":99},{"op":"simulate","kernel":7,"machine":"c240;banks=0"},{"op":"wat","kernel":7},{"op":"simulate","kernel":7}]}|}
  with
  | Ok (Protocol.Batch { items; _ }) ->
      let kinds =
        List.map
          (function
            | Ok _ -> "ok"
            | Error (e : Protocol.perror) -> e.Protocol.kind)
          items
      in
      Alcotest.(check (list string)) "per-item kinds"
        [ "bad-request"; "parse-failure"; "bad-request"; "ok" ]
        kinds
  | _ -> Alcotest.fail "envelope must decode"

let test_frame_key () =
  let k = Session.frame_key ~id:"a" ~payload:"p" in
  Alcotest.(check string) "deterministic" k
    (Session.frame_key ~id:"a" ~payload:"p");
  Alcotest.(check bool) "id matters" true
    (k <> Session.frame_key ~id:"b" ~payload:"p");
  Alcotest.(check bool) "payload matters" true
    (k <> Session.frame_key ~id:"a" ~payload:"q");
  (* the separator is unambiguous: ("ab","c") <> ("a","bc") *)
  Alcotest.(check bool) "no concat collision" true
    (Session.frame_key ~id:"ab" ~payload:"c"
    <> Session.frame_key ~id:"a" ~payload:"bc")

(* ---- Server ---- *)

let create_ok config =
  match Server.create config with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let reply_json server line = parse_ok (Server.handle_line server line)

let get path j =
  List.fold_left (fun acc f -> Option.bind acc (fun j -> Json.mem j f))
    (Some j) path

let get_str path j = Option.bind (get path j) Json.str

let first_result j =
  match Option.bind (Json.mem j "results") Json.arr with
  | Some (r :: _) -> r
  | _ -> Alcotest.fail "reply has no results"

let test_server_simulate () =
  let s = create_ok Server.default_config in
  let j = reply_json s {|{"id":"a","op":"simulate","kernel":7}|} in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (Json.mem j "ok") Json.bool);
  Alcotest.(check (option string)) "tier" (Some "full")
    (get_str [ "tier" ] (first_result j));
  Alcotest.(check bool) "cpl present" true
    (get [ "cpl" ] (first_result j) <> None)

let test_server_advise_fidelity () =
  (* advise honours the item's tier; both tiers must answer alike, for a
     vectorizable kernel (hierarchy re-measurements) and a scalar one
     (one direct measurement) *)
  let s = create_ok Server.default_config in
  List.iter
    (fun kernel ->
      let reply fidelity =
        Server.handle_line s
          (Printf.sprintf
             {|{"id":"adv","op":"advise","kernel":%d,"machine":"c240;banks=8;busy=12","fidelity":"%s"}|}
             kernel fidelity)
      in
      let cycle = reply "cycle" and tiered = reply "tiered" in
      Alcotest.(check (option string))
        (Printf.sprintf "lfk%d full tier" kernel)
        (Some "full")
        (get_str [ "tier" ] (first_result (parse_ok cycle)));
      Alcotest.(check string)
        (Printf.sprintf "lfk%d cycle == tiered" kernel)
        cycle tiered)
    [ 7; 5 ]

let test_server_budget_degrades () =
  let s = create_ok Server.default_config in
  let j =
    reply_json s {|{"id":"a","budget_cycles":100,"op":"simulate","kernel":7}|}
  in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (Json.mem j "ok") Json.bool);
  Alcotest.(check (option string)) "estimate tier" (Some "estimate")
    (get_str [ "tier" ] (first_result j));
  Alcotest.(check bool) "degraded diagnostic" true
    (get_str [ "degraded" ] (first_result j) <> None);
  Alcotest.(check int) "degraded counter" 1 (Server.stats s).Server.degraded

let test_server_typed_errors () =
  let s = create_ok { Server.default_config with Server.max_batch = 2 } in
  let kind_of line =
    match get_str [ "error"; "kind" ] (reply_json s line) with
    | Some k -> k
    | None -> Alcotest.failf "%s: no error kind" line
  in
  Alcotest.(check string) "bad frame" "bad-frame" (kind_of "}{");
  Alcotest.(check string) "batch too large" "batch-too-large"
    (kind_of
       {|{"id":"x","batch":[{"op":"simulate","kernel":1},{"op":"simulate","kernel":2},{"op":"simulate","kernel":3}]}|});
  (* item-level failure: envelope ok, per-item typed error *)
  let j = reply_json s {|{"id":"y","op":"simulate","kernel":99}|} in
  Alcotest.(check (option bool)) "envelope ok" (Some true)
    (Option.bind (Json.mem j "ok") Json.bool);
  Alcotest.(check (option string)) "item kind" (Some "bad-request")
    (get_str [ "error"; "kind" ] (first_result j));
  let j = reply_json s {|{"id":"z","op":"simulate","kernel":7,"machine":"no-such-preset"}|} in
  Alcotest.(check (option string)) "unknown preset" (Some "parse-failure")
    (get_str [ "error"; "kind" ] (first_result j))

let test_server_control () =
  let s = create_ok Server.default_config in
  let j = reply_json s {|{"op":"ping"}|} in
  Alcotest.(check (option bool)) "pong" (Some true)
    (Option.bind (Json.mem j "ok") Json.bool);
  let j = reply_json s {|{"id":"st","op":"stats"}|} in
  Alcotest.(check bool) "stats body" true
    (get [ "stats"; "server"; "frames" ] j <> None);
  Alcotest.(check bool) "not yet stopping" false (Server.shutdown_requested s);
  ignore (Server.handle_line s {|{"op":"shutdown"}|});
  Alcotest.(check bool) "stopping" true (Server.shutdown_requested s)

let frame_a = {|{"id":"a","batch":[{"op":"simulate","kernel":7},{"op":"hierarchy","kernel":3}]}|}

let test_server_idempotent_retry () =
  let dir = tmp_dir "retry" in
  let config =
    {
      Server.default_config with
      Server.session = Some (Filename.concat dir "s.journal");
      cache_dir = Some (Filename.concat dir "cache");
    }
  in
  let s = create_ok config in
  let r1 = Server.handle_line s frame_a in
  let r2 = Server.handle_line s frame_a in
  Alcotest.(check string) "byte-identical retry" r1 r2;
  Alcotest.(check int) "second was a replay" 1
    (Server.stats s).Server.replayed_frames

let test_server_session_resume () =
  let dir = tmp_dir "resume" in
  let path = Filename.concat dir "s.journal" in
  let config = { Server.default_config with Server.session = Some path } in
  let s1 = create_ok config in
  let r1 = Server.handle_line s1 frame_a in
  (* a new server on the same journal serves the same bytes, without
     re-executing the items *)
  let s2 = create_ok config in
  let r2 = Server.handle_line s2 frame_a in
  Alcotest.(check string) "resumed bytes" r1 r2;
  Alcotest.(check int) "replayed" 1 (Server.stats s2).Server.replayed_frames;
  Alcotest.(check int) "no items re-run" 0 (Server.stats s2).Server.items

let test_server_session_torn_tail () =
  let dir = tmp_dir "torn" in
  let path = Filename.concat dir "s.journal" in
  let config = { Server.default_config with Server.session = Some path } in
  let s1 = create_ok config in
  let r1 = Server.handle_line s1 frame_a in
  (* the previous server died holding a torn final line *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "item\tkey=deadbeef\tindex=0\tdata=truncat";
  close_out oc;
  let s2 = create_ok config in
  Alcotest.(check string) "repaired and replayed" r1
    (Server.handle_line s2 frame_a)

let test_server_refuses_foreign_journal () =
  let dir = tmp_dir "foreign" in
  let path = Filename.concat dir "s.journal" in
  let oc = open_out_bin path in
  output_string oc "important data, definitely not a session journal\n";
  close_out oc;
  (match
     Server.create { Server.default_config with Server.session = Some path }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a foreign file must never be clobbered");
  let ic = open_in_bin path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "file untouched"
    "important data, definitely not a session journal" line

(* ---- Supervisor layer: limiter, sequencer, conn_io, connections ---- *)

module Limiter = Convex_serve.Limiter
module Sequencer = Convex_serve.Sequencer
module Conn_io = Convex_serve.Conn_io
module Supervisor = Convex_serve.Supervisor

let fake_clock start =
  let t = ref start in
  ((fun () -> !t), fun dt -> t := !t +. dt)

let astr_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_limiter_frame_rate () =
  let now, advance = fake_clock 0.0 in
  let lim =
    Limiter.make
      ~config:
        {
          Limiter.max_frames_per_s = Some 2.0;
          max_bytes_per_s = None;
          burst_s = 1.0;
        }
      ~now ()
  in
  (* burst capacity 2 frames, then dry until the clock refills *)
  Alcotest.(check bool) "1st admitted" true
    (Limiter.admit lim ~bytes:10 = Limiter.Admitted);
  Alcotest.(check bool) "2nd admitted" true
    (Limiter.admit lim ~bytes:10 = Limiter.Admitted);
  (match Limiter.admit lim ~bytes:10 with
  | Limiter.Throttled why ->
      Alcotest.(check bool) "reason quotes the rate" true
        (astr_contains why "frame")
  | Limiter.Admitted -> Alcotest.fail "3rd frame must throttle");
  advance 0.5;
  Alcotest.(check bool) "refill admits" true
    (Limiter.admit lim ~bytes:10 = Limiter.Admitted)

let test_limiter_byte_rate_consumes_nothing_on_reject () =
  let now, advance = fake_clock 0.0 in
  let lim =
    Limiter.make
      ~config:
        {
          Limiter.max_frames_per_s = None;
          max_bytes_per_s = Some 100.0;
          burst_s = 1.0;
        }
      ~now ()
  in
  Alcotest.(check bool) "60 bytes fit" true
    (Limiter.admit lim ~bytes:60 = Limiter.Admitted);
  (* 41 more would overdraw: rejected, and rejection must not consume *)
  Alcotest.(check bool) "41 rejected" true
    (Limiter.admit lim ~bytes:41 = Limiter.Admitted = false);
  Alcotest.(check bool) "40 still fit (nothing was consumed)" true
    (Limiter.admit lim ~bytes:40 = Limiter.Admitted);
  advance 10.0;
  Alcotest.(check bool) "bucket caps at burst" true
    (Limiter.admit lim ~bytes:100 = Limiter.Admitted)

let test_sequencer_reorders () =
  let out = Buffer.create 64 in
  let seqr =
    Sequencer.create ~write:(fun line ->
        Buffer.add_string out (line ^ "\n");
        Ok ())
  in
  Sequencer.submit seqr ~seq:2 "two";
  Sequencer.submit seqr ~seq:1 "one";
  Alcotest.(check int) "nothing written before seq 0" 0 (Sequencer.written seqr);
  Alcotest.(check int) "two pending" 2 (Sequencer.pending seqr);
  Sequencer.submit seqr ~seq:0 "zero";
  Alcotest.(check string) "arrival order restored" "zero\none\ntwo\n"
    (Buffer.contents out);
  Alcotest.(check int) "all written" 3 (Sequencer.written seqr)

let test_sequencer_latches_first_failure () =
  let wrote = ref 0 in
  let seqr =
    Sequencer.create ~write:(fun _ ->
        if !wrote = 0 then begin
          incr wrote;
          Ok ()
        end
        else Error "peer gone")
  in
  Sequencer.submit seqr ~seq:0 "a";
  Sequencer.submit seqr ~seq:1 "b";
  Sequencer.submit seqr ~seq:2 "c";
  Alcotest.(check (option string)) "failure latched" (Some "peer gone")
    (Sequencer.failure seqr);
  Alcotest.(check int) "later replies dropped, not retried" 1 !wrote;
  Alcotest.(check int) "one reply reached the peer" 1 (Sequencer.written seqr)

let test_conn_io_events () =
  let now = Unix.gettimeofday in
  (* torn frame: bytes but no newline, then hangup *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring a "half a frame" 0 12 : int);
  Unix.close a;
  (match Conn_io.read_line ~now ~limit:1024 (Conn_io.reader b) with
  | Conn_io.Torn 12 -> ()
  | ev ->
      Alcotest.failf "expected Torn 12, got %s"
        (match ev with
        | Conn_io.Line _ -> "Line"
        | Conn_io.Eof -> "Eof"
        | Conn_io.Torn n -> Printf.sprintf "Torn %d" n
        | _ -> "other"));
  Unix.close b;
  (* idle timeout: nothing ever arrives *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match
     Conn_io.read_line ~idle_timeout_s:0.05 ~now ~limit:1024 (Conn_io.reader b)
   with
  | Conn_io.Idle_timeout -> ()
  | _ -> Alcotest.fail "expected Idle_timeout");
  (* frame timeout: a started frame that never completes (slow loris) *)
  ignore (Unix.write_substring a "{" 0 1 : int);
  (match
     Conn_io.read_line ~idle_timeout_s:5.0 ~frame_timeout_s:0.05 ~now
       ~limit:1024 (Conn_io.reader b)
   with
  | Conn_io.Frame_timeout 1 -> ()
  | _ -> Alcotest.fail "expected Frame_timeout 1");
  Unix.close a;
  Unix.close b;
  (* oversized line is discarded incrementally and reported whole *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let big = String.make 100 'x' ^ "\n" in
  ignore (Unix.write_substring a big 0 (String.length big) : int);
  ignore (Unix.write_substring a "short\n" 0 6 : int);
  let r = Conn_io.reader b in
  (match Conn_io.read_line ~now ~limit:10 r with
  | Conn_io.Oversized 100 -> ()
  | _ -> Alcotest.fail "expected Oversized 100");
  (match Conn_io.read_line ~now ~limit:10 r with
  | Conn_io.Line "short" -> ()
  | _ -> Alcotest.fail "expected the next frame intact");
  Unix.close a;
  Unix.close b

(* The crash-sweep serve-net drive in miniature: stage frames in the
   socket buffer, serve the connection on this thread, read replies. *)
let drive_connection ?net server frames =
  let sup =
    match net with
    | Some net -> Supervisor.create ~net server
    | None -> Supervisor.create server
  in
  let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun f ->
          let line = f ^ "\n" in
          ignore (Unix.write_substring client line 0 (String.length line) : int))
        frames;
      Unix.shutdown client Unix.SHUTDOWN_SEND;
      let report = Supervisor.handle_connection sup srv in
      let buf = Buffer.create 256 in
      let bytes = Bytes.create 4096 in
      let rec copy () =
        match Unix.read client bytes 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf bytes 0 n;
            copy ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> copy ()
      in
      copy ();
      (report, String.split_on_char '\n' (String.trim (Buffer.contents buf))))

let test_supervised_connection_basic () =
  let s = create_ok Server.default_config in
  let report, replies =
    drive_connection s
      [
        {|{"id":"a","op":"validate"}|};
        {|{"op":"ping","id":"p"}|};
        "not json at all";
      ]
  in
  Alcotest.(check int) "three frames read" 3 report.Supervisor.frames;
  Alcotest.(check int) "three replies written" 3 report.Supervisor.replies;
  Alcotest.(check bool) "clean close" true
    (report.Supervisor.outcome = Supervisor.Closed);
  Alcotest.(check int) "three reply lines on the wire" 3 (List.length replies);
  Alcotest.(check (option string)) "garbage got a typed reply"
    (Some "bad-frame")
    (get_str [ "error"; "kind" ] (parse_ok (List.nth replies 2)))

let test_supervised_strikes_close () =
  let s = create_ok Server.default_config in
  let net =
    { Supervisor.default_net_config with Supervisor.max_strikes = 3 }
  in
  let report, replies =
    drive_connection ~net s (List.init 10 (fun _ -> "garbage"))
  in
  (match report.Supervisor.outcome with
  | Supervisor.Struck_out 3 -> ()
  | o -> Alcotest.failf "expected Struck_out 3, got %s" (Supervisor.outcome_name o));
  (* 3 typed rejections + the strike notice; frames 4..10 never read *)
  Alcotest.(check int) "replies stop at the strike close" 4
    (List.length replies)

let test_supervised_pipeline_order () =
  let s = create_ok Server.default_config in
  let net = { Supervisor.default_net_config with Supervisor.pipeline = 4 } in
  let frames =
    List.init 8 (fun i ->
        Printf.sprintf "{\"id\":\"p%d\",\"op\":\"validate\"}" i)
  in
  let _, replies = drive_connection ~net s frames in
  Alcotest.(check int) "one reply per frame" 8 (List.length replies);
  List.iteri
    (fun i reply ->
      Alcotest.(check (option string))
        (Printf.sprintf "reply %d in arrival order" i)
        (Some (Printf.sprintf "p%d" i))
        (get_str [ "id" ] (parse_ok reply)))
    replies

let test_supervised_concurrent_dup_single_flight () =
  (* the same frame key on two live connections at once: one journal
     store, byte-identical replies *)
  let dir = tmp_dir "dup" in
  let session = Filename.concat dir "s.journal" in
  let s =
    create_ok { Server.default_config with Server.session = Some session }
  in
  let sup = Supervisor.create s in
  let frame = {|{"id":"dup","op":"simulate","kernel":7}|} in
  let serve_one () =
    let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let line = frame ^ "\n" in
    ignore (Unix.write_substring client line 0 (String.length line) : int);
    Unix.shutdown client Unix.SHUTDOWN_SEND;
    let th =
      Thread.create (fun () -> ignore (Supervisor.handle_connection sup srv)) ()
    in
    (client, th)
  in
  let c1, t1 = serve_one () in
  let c2, t2 = serve_one () in
  Thread.join t1;
  Thread.join t2;
  let read_all fd =
    let buf = Buffer.create 256 in
    let bytes = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd bytes 0 4096 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf bytes 0 n;
          go ()
      | exception Unix.Unix_error _ -> ()
    in
    go ();
    String.trim (Buffer.contents buf)
  in
  let r1 = read_all c1 and r2 = read_all c2 in
  Unix.close c1;
  Unix.close c2;
  Alcotest.(check string) "byte-identical replies" r1 r2;
  Alcotest.(check bool) "replies nonempty" true (String.length r1 > 0);
  let stats = Server.stats s in
  Alcotest.(check int) "exactly one computation" 1 stats.Server.items;
  Alcotest.(check int) "the twin replayed" 1 stats.Server.replayed_frames;
  (* exactly one frame record journaled *)
  let ic = open_in_bin session in
  let lines = ref 0 in
  (try
     while true do
       let l = input_line ic in
       (* journal lines are tab-separated: tag, then k=v fields *)
       match String.split_on_char '\t' l with
       | "frame" :: _ -> incr lines
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  Alcotest.(check int) "one journal store" 1 !lines

(* ---- Stdio: one supervised connection over a pair of pipes ---- *)

(* Serve a fresh stdio connection on a thread.  Returns the supervisor,
   the client's frame writer, its reply reader, and a [finish] that
   waits (bounded) for the entry point to return and yields the report
   with the seconds it took. *)
let stdio_session ?(net = Supervisor.default_net_config) server =
  let in_r, in_w = Unix.pipe ~cloexec:true ()
  and out_r, out_w = Unix.pipe ~cloexec:true () in
  let sup = Supervisor.create ~net server in
  let result = Atomic.make None in
  let th =
    Thread.create
      (fun () ->
        Atomic.set result
          (Some (Supervisor.serve_stdio sup ~input:in_r ~output:out_w)))
      ()
  in
  let send frames =
    List.iter
      (fun f ->
        let line = f ^ "\n" in
        ignore (Unix.write_substring in_w line 0 (String.length line) : int))
      frames
  in
  let replies = Unix.in_channel_of_descr out_r in
  let finish ~within_s =
    let t0 = Unix.gettimeofday () in
    while Atomic.get result = None && Unix.gettimeofday () -. t0 < within_s do
      Thread.delay 0.005
    done;
    match Atomic.get result with
    | None -> Alcotest.failf "serve_stdio did not return within %.1f s" within_s
    | Some report ->
        Thread.join th;
        (report, Unix.gettimeofday () -. t0)
  in
  (sup, send, in_w, replies, finish)

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let error_kind line = get_str [ "error"; "kind" ] (parse_ok line)

let test_serve_loop_oversize () =
  (* a line longer than max_frame_bytes is discarded incrementally and
     answered with a typed error in its own arrival slot; a shutdown
     frame is followed by the draining envelope *)
  let server =
    create_ok { Server.default_config with Server.max_frame_bytes = 256 }
  in
  let _, send, in_w, replies, finish = stdio_session server in
  send
    [
      {|{"op":"ping"}|};
      "{\"id\":\"big\",\"pad\":\"" ^ String.make 400 'a' ^ "\"}";
      {|{"op":"shutdown"}|};
    ];
  Unix.close in_w;
  let lines = read_lines replies in
  ignore (finish ~within_s:10.0);
  match lines with
  | [ ping; oversize; shutdown; goodbye ] ->
      Alcotest.(check (option bool)) "ping" (Some true)
        (Option.bind (get [ "pong" ] (parse_ok ping)) Json.bool);
      Alcotest.(check (option string)) "oversize in its slot"
        (Some "frame-too-large") (error_kind oversize);
      Alcotest.(check (option bool)) "shutdown" (Some true)
        (Option.bind (get [ "shutdown" ] (parse_ok shutdown)) Json.bool);
      Alcotest.(check (option string)) "draining envelope" (Some "draining")
        (error_kind goodbye)
  | _ -> Alcotest.failf "expected 4 reply lines, got %d" (List.length lines)

let test_stdio_no_shed () =
  (* every frame is written before any reply is read: the pipe is the
     backpressure, so nothing is shed and the ids come back in order *)
  let s = create_ok Server.default_config in
  let _, send, in_w, replies, finish = stdio_session s in
  let n = 200 in
  send
    (List.init n (fun i ->
         Printf.sprintf
           {|{"id":"f%d","op":"simulate","kernel":%d,"budget_cycles":%d}|} i
           ((i mod 12) + 1) (1000 + i)));
  Unix.close in_w;
  let lines = read_lines replies in
  let report, _ = finish ~within_s:60.0 in
  Alcotest.(check int) "one reply per frame" n (List.length lines);
  Alcotest.(check bool) "clean close" true
    (report.Supervisor.outcome = Supervisor.Closed);
  List.iteri
    (fun i line ->
      Alcotest.(check (option string))
        (Printf.sprintf "reply %d in arrival order" i)
        (Some (Printf.sprintf "f%d" i))
        (get_str [ "id" ] (parse_ok line));
      Alcotest.(check bool) "not overloaded" false
        (astr_contains line "overloaded"))
    lines

let test_stdio_drain_wakes_idle () =
  (* an idle stdio connection with its input still open: a drain from
     another thread returns within drain_ms plus slack, the connection
     says goodbye, and the compacted journal equals a solo run's *)
  let frames =
    [
      {|{"id":"j1","op":"simulate","kernel":7,"budget_cycles":500}|};
      {|{"id":"j2","op":"hierarchy","kernel":3}|};
    ]
  in
  let session label = Filename.concat (tmp_dir label) "s.journal" in
  let server path =
    create_ok { Server.default_config with Server.session = Some path }
  in
  let solo = session "stdio-solo" in
  let _, send, in_w, replies, finish = stdio_session (server solo) in
  send frames;
  Unix.close in_w;
  ignore (read_lines replies);
  ignore (finish ~within_s:30.0);
  let drained = session "stdio-drain" in
  let drain_ms = 500.0 in
  let net = { Supervisor.default_net_config with Supervisor.drain_ms } in
  let sup, send, in_w, replies, finish = stdio_session ~net (server drained) in
  send frames;
  let first = List.map (fun _ -> input_line replies) frames in
  Supervisor.request_drain sup;
  let report, took = finish ~within_s:((drain_ms /. 1000.0) +. 2.0) in
  let rest = read_lines replies in
  Unix.close in_w;
  Alcotest.(check int) "both frames answered" 2 (List.length first);
  Alcotest.(check bool) "outcome drained" true
    (report.Supervisor.outcome = Supervisor.Drained);
  Alcotest.(check bool) "returned within the drain window" true
    (took < (drain_ms /. 1000.0) +. 1.0);
  (match rest with
  | [ goodbye ] ->
      Alcotest.(check (option string)) "draining envelope" (Some "draining")
        (error_kind goodbye)
  | _ -> Alcotest.fail "expected exactly the draining envelope");
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "journal equals the solo run's" (read solo)
    (read drained)

let test_drain_degrades_in_flight () =
  (* an armed drain deadline degrades batches exactly like budget
     expiry: estimate tier, typed diagnostic, ok reply *)
  let s = create_ok Server.default_config in
  Server.drain s ~within_ms:0.0;
  let j = reply_json s {|{"id":"d","op":"simulate","kernel":7}|} in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (Json.mem j "ok") Json.bool);
  Alcotest.(check (option string)) "estimate tier" (Some "estimate")
    (get_str [ "tier" ] (first_result j))

let test_accept_failure_policy () =
  Alcotest.(check bool) "EINTR retries" true
    (Supervisor.classify_accept_error Unix.EINTR = Supervisor.Retry);
  Alcotest.(check bool) "ECONNABORTED retries" true
    (Supervisor.classify_accept_error Unix.ECONNABORTED = Supervisor.Retry);
  Alcotest.(check bool) "EMFILE backs off" true
    (Supervisor.classify_accept_error Unix.EMFILE = Supervisor.Backoff);
  Alcotest.(check bool) "EBADF is fatal" true
    (Supervisor.classify_accept_error Unix.EBADF = Supervisor.Fatal);
  Alcotest.(check bool) "backoff grows" true
    (Supervisor.backoff_s ~consecutive:3 > Supervisor.backoff_s ~consecutive:1);
  Alcotest.(check bool) "backoff capped at 1s" true
    (Supervisor.backoff_s ~consecutive:50 <= 1.0)

let test_fuzz_rung () =
  let config =
    { Server.default_config with Server.default_budget_cycles = Some 20_000.0 }
  in
  match Serve_fuzz.run ~seed:7 ~count:20 ~config () with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "fuzz violation on case %d: %s (input %s)"
        v.Serve_fuzz.case v.Serve_fuzz.problem v.Serve_fuzz.input

let test_conn_fuzz_rung () =
  let config =
    { Server.default_config with Server.default_budget_cycles = Some 20_000.0 }
  in
  match Serve_fuzz.run_conn ~seed:11 ~count:12 ~config () with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "connection fuzz violation on case %d: %s (input %s)"
        v.Serve_fuzz.case v.Serve_fuzz.problem
        (if String.length v.Serve_fuzz.input > 200 then
           String.sub v.Serve_fuzz.input 0 200 ^ "..."
         else v.Serve_fuzz.input)

let () =
  ignore json;
  Alcotest.run "convex_serve"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode" `Quick test_json_unicode;
          Alcotest.test_case "hostile inputs" `Quick test_json_hostile;
          Alcotest.test_case "depth cap" `Quick test_json_depth_cap;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "float rendering" `Quick
            test_json_float_rendering;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "batch decode" `Quick test_decode_batch;
          Alcotest.test_case "inline sugar" `Quick test_decode_inline_sugar;
          Alcotest.test_case "envelope errors" `Quick
            test_decode_envelope_errors;
          Alcotest.test_case "item errors" `Quick test_decode_item_errors;
          Alcotest.test_case "frame key" `Quick test_frame_key;
        ] );
      ( "server",
        [
          Alcotest.test_case "simulate" `Quick test_server_simulate;
          Alcotest.test_case "advise fidelity" `Quick
            test_server_advise_fidelity;
          Alcotest.test_case "budget degrades" `Quick
            test_server_budget_degrades;
          Alcotest.test_case "typed errors" `Quick test_server_typed_errors;
          Alcotest.test_case "control frames" `Quick test_server_control;
          Alcotest.test_case "idempotent retry" `Quick
            test_server_idempotent_retry;
          Alcotest.test_case "session resume" `Quick
            test_server_session_resume;
          Alcotest.test_case "torn tail repair" `Quick
            test_server_session_torn_tail;
          Alcotest.test_case "foreign journal refused" `Quick
            test_server_refuses_foreign_journal;
          Alcotest.test_case "serve loop oversize" `Quick
            test_serve_loop_oversize;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "limiter frame rate" `Quick
            test_limiter_frame_rate;
          Alcotest.test_case "limiter rejects consume nothing" `Quick
            test_limiter_byte_rate_consumes_nothing_on_reject;
          Alcotest.test_case "sequencer reorders" `Quick
            test_sequencer_reorders;
          Alcotest.test_case "sequencer latches failure" `Quick
            test_sequencer_latches_first_failure;
          Alcotest.test_case "conn_io events" `Quick test_conn_io_events;
          Alcotest.test_case "supervised connection" `Quick
            test_supervised_connection_basic;
          Alcotest.test_case "strikes close" `Quick
            test_supervised_strikes_close;
          Alcotest.test_case "pipeline keeps order" `Quick
            test_supervised_pipeline_order;
          Alcotest.test_case "concurrent dup single-flight" `Quick
            test_supervised_concurrent_dup_single_flight;
          Alcotest.test_case "stdio sheds nothing" `Quick test_stdio_no_shed;
          Alcotest.test_case "stdio drain wakes an idle read" `Quick
            test_stdio_drain_wakes_idle;
          Alcotest.test_case "drain degrades in-flight" `Quick
            test_drain_degrades_in_flight;
          Alcotest.test_case "accept failure policy" `Quick
            test_accept_failure_policy;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "protocol rung" `Quick test_fuzz_rung;
          Alcotest.test_case "connection rung" `Quick test_conn_fuzz_rung;
        ] );
    ]
