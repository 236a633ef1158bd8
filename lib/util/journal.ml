type record = { tag : string; fields : (string * string) list }

let version = 1
let magic = "macs-journal"

(* ---- field escaping ----
   Records are one line each, fields tab-separated, [key=value].  Keys and
   values are percent-escaped so arbitrary strings (fault-plan specs, error
   messages) survive the round trip byte-for-byte. *)

let must_escape c =
  c = '%' || c = '\t' || c = '\n' || c = '\r' || c = '='

let escape s =
  if String.exists must_escape s then begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if must_escape c then Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end
  else s

let unescape s =
  if not (String.contains s '%') then Ok s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then Ok (Buffer.contents buf)
      else if s.[i] = '%' then
        if i + 2 >= n then Error "truncated %-escape"
        else
          match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
          | Some code ->
              Buffer.add_char buf (Char.chr code);
              go (i + 3)
          | None -> Error (Printf.sprintf "bad %%-escape %S" (String.sub s i 3))
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0
  end

(* ---- record codec ---- *)

let encode r =
  String.concat "\t"
    (escape r.tag
    :: List.map (fun (k, v) -> escape k ^ "=" ^ escape v) r.fields)

let ( let* ) = Result.bind

let decode line =
  match String.split_on_char '\t' line with
  | [] | [ "" ] -> Error "empty journal line"
  | tag :: rest ->
      let* tag = unescape tag in
      let* fields =
        List.fold_left
          (fun acc tok ->
            let* acc = acc in
            match String.index_opt tok '=' with
            | None -> Error (Printf.sprintf "field %S has no '='" tok)
            | Some i ->
                let* k = unescape (String.sub tok 0 i) in
                let* v =
                  unescape (String.sub tok (i + 1) (String.length tok - i - 1))
                in
                Ok ((k, v) :: acc))
          (Ok []) rest
      in
      Ok { tag; fields = List.rev fields }

let field r key = List.assoc_opt key r.fields

let field_err r key =
  match field r key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "record %S: missing field %S" r.tag key)

(* Floats travel as hex literals ("%h"): every finite double round-trips
   byte-exactly, and nan/infinity print and parse symmetrically. *)
let put_float x = Printf.sprintf "%h" x
let get_float s = float_of_string_opt s
let put_int = string_of_int
let get_int s = int_of_string_opt s
let put_bool b = if b then "1" else "0"

let get_bool = function
  | "1" -> Some true
  | "0" -> Some false
  | _ -> None

let typed_field what get r key =
  let* v = field_err r key in
  match get v with
  | Some x -> Ok x
  | None ->
      Error (Printf.sprintf "record %S: field %S: bad %s %S" r.tag key what v)

let int_field = typed_field "int" get_int
let float_field = typed_field "float" get_float
let bool_field = typed_field "bool" get_bool

(* ---- file I/O ---- *)

let header ~format =
  {
    tag = magic;
    fields = [ ("version", string_of_int version); ("format", format) ];
  }

let check_header ~format r =
  if r.tag <> magic then
    Error (Printf.sprintf "not a journal: leading tag %S" r.tag)
  else
    let* v = field_err r "version" in
    let* f = field_err r "format" in
    if v <> string_of_int version then
      Error (Printf.sprintf "unsupported journal version %s (want %d)" v version)
    else if f <> format then
      Error (Printf.sprintf "journal format %S, expected %S" f format)
    else Ok ()

(* All journal bytes pass through [Sink] as explicit write boundaries so
   the crash-sweep harness can kill a simulated process at any of them.
   [create] is a single boundary (header + initial records in one write):
   a torn create leaves a byte prefix, never interleaved lines. *)

let create ?(sync = false) ~path ~format records =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (encode (header ~format));
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (encode r);
      Buffer.add_char buf '\n')
    records;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Sink.write oc ~site:("journal-create:" ^ path) (Buffer.contents buf);
      if sync then Sink.fsync_out oc)

let append ~path r =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Sink.write oc ~site:("journal-append:" ^ path) (encode r ^ "\n"))

let repair ~path ~format =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "journal %s does not exist" path)
  else begin
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let n = String.length s in
    (* end of the longest prefix of newline-terminated decodable lines *)
    let rec prefix_end start =
      if start >= n then start
      else
        match String.index_from_opt s start '\n' with
        | None -> start
        | Some nl -> (
            match decode (String.sub s start (nl - start)) with
            | Ok _ -> prefix_end (nl + 1)
            | Error _ -> start)
    in
    (* a decodable line after the prefix means interior corruption, which
       truncation would silently discard — leave it for [load] to report *)
    let rec tail_has_good start =
      if start >= n then false
      else
        match String.index_from_opt s start '\n' with
        | None -> false
        | Some nl -> (
            match decode (String.sub s start (nl - start)) with
            | Ok _ -> true
            | Error _ -> tail_has_good (nl + 1))
    in
    if n = 0 then Error (Printf.sprintf "journal %s is empty" path)
    else
      match String.index_opt s '\n' with
      | None -> Error (Printf.sprintf "journal %s has no complete header" path)
      | Some nl -> (
          match decode (String.sub s 0 nl) with
          | Error e -> Error (Printf.sprintf "journal %s: bad header: %s" path e)
          | Ok hd -> (
              let* () = check_header ~format hd in
              let keep = prefix_end 0 in
              if keep >= n || tail_has_good keep then Ok ()
              else begin
                let oc = open_out_bin path in
                Fun.protect
                  ~finally:(fun () -> close_out oc)
                  (fun () -> output_string oc (String.sub s 0 keep));
                Ok ()
              end))
  end

(* ---- crash triage ----

   A journal is born in one [create] write of header + initial records,
   and a torn write can only leave a byte *prefix* — it can never
   manufacture a newline.  So a file with no complete first line, or a
   complete header but no complete record after it, is just a create
   that never finished: nothing can have been appended to it, and it is
   safe to start over.  A complete first line that is not a matching
   header is genuine damage (or somebody else's file) and must not be
   clobbered. *)

type inspection = Fresh | Intact | Damaged of string

let inspect ~path ~format =
  if not (Sys.file_exists path) then Fresh
  else begin
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match String.index_opt s '\n' with
    | None -> Fresh
    | Some nl -> (
        match decode (String.sub s 0 nl) with
        | Error e ->
            Damaged (Printf.sprintf "journal %s: undecodable first line: %s" path e)
        | Ok hd -> (
            match check_header ~format hd with
            | Error e -> Damaged (Printf.sprintf "journal %s: %s" path e)
            | Ok () ->
                if String.index_from_opt s (nl + 1) '\n' = None then Fresh
                else Intact))
  end

let is_fresh ~path ~format = inspect ~path ~format = Fresh

let write_atomic ~path ~format records =
  let tmp = path ^ ".tmp" in
  (* two-phase publish: the tmp bytes are forced to disk *before* the
     rename, and the directory entry after it, so a power cut right
     after publish cannot surface an empty or torn main journal *)
  create ~sync:true ~path:tmp ~format records;
  Sink.rename ~site:("journal-publish:" ^ path) tmp path;
  Sink.fsync_dir (Filename.dirname path)

(* ---- per-worker shards ----

   A parallel run gives each worker domain its own append-only shard file
   [<path>.shard<K>] so no two domains ever write the same journal.  A
   shard opens with the same header and config record as the main journal
   and then carries one [shard-cell] wrapper per inner record; the inner
   record travels as its own encoded line inside a [rec=] field (the
   percent-escaping nests cleanly).  [merge_shards] folds any surviving
   shards back into the main journal in cell-index order, reconstructing
   the byte-identical sequential journal. *)

let shard_tag = "shard-cell"
let shard_path ~path k = Printf.sprintf "%s.shard%d" path k

let shards ~path =
  let dir = Filename.dirname path in
  let base = Filename.basename path ^ ".shard" in
  let bn = String.length base in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             if String.length e > bn && String.sub e 0 bn = base then
               match int_of_string_opt (String.sub e bn (String.length e - bn)) with
               | Some k when k >= 0 -> Some (k, Filename.concat dir e)
               | _ -> None
             else None)
      |> List.sort compare

let remove_shards ~path =
  List.iter
    (fun (_, file) -> try Sys.remove file with Sys_error _ -> ())
    (shards ~path)

let shard_start ~path ~shard ~format ~config =
  create ~path:(shard_path ~path shard) ~format [ config ]

let shard_wrap ~index ~seq r =
  {
    tag = shard_tag;
    fields = [ ("i", put_int index); ("n", put_int seq); ("rec", encode r) ];
  }

let shard_unwrap r =
  if r.tag <> shard_tag then
    Error (Printf.sprintf "expected a %S record, got %S" shard_tag r.tag)
  else
    let* i = int_field r "i" in
    let* n = int_field r "n" in
    let* line = field_err r "rec" in
    let* inner = decode line in
    Ok (i, n, inner)

let shard_append ~path ~shard ~index ~seq r =
  append ~path:(shard_path ~path shard) (shard_wrap ~index ~seq r)

let load ~path ~format =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "journal %s does not exist" path)
  else begin
    let ic = open_in path in
    let lines = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        (* a run killed mid-write can leave a torn final line: drop any
           trailing line that fails to decode rather than rejecting the
           whole journal *)
        match List.rev !lines with
        | [] -> Error (Printf.sprintf "journal %s is empty" path)
        | first :: rest ->
            let* hd = decode first in
            let* () = check_header ~format hd in
            let rec decode_rows acc = function
              | [] -> Ok (List.rev acc)
              | [ last ] -> (
                  match decode last with
                  | Ok r -> Ok (List.rev (r :: acc))
                  | Error _ -> Ok (List.rev acc))
              | line :: rest -> (
                  match decode line with
                  | Ok r -> decode_rows (r :: acc) rest
                  | Error e ->
                      Error (Printf.sprintf "corrupt journal line: %s" e))
            in
            decode_rows [] rest)
  end

(* ---- merge-on-resume ---- *)

let merge_shards ~path ~format ~config_ok ~index_of =
  let* () = repair ~path ~format in
  let* records = load ~path ~format in
  match records with
  | [] -> Error (Printf.sprintf "journal %s holds no config record" path)
  | config :: body ->
      let* () = config_ok config in
      (* Group the main journal's records into per-cell blocks: every
         record up to and including the next closer ([index_of] = [Some i])
         belongs to cell [i].  A trailing block without a closer is a torn
         cell — dropped, so the cell simply re-runs. *)
      let main_cells =
        let rec go pending acc = function
          | [] -> List.rev acc
          | r :: rest -> (
              match index_of r with
              | Some i -> go [] ((i, List.rev (r :: pending)) :: acc) rest
              | None -> go (r :: pending) acc rest)
        in
        go [] [] body
      in
      let shard_files = shards ~path in
      (* a worker killed inside [shard_start] leaves a shard with a torn
         or absent header: no cell can have landed in it, so it merges as
         empty (and is still swept away below) *)
      let usable =
        List.filter
          (fun (_, file) -> inspect ~path:file ~format <> Fresh)
          shard_files
      in
      let load_shard (_, file) =
        let* () = repair ~path:file ~format in
        let* records = load ~path:file ~format in
        match records with
        | [] -> Error (Printf.sprintf "shard %s holds no config record" file)
        | cfg :: body ->
            let* () =
              match config_ok cfg with
              | Ok () -> Ok ()
              | Error e ->
                  Error
                    (Printf.sprintf
                       "shard %s: config header mismatch, refusing to merge: %s"
                       file e)
            in
            List.fold_left
              (fun acc r ->
                let* acc = acc in
                let* cell = shard_unwrap r in
                Ok (cell :: acc))
              (Ok []) body
      in
      let* triples =
        List.fold_left
          (fun acc sf ->
            let* acc = acc in
            let* cells = load_shard sf in
            Ok (List.rev_append cells acc))
          (Ok []) usable
      in
      let sorted =
        List.sort (fun (i, n, _) (j, m, _) -> compare (i, n) (j, m)) triples
      in
      let shard_cells =
        let rec go acc = function
          | [] -> List.rev_map (fun (i, rs) -> (i, List.rev rs)) acc
          | (i, _, r) :: rest -> (
              match acc with
              | (j, rs) :: tl when j = i -> go ((j, r :: rs) :: tl) rest
              | _ -> go ((i, [ r ]) :: acc) rest)
        in
        go [] sorted
      in
      let module IMap = Map.Make (Int) in
      let add m (i, rs) = if IMap.mem i m then m else IMap.add i rs m in
      let merged = List.fold_left add IMap.empty main_cells in
      let merged = List.fold_left add merged shard_cells in
      let cells = IMap.bindings merged in
      if shard_files <> [] then begin
        write_atomic ~path ~format (config :: List.concat_map snd cells);
        List.iter (fun (_, file) -> Sys.remove file) shard_files
      end;
      Ok (config, cells)
