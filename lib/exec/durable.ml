(* The durable cell-runner: one copy of the plumbing the suite, fuzz and
   chaos harnesses share — journal config record (written fresh, or
   checked field by field on resume), shard merge and replay of prior
   cells, cache find/decode/compute/store, the executor call and the
   cache run log.  Machine identity is [Machine.digest], folded into
   every cache key and config record here so no harness can key on less
   than the full machine description.  With neither a journal nor a
   cache the runner is a bare [Executor.run]: no digest, no key, no
   file. *)

module Journal = Macs_util.Journal
module Machine = Convex_machine.Machine
module Cache = Convex_cache.Cache

type 'r codec = {
  encode : 'r -> Journal.record list;
  decode : int -> Journal.record list -> ('r, string) result;
}

type 'r spec = {
  kind : string;
  machine : Machine.t;
  cells : int;
  key : int -> (string * string) list;
  payload : 'r codec;
  compute : int -> 'r;
  context : int -> string;
  label : string;
}

type 'r journal = {
  path : string;
  format : string;
  resume : bool;
  config : (string * string) list;
  records : 'r codec;
  closes : Journal.record -> int option;
}

type 'r run = {
  outcomes : 'r Executor.outcome option array;
  replayed : bool array;
  stats : Executor.stats;
  counters : Cache.counters option;
}

let ( let* ) = Result.bind

let key_with ~digest spec i =
  Cache.key ~kind:spec.kind (("machine", digest) :: spec.key i)

let key spec i = key_with ~digest:(Machine.digest spec.machine) spec i

let value_digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* Field by field, so a refusal names everything that changed: the
   journaled value first, the requested one second. *)
let mismatch ~want got =
  List.filter_map
    (fun (k, w) ->
      match Journal.field got k with
      | Some g when g = w -> None
      | g ->
          Some (Printf.sprintf "%s %S vs %S" k (Option.value g ~default:"") w))
    want.Journal.fields

(* Resume: merge any shards a killed parallel run left behind back into
   the main journal, then decode each cell block — a lone poison record
   is a quarantined cell, anything else goes to the harness codec. *)
let load ~cells ~config j =
  let config_ok r =
    if r.Journal.tag <> "config" then
      Error (Printf.sprintf "expected config record, got %S" r.Journal.tag)
    else
      match mismatch ~want:config r with
      | [] -> Ok ()
      | diffs ->
          Error
            (Printf.sprintf
               "journal %s was written by a different campaign configuration \
                (%s); refusing to mix incomparable cells — rerun without \
                --resume to start over"
               j.path (String.concat ", " diffs))
  in
  let index_of r =
    if r.Journal.tag = "poison" then
      Option.bind (Journal.field r "index") Journal.get_int
    else j.closes r
  in
  let had_shards = Journal.shards ~path:j.path <> [] in
  let* orig, groups =
    Journal.merge_shards ~path:j.path ~format:j.format ~config_ok ~index_of
  in
  let* prior =
    List.fold_left
      (fun acc (i, records) ->
        let* acc = acc in
        if i < 0 || i >= cells then
          Error (Printf.sprintf "cell %d outside the run [0, %d)" i cells)
        else
          match records with
          | [ ({ Journal.tag = "poison"; _ } as r) ] ->
              let* p = Executor.poison_of_record r in
              Ok ((i, Executor.Poisoned p) :: acc)
          | rs ->
              let* c = j.records.decode i rs in
              Ok ((i, Executor.Done c) :: acc))
      (Ok []) groups
  in
  Ok (orig, List.rev prior, had_shards)

(* a cell's cache payload is its encoded record block, one per line *)
let decode_payload codec i s =
  let* records =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let* r = Journal.decode line in
        Ok (r :: acc))
      (Ok [])
      (String.split_on_char '\n' s)
  in
  codec.decode i (List.rev records)

let encode_payload codec r =
  String.concat "\n" (List.map Journal.encode (codec.encode r))

let run ?(jobs = 1) ?progress ?should_stop ?(around = fun i f -> f i)
    ?replay ?journal ?cache spec =
  let digest =
    if journal = None && cache = None then ""
    else Machine.digest spec.machine
  in
  let config j =
    { Journal.tag = "config"; fields = ("machine", digest) :: j.config }
  in
  let executor_journal j config =
    {
      Executor.path = j.path;
      format = j.format;
      config;
      records_of = (fun _ r -> j.records.encode r);
    }
  in
  let* exec_journal, prior, rewrite =
    match journal with
    | Some j
      when j.resume && not (Journal.is_fresh ~path:j.path ~format:j.format)
      -> (
        let* orig, prior, had_shards =
          load ~cells:spec.cells ~config:(config j) j
        in
        let ej = executor_journal j orig in
        match replay with
        | None -> Ok (Some ej, prior, had_shards)
        | Some keep ->
            (* drop the cells the caller wants re-run, durably, before
               any of them runs again *)
            let kept = List.filter (fun (_, o) -> keep o) prior in
            Journal.write_atomic ~path:j.path ~format:j.format
              (orig
              :: List.concat_map
                   (fun (i, o) -> Executor.records_of_outcome ej i o)
                   kept);
            Ok (Some ej, kept, true))
    | Some j ->
        (* a fresh run — or a resume aimed at a [Fresh] file, which never
           received a cell — starts over with just the config record *)
        let c = config j in
        Journal.create ~path:j.path ~format:j.format [ c ];
        Ok (Some (executor_journal j c), [], false)
    | None -> Ok (None, [], false)
  in
  let already = Array.make (max spec.cells 0) None in
  List.iter (fun (i, o) -> already.(i) <- Some o) prior;
  let cache = Option.map Cache.open_dir cache in
  let cell =
    match cache with
    | None -> spec.compute
    | Some c -> (
        fun i ->
          let key = key_with ~digest spec i in
          let hit =
            Option.bind (Cache.find c ~key) (fun s ->
                Result.to_option (decode_payload spec.payload i s))
          in
          match hit with
          | Some r -> r
          | None ->
              let r = spec.compute i in
              Cache.store c ~key (encode_payload spec.payload r);
              r)
  in
  let outcomes, stats =
    Executor.run ~jobs ?journal:exec_journal ~rewrite
      ~already:(fun i -> already.(i))
      ~context:spec.context ?progress ?should_stop ~cells:spec.cells
      (fun i -> around i cell)
  in
  Option.iter (fun c -> Cache.log_run c ~label:spec.label) cache;
  Ok
    {
      outcomes;
      replayed = Array.map Option.is_some already;
      stats;
      counters = Option.map Cache.counters cache;
    }
