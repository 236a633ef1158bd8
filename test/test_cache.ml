(* Tests for the crash-consistent content-addressed result cache and the
   write-boundary sink it is built on: key sensitivity, store/find round
   trips, the never-serve-corruption contract at every byte offset,
   maintenance (stat/verify/gc), and cold-vs-warm byte identity of the
   harnesses that use it. *)

open Macs_util
module Cache = Convex_cache.Cache
module Campaign = Convex_chaos.Campaign
module Driver = Convex_fuzz.Driver

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "macs_cache_%s_%d_%d" name (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o755;
    d

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* ---- the sink ---- *)

let test_sink_counts_and_disarmed_is_transparent () =
  Sink.reset ();
  let path = Filename.temp_file "macs_sink" ".txt" in
  let oc = open_out_bin path in
  Sink.write oc ~site:"a" "one";
  Sink.write oc ~site:"b" "two";
  close_out oc;
  Alcotest.(check int) "two boundaries" 2 (Sink.boundaries ());
  Alcotest.(check bool) "not crashed" false (Sink.crashed ());
  Alcotest.(check string) "bytes all landed" "onetwo" (read_file path);
  Sys.remove path

let test_sink_modes () =
  let run mode =
    Sink.reset ();
    Sink.arm ~at:2 ~mode;
    let path = Filename.temp_file "macs_sink" ".txt" in
    let oc = open_out_bin path in
    Sink.write oc ~site:"a" "head";
    let crashed =
      match Sink.write oc ~site:"b" "tail" with
      | () -> false
      | exception Sink.Crashed { point; _ } ->
          Alcotest.(check int) "fired at boundary 2" 2 point;
          true
    in
    close_out oc;
    Alcotest.(check bool) "armed boundary crashes" true crashed;
    (* the latch: every later boundary dies without touching the file *)
    let oc = open_out_gen [ Open_append ] 0o644 path in
    (match Sink.write oc ~site:"c" "late" with
    | () -> Alcotest.fail "dead sink must not write"
    | exception Sink.Crashed _ -> ());
    close_out oc;
    let s = read_file path in
    Sys.remove path;
    Sink.reset ();
    s
  in
  Alcotest.(check string) "Before: nothing of the write" "head"
    (run Sink.Before);
  Alcotest.(check string) "Torn: a strict prefix" "headta" (run Sink.Torn);
  Alcotest.(check string) "After: all bytes, then death" "headtail"
    (run Sink.After)

let test_sink_rename_boundary () =
  Sink.reset ();
  let dir = fresh_dir "rename" in
  let src = Filename.concat dir "src" and dst = Filename.concat dir "dst" in
  write_file src "payload";
  Sink.arm ~at:1 ~mode:Sink.Before;
  (match Sink.rename ~site:"publish" src dst with
  | () -> Alcotest.fail "armed rename must crash"
  | exception Sink.Crashed _ -> ());
  Alcotest.(check bool) "Before: not renamed" true (Sys.file_exists src);
  Alcotest.(check bool) "Before: dst absent" false (Sys.file_exists dst);
  Sink.reset ();
  Sink.arm ~at:1 ~mode:Sink.After;
  (match Sink.rename ~site:"publish" src dst with
  | () -> Alcotest.fail "armed rename must crash"
  | exception Sink.Crashed _ -> ());
  Alcotest.(check bool) "After: renamed, then death" true (Sys.file_exists dst);
  Sink.reset ();
  rm_rf dir

(* ---- store / find ---- *)

let test_store_find_round_trip () =
  let dir = fresh_dir "roundtrip" in
  let t = Cache.open_dir dir in
  let key = Cache.key ~kind:"test" [ ("a", "1"); ("b", "two\nlines") ] in
  Alcotest.(check (option string)) "miss before store" None (Cache.find t ~key);
  let payload = "line one\nline two\twith tab\n%percent" in
  Cache.store t ~key payload;
  Alcotest.(check (option string))
    "hit after store" (Some payload) (Cache.find t ~key);
  (* storing again is a no-op, not a rewrite *)
  Cache.store t ~key "different bytes";
  Alcotest.(check (option string))
    "first writer wins" (Some payload) (Cache.find t ~key);
  let c = Cache.counters t in
  Alcotest.(check int) "one miss" 1 c.Cache.misses;
  Alcotest.(check int) "two hits" 2 c.Cache.hits;
  Alcotest.(check int) "one store" 1 c.Cache.stores;
  rm_rf dir

let test_key_sensitivity () =
  let base = [ ("machine", "c240"); ("kernel", "k1") ] in
  let k0 = Cache.key ~kind:"cell" base in
  Alcotest.(check string) "keys are deterministic" k0 (Cache.key ~kind:"cell" base);
  List.iter
    (fun (label, kind, parts) ->
      Alcotest.(check bool) label true (Cache.key ~kind parts <> k0))
    [
      ("kind changes the key", "case", base);
      ("value changes the key", "cell", [ ("machine", "c240"); ("kernel", "k2") ]);
      ("name changes the key", "cell", [ ("machine", "c240"); ("kern", "k1") ]);
      ("order changes the key", "cell", List.rev base);
      ("extra part changes the key", "cell", base @ [ ("plan", "none") ]);
    ]

(* ---- corruption is quarantined, never served ---- *)

let quarantine_count dir =
  let q = Filename.concat dir "quarantine" in
  if Sys.file_exists q then Array.length (Sys.readdir q) else 0

let test_corruption_at_every_offset () =
  let dir = fresh_dir "corrupt" in
  let t = Cache.open_dir dir in
  let key = Cache.key ~kind:"test" [ ("case", "offsets") ] in
  let payload = "some cached result\nwith a second line and a digest tail" in
  Cache.store t ~key payload;
  let path = Cache.entry_path t key in
  let pristine = read_file path in
  let n = String.length pristine in
  for off = 0 to n - 1 do
    (* truncation to [off] bytes *)
    write_file path (String.sub pristine 0 off);
    (match Cache.find t ~key with
    | None -> ()
    | Some got ->
        Alcotest.failf "truncated at %d/%d served %S" off n got);
    (* the corrupt file moved aside: put the entry back and flip one bit *)
    write_file path
      (String.mapi
         (fun i c -> if i = off then Char.chr (Char.code c lxor 0x20) else c)
         pristine);
    match Cache.find t ~key with
    | None -> ()
    | Some got ->
        (* flipping a bit inside the payload must be caught by the MD5;
           serving the original bytes would mean the file was never read *)
        Alcotest.failf "bit-flipped at %d/%d served %S" off n got
  done;
  Alcotest.(check bool) "every corruption quarantined" true
    (quarantine_count dir = 2 * n);
  (* an entry stored under the previous format version, its header
     otherwise intact, is a miss and is never served *)
  let stale_header =
    {
      Journal.tag = "macs-cache-entry";
      fields =
        [
          ("version", string_of_int (Cache.format_version - 1));
          ("key", key);
          ("len", string_of_int (String.length payload));
          ("md5", Digest.to_hex (Digest.string payload));
        ];
    }
  in
  write_file path (Journal.encode stale_header ^ "\n" ^ payload);
  Alcotest.(check (option string))
    "old-version entry not served" None (Cache.find t ~key);
  (* a later store repopulates and serves again *)
  Cache.store t ~key payload;
  Alcotest.(check (option string))
    "recomputed entry served" (Some payload) (Cache.find t ~key);
  rm_rf dir

let prop_random_corruption_never_served =
  QCheck.Test.make ~count:200
    ~name:"random truncation/flip of a random entry is never served"
    QCheck.(
      triple
        (string_gen_of_size Gen.(int_range 1 200) Gen.char)
        small_nat small_nat)
    (fun (payload, off_seed, flip) ->
      let dir = fresh_dir "qc" in
      let t = Cache.open_dir dir in
      let key = Cache.key ~kind:"qc" [ ("p", payload) ] in
      Cache.store t ~key payload;
      let path = Cache.entry_path t key in
      let pristine = read_file path in
      let off = off_seed mod String.length pristine in
      write_file path
        (if flip mod 2 = 0 then String.sub pristine 0 off
         else
           String.mapi
             (fun i c ->
               if i = off then Char.chr (Char.code c lxor (1 lsl (flip mod 8)))
               else c)
             pristine);
      let served = Cache.find t ~key in
      rm_rf dir;
      (* the truncation is always strict and the flip always changes a
         byte, so serving anything means a verification hole *)
      served = None)

(* ---- maintenance ---- *)

let test_stat_verify_gc () =
  let dir = fresh_dir "maint" in
  let t = Cache.open_dir dir in
  let keys =
    List.map
      (fun i ->
        let key = Cache.key ~kind:"m" [ ("i", string_of_int i) ] in
        Cache.store t ~key (Printf.sprintf "payload number %d" i);
        key)
      [ 0; 1; 2 ]
  in
  Cache.log_run t ~label:"first";
  (* a second process would open the cache with fresh counters *)
  Cache.reset_counters t;
  Cache.log_run t ~label:"second";
  let s = Cache.stat t in
  Alcotest.(check int) "three entries" 3 s.Cache.entries;
  Alcotest.(check int) "two logged runs" 2 s.Cache.runs;
  Alcotest.(check int) "three stores total" 3 s.Cache.total.Cache.stores;
  (* corrupt one entry behind the cache's back; verify must catch it *)
  let victim = List.nth keys 1 in
  write_file (Cache.entry_path t victim) "not an entry at all";
  let v = Cache.verify t in
  Alcotest.(check int) "checked all three" 3 v.Cache.checked;
  Alcotest.(check int) "two ok" 2 v.Cache.ok;
  (match v.Cache.bad with
  | [ (k, _) ] -> Alcotest.(check string) "the victim" victim k
  | l -> Alcotest.failf "expected one bad entry, got %d" (List.length l));
  Alcotest.(check int) "victim quarantined" 1 (quarantine_count dir);
  (* an orphaned tmp file from a crashed store *)
  let orphan =
    Filename.concat
      (Filename.dirname (Cache.entry_path t victim))
      (victim ^ ".tmp.0")
  in
  write_file orphan "half a store";
  let g = Cache.gc t in
  Alcotest.(check int) "both survivors kept" 2 g.Cache.kept;
  Alcotest.(check int) "quarantine purged" 1 g.Cache.purged_quarantine;
  Alcotest.(check int) "orphan tmp purged" 1 g.Cache.purged_tmp;
  Alcotest.(check int) "nothing evicted without a budget" 0 g.Cache.evicted;
  let g2 = Cache.gc ~max_bytes:0 t in
  Alcotest.(check int) "budget 0 evicts everything" 2 g2.Cache.evicted;
  Alcotest.(check int) "store empty" 0 (Cache.stat t).Cache.entries;
  rm_rf dir

let test_log_survives_torn_tail () =
  let dir = fresh_dir "tornlog" in
  let t = Cache.open_dir dir in
  Cache.log_run t ~label:"whole";
  let log = Filename.concat dir "cache.log" in
  let oc = open_out_gen [ Open_append ] 0o644 log in
  output_string oc "run\tlabel=torn%Q";
  close_out oc;
  Cache.log_run t ~label:"after the tear";
  Alcotest.(check int) "both whole runs counted" 2 (Cache.stat t).Cache.runs;
  rm_rf dir

(* ---- cold vs warm byte identity through the real harnesses ---- *)

let prop_chaos_warm_run_byte_identical =
  (* arbitrary (kernel, plan) cells via the campaign's own seeded
     sampler: a cold campaign fills the cache, a warm one must journal
     exactly the same bytes without recomputing *)
  QCheck.Test.make ~count:4 ~name:"chaos: warm journal == cold journal"
    QCheck.small_nat (fun seed ->
      let dir = fresh_dir "chaoswarm" in
      let journal n = Filename.concat dir n in
      let cfg n =
        {
          Campaign.default_config with
          Campaign.seed;
          cells = 2;
          journal = Some (journal n);
          cache = Some (Filename.concat dir "cache");
        }
      in
      let run n =
        match Campaign.run (cfg n) with
        | Ok t -> t
        | Error e -> QCheck.Test.fail_reportf "campaign: %s" e
      in
      let cold = run "cold.journal" in
      let warm = run "warm.journal" in
      let identical =
        read_file (journal "cold.journal") = read_file (journal "warm.journal")
      in
      let warm_counters =
        match warm.Campaign.cache_counters with
        | Some c -> c.Cache.hits = 2 && c.Cache.misses = 0
        | None -> false
      in
      let cold_counters =
        match cold.Campaign.cache_counters with
        | Some c -> c.Cache.hits = 0 && c.Cache.misses = 2
        | None -> false
      in
      rm_rf dir;
      identical && warm_counters && cold_counters)

let prop_fuzz_warm_run_byte_identical =
  QCheck.Test.make ~count:4 ~name:"fuzz: warm summary == cold summary"
    QCheck.small_nat (fun seed ->
      let dir = fresh_dir "fuzzwarm" in
      let cfg =
        {
          Driver.default_config with
          Driver.seed;
          count = 4;
          sim = false;
          fault_plans = [];
          cache = Some (Filename.concat dir "cache");
        }
      in
      let digest (s : Driver.summary) =
        ( s.Driver.cases_run,
          s.Driver.by_label,
          s.Driver.checks_passed,
          s.Driver.checks_skipped,
          List.length s.Driver.violations )
      in
      let cold = Driver.run cfg in
      let warm = Driver.run cfg in
      let warm_hits =
        match warm.Driver.cache_counters with
        | Some c -> c.Cache.hits = 4 && c.Cache.misses = 0
        | None -> false
      in
      rm_rf dir;
      digest cold = digest warm && warm_hits)

(* ---- machine identity ----

   DSL machines from every preset plus a few result-determining clauses.
   The value sets include the presets' own values, and the second
   machine of a pair is often the first one's clauses reordered, so
   distinct spellings of one machine turn up as often as distinct
   machines. *)

let machine_clauses_gen =
  QCheck.Gen.(
    list_size (int_range 0 3)
      (oneof
         [
           map (Printf.sprintf "banks=%d") (oneofl [ 16; 32; 64 ]);
           map (Printf.sprintf "busy=%d") (oneofl [ 4; 8 ]);
           map (Printf.sprintf "vl=%d") (oneofl [ 64; 128 ]);
           oneofl [ "pair=2/1"; "pair=1/1" ];
           oneofl [ "scalar=1/1"; "scalar=4/3" ];
           oneofl [ "t.mul.z=1"; "t.mul.z=2" ];
         ]))

let machine_pair_gen =
  let open QCheck.Gen in
  let spec preset clauses = String.concat ";" (preset :: clauses) in
  oneofl Convex_machine.Machine.preset_names >>= fun preset ->
  machine_clauses_gen >>= fun clauses ->
  oneof
    [
      map (fun cs -> (spec preset clauses, spec preset cs)) (shuffle_l clauses);
      map2
        (fun p cs -> (spec preset clauses, spec p cs))
        (oneofl Convex_machine.Machine.preset_names)
        machine_clauses_gen;
    ]

let prop_machine_identity =
  QCheck.Test.make ~count:200
    ~name:
      "machine digest and suite/fuzz/chaos keys: equal iff specs equal up \
       to the name"
    (QCheck.make ~print:(fun (a, b) -> a ^ " | " ^ b) machine_pair_gen)
    (fun (sa, sb) ->
      let machine s =
        match Convex_dsl.Machine_dsl.of_name_or_spec s with
        | Ok m -> m
        | Error e -> QCheck.Test.fail_reportf "%s: %s" s e
      in
      let a = machine sa and b = machine sb in
      let same =
        Convex_machine.Machine.(
          to_spec { a with name = "" } = to_spec { b with name = "" })
      in
      let identities m =
        [
          Convex_machine.Machine.digest m;
          Convex_harness.Supervisor.cell_key ~machine:m 0;
          Driver.case_key { Driver.default_config with machine = m } 0;
          Campaign.cell_key { Campaign.default_config with machine = m } 0;
        ]
      in
      List.for_all2
        (fun x y -> x = y = same)
        (identities a) (identities b))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_corruption_never_served;
      prop_machine_identity;
      prop_chaos_warm_run_byte_identical;
      prop_fuzz_warm_run_byte_identical;
    ]

let () =
  Alcotest.run "cache"
    [
      ( "sink",
        [
          Alcotest.test_case "counts boundaries, transparent when disarmed"
            `Quick test_sink_counts_and_disarmed_is_transparent;
          Alcotest.test_case "before/torn/after semantics and the dead latch"
            `Quick test_sink_modes;
          Alcotest.test_case "rename is a boundary" `Quick
            test_sink_rename_boundary;
        ] );
      ( "store",
        [
          Alcotest.test_case "store/find round trip, first writer wins"
            `Quick test_store_find_round_trip;
          Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
        ] );
      ( "corruption",
        [
          Alcotest.test_case
            "truncation and bit-flips at every offset quarantined" `Quick
            test_corruption_at_every_offset;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "stat/verify/gc" `Quick test_stat_verify_gc;
          Alcotest.test_case "run log survives a torn tail" `Quick
            test_log_survives_torn_tail;
        ] );
      ("properties", qcheck_tests);
    ]
