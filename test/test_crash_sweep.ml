(* The crash-consistency acceptance tests: arm a simulated process death
   at every durable write boundary of each workload in turn, recover,
   and require byte-identical artifacts — nothing lost, nothing
   duplicated, no corrupt cache entry ever served. *)

module Sweep = Convex_chaos.Crash_sweep

let fresh_dir name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "macs_sweep_%s_%d" name (Unix.getpid ()))

let check_sweep ?(cross = false) (s : Sweep.scenario) =
  let dir = fresh_dir s.Sweep.name in
  let r = Sweep.sweep ~cross ~dir s in
  Sweep.cleanup dir;
  Alcotest.(check int)
    (s.Sweep.name ^ ": every armed run crashed")
    r.Sweep.points r.Sweep.crashes;
  Alcotest.(check bool)
    (s.Sweep.name ^ ": several boundaries swept")
    true (r.Sweep.boundaries >= 3);
  if not (Sweep.ok r) then Alcotest.fail (Sweep.render r)

(* every (boundary, mode) pair for the journal/shard layers — the
   executor scenario is pure arithmetic, so the full cross product is
   cheap *)
let test_exec_shards_sweep () =
  check_sweep ~cross:true (Sweep.scenario_exec_shards ())

let test_corpus_sweep () = check_sweep ~cross:true (Sweep.scenario_corpus ())

(* chaos and fuzz run real simulations per point: rotate the modes across
   boundaries instead of crossing (every boundary still hit once) *)
let test_chaos_sweep () = check_sweep (Sweep.scenario_chaos ~cells:3 ())
let test_fuzz_warm_sweep () = check_sweep (Sweep.scenario_fuzz ~count:4 ())

(* the supervised suite on a machine no preset names: the runner's
   journal and cache boundaries, keyed by the machine digest, swept off
   the presets *)
let test_suite_dsl_machine_sweep () =
  let machine =
    match Convex_dsl.Machine_dsl.of_name_or_spec "c240;banks=64" with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  check_sweep (Sweep.scenario_suite ~machine ())

(* the harness itself must notice a recovery that loses data: a scenario
   whose recovery truncates the artifact has to produce failures *)
let test_sweep_detects_broken_recovery () =
  let inner = Sweep.scenario_exec_shards () in
  let broken =
    {
      Sweep.name = "broken";
      prepare =
        (fun ~dir ->
          let p = inner.Sweep.prepare ~dir in
          {
            p with
            Sweep.recover =
              (fun () ->
                p.Sweep.recover ();
                let oc =
                  open_out_bin (List.hd p.Sweep.artifacts)
                in
                output_string oc "not the journal";
                close_out oc);
          });
    }
  in
  let dir = fresh_dir "broken" in
  let r = Sweep.sweep ~dir broken in
  Sweep.cleanup dir;
  Alcotest.(check bool) "byte mismatch reported" false (Sweep.ok r)

let () =
  Alcotest.run "crash-sweep"
    [
      ( "sweeps",
        [
          Alcotest.test_case "executor shards, all modes x all boundaries"
            `Quick test_exec_shards_sweep;
          Alcotest.test_case "corpus appends, all modes x all boundaries"
            `Quick test_corpus_sweep;
          Alcotest.test_case "cached chaos campaign" `Quick test_chaos_sweep;
          Alcotest.test_case "warm fuzz campaign" `Quick test_fuzz_warm_sweep;
          Alcotest.test_case "supervised suite on a DSL machine" `Quick
            test_suite_dsl_machine_sweep;
          Alcotest.test_case "a data-losing recovery is detected" `Quick
            test_sweep_detects_broken_recovery;
        ] );
    ]
