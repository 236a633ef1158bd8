(* The differential fuzzer's own guarantees: generator validity, codec
   round trip, the functional oracle stack on healthy hardware,
   deterministic shrinking against a deliberately broken machine, corpus
   journal round trip, and replay of the committed corpus. *)

module Gen = Convex_fuzz.Gen
module Codec = Convex_fuzz.Codec
module Shrink = Convex_fuzz.Shrink
module Corpus = Convex_fuzz.Corpus
module Oracle_stack = Convex_fuzz.Oracle_stack
module Machine = Convex_machine.Machine

(* ---- generator validity ---- *)

let prop_gen_valid profile name =
  QCheck.Test.make ~count:300 ~name (Gen.fuzz_kernel_arbitrary profile)
    (fun k ->
      match Lfk.Kernel.validate k with Ok () -> true | Error _ -> false)

let prop_vector_gen_valid =
  prop_gen_valid Gen.Vector_profile "vector-profile kernels validate"

let prop_scalar_gen_valid =
  prop_gen_valid Gen.Scalar_profile "scalar-profile kernels validate"

let prop_scalar_gen_rejected_by_vectorizer =
  QCheck.Test.make ~count:300 ~name:"scalar-profile kernels are loop-carried"
    (Gen.fuzz_kernel_arbitrary Gen.Scalar_profile)
    (fun k -> not (Fcc.Vectorizer.vectorizable k))

(* ---- codec round trip ---- *)

let prop_codec_round_trip =
  QCheck.Test.make ~count:300 ~name:"codec round trip is exact"
    (Gen.fuzz_kernel_arbitrary Gen.Vector_profile)
    (fun k ->
      let s = Codec.to_string k in
      match Codec.of_string s with
      | Ok k' -> Codec.to_string k' = s
      | Error _ -> false)

(* ---- the functional stack on healthy hardware ---- *)

let prop_functional_stack_clean =
  QCheck.Test.make ~count:60
    ~name:"functional oracle stack clean on the C-240"
    (Gen.fuzz_kernel_arbitrary Gen.Vector_profile)
    (fun k ->
      let r = Oracle_stack.run ~machine:Machine.c240 ~sim:false k in
      Oracle_stack.failures r = [])

let prop_asm_round_trip =
  QCheck.Test.make ~count:300
    ~name:"listing round trip under adversarial sop names"
    (QCheck.make Gen.program_gen)
    (fun p ->
      match (Oracle_stack.check_program p).Oracle_stack.outcome with
      | Oracle_stack.Pass -> true
      | _ -> false)

(* ---- shrinking against a broken machine ---- *)

let broken = Machine.broken_hierarchy Machine.c240

let gen_fixed seed =
  let rand = Random.State.make [| seed |] in
  QCheck.Gen.generate1 ~rand (Gen.fuzz_kernel_gen Gen.Vector_profile)

let test_broken_hierarchy_caught_and_shrunk_deterministically () =
  (* inject an inconsistent machine: the oracle stack must flag it, and
     shrinking must be a pure function of (kernel, predicate) *)
  let k = gen_fixed 23 in
  let report = Oracle_stack.run ~machine:broken k in
  let failing =
    match Oracle_stack.failures report with
    | c :: _ -> c.Oracle_stack.id
    | [] -> Alcotest.fail "broken hierarchy not caught by the oracle stack"
  in
  let still_fails k' =
    Oracle_stack.fails (Oracle_stack.run ~machine:broken k') ~id:failing
  in
  let a = Shrink.kernel ~still_fails k in
  let b = Shrink.kernel ~still_fails k in
  Alcotest.(check string) "shrinking is deterministic"
    (Codec.to_string a.Shrink.value)
    (Codec.to_string b.Shrink.value);
  Alcotest.(check bool) "shrunk to at most three statements" true
    (List.length a.Shrink.value.Lfk.Kernel.body <= 3);
  Alcotest.(check bool) "shrunk case still fails the same check" true
    (still_fails a.Shrink.value);
  (* candidate evaluation on worker domains is an optimization, not a
     different algorithm: value, steps and tried all pinned to jobs=1 *)
  let p = Shrink.kernel ~jobs:4 ~still_fails k in
  Alcotest.(check string) "parallel shrink reaches the same value"
    (Codec.to_string a.Shrink.value)
    (Codec.to_string p.Shrink.value);
  Alcotest.(check (pair int int)) "parallel shrink does the same accounting"
    (a.Shrink.steps, a.Shrink.tried)
    (p.Shrink.steps, p.Shrink.tried)

let test_parallel_shrink_matches_sequential_accounting () =
  (* a cheap pure predicate exercises the chunked evaluation paths far
     past what one simulator-backed shrink can: every jobs level must
     take the identical path through the candidate space *)
  let program seed =
    let rand = Random.State.make [| seed; 0x5A |] in
    QCheck.Gen.generate1 ~rand Gen.program_gen
  in
  for seed = 0 to 7 do
    let p = program seed in
    let still_fails p' =
      List.length (Convex_isa.Program.body p') >= 2
    in
    if still_fails p then begin
      let base = Shrink.program ~jobs:1 ~still_fails p in
      List.iter
        (fun jobs ->
          let r = Shrink.program ~jobs ~still_fails p in
          Alcotest.(check string)
            (Printf.sprintf "seed %d jobs %d: same value" seed jobs)
            (Convex_isa.Asm.print_program base.Shrink.value)
            (Convex_isa.Asm.print_program r.Shrink.value);
          Alcotest.(check (pair int int))
            (Printf.sprintf "seed %d jobs %d: same steps/tried" seed jobs)
            (base.Shrink.steps, base.Shrink.tried)
            (r.Shrink.steps, r.Shrink.tried))
        [ 2; 3; 4 ]
    end
  done

(* ---- corpus journal ---- *)

let entry_testable =
  Alcotest.testable
    (fun fmt (e : Corpus.entry) ->
      Format.fprintf fmt "%s/%s/%d"
        (match e.kind with Corpus.Kernel_case -> "kernel" | Asm_case -> "asm")
        e.machine e.seed)
    ( = )

let test_corpus_append_load () =
  let path = Filename.temp_file "fuzz_corpus" ".journal" in
  let e1 =
    {
      Corpus.kind = Corpus.Kernel_case;
      machine = "c240";
      seed = 7;
      expect = Corpus.Violation "diff:v61";
      (* '=', '%', and a tab exercise the journal field escaping *)
      payload = "(kernel (name \"a=b\") (fortran \"100%\t\"))";
    }
  in
  let e2 =
    {
      Corpus.kind = Corpus.Asm_case;
      machine = "ideal";
      seed = 9;
      expect = Corpus.Clean;
      payload = "  sop    %;,\n  sbr\n";
    }
  in
  Sys.remove path;
  Corpus.append ~path e1;
  Corpus.append ~path e2;
  let loaded =
    match Corpus.load ~path with
    | Ok es -> es
    | Error msg -> Alcotest.fail ("load: " ^ msg)
  in
  Sys.remove path;
  Alcotest.(check (list entry_testable)) "entries survive" [ e1; e2 ] loaded

(* ---- the committed corpus ---- *)

let corpus_path = "corpus/fuzz.corpus"

let corpus_replay () =
  match Corpus.replay ~path:corpus_path () with
  | Error msg -> Alcotest.fail ("corpus: " ^ msg)
  | Ok replays ->
      Alcotest.(check bool) "corpus has entries" true (replays <> []);
      List.iter
        (fun (r : Corpus.replay) ->
          if not r.Corpus.ok then
            Alcotest.failf "corpus entry (%s, %s) failed: %s"
              (match r.Corpus.entry.Corpus.kind with
              | Corpus.Kernel_case -> "kernel"
              | Corpus.Asm_case -> "asm")
              (match r.Corpus.entry.Corpus.expect with
              | Corpus.Clean -> "expect clean"
              | Corpus.Violation c -> "expect " ^ c)
              r.Corpus.detail)
        replays

(* a DSL machine's counterexamples record its canonical spec and replay
   on that machine, not on a preset *)
let test_corpus_keeps_dsl_machine () =
  let path = Filename.temp_file "fuzz_dsl" ".journal" in
  Sys.remove path;
  let machine =
    Result.get_ok
      (Convex_dsl.Machine_dsl.of_name_or_spec "broken-hierarchy;banks=64")
  in
  let summary =
    Convex_fuzz.Driver.run
      {
        Convex_fuzz.Driver.default_config with
        machine;
        count = 4;
        fault_plans = [];
        corpus = Some path;
      }
  in
  Alcotest.(check bool) "the broken variant is caught" false
    (Convex_fuzz.Driver.clean summary);
  match Corpus.replay ~path () with
  | Error msg -> Alcotest.fail msg
  | Ok replays ->
      Alcotest.(check bool) "entries appended" true (replays <> []);
      List.iter
        (fun (r : Corpus.replay) ->
          Alcotest.(check string) "entry machine is the canonical spec"
            (Machine.to_spec machine) r.Corpus.entry.Corpus.machine;
          Alcotest.(check bool) ("replays: " ^ r.Corpus.detail) true r.Corpus.ok)
        replays

(* ---- a short in-process campaign ---- *)

let test_campaign_clean_and_deterministic () =
  let cfg =
    {
      Convex_fuzz.Driver.default_config with
      count = 40;
      sim = false;
      fault_plans = [];
    }
  in
  let a = Convex_fuzz.Driver.run cfg in
  let b = Convex_fuzz.Driver.run cfg in
  Alcotest.(check bool) "campaign clean" true (Convex_fuzz.Driver.clean a);
  Alcotest.(check int) "same cases" a.Convex_fuzz.Driver.cases_run
    b.Convex_fuzz.Driver.cases_run;
  Alcotest.(check int) "same outcomes" a.Convex_fuzz.Driver.checks_passed
    b.Convex_fuzz.Driver.checks_passed

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_vector_gen_valid; prop_scalar_gen_valid;
      prop_scalar_gen_rejected_by_vectorizer; prop_codec_round_trip;
      prop_functional_stack_clean; prop_asm_round_trip;
    ]

let () =
  Alcotest.run "fuzz"
    [
      ("generators-and-codec", qcheck_tests);
      ( "shrinking",
        [
          Alcotest.test_case "broken hierarchy caught, shrunk, deterministic"
            `Quick test_broken_hierarchy_caught_and_shrunk_deterministically;
          Alcotest.test_case "parallel shrink pinned to sequential" `Quick
            test_parallel_shrink_matches_sequential_accounting;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "append/load round trip" `Quick
            test_corpus_append_load;
          Alcotest.test_case "committed corpus replays" `Quick corpus_replay;
          Alcotest.test_case "DSL machine entries replay" `Quick
            test_corpus_keeps_dsl_machine;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "functional campaign clean and deterministic"
            `Quick test_campaign_clean_and_deterministic;
        ] );
    ]
