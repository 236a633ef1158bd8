(* Tests for the machine-description DSL: byte-exact round-trips across
   every stock preset, override clauses, and typed Parse_failure
   diagnostics on every malformed field. *)

open Convex_machine
module Dsl = Convex_dsl.Machine_dsl
module E = Macs_util.Macs_error

let machine name =
  match Machine.of_name name with Ok m -> m | Error e -> failwith e

let parse_ok spec =
  match Dsl.parse spec with
  | Ok m -> m
  | Error e -> Alcotest.failf "%s: %s" spec (E.to_string e)

let parse_err spec =
  match Dsl.parse spec with
  | Ok _ -> Alcotest.failf "%s: expected a parse failure" spec
  | Error e -> e

(* ---- round trips ---- *)

let test_preset_roundtrip () =
  List.iter
    (fun (name, m) ->
      let m' = parse_ok (Machine.to_spec m) in
      Alcotest.(check bool)
        (name ^ ": parse (to_spec m) = m")
        true (m' = m))
    Machine.presets

let test_canonical_bytes () =
  (* to_spec (parse s) is byte-identical to s for canonical s *)
  List.iter
    (fun (name, spec) ->
      Alcotest.(check string)
        (name ^ ": canonical bytes")
        spec
        (Machine.to_spec (parse_ok spec)))
    Dsl.preset_specs

let test_preset_specs_cover_presets () =
  Alcotest.(check (list string))
    "same names in order"
    (List.map fst Machine.presets)
    (List.map fst Dsl.preset_specs)

let test_bare_preset_name () =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ ": bare name = preset")
        true
        (parse_ok name = machine name))
    Machine.preset_names

let test_name_escaping () =
  (* clause separators, escapes and control bytes in the display name
     must survive the spec round trip byte-for-byte *)
  List.iter
    (fun odd ->
      let m = { (machine "c240") with Machine.name = odd } in
      let m' = parse_ok (Machine.to_spec m) in
      Alcotest.(check string) "name survives" odd m'.Machine.name;
      Alcotest.(check string) "canonical bytes" (Machine.to_spec m)
        (Machine.to_spec m'))
    [ "a;b"; "50%;off=weird"; "tab\there"; "C-240 (what-if)" ]

(* ---- overrides ---- *)

let test_overrides () =
  let base = machine "c240" in
  let m = parse_ok "c240;banks=64" in
  Alcotest.(check int) "banks" 64 m.Machine.memory.Mem_params.banks;
  Alcotest.(check bool) "rest untouched" true
    ({ m with Machine.memory = base.Machine.memory } = base);
  let m = parse_ok "c240;pipes.mul=2" in
  Alcotest.(check int) "mul pipes" 2 m.Machine.pipes.Machine.multiply_unit;
  Alcotest.(check int) "ld pipes kept" base.Machine.pipes.Machine.load_store
    m.Machine.pipes.Machine.load_store;
  let m = parse_ok "c240;vl=64;busy=4" in
  Alcotest.(check int) "vl" 64 m.Machine.max_vl;
  Alcotest.(check int) "busy" 4 m.Machine.memory.Mem_params.bank_busy_cycles;
  let m = parse_ok "c240;t.mul.z=2" in
  Alcotest.(check (float 0.0))
    "t.mul.z" 2.0
    (Timing.get m.Machine.timing Convex_isa.Instr.Cmul).Timing.z;
  let m = parse_ok "c240;refresh=none" in
  Alcotest.(check int) "refresh off" 0
    m.Machine.memory.Mem_params.refresh_duration;
  (* the default base machine is c240 *)
  Alcotest.(check bool) "default base" true
    (parse_ok "banks=64" = parse_ok "c240;banks=64")

let test_override_roundtrip () =
  (* an overridden machine re-prints to a canonical spec that parses back
     to the same machine *)
  List.iter
    (fun spec ->
      let m = parse_ok spec in
      Alcotest.(check bool)
        (spec ^ ": reparse") true
        (parse_ok (Machine.to_spec m) = m))
    [
      "c240;banks=64";
      "c240;pipes.mul=2";
      "c240;vl=64;busy=4";
      "c240;t.mul=2/4/0.5/1";
      "ideal;clock=50";
      "no-refresh;ports=2";
    ]

(* ---- typed diagnostics ---- *)

let check_failure ~expect_site spec =
  let e = parse_err spec in
  Alcotest.(check string) (spec ^ ": kind") "parse-failure" (E.kind e);
  Alcotest.(check string) (spec ^ ": site") expect_site (E.site e);
  Alcotest.(check bool)
    (spec ^ ": message nonempty")
    true
    (String.length (E.to_string e) > 0)

let test_malformed_clauses () =
  List.iter
    (check_failure ~expect_site:"Machine_dsl.parse")
    [
      "no-such-preset";
      "c240;frobnicate=1";
      "c240;banks=";
      "c240;banks=many";
      "c240;pipes=1/2";
      "c240;pair=3";
      "c240;t.mul=1/2";
      "c240;t.zorp=1/2/3/4";
      "c240;t.mul.q=3";
      "c240;refresh=8";
      "c240;vl=huge";
      "c240;;banks=64";
      "c240;=3";
    ]

let test_out_of_range () =
  List.iter
    (check_failure ~expect_site:"Machine_dsl.validate")
    [
      "c240;banks=0";
      "c240;clock=-3";
      "c240;vl=9000";
      "c240;pipes.mul=0";
      "c240;t.mul.z=0";
      "c240;refresh=10/5";
      "c240;ports=0";
      "c240;ports=1";
    ]

let test_validate_presets () =
  List.iter
    (fun (name, m) ->
      match Dsl.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name (E.to_string e))
    Machine.presets

let test_of_name_or_spec () =
  (match Dsl.of_name_or_spec "c240" with
  | Ok m -> Alcotest.(check bool) "preset" true (m = machine "c240")
  | Error e -> Alcotest.fail e);
  (match Dsl.of_name_or_spec "c240;banks=64" with
  | Ok m -> Alcotest.(check int) "spec" 64 m.Machine.memory.Mem_params.banks
  | Error e -> Alcotest.fail e);
  match Dsl.of_name_or_spec "c240;banks=0" with
  | Ok _ -> Alcotest.fail "banks=0 must be rejected"
  | Error msg ->
      Alcotest.(check bool) "flattened message" true (String.length msg > 0)

(* ---- machine identity ---- *)

let test_digest_ignores_name () =
  let digest spec = Machine.digest (parse_ok spec) in
  Alcotest.(check string)
    "no-refresh = c240;refresh=none" (digest "no-refresh")
    (digest "c240;refresh=none");
  Alcotest.(check string)
    "a name= override keeps c240's digest" (digest "c240")
    (digest "c240;name=renamed")

let test_digest_sees_every_field () =
  (* one clause per field group, each moving c240 off its own value *)
  let timing =
    List.map
      (fun (cname, _) -> Printf.sprintf "t.%s.b=9" cname)
      Machine.vclass_names
  in
  List.iter
    (fun clause ->
      let m = parse_ok ("c240;" ^ clause) in
      Alcotest.(check bool) (clause ^ " changes the machine") false
        (m = Machine.c240);
      Alcotest.(check bool) (clause ^ " changes the digest") false
        (Machine.digest m = Machine.digest Machine.c240))
    ([ "clock=26"; "vl=64"; "pipes=2/1/1"; "pipes.add=2"; "pipes.mul=2";
       "pair=1/1"; "scalar=4/3"; "banks=64"; "word=4"; "busy=12";
       "refresh=none"; "ports=3"; "t.add=1/2/3/4" ]
    @ timing)

let () =
  Alcotest.run "convex_dsl"
    [
      ( "round-trip",
        [
          Alcotest.test_case "presets reparse" `Quick test_preset_roundtrip;
          Alcotest.test_case "canonical bytes" `Quick test_canonical_bytes;
          Alcotest.test_case "preset_specs cover presets" `Quick
            test_preset_specs_cover_presets;
          Alcotest.test_case "bare names" `Quick test_bare_preset_name;
          Alcotest.test_case "name escaping" `Quick test_name_escaping;
        ] );
      ( "overrides",
        [
          Alcotest.test_case "field overrides" `Quick test_overrides;
          Alcotest.test_case "override round-trip" `Quick
            test_override_roundtrip;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "malformed clauses" `Quick test_malformed_clauses;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "presets validate" `Quick test_validate_presets;
          Alcotest.test_case "of_name_or_spec" `Quick test_of_name_or_spec;
        ] );
      ( "identity",
        [
          Alcotest.test_case "digest ignores the name" `Quick
            test_digest_ignores_name;
          Alcotest.test_case "digest sees every field" `Quick
            test_digest_sees_every_field;
        ] );
    ]
