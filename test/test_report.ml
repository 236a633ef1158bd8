(* Tests for macs_report: consistency of the embedded paper data, and that
   every table/figure renderer produces plausible output containing the
   values it claims. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---- Paper data consistency ---- *)

let test_paper_rows_complete () =
  Alcotest.(check (list int)) "ten kernels" [ 1; 2; 3; 4; 6; 7; 8; 9; 10; 12 ]
    (List.map (fun r -> r.Macs_report.Paper.id) Macs_report.Paper.rows)

let test_paper_cpf_cpl_consistent () =
  (* CPL = CPF * flops must hold within the paper's rounding *)
  List.iter
    (fun (r : Macs_report.Paper.kernel_row) ->
      let derived = r.t_macs_cpf *. float_of_int r.flops in
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d t_MACS CPL %.2f vs derived %.2f" r.id
           r.t_macs_cpl derived)
        true
        (Float.abs (derived -. r.t_macs_cpl) <= 0.06 *. r.t_macs_cpl))
    Macs_report.Paper.rows

let test_paper_bounds_ordered () =
  List.iter
    (fun (r : Macs_report.Paper.kernel_row) ->
      Alcotest.(check bool) (Printf.sprintf "lfk%d ordering" r.id) true
        (r.t_ma_cpf <= r.t_mac_cpf +. 1e-9
        && r.t_mac_cpf <= r.t_macs_cpf +. 1e-9
        && r.t_macs_cpf <= r.t_p_cpf +. 1e-9))
    Macs_report.Paper.rows

let test_paper_lfk1_example () =
  Alcotest.(check (float 1e-9)) "chime sum" 527.0
    Macs_report.Paper.lfk1_chime_sum;
  Alcotest.(check (float 1e-9)) "527 * 1.02" (527.0 *. 1.02)
    Macs_report.Paper.lfk1_macs_cycles

let test_paper_row_lookup () =
  Alcotest.(check int) "lfk7 flops" 16 (Macs_report.Paper.row 7).flops;
  Alcotest.check_raises "lfk5" Not_found (fun () ->
      ignore (Macs_report.Paper.row 5))

let test_paper_f_bounds_below_total () =
  List.iter
    (fun (r : Macs_report.Paper.kernel_row) ->
      Alcotest.(check bool) (Printf.sprintf "lfk%d f,m <= MACS+eps" r.id) true
        (r.t_macs_f <= r.t_macs_cpl +. 0.01
        && r.t_macs_m <= r.t_macs_cpl +. 0.01))
    Macs_report.Paper.rows

(* ---- Dataset ---- *)

let ds = lazy (Macs_report.Dataset.compute ())

let test_dataset () =
  let d = Lazy.force ds in
  Alcotest.(check int) "ten rows" 10 (List.length d.rows);
  let h = Macs_report.Dataset.find d 7 in
  Alcotest.(check int) "lookup" 7 h.Macs.Hierarchy.kernel.id;
  let ma, mac, macs, p = Macs_report.Dataset.cpf_columns d in
  Alcotest.(check int) "columns" 10 (Array.length ma);
  Alcotest.(check bool) "ordering holds columnwise" true
    (Array.for_all2 ( >= ) mac ma
    && Array.for_all2 ( >= ) macs mac
    && Array.for_all2 (fun a b -> a +. 0.01 >= b) p macs)

(* ---- The tiered library default ----

   [Sim.run] defaults to the tiered fast path; [Cycle] is the explicit
   oracle tier.  Every library caller that leaves the tier out (Dataset,
   and through it every table and figure; the Advisor) must measure
   exactly what cycle stepping measures — on the stock machine, on a
   bank-conflict-heavy spec where the fast path falls back often, and on
   a non-default refresh geometry. *)

let default_pin_machines =
  ("c240", Convex_machine.Machine.c240)
  :: List.map
       (fun spec ->
         match Convex_dsl.Machine_dsl.parse spec with
         | Ok m -> (spec, m)
         | Error e ->
             Alcotest.failf "%s: %s" spec (Macs_util.Macs_error.to_string e))
       [ "c240;banks=8;busy=12"; "c240;refresh=16/200" ]

let test_default_is_cycle_exact () =
  List.iter
    (fun (spec, machine) ->
      let d = Macs_report.Dataset.compute ~machine () in
      List.iter
        (fun (row : Macs.Hierarchy.t) ->
          let oracle =
            Macs.Hierarchy.analyze ~machine ~opt:d.opt
              ~fidelity:Convex_vpsim.Fastpath.Cycle row.kernel
          in
          List.iter
            (fun (what, (a : Convex_vpsim.Measure.t), b) ->
              let msg = Printf.sprintf "%s %s %s" spec row.kernel.name what in
              Alcotest.(check bool) (msg ^ " stats") true
                (a.stats = b.Convex_vpsim.Measure.stats);
              Alcotest.(check bool) (msg ^ " measure") true (a = b))
            [
              ("t_p", row.t_p, oracle.t_p);
              ("t_a", row.t_a, oracle.t_a);
              ("t_x", row.t_x, oracle.t_x);
            ])
        d.rows;
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s advice" spec k.Lfk.Kernel.name)
            true
            (Macs.Advisor.advise ~machine k
            = Macs.Advisor.advise ~machine
                ~fidelity:Convex_vpsim.Fastpath.Cycle k))
        (Lfk.Kernels.all @ Lfk.Kernels.scalar_kernels))
    default_pin_machines

(* ---- Table renderers ---- *)

let test_table1_contains_spec () =
  let t = Macs_report.Tables.table1 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~needle t))
    [ "vector load"; "vector divide"; "1.35"; "21"; "fit" ]

let test_table2_dashes () =
  let t = Macs_report.Tables.table2 (Lazy.force ds) in
  (* kernels 9/10 have MAC = MA: the row must contain dashes *)
  Alcotest.(check bool) "has dashes" true (contains ~needle:"-" t)

let test_table3_renders () =
  let t = Macs_report.Tables.table3 (Lazy.force ds) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [ "t_MA"; "t_MACS"; "4.20" ]

let test_table4_renders () =
  let t = Macs_report.Tables.table4 (Lazy.force ds) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [ "AVG"; "MFLOPS"; "0.840"; "%" ]

let test_table5_renders () =
  let t = Macs_report.Tables.table5 (Lazy.force ds) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [ "t_x"; "t_a"; "n/a" (* the missing LFK10 row of the paper *) ]

let test_lfk1_example_renders () =
  let t = Macs_report.Tables.lfk1_example () in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [ "527.0"; "537.54"; "chime 4" ]

let test_diagnosis_covers_all () =
  let t = Macs_report.Tables.diagnosis (Lazy.force ds) in
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      Alcotest.(check bool) k.name true (contains ~needle:k.name t))
    Lfk.Kernels.all

let test_ablation_tables () =
  let t = Macs_report.Tables.ablation_compiler () in
  Alcotest.(check bool) "ideal column" true (contains ~needle:"ideal" t);
  let m = Macs_report.Tables.ablation_machine () in
  Alcotest.(check bool) "dual LSU column" true (contains ~needle:"dual LSU" m)

(* ---- Figures ---- *)

let test_figure2 () =
  let f = Macs_report.Figures.figure2 () in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle f))
    [ "162"; "132"; "load/store"; "multiply" ]

let test_figure3 () =
  let f = Macs_report.Figures.figure3 (Lazy.force ds) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle f))
    [
      "LFK1"; "LFK12"; "MA bound"; "measured multi"; "5.1";
      (* each derived band beside the paper's value *)
      "(paper section 4.2: ~20%"; "(paper: 56-64 ns)";
    ]

let test_figure3_contention_slower () =
  (* the multi-process series is never faster than single-process, and
     strictly slower for the heavily memory-bound LFK10 (index 8) *)
  let ds = Lazy.force ds in
  let _, _, _, single = Macs_report.Dataset.cpf_columns ds in
  let multi = Macs_report.Figures.multi_cpf ds in
  Array.iteri
    (fun i s1 ->
      Alcotest.(check bool)
        (Printf.sprintf "kernel %d not faster" i)
        true (multi.(i) >= s1))
    single;
  Alcotest.(check bool) "contention slows lfk10" true (multi.(8) > single.(8))

let test_dataset_deterministic () =
  (* no hidden global state: two computations agree exactly *)
  let a = Macs_report.Dataset.compute () in
  let b = Macs_report.Dataset.compute () in
  List.iter2
    (fun (x : Macs.Hierarchy.t) (y : Macs.Hierarchy.t) ->
      Alcotest.(check (float 0.0))
        (x.kernel.name ^ " t_p identical")
        x.t_p.Convex_vpsim.Measure.cpl y.t_p.Convex_vpsim.Measure.cpl;
      Alcotest.(check (float 0.0))
        (x.kernel.name ^ " MACS identical")
        x.t_macs.Macs.Macs_bound.cpl y.t_macs.Macs.Macs_bound.cpl)
    a.rows b.rows

let test_report_doc () =
  let sections = Macs_report.Report_doc.sections () in
  Alcotest.(check bool) "20+ sections" true (List.length sections >= 20);
  Alcotest.(check (option string))
    "application section" (Some (Macs_report.Tables.application ()))
    (List.assoc_opt "Extension — application profile" sections);
  let md = Macs_report.Report_doc.to_markdown () in
  Alcotest.(check bool) "has headings" true (contains ~needle:"## Table 4" md);
  (* every fenced block is closed *)
  let fences = ref 0 in
  String.split_on_char '\n' md
  |> List.iter (fun l -> if l = "```" then incr fences);
  Alcotest.(check int) "even fences... counting opens+closes"
    (2 * List.length sections)
    !fences

let () =
  Alcotest.run "macs_report"
    [
      ( "paper-data",
        [
          Alcotest.test_case "rows complete" `Quick test_paper_rows_complete;
          Alcotest.test_case "CPF/CPL consistent" `Quick
            test_paper_cpf_cpl_consistent;
          Alcotest.test_case "bounds ordered" `Quick test_paper_bounds_ordered;
          Alcotest.test_case "lfk1 example" `Quick test_paper_lfk1_example;
          Alcotest.test_case "row lookup" `Quick test_paper_row_lookup;
          Alcotest.test_case "component bounds" `Quick
            test_paper_f_bounds_below_total;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "compute" `Quick test_dataset;
          Alcotest.test_case "deterministic" `Quick
            test_dataset_deterministic;
          Alcotest.test_case "tiered default is cycle-exact" `Quick
            test_default_is_cycle_exact;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table1" `Quick test_table1_contains_spec;
          Alcotest.test_case "table2" `Quick test_table2_dashes;
          Alcotest.test_case "table3" `Quick test_table3_renders;
          Alcotest.test_case "table4" `Quick test_table4_renders;
          Alcotest.test_case "table5" `Quick test_table5_renders;
          Alcotest.test_case "lfk1 example" `Quick test_lfk1_example_renders;
          Alcotest.test_case "diagnosis" `Quick test_diagnosis_covers_all;
          Alcotest.test_case "ablations" `Quick test_ablation_tables;
        ] );
      ( "report-doc",
        [ Alcotest.test_case "markdown" `Quick test_report_doc ] );
      ( "figures",
        [
          Alcotest.test_case "figure2" `Quick test_figure2;
          Alcotest.test_case "figure3" `Quick test_figure3;
          Alcotest.test_case "contention slows" `Quick
            test_figure3_contention_slower;
        ] );
    ]
