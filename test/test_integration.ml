(* Integration tests: the full pipeline (kernel -> compiler -> bounds ->
   simulator -> diagnosis) against the paper's published results, with the
   tolerances EXPERIMENTS.md documents. *)

open Macs

(* (id, paper t_MA, t_MAC, t_MACS, t_p) in CPF *)
let paper_table4 =
  [
    (1, 0.600, 0.800, 0.840, 0.852);
    (2, 1.250, 1.500, 1.566, 3.773);
    (3, 1.000, 1.000, 1.044, 1.128);
    (4, 1.000, 1.000, 1.226, 1.863);
    (6, 1.000, 1.000, 1.226, 2.632);
    (7, 0.500, 0.625, 0.656, 0.681);
    (8, 0.583, 0.583, 0.824, 0.858);
    (9, 0.647, 0.647, 0.679, 0.749);
    (10, 2.222, 2.222, 2.328, 2.442);
    (12, 2.000, 3.000, 3.132, 3.182);
  ]

let hierarchies =
  lazy (List.map (fun k -> (k.Lfk.Kernel.id, Hierarchy.analyze k)) Lfk.Kernels.all)

let get id = List.assoc id (Lazy.force hierarchies)

(* MA and MAC bounds are derived from exact integer counts: they must
   match the paper exactly for every kernel. *)
let test_ma_mac_exact () =
  List.iter
    (fun (id, ma, mac, _, _) ->
      let h = get id in
      Alcotest.(check (float 0.0005))
        (Printf.sprintf "lfk%d t_MA" id)
        ma (Hierarchy.t_ma_cpf h);
      Alcotest.(check (float 0.0005))
        (Printf.sprintf "lfk%d t_MAC" id)
        mac (Hierarchy.t_mac_cpf h))
    paper_table4

(* MACS matches the paper within 0.5% on the kernels without reduction
   special cases or packing slack; the documented divergences are LFK4/6
   (reduction handling the paper leaves unspecified) and LFK8/9 (chime
   packing details of the real compiler). *)
let test_macs_close () =
  List.iter
    (fun (id, _, _, macs, _) ->
      let h = get id in
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d t_MACS %.3f vs paper %.3f" id
           (Hierarchy.t_macs_cpf h) macs)
        true
        (Float.abs (Hierarchy.t_macs_cpf h -. macs) /. macs < 0.005))
    (List.filter (fun (id, _, _, _, _) -> List.mem id [ 1; 2; 7; 10; 12 ])
       paper_table4)

let test_macs_divergences_bounded () =
  (* even the divergent kernels stay within 20% of the paper's bound *)
  List.iter
    (fun (id, _, _, macs, _) ->
      let h = get id in
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d within 20%%" id)
        true
        (Float.abs (Hierarchy.t_macs_cpf h -. macs) /. macs < 0.20))
    paper_table4

(* Measured performance: the simulator substitutes for the machine, so
   absolute agreement varies; the structural claims must hold. *)
let test_measured_shape () =
  (* 1. every kernel measures at or above its MACS bound *)
  List.iter
    (fun (id, _, _, _, _) ->
      let h = get id in
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d t_p >= t_MACS" id)
        true
        (h.t_p.Convex_vpsim.Measure.cpl
         >= h.t_macs.Macs_bound.cpl -. 0.01))
    paper_table4;
  (* 2. the well-modeled kernels sit within 10% of the bound, as in the
     paper (LFK 1, 7, 8, 10, 12 are >= 95% explained there) *)
  List.iter
    (fun id ->
      let h = get id in
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d well modeled" id)
        true
        (Hierarchy.pct_macs h > 0.90))
    [ 1; 7; 8; 10; 12 ];
  (* 3. the loose kernels (short vectors, reductions, outer loops) show a
     substantial unmodeled gap, as in the paper (LFK 2, 4, 6 at 41-66%) *)
  List.iter
    (fun id ->
      let h = get id in
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d loose" id)
        true
        (Hierarchy.pct_macs h < 0.85))
    [ 2; 4; 6 ]

let test_measured_within_factor_of_paper () =
  List.iter
    (fun (id, _, _, _, p) ->
      let h = get id in
      let ours = Hierarchy.t_p_cpf h in
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d measured %.3f vs paper %.3f" id ours p)
        true
        (ours > 0.5 *. p && ours < 1.5 *. p))
    paper_table4

let test_mflops_ordering () =
  (* the hierarchy's harmonic-mean MFLOPS must descend: MA >= MAC >= MACS
     >= measured, like the paper's 23.15 / 20.19 / 17.79 / 13.16 *)
  let ds = Macs_report.Dataset.compute () in
  let ma, mac, macs, p = Macs_report.Dataset.cpf_columns ds in
  let mf xs = Units.hmean_mflops ~clock_mhz:25.0 ~cpf_values:xs in
  Alcotest.(check bool) "descending" true
    (mf ma >= mf mac && mf mac >= mf macs && mf macs >= mf p);
  Alcotest.(check (float 0.05)) "MA mflops 23.15" 23.15 (mf ma);
  Alcotest.(check (float 0.05)) "MAC mflops 20.19" 20.19 (mf mac)

(* A/X behaviour: memory-side and FP-side measurements track their bounds *)
let test_ax_tracks_bounds () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let h = get k.id in
      let a = h.t_a.Convex_vpsim.Measure.cpl in
      let x = h.t_x.Convex_vpsim.Measure.cpl in
      Alcotest.(check bool) (k.name ^ " t_a >= m-bound") true
        (a >= h.t_macs_m.Macs_bound.cpl -. 0.02);
      (* the reduced-list f-bound is approximate (the paper notes the
         component bounds do not compose exactly); the dynamic X-process
         can pipeline FP chimes across iterations slightly better than
         the static partition (LFK7: 6% better) *)
      Alcotest.(check bool) (k.name ^ " t_x >= 0.92 * f-bound") true
        (x >= 0.92 *. h.t_macs_f.Macs_bound.cpl))
    Lfk.Kernels.all

let test_lfk8_splitting_signature () =
  (* the paper's LFK8 signature: t_MACS far above both component bounds,
     yet explaining ~98% of measured time *)
  let h = get 8 in
  let macs = h.t_macs.Macs_bound.cpl in
  Alcotest.(check bool) "MACS >> f,m" true
    (macs > 1.2 *. h.t_macs_f.Macs_bound.cpl
    && macs > 1.2 *. h.t_macs_m.Macs_bound.cpl);
  Alcotest.(check bool) "explains measured" true (Hierarchy.pct_macs h > 0.95)

let test_lfk7_fp_imbalance () =
  (* (t^f - t_f) > 1 in LFK7: adds and multiplies do not overlap
     perfectly, creating a ninth FP chime *)
  let h = get 7 in
  Alcotest.(check bool) "ninth chime" true
    (h.t_macs_f.Macs_bound.cpl -. float_of_int (Counts.t_f h.mac) > 1.0)

(* compiler ablation: ideal reuse closes the MA->MAC gap *)
let test_ideal_closes_ma_gap () =
  List.iter
    (fun id ->
      let k = Lfk.Kernels.find id in
      let ideal = Hierarchy.analyze ~opt:Fcc.Opt_level.ideal k in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "lfk%d ideal MAC = MA" id)
        ideal.t_ma ideal.t_mac)
    [ 1; 2; 7; 12 ]

let test_loads_first_never_better () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let v61 = get k.id in
      let lf = Hierarchy.analyze ~opt:Fcc.Opt_level.loads_first k in
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d loads-first bound not better" k.id)
        true
        (lf.t_macs.Macs_bound.cpl
        >= v61.t_macs.Macs_bound.cpl -. 0.02))
    Lfk.Kernels.all

(* machine ablations *)
let test_no_bubbles_tightens () =
  let m = Convex_machine.Machine.no_bubbles Convex_machine.Machine.c240 in
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let base = get k.id in
      let nb = Hierarchy.analyze ~machine:m k in
      Alcotest.(check bool) (k.name ^ " B=0 bound <= base") true
        (nb.t_macs.Macs_bound.cpl
        <= base.t_macs.Macs_bound.cpl +. 1e-9))
    Lfk.Kernels.all

let test_no_refresh_removes_two_percent () =
  let m = Convex_machine.Machine.no_refresh Convex_machine.Machine.c240 in
  let base = get 1 in
  let nr = Hierarchy.analyze ~machine:m (Lfk.Kernels.find 1) in
  let ratio = base.t_macs.Macs_bound.cpl /. nr.t_macs.Macs_bound.cpl in
  Alcotest.(check (float 0.001)) "exactly 1.02" 1.02 ratio

let test_contention_degrades () =
  (* the paper's rule of thumb: different programs on all four CPUs cost
     roughly 20%; Figure 3's co-simulated load-5.1 series slows every
     kernel and lands in the 5-45% band on average *)
  let ds = Macs_report.Dataset.compute () in
  let _, _, _, single = Macs_report.Dataset.cpf_columns ds in
  let multi = Macs_report.Figures.multi_cpf ds in
  let slowdowns = Array.map2 ( /. ) multi single in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "kernel %d slowdown %.2f > 1" i r)
        true (r > 1.0))
    slowdowns;
  let avg = Macs_util.Stats.mean slowdowns in
  Alcotest.(check bool)
    (Printf.sprintf "average %.2f in 1.05-1.45" avg)
    true
    (avg > 1.05 && avg < 1.45)

let () =
  Alcotest.run "integration"
    [
      ( "paper-comparison",
        [
          Alcotest.test_case "MA/MAC exact" `Quick test_ma_mac_exact;
          Alcotest.test_case "MACS close on clean kernels" `Quick
            test_macs_close;
          Alcotest.test_case "MACS divergences bounded" `Quick
            test_macs_divergences_bounded;
          Alcotest.test_case "measured shape" `Quick test_measured_shape;
          Alcotest.test_case "measured within 1.5x of paper" `Quick
            test_measured_within_factor_of_paper;
          Alcotest.test_case "MFLOPS ordering" `Quick test_mflops_ordering;
        ] );
      ( "structure",
        [
          Alcotest.test_case "A/X track bounds" `Quick test_ax_tracks_bounds;
          Alcotest.test_case "lfk8 splitting signature" `Quick
            test_lfk8_splitting_signature;
          Alcotest.test_case "lfk7 fp imbalance" `Quick test_lfk7_fp_imbalance;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "ideal closes MA gap" `Quick
            test_ideal_closes_ma_gap;
          Alcotest.test_case "loads-first not better" `Quick
            test_loads_first_never_better;
          Alcotest.test_case "B=0 tightens bound" `Quick
            test_no_bubbles_tightens;
          Alcotest.test_case "no refresh = /1.02" `Quick
            test_no_refresh_removes_two_percent;
          Alcotest.test_case "contention degrades" `Quick
            test_contention_degrades;
        ] );
    ]
