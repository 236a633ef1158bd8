(* Tests for the MACS core: workload counts, chime partitioning, the
   MA/MAC/MACS bounds against the paper's values, the A/X transforms,
   units, the hierarchy, and the diagnosis rules. *)

open Convex_isa
open Convex_machine

let machine = Machine.c240
let v = Reg.v
let s = Reg.s
let mem array offset stride : Instr.mem = { array; offset; stride }
let compile id = Fcc.Compiler.compile (Lfk.Kernels.find id)
let analyze id = Macs.Hierarchy.analyze (Lfk.Kernels.find id)

(* ---- Counts ---- *)

let test_counts_bounds () =
  let c = { Macs.Counts.f_a = 2; f_m = 3; loads = 2; stores = 1 } in
  Alcotest.(check int) "t_f" 3 (Macs.Counts.t_f c);
  Alcotest.(check int) "t_m" 3 (Macs.Counts.t_m c);
  Alcotest.(check int) "t_bound" 3 (Macs.Counts.t_bound c)

let test_counts_of_lfk1 () =
  let ma = Macs.Counts.ma_of_kernel (Lfk.Kernels.find 1) in
  Alcotest.(check int) "MA t" 3 (Macs.Counts.t_bound ma);
  let mac = Macs.Counts.mac_of_program (compile 1).program in
  Alcotest.(check int) "MAC t" 4 (Macs.Counts.t_bound mac)

(* ---- Units ---- *)

let test_units () =
  Alcotest.(check (float 1e-9)) "cpf" 0.6
    (Macs.Units.cpf_of_cpl ~cpl:3.0 ~flops:5);
  Alcotest.(check (float 1e-9)) "cpl" 3.0
    (Macs.Units.cpl_of_cpf ~cpf:0.6 ~flops:5);
  Alcotest.(check (float 0.01)) "mflops" 23.15
    (Macs.Units.mflops ~clock_mhz:25.0 ~cpf:1.080);
  Alcotest.(check (float 1e-9)) "pct" 0.8
    (Macs.Units.percent_of_bound ~bound:4.0 ~measured:5.0)

let test_units_guards () =
  Alcotest.check_raises "flops"
    (Invalid_argument "Units.cpf_of_cpl: nonpositive flops") (fun () ->
      ignore (Macs.Units.cpf_of_cpl ~cpl:1.0 ~flops:0));
  Alcotest.check_raises "cpf"
    (Invalid_argument "Units.mflops: nonpositive cpf") (fun () ->
      ignore (Macs.Units.mflops ~clock_mhz:25.0 ~cpf:0.0))

let test_hmean () =
  (* the paper's AVG CPF 1.080 gives 23.15 MFLOPS at 25 MHz *)
  let cpfs = [| 0.6; 1.25; 1.0; 1.0; 1.0; 0.5; 0.583; 0.647; 2.222; 2.0 |] in
  Alcotest.(check (float 0.05)) "hmean" 23.15
    (Macs.Units.hmean_mflops ~clock_mhz:25.0 ~cpf_values:cpfs)

(* ---- Chime partitioning ---- *)

let test_lfk1_partition () =
  (* the paper's partition: chimes of 2, 3, 3, 1 vector instructions *)
  let body = Program.body (compile 1).program in
  let chimes = Macs.Chime.partition ~machine body in
  Alcotest.(check (list int)) "chime sizes" [ 2; 3; 3; 1 ]
    (List.map Macs.Chime.instr_count chimes)

let test_partition_covers_in_order () =
  let body = Program.body (compile 7).program in
  let chimes = Macs.Chime.partition ~machine body in
  let flattened = List.concat_map (fun c -> c.Macs.Chime.instrs) chimes in
  Alcotest.(check bool) "covers vector instrs in order" true
    (List.equal Instr.equal flattened (List.filter Instr.is_vector body))

let test_one_memory_op_per_chime () =
  let body = Program.body (compile 1).program in
  List.iter
    (fun c ->
      let mems =
        List.length (List.filter Instr.is_vector_memory c.Macs.Chime.instrs)
      in
      Alcotest.(check bool) "at most one memory op" true (mems <= 1))
    (Macs.Chime.partition ~machine body)

let test_pair_limit_splits () =
  (* two writes to the same register pair cannot share a chime: the
     paper's example (16)-(17) adapted *)
  let body =
    [
      Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 1); src2 = Vr (v 0) };
      Instr.Vbin { op = Mul; dst = v 6; src1 = Vr (v 2); src2 = Vr (v 1) };
    ]
  in
  let chimes = Macs.Chime.partition ~machine body in
  Alcotest.(check int) "split" 2 (List.length chimes)

let test_pair_read_limit_splits () =
  (* more than two reads of pair {v2,v6}: paper example (14)-(15) *)
  let body =
    [
      Instr.Vbin { op = Add; dst = v 6; src1 = Vr (v 2); src2 = Vr (v 6) };
      Instr.Vbin { op = Mul; dst = v 4; src1 = Vr (v 6); src2 = Vr (v 1) };
    ]
  in
  let chimes = Macs.Chime.partition ~machine body in
  Alcotest.(check int) "split" 2 (List.length chimes)

let test_legal_pair_sharing () =
  (* one read and one write of a pair chain fine: paper's chaining
     example *)
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) };
      Instr.Vbin { op = Mul; dst = v 5; src1 = Vr (v 2); src2 = Vr (v 3) };
    ]
  in
  Alcotest.(check int) "one chime" 1
    (List.length (Macs.Chime.partition ~machine body))

let test_scalar_memory_splits_chime () =
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Sld { dst = s 0; src = mem "C" 0 0 };
      Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) };
    ]
  in
  let chimes = Macs.Chime.partition ~machine body in
  Alcotest.(check int) "split into two" 2 (List.length chimes);
  Alcotest.(check bool) "flagged" true
    (List.exists (fun c -> c.Macs.Chime.split_by_scalar_memory) chimes)

let test_scalar_memory_bars_following_load () =
  (* scalar memory before any vector memory bars later memory ops from the
     current chime but keeps FP together *)
  let body =
    [
      Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) };
      Instr.Sld { dst = s 0; src = mem "C" 0 0 };
      Instr.Vld { dst = v 3; src = mem "A" 0 1 };
    ]
  in
  let chimes = Macs.Chime.partition ~machine body in
  Alcotest.(check int) "two chimes" 2 (List.length chimes)

let test_scalar_alu_transparent () =
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Sop { name = "add.a" };
      Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) };
    ]
  in
  Alcotest.(check int) "one chime" 1
    (List.length (Macs.Chime.partition ~machine body))

let test_dual_lsu_allows_two_loads () =
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Vld { dst = v 1; src = mem "B" 0 1 };
    ]
  in
  Alcotest.(check int) "c240: two chimes" 2
    (List.length (Macs.Chime.partition ~machine body));
  Alcotest.(check int) "dual lsu: one chime" 1
    (List.length
       (Macs.Chime.partition ~machine:(Machine.dual_load_store machine) body))

(* ---- MACS bound: the paper's numbers ---- *)

let test_lfk1_macs_cycles () =
  (* section 3.5: chime sum 527, with refresh 537.54 = 4.200 CPL *)
  let body = Program.body (compile 1).program in
  let r = Macs.Macs_bound.compute ~machine body in
  let chime_sum =
    List.fold_left
      (fun acc (cc : Macs.Macs_bound.chime_cost) -> acc +. cc.cycles)
      0.0 r.chimes
  in
  Alcotest.(check (float 0.001)) "chime sum 527" 527.0 chime_sum;
  Alcotest.(check (float 0.01)) "537.54 cycles" 537.54 r.cycles;
  Alcotest.(check (float 0.0005)) "4.200 CPL" 4.1995 r.cpl

let test_lfk1_chime_costs () =
  let body = Program.body (compile 1).program in
  let r = Macs.Macs_bound.compute ~machine body in
  Alcotest.(check (list (float 0.001))) "131 132 132 132"
    [ 131.0; 132.0; 132.0; 132.0 ]
    (List.map (fun (cc : Macs.Macs_bound.chime_cost) -> cc.cycles) r.chimes)

(* MACS bounds in CPL against the paper (reconstructed Table 3), with the
   documented divergences: LFK4/6 reductions (the paper's undisclosed
   special cases) and LFK8/9 chime packing. *)
let test_macs_bounds_vs_paper () =
  List.iter
    (fun (id, expected, tol) ->
      let body = Program.body (compile id).program in
      let r = Macs.Macs_bound.compute ~machine body in
      Alcotest.(check (float tol)) (Printf.sprintf "lfk%d MACS" id) expected
        r.cpl)
    [
      (1, 4.20, 0.005);
      (2, 6.26, 0.01);
      (3, 2.09, 0.02);
      (7, 10.50, 0.01);
      (9, 11.55, 0.05);
      (10, 20.95, 0.01);
      (12, 3.13, 0.005);
    ]

let test_f_m_bounds_vs_paper () =
  List.iter
    (fun (id, f_expected, m_expected, tol) ->
      let body = Program.body (compile id).program in
      let f = Macs.Macs_bound.f_only ~machine body in
      let m = Macs.Macs_bound.m_only ~machine body in
      Alcotest.(check (float tol)) (Printf.sprintf "lfk%d f" id) f_expected
        f.cpl;
      Alcotest.(check (float tol)) (Printf.sprintf "lfk%d m" id) m_expected
        m.cpl)
    [
      (1, 3.04, 4.16, 0.03);
      (7, 9.13, 10.37, 0.03);
      (8, 21.28, 21.85, 0.03);
      (12, 1.01, 3.12, 0.01);
    ]

let test_refresh_rule () =
  (* fewer than four successive memory chimes: no refresh penalty *)
  let no_refresh_body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Vbin { op = Add; dst = v 1; src1 = Vr (v 0); src2 = Vr (v 0) };
      Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 1); src2 = Vr (v 1) };
      Instr.Vbin { op = Add; dst = v 3; src1 = Vr (v 2); src2 = Vr (v 2) };
      Instr.Vbin { op = Add; dst = v 0; src1 = Vr (v 3); src2 = Vr (v 3) };
    ]
  in
  let r = Macs.Macs_bound.compute ~machine no_refresh_body in
  Alcotest.(check bool) "no refresh chime" true
    (List.for_all (fun (cc : Macs.Macs_bound.chime_cost) -> not cc.refresh)
       r.chimes);
  (* a loop that is all memory chimes wraps around: refresh applies *)
  let saturated = [ Instr.Vld { dst = v 0; src = mem "A" 0 1 } ] in
  let r2 = Macs.Macs_bound.compute ~machine saturated in
  Alcotest.(check bool) "saturated refresh" true
    (List.for_all (fun (cc : Macs.Macs_bound.chime_cost) -> cc.refresh)
       r2.chimes)

let test_division_masked_in_memory_chime () =
  (* a divide chained into a memory chime with no other multiply-pipe work
     is masked: chime costs VL + sum B *)
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Vbin { op = Div; dst = v 1; src1 = Vr (v 0); src2 = Vr (v 2) };
    ]
  in
  let r = Macs.Macs_bound.compute ~machine body in
  let cc = List.hd r.chimes in
  Alcotest.(check (float 0.001)) "VL + B_ld + B_div" (128.0 +. 2.0 +. 21.0)
    cc.Macs.Macs_bound.cycles

let test_division_exposed_on_conflict () =
  (* with another multiply in the loop, the divide's drain is exposed *)
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Vbin { op = Div; dst = v 1; src1 = Vr (v 0); src2 = Vr (v 2) };
      Instr.Vbin { op = Mul; dst = v 3; src1 = Vr (v 1); src2 = Vr (v 2) };
    ]
  in
  let r = Macs.Macs_bound.compute ~machine body in
  let first = List.hd r.chimes in
  Alcotest.(check bool) "z=4 exposed" true
    (first.Macs.Macs_bound.cycles > 4.0 *. 127.0)

let test_reduction_only_chime_contributes_excess () =
  (* a sum in its own chime contributes (Z-1)*VL, its base hidden *)
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Vld { dst = v 1; src = mem "B" 0 1 };
      Instr.Vsum { dst = s 6; src = v 6 };
    ]
  in
  (* vsum reads v6; the second chime [vld v1] cannot take it? it can:
     different pipes, different pairs.  Force isolation via pair conflict:
     read v1 pair twice already... simpler: make the sum the only
     instruction by using a body of just a sum after a store *)
  ignore body;
  let body2 =
    [
      Instr.Vst { src = v 0; dst = mem "A" 0 1 };
      Instr.Vst { src = v 1; dst = mem "B" 0 1 };
      Instr.Vsum { dst = s 6; src = v 0 };
      Instr.Vsum { dst = s 5; src = v 1 };
    ]
  in
  let r = Macs.Macs_bound.compute ~machine body2 in
  (* chimes: [st, sum], [st, sum]? both sums are on the add pipe so the
     second sum opens a chime of its own *)
  let masked =
    List.filter (fun (cc : Macs.Macs_bound.chime_cost) -> cc.masked) r.chimes
  in
  Alcotest.(check int) "one drain chime" 1 (List.length masked);
  Alcotest.(check (float 0.001)) "excess only" (0.35 *. 128.0)
    (List.hd masked).Macs.Macs_bound.cycles

let test_bound_empty_for_scalar_body () =
  let r = Macs.Macs_bound.compute ~machine [ Instr.Smovvl; Instr.Sbranch ] in
  Alcotest.(check (float 1e-9)) "zero" 0.0 r.cycles

(* ---- A/X transforms ---- *)

let test_ax_strips () =
  let c = compile 1 in
  let a = Macs.Ax.a_process c.job and x = Macs.Ax.x_process c.job in
  Alcotest.(check bool) "A has no FP" true
    (List.for_all (fun i -> not (Instr.is_vector_fp i)) a.Convex_vpsim.Job.body);
  Alcotest.(check bool) "X has no vector memory" true
    (List.for_all
       (fun i -> not (Instr.is_vector_memory i))
       x.Convex_vpsim.Job.body);
  (* control flow preserved: scalar instructions kept *)
  let scalars j =
    List.length (List.filter Instr.is_scalar j.Convex_vpsim.Job.body)
  in
  Alcotest.(check int) "A scalars" (scalars c.job) (scalars a);
  Alcotest.(check int) "X scalars" (scalars c.job) (scalars x)

let test_ax_names () =
  let c = compile 1 in
  Alcotest.(check bool) "a suffix" true
    (String.length (Macs.Ax.a_process c.job).Convex_vpsim.Job.name > 0)

let test_prime_registers () =
  let c = compile 1 in
  let primes = Macs.Ax.prime_registers (Macs.Ax.x_process c.job) in
  List.iter
    (fun (_, value) ->
      Alcotest.(check bool) "large nonzero" true (value >= 1000.0))
    primes

(* ---- Hierarchy ---- *)

let test_hierarchy_lfk1 () =
  let h = analyze 1 in
  Alcotest.(check (float 1e-9)) "t_MA" 3.0 h.t_ma;
  Alcotest.(check (float 1e-9)) "t_MAC" 4.0 h.t_mac;
  Alcotest.(check (float 0.005)) "t_MACS" 4.20 h.t_macs.Macs.Macs_bound.cpl;
  Alcotest.(check (float 0.001)) "CPF conversion" 0.84
    (Macs.Hierarchy.t_macs_cpf h);
  Alcotest.(check bool) "measured above bound" true
    (h.t_p.Convex_vpsim.Measure.cpl >= h.t_macs.Macs.Macs_bound.cpl -. 0.01)

let test_hierarchy_ordering_all_kernels () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let h = Macs.Hierarchy.analyze k in
      Alcotest.(check bool) (k.name ^ " MA<=MAC") true (h.t_ma <= h.t_mac +. 1e-9);
      Alcotest.(check bool) (k.name ^ " MAC<=MACS") true
        (h.t_mac <= h.t_macs.Macs.Macs_bound.cpl +. 1e-9);
      Alcotest.(check bool) (k.name ^ " MACS<=t_p") true
        (h.t_macs.Macs.Macs_bound.cpl
        <= h.t_p.Convex_vpsim.Measure.cpl +. 0.01))
    Lfk.Kernels.all

let test_eq18_all_kernels () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let h = Macs.Hierarchy.analyze k in
      Alcotest.(check bool) (k.name ^ " eq18") true (Macs.Hierarchy.eq18_holds h))
    Lfk.Kernels.all

let test_pct_accessors () =
  let h = analyze 1 in
  Alcotest.(check bool) "pct_ma < pct_mac" true
    (Macs.Hierarchy.pct_ma h < Macs.Hierarchy.pct_mac h);
  Alcotest.(check bool) "pct_macs <= 1" true (Macs.Hierarchy.pct_macs h <= 1.01)

let test_pp_summary_smoke () =
  let h = analyze 1 in
  let text = Format.asprintf "%a" Macs.Hierarchy.pp_summary h in
  List.iter
    (fun needle ->
      let nl = String.length needle and hl = String.length text in
      let rec go i =
        i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
      in
      Alcotest.(check bool) needle true (go 0))
    [ "lfk1"; "MACS"; "t_p"; "t_a"; "t_x" ]

(* ---- Layout ---- *)

(* The oracle: the layout as derived from filled data, by building the
   store the interpreter runs over (kernel data plus the SCAL pool),
   placing every distinct array by its length, and binding names that
   share an array as aliases of the first. *)
let store_derived_layout (c : Fcc.Compiler.t) =
  let module Store = Convex_vpsim.Store in
  let data = Lfk.Data.store_of c.kernel in
  let pool =
    if c.spilled_scalars = [] then []
    else [ ("SCAL", Array.make (List.length c.spilled_scalars) 0.0) ]
  in
  let store =
    Store.create
      (List.map (fun name -> (name, Store.get data name)) (Store.arrays data)
      @ pool)
  in
  let entries, aliases =
    List.fold_left
      (fun (entries, aliases) name ->
        let arr = Store.get store name in
        match List.find_opt (fun (_, arr') -> arr' == arr) entries with
        | Some (target, _) -> (entries, (name, target) :: aliases)
        | None -> ((name, arr) :: entries, aliases))
      ([], []) (Store.arrays store)
  in
  let layout =
    Convex_memsys.Layout.build
      (List.rev_map (fun (name, arr) -> (name, Array.length arr)) entries)
  in
  List.iter
    (fun (name, target) ->
      Convex_memsys.Layout.alias layout ~existing:target name)
    aliases;
  (layout, Store.arrays store)

(* [None] when [Hierarchy.layout_of] matches the oracle: same placement
   order, and the same base and size for every array and alias *)
let layout_mismatch (c : Fcc.Compiler.t) =
  let module Layout = Convex_memsys.Layout in
  let want, names = store_derived_layout c in
  let got = Macs.Hierarchy.layout_of c in
  if Layout.arrays got <> Layout.arrays want then
    Some
      (Printf.sprintf "order [%s] vs [%s]"
         (String.concat " " (Layout.arrays got))
         (String.concat " " (Layout.arrays want)))
  else
    List.find_map
      (fun name ->
        let place l = (Layout.base_of l name, Layout.size_of l name) in
        match place got with
        | exception Not_found -> Some (name ^ " not placed")
        | p when p <> place want -> Some (name ^ " placed differently")
        | _ -> None)
      names

let opt_levels = Fcc.Opt_level.all

let test_layout_matches_store_derivation () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      List.iter
        (fun opt ->
          let c = Fcc.Compiler.compile ~opt k in
          match layout_mismatch c with
          | None -> ()
          | Some d ->
              Alcotest.failf "%s at %s: %s" k.name (Fcc.Opt_level.name opt) d)
        opt_levels)
    (Macs_report.Suite.kernels ())

let prop_layout_matches_store_derivation =
  QCheck.Test.make ~count:150
    ~name:"layout_of = store-derived layout on random kernels"
    Convex_fuzz.Gen.kernel_arbitrary (fun k ->
      List.for_all
        (fun opt ->
          match layout_mismatch (Fcc.Compiler.compile ~opt k) with
          | None -> true
          | Some d -> QCheck.Test.fail_reportf "%s: %s" (Fcc.Opt_level.name opt) d)
        opt_levels)

(* The run contract: a compiled job simulated with no layout argument
   runs over exactly the placement Hierarchy.layout_of describes, so a
   front end that passes nothing measures what the suite measures. *)
let test_job_carries_its_layout () =
  let banks16 =
    Result.get_ok
      (Convex_dsl.Machine_dsl.of_name_or_spec "c240;banks=16;busy=12")
  in
  List.iter
    (fun machine ->
      List.iter
        (fun (k : Lfk.Kernel.t) ->
          List.iter
            (fun opt ->
              let c = Fcc.Compiler.compile ~opt k in
              let run ?layout () =
                Convex_vpsim.Sim.run_exn ~machine ?layout ~trace:true c.job
              in
              let own = run ()
              and explicit = run ~layout:(Macs.Hierarchy.layout_of c) () in
              let what =
                Printf.sprintf "%s at %s on %s" k.name
                  (Fcc.Opt_level.name opt) machine.Machine.name
              in
              Alcotest.(check bool) (what ^ ": stats") true
                (own.stats = explicit.stats);
              Alcotest.(check bool) (what ^ ": events") true
                (own.events = explicit.events))
            Fcc.Opt_level.[ v61; packed ])
        (Macs_report.Suite.kernels ()))
    [ Machine.c240; banks16 ]

let test_diagnose_names_and_descriptions () =
  (* every issue constructor has a distinct name and a nonempty story *)
  let issues =
    [
      Macs.Diagnose.Compiler_inserted_ops { extra_memory_ops = 1 };
      Macs.Diagnose.Schedule_effects { macs_over_mac = 1.1 };
      Macs.Diagnose.Chime_splitting { split_chimes = 2 };
      Macs.Diagnose.Short_vector_startup { average_vl = 16.0 };
      Macs.Diagnose.Outer_loop_overhead;
      Macs.Diagnose.Reduction_serialization;
      Macs.Diagnose.Poor_overlap { overlap_excess = 0.5 };
      Macs.Diagnose.Access_bound;
      Macs.Diagnose.Execute_bound;
      Macs.Diagnose.Well_modeled { macs_coverage = 0.98 };
    ]
  in
  let names = List.map Macs.Diagnose.issue_name issues in
  Alcotest.(check int) "distinct names" (List.length issues)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun i ->
      Alcotest.(check bool) "described" true
        (String.length (Macs.Diagnose.describe i) > 10))
    issues

(* ---- Diagnose ---- *)

let issue_names h =
  List.map Macs.Diagnose.issue_name (Macs.Diagnose.diagnose h)

let test_diagnose_lfk1_compiler_gap () =
  Alcotest.(check bool) "lfk1 compiler-inserted" true
    (List.mem "compiler-inserted operations" (issue_names (analyze 1)))

let test_diagnose_lfk8_splitting () =
  Alcotest.(check bool) "lfk8 chime splitting" true
    (List.mem "chime splitting by scalar memory" (issue_names (analyze 8)))

let test_diagnose_lfk6_short_vectors () =
  let names = issue_names (analyze 6) in
  Alcotest.(check bool) "lfk6 short vectors" true
    (List.mem "short-vector start-up" names);
  Alcotest.(check bool) "lfk6 reduction" true
    (List.mem "reduction serialization" names)

let test_diagnose_lfk10_well_modeled_or_access () =
  (* lfk10 is within 2% of its bound: nothing dramatic to report beyond
     memory dominance *)
  let names = issue_names (analyze 10) in
  Alcotest.(check bool) "no unmodeled flags" true
    (not (List.mem "short-vector start-up" names))

let test_diagnose_nonempty_and_report () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let h = Macs.Hierarchy.analyze k in
      Alcotest.(check bool) (k.name ^ " nonempty") true
        (Macs.Diagnose.diagnose h <> []);
      Alcotest.(check bool) (k.name ^ " report mentions name") true
        (String.length (Macs.Diagnose.report h) > String.length k.name))
    Lfk.Kernels.all

(* ---- qcheck properties ---- *)

let prop_partition_covers =
  QCheck.Test.make ~count:300 ~name:"chime partition covers vector instrs"
    Convex_fuzz.Gen.body_arbitrary (fun body ->
      let chimes = Macs.Chime.partition ~machine body in
      let flattened = List.concat_map (fun c -> c.Macs.Chime.instrs) chimes in
      List.equal Instr.equal flattened (List.filter Instr.is_vector body))

let prop_partition_legal =
  QCheck.Test.make ~count:300 ~name:"every chime respects pipe/pair limits"
    Convex_fuzz.Gen.body_arbitrary (fun body ->
      let chimes = Macs.Chime.partition ~machine body in
      List.for_all
        (fun c ->
          let instrs = c.Macs.Chime.instrs in
          let per_pipe p =
            List.length
              (List.filter (fun i -> Pipe.of_instr i = Some p) instrs)
          in
          let pair_ok pid =
            let count f =
              List.fold_left
                (fun acc i ->
                  acc
                  + List.length
                      (List.filter (fun r -> Reg.pair_id r = pid) (f i)))
                0 instrs
            in
            count Instr.reads_v <= 2 && count Instr.writes_v <= 1
          in
          List.for_all (fun p -> per_pipe p <= 1) Pipe.all
          && List.for_all pair_ok [ 0; 1; 2; 3 ])
        chimes)

let prop_bound_positive_when_vector =
  QCheck.Test.make ~count:300 ~name:"bound positive iff vector work"
    Convex_fuzz.Gen.body_arbitrary (fun body ->
      let r = Macs.Macs_bound.compute ~machine body in
      let has_vector = List.exists Instr.is_vector body in
      if has_vector then r.cycles > 0.0 else r.cycles = 0.0)

let prop_macs_at_least_mac =
  QCheck.Test.make ~count:200 ~name:"MACS >= MAC on compiled kernels"
    Convex_fuzz.Gen.kernel_arbitrary (fun k ->
      let c = Fcc.Compiler.compile k in
      let body = Program.body c.Fcc.Compiler.program in
      let mac = Macs.Counts.t_bound (Macs.Counts.mac_of_instrs body) in
      let r = Macs.Macs_bound.compute ~machine body in
      r.cpl >= float_of_int mac -. 1e-9)

let prop_sim_at_least_mac_bound =
  (* The MAC bound (pipe occupancy) is a true lower bound on any schedule,
     so the simulator can never beat it.  The MACS bound is a model of a
     SPECIFIC serialization; on adversarial random codes a pipelined
     machine overlaps successive chimes across iterations and can run
     slightly below it, so it is checked exactly only on the LFK set (see
     the integration suite). *)
  QCheck.Test.make ~count:120
    ~name:"simulated steady state >= MAC bound"
    Convex_fuzz.Gen.kernel_arbitrary (fun k ->
      (* long single segment so start-up amortizes *)
      let k = { k with Lfk.Kernel.segments = [ { base = 0; length = 448; shifts = [] } ] } in
      let c = Fcc.Compiler.compile k in
      let body = Program.body c.Fcc.Compiler.program in
      let mac =
        float_of_int (Macs.Counts.t_bound (Macs.Counts.mac_of_instrs body))
      in
      let m =
        Convex_vpsim.Measure.run_exn ~machine ~flops_per_iteration:1 c.job
      in
      m.Convex_vpsim.Measure.cpl >= mac *. 0.999)

let prop_ax_partition_of_vector_work =
  QCheck.Test.make ~count:200 ~name:"A and X split the vector instructions"
    Convex_fuzz.Gen.kernel_arbitrary (fun k ->
      let c = Fcc.Compiler.compile k in
      let count_vec j =
        List.length
          (List.filter Instr.is_vector j.Convex_vpsim.Job.body)
      in
      let total = count_vec c.job in
      let a = count_vec (Macs.Ax.a_process c.job) in
      let x = count_vec (Macs.Ax.x_process c.job) in
      a + x = total)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_partition_covers; prop_partition_legal;
      prop_bound_positive_when_vector; prop_macs_at_least_mac;
      prop_sim_at_least_mac_bound; prop_ax_partition_of_vector_work;
      prop_layout_matches_store_derivation;
    ]

let () =
  Alcotest.run "macs"
    [
      ( "counts",
        [
          Alcotest.test_case "bound formulas" `Quick test_counts_bounds;
          Alcotest.test_case "lfk1" `Quick test_counts_of_lfk1;
        ] );
      ( "units",
        [
          Alcotest.test_case "conversions" `Quick test_units;
          Alcotest.test_case "guards" `Quick test_units_guards;
          Alcotest.test_case "harmonic mean mflops" `Quick test_hmean;
        ] );
      ( "chime",
        [
          Alcotest.test_case "lfk1 partition" `Quick test_lfk1_partition;
          Alcotest.test_case "covers in order" `Quick
            test_partition_covers_in_order;
          Alcotest.test_case "one memory op" `Quick
            test_one_memory_op_per_chime;
          Alcotest.test_case "pair write limit" `Quick test_pair_limit_splits;
          Alcotest.test_case "pair read limit" `Quick
            test_pair_read_limit_splits;
          Alcotest.test_case "legal sharing" `Quick test_legal_pair_sharing;
          Alcotest.test_case "scalar memory splits" `Quick
            test_scalar_memory_splits_chime;
          Alcotest.test_case "scalar memory bars loads" `Quick
            test_scalar_memory_bars_following_load;
          Alcotest.test_case "scalar alu transparent" `Quick
            test_scalar_alu_transparent;
          Alcotest.test_case "dual lsu" `Quick test_dual_lsu_allows_two_loads;
        ] );
      ( "macs-bound",
        [
          Alcotest.test_case "lfk1 537.54 cycles" `Quick test_lfk1_macs_cycles;
          Alcotest.test_case "lfk1 chime costs" `Quick test_lfk1_chime_costs;
          Alcotest.test_case "bounds vs paper" `Quick test_macs_bounds_vs_paper;
          Alcotest.test_case "f/m bounds vs paper" `Quick
            test_f_m_bounds_vs_paper;
          Alcotest.test_case "refresh rule" `Quick test_refresh_rule;
          Alcotest.test_case "division masked" `Quick
            test_division_masked_in_memory_chime;
          Alcotest.test_case "division exposed" `Quick
            test_division_exposed_on_conflict;
          Alcotest.test_case "reduction drain chime" `Quick
            test_reduction_only_chime_contributes_excess;
          Alcotest.test_case "scalar-only body" `Quick
            test_bound_empty_for_scalar_body;
        ] );
      ( "ax",
        [
          Alcotest.test_case "strips the right ops" `Quick test_ax_strips;
          Alcotest.test_case "names" `Quick test_ax_names;
          Alcotest.test_case "register priming" `Quick test_prime_registers;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "lfk1 values" `Quick test_hierarchy_lfk1;
          Alcotest.test_case "ordering all kernels" `Quick
            test_hierarchy_ordering_all_kernels;
          Alcotest.test_case "eq 18 all kernels" `Quick test_eq18_all_kernels;
          Alcotest.test_case "pct accessors" `Quick test_pct_accessors;
          Alcotest.test_case "pp_summary" `Quick test_pp_summary_smoke;
          Alcotest.test_case "layout = store-derived layout" `Quick
            test_layout_matches_store_derivation;
          Alcotest.test_case "job carries its layout" `Quick
            test_job_carries_its_layout;
        ] );
      ( "diagnose",
        [
          Alcotest.test_case "lfk1 compiler gap" `Quick
            test_diagnose_lfk1_compiler_gap;
          Alcotest.test_case "lfk8 splitting" `Quick
            test_diagnose_lfk8_splitting;
          Alcotest.test_case "lfk6 short vectors" `Quick
            test_diagnose_lfk6_short_vectors;
          Alcotest.test_case "lfk10 clean" `Quick
            test_diagnose_lfk10_well_modeled_or_access;
          Alcotest.test_case "nonempty reports" `Quick
            test_diagnose_nonempty_and_report;
          Alcotest.test_case "names and descriptions" `Quick
            test_diagnose_names_and_descriptions;
        ] );
      ("properties", qcheck_tests);
    ]
