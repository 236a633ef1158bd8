open Convex_isa
open Convex_machine
open Macs_util

let f2 x = Table.cell_float ~decimals:2 x
let f3 x = Table.cell_float ~decimals:3 x

let class_label = function
  | Instr.Cld -> "vector load"
  | Instr.Cst -> "vector store"
  | Instr.Cadd -> "vector add"
  | Instr.Csub -> "vector subtract"
  | Instr.Cmul -> "vector multiply"
  | Instr.Cdiv -> "vector divide"
  | Instr.Csqrt -> "vector square root"
  | Instr.Ccmp -> "vector compare"
  | Instr.Cmerge -> "vector merge"
  | Instr.Csum -> "vector reduction"
  | Instr.Cneg -> "vector negation"

let table1 () =
  let t =
    Table.create
      ~header:
        [ "instruction"; "X"; "Y"; "Z"; "B";
          "fit X+Y"; "fit Z"; "fit B" ]
      ()
  in
  List.iter
    (fun cls ->
      let p = Timing.get Machine.c240.timing cls in
      let fit = Convex_vpsim.Calibrate.fit_class cls in
      Table.add_row t
        [
          class_label cls;
          Table.cell_int p.x;
          Table.cell_int p.y;
          f2 p.z;
          Table.cell_int p.b;
          f2 fit.startup;
          f2 fit.z;
          f2 fit.b;
        ])
    Instr.all_vclasses;
  "Table 1: vector instruction execution times (spec vs calibration fit, \
   VL = 128)\n" ^ Table.render t

let dash_if_equal a b = if a = b then "-" else Table.cell_int b

let table2 (ds : Dataset.t) =
  let t =
    Table.create
      ~header:
        [ "LFK"; "f_a"; "f_m"; "l"; "s"; "f_a'"; "f_m'"; "l'"; "s'";
          "scalar mem" ]
      ()
  in
  List.iter
    (fun (h : Macs.Hierarchy.t) ->
      let ma = h.ma and mac = h.mac in
      let scalar_mem =
        Program.count Instr.is_scalar_memory h.compiled.Fcc.Compiler.program
      in
      Table.add_row t
        [
          Table.cell_int h.kernel.id;
          Table.cell_int ma.Macs.Counts.f_a;
          Table.cell_int ma.f_m;
          Table.cell_int ma.loads;
          Table.cell_int ma.stores;
          dash_if_equal ma.f_a mac.Macs.Counts.f_a;
          dash_if_equal ma.f_m mac.f_m;
          dash_if_equal ma.loads mac.loads;
          dash_if_equal ma.stores mac.stores;
          Table.cell_int scalar_mem;
        ])
    ds.rows;
  "Table 2: LFK workload (MA counts; MAC counts where they differ)\n"
  ^ Table.render t

let table3 (ds : Dataset.t) =
  let t =
    Table.create
      ~header:
        [ "LFK"; "t_f"; "t_f'"; "t^f"; "t^f ppr"; "t_m"; "t_m'"; "t^m";
          "t^m ppr"; "t_MA"; "t_MAC"; "t_MACS"; "MACS ppr" ]
      ()
  in
  List.iter
    (fun (h : Macs.Hierarchy.t) ->
      let p = Paper.row h.kernel.id in
      Table.add_row t
        [
          Table.cell_int h.kernel.id;
          Table.cell_int (Macs.Counts.t_f h.ma);
          Table.cell_int (Macs.Counts.t_f h.mac);
          f2 h.t_macs_f.Macs.Macs_bound.cpl;
          f2 p.t_macs_f;
          Table.cell_int (Macs.Counts.t_m h.ma);
          Table.cell_int (Macs.Counts.t_m h.mac);
          f2 h.t_macs_m.Macs.Macs_bound.cpl;
          f2 p.t_macs_m;
          f2 h.t_ma;
          f2 h.t_mac;
          f2 h.t_macs.Macs.Macs_bound.cpl;
          f2 p.t_macs_cpl;
        ])
    ds.rows;
  "Table 3: performance bounds in CPL (ppr = paper value)\n" ^ Table.render t

let table4 (ds : Dataset.t) =
  let t =
    Table.create
      ~header:
        [ "LFK"; "t_MA"; "t_MAC"; "t_MACS"; "t_p"; "%MA"; "%MAC"; "%MACS";
          "paper t_MACS"; "paper t_p" ]
      ()
  in
  List.iter
    (fun (h : Macs.Hierarchy.t) ->
      let p = Paper.row h.kernel.id in
      Table.add_row t
        [
          Table.cell_int h.kernel.id;
          f3 (Macs.Hierarchy.t_ma_cpf h);
          f3 (Macs.Hierarchy.t_mac_cpf h);
          f3 (Macs.Hierarchy.t_macs_cpf h);
          f3 (Macs.Hierarchy.t_p_cpf h);
          Table.cell_pct (Macs.Hierarchy.pct_ma h);
          Table.cell_pct (Macs.Hierarchy.pct_mac h);
          Table.cell_pct (Macs.Hierarchy.pct_macs h);
          f3 p.t_macs_cpf;
          f3 p.t_p_cpf;
        ])
    ds.rows;
  Table.add_separator t;
  let ma, mac, macs, p = Dataset.cpf_columns ds in
  let avg xs = Stats.mean xs in
  let pma, pmac, pmacs, pp = Paper.avg_cpf in
  Table.add_row t
    [ "AVG"; f3 (avg ma); f3 (avg mac); f3 (avg macs); f3 (avg p); "";
      ""; ""; f3 pmacs; f3 pp ];
  let mf xs =
    Macs.Units.hmean_mflops ~clock_mhz:ds.machine.Machine.clock_mhz
      ~cpf_values:xs
  in
  let mf_ma, mf_mac, mf_macs, mf_p = Paper.hmean_mflops in
  ignore (pma, pmac, mf_ma, mf_mac);
  Table.add_row t
    [ "MFLOPS"; f2 (mf ma); f2 (mf mac); f2 (mf macs); f2 (mf p); ""; "";
      ""; f2 mf_macs; f2 mf_p ];
  "Table 4: comparison of bounds with measured performance (CPF)\n"
  ^ Table.render t

let table5 (ds : Dataset.t) =
  let t =
    Table.create
      ~header:
        [ "LFK"; "t_p"; "t_MACS"; "t_x"; "t^f"; "t_a"; "t^m";
          "paper t_x"; "paper t_a" ]
      ()
  in
  List.iter
    (fun (h : Macs.Hierarchy.t) ->
      let p = Paper.row h.kernel.id in
      let px, pa =
        match p.ax with
        | Some (x, a) -> (f2 x, f2 a)
        | None -> ("n/a", "n/a")
      in
      Table.add_row t
        [
          Table.cell_int h.kernel.id;
          f2 h.t_p.Convex_vpsim.Measure.cpl;
          f2 h.t_macs.Macs.Macs_bound.cpl;
          f2 h.t_x.Convex_vpsim.Measure.cpl;
          f2 h.t_macs_f.Macs.Macs_bound.cpl;
          f2 h.t_a.Convex_vpsim.Measure.cpl;
          f2 h.t_macs_m.Macs.Macs_bound.cpl;
          px;
          pa;
        ])
    ds.rows;
  "Table 5: MACS bounds and A/X measurements (CPL)\n" ^ Table.render t

let lfk1_example () =
  let machine = Machine.c240 in
  let c = Fcc.Compiler.compile (Lfk.Kernels.find 1) in
  let body = Program.body c.program in
  let bound = Macs.Macs_bound.compute ~machine body in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "LFK1 worked example (paper section 3.5)\n\n";
  Buffer.add_string buf (Fcc.Compiler.listing c);
  Buffer.add_string buf "\nchime partition and per-chime cycles:\n";
  let paper_bounds = Paper.lfk1_chime_bounds in
  let paper_cals = Paper.lfk1_chime_calibrations in
  List.iteri
    (fun i (cc : Macs.Macs_bound.chime_cost) ->
      let cal = Convex_vpsim.Calibrate.chime_cycles cc.chime.Macs.Chime.instrs in
      let pb = try List.nth paper_bounds i with _ -> nan in
      let pc = try List.nth paper_cals i with _ -> nan in
      Buffer.add_string buf
        (Printf.sprintf
           "  chime %d: %d instrs, bound %.1f (paper %.1f), calibration \
            loop %.2f (paper %.2f)\n"
           (i + 1)
           (Macs.Chime.instr_count cc.chime)
           cc.cycles pb cal pc))
    bound.Macs.Macs_bound.chimes;
  let chime_sum =
    List.fold_left
      (fun acc (cc : Macs.Macs_bound.chime_cost) -> acc +. cc.cycles)
      0.0 bound.Macs.Macs_bound.chimes
  in
  let h = Macs.Hierarchy.of_compiled c in
  Buffer.add_string buf
    (Printf.sprintf
       "\nchime sum %.1f (paper %.1f); with refresh t_MACS = %.2f cycles \
        (paper %.2f) = %.3f CPL\nmeasured (steady) %.2f cycles per 128 \
        iterations (paper %.2f)\n"
       chime_sum Paper.lfk1_chime_sum bound.Macs.Macs_bound.cycles
       Paper.lfk1_macs_cycles bound.Macs.Macs_bound.cpl
       (h.t_p.Convex_vpsim.Measure.cpl *. 128.0)
       Paper.lfk1_measured_cycles);
  Buffer.contents buf

let diagnosis (ds : Dataset.t) =
  String.concat "\n" (List.map Macs.Diagnose.report ds.rows)

let ablation_compiler () =
  let t =
    Table.create
      ~header:
        [ "LFK"; "v61 MACS"; "v61 t_p"; "ideal MACS"; "ideal t_p";
          "loads-first MACS"; "loads-first t_p"; "packed MACS";
          "packed t_p" ]
      ()
  in
  let analyze opt k = Macs.Hierarchy.analyze ~opt k in
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let v61 = analyze Fcc.Opt_level.v61 k in
      let ideal = analyze Fcc.Opt_level.ideal k in
      let lf = analyze Fcc.Opt_level.loads_first k in
      let pk = analyze Fcc.Opt_level.packed k in
      let macs (h : Macs.Hierarchy.t) = f3 (Macs.Hierarchy.t_macs_cpf h) in
      let tp (h : Macs.Hierarchy.t) = f3 (Macs.Hierarchy.t_p_cpf h) in
      Table.add_row t
        [ Table.cell_int k.id; macs v61; tp v61; macs ideal; tp ideal;
          macs lf; tp lf; macs pk; tp pk ])
    Lfk.Kernels.all;
  "Ablation: compiler optimization levels (CPF; ideal reuse approaches \
   the MA bound, loads-first scheduling degrades chime packing, the \
   packed list scheduler improves it)\n"
  ^ Table.render t

let ablation_machine () =
  let variants =
    [
      ("baseline", Machine.c240);
      ("B=0", Machine.no_bubbles Machine.c240);
      ("no refresh", Machine.no_refresh Machine.c240);
      ("dual LSU", Machine.dual_load_store Machine.c240);
    ]
  in
  let t =
    Table.create
      ~header:("LFK" :: List.map (fun (n, _) -> n ^ " t_p") variants)
      ()
  in
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let cells =
        List.map
          (fun (_, m) ->
            let h = Macs.Hierarchy.analyze ~machine:m k in
            f3 (Macs.Hierarchy.t_p_cpf h))
          variants
      in
      Table.add_row t (Table.cell_int k.id :: cells))
    Lfk.Kernels.all;
  "Ablation: machine variants (measured CPF)\n" ^ Table.render t

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's tables                                *)
(* ------------------------------------------------------------------ *)

let scalar_mode () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Scalar mode (extension): the two non-vectorizable kernels of the \
     paper's benchmark range\n\n";
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      let bound = Macs.Scalar_bound.of_compiled c in
      let m =
        Convex_vpsim.Measure.run_exn ~flops_per_iteration:c.flops_per_iteration
          c.job
      in
      Buffer.add_string buf
        (Format.asprintf "%s: %a@.  %a@.  measured %a (bound explains %.0f%%)@.@."
           k.name Fcc.Vectorizer.pp_verdict c.verdict Macs.Scalar_bound.pp
           bound Convex_vpsim.Measure.pp m
           (100.0 *. bound.Macs.Scalar_bound.cpl /. m.Convex_vpsim.Measure.cpl)))
    Lfk.Kernels.scalar_kernels;
  Buffer.add_string buf
    "vectorization speedup (same kernel forced into scalar mode):\n";
  List.iter
    (fun id ->
      let k = Lfk.Kernels.find id in
      let v = Fcc.Compiler.compile k in
      let sc = Fcc.Compiler.compile ~force_scalar:true k in
      let mv =
        Convex_vpsim.Measure.run_exn ~flops_per_iteration:v.flops_per_iteration
          v.job
      in
      let ms =
        Convex_vpsim.Measure.run_exn ~flops_per_iteration:sc.flops_per_iteration
          sc.job
      in
      Buffer.add_string buf
        (Printf.sprintf "  lfk%-2d %5.1fx (scalar %6.2f CPF -> vector %5.2f CPF)\n"
           id
           (ms.Convex_vpsim.Measure.cpl /. mv.Convex_vpsim.Measure.cpl)
           ms.Convex_vpsim.Measure.cpf mv.Convex_vpsim.Measure.cpf))
    [ 1; 3; 12 ];
  Buffer.contents buf

let parallel_mode () =
  let cl id =
    let c = Fcc.Compiler.compile (Lfk.Kernels.find id) in
    (c.Fcc.Compiler.job, c.Fcc.Compiler.kernel.Lfk.Kernel.name)
  in
  let lockstep = Convex_vpsim.Cosim.run_exn [ cl 1; cl 1; cl 1; cl 1 ] in
  let different = Convex_vpsim.Cosim.run_exn [ cl 1; cl 7; cl 9; cl 10 ] in
  let band (r : Convex_vpsim.Cosim.t) =
    Printf.sprintf "%+.0f%%" (100.0 *. (r.average_slowdown -. 1.0))
  in
  Format.asprintf
    "Parallel vector mode (extension): four CPUs sharing the memory \
     system@.bank co-simulation: solo access streams replayed against \
     shared banks@.@.%a@.@.%a@.@.\
     same executable in lockstep (4x LFK1): %s (paper section 4.2: \
     5-10%%)@.\
     four different programs (LFK 1,7,9,10): %s (paper section 4.2: \
     ~20%%)@.@.\
     Bank capacity alone (4 ports vs 32 banks / 8-cycle busy = 4 \
     accesses/cycle aggregate) derives about the same slowdown in both \
     cases.  Nothing is fitted to the paper's bands: the different-program \
     miss suggests its larger penalty included crossbar arbitration and OS \
     effects beyond pure bank conflicts.@."
    Convex_vpsim.Cosim.pp lockstep Convex_vpsim.Cosim.pp different
    (band lockstep) (band different)

let stride_sweep () =
  let machine =
    Convex_machine.Machine.no_refresh Convex_machine.Machine.c240
  in
  let t =
    Table.create ~header:[ "stride"; "model rate"; "simulated rate" ] ()
  in
  List.iter
    (fun stride ->
      let body =
        [
          Convex_isa.Instr.Vld
            {
              dst = Convex_isa.Reg.v 0;
              src = { array = "A"; offset = 0; stride };
            };
        ]
      in
      let job =
        Convex_vpsim.Job.make ~name:"sweep" ~body
          ~segments:[ Convex_vpsim.Job.segment 1024 ]
          ()
      in
      let r =
        Convex_vpsim.Sim.run_exn ~machine
          ~layout:(Convex_memsys.Layout.build [ ("A", 40000) ])
          job
      in
      let sim_rate =
        float_of_int r.Convex_vpsim.Sim.stats.mem_accesses
        /. r.Convex_vpsim.Sim.stats.cycles
      in
      Table.add_row t
        [
          Table.cell_int stride;
          f3 (Macs.Dbound.stream_rate ~machine ~stride);
          f3 sim_rate;
        ])
    [ 1; 2; 3; 4; 5; 7; 8; 16; 32 ];
  (* a stride-32 kernel: the MAC bound misses the bank throttling the
     MACD bound captures *)
  let body =
    [
      Convex_isa.Instr.Vld
        { dst = Convex_isa.Reg.v 0; src = { array = "A"; offset = 0; stride = 32 } };
      Convex_isa.Instr.Vbin
        {
          op = Convex_isa.Instr.Add;
          dst = Convex_isa.Reg.v 1;
          src1 = Vr (Convex_isa.Reg.v 0);
          src2 = Sr (Convex_isa.Reg.s 0);
        };
      Convex_isa.Instr.Vst
        { src = Convex_isa.Reg.v 1; dst = { array = "B"; offset = 0; stride = 1 } };
    ]
  in
  let d = Macs.Dbound.compute ~machine body in
  let job =
    Convex_vpsim.Job.make ~name:"stride32" ~body
      ~segments:[ Convex_vpsim.Job.segment 2048 ]
      ()
  in
  let r =
    Convex_vpsim.Sim.run_exn ~machine
      ~layout:(Convex_memsys.Layout.build [ ("A", 70000); ("B", 4096) ])
      job
  in
  Format.asprintf
    "The D extension (paper section 3.1: \"a fifth degree of freedom, D, \
     to bind the allocation of the data structures in memory\")@.@.%s@.@.\
     demonstration kernel b(i) = a(32*i) + q:  MAC memory bound %d CPL; \
     %a; simulated %.2f CPL@."
    (Table.render t)
    (Macs.Counts.t_m (Macs.Counts.mac_of_instrs body))
    Macs.Dbound.pp d
    (Convex_vpsim.Sim.cpl r)

let advice () =
  String.concat "\n"
    (List.map (fun (k : Lfk.Kernel.t) -> Macs.Advisor.report k)
       (Lfk.Kernels.all @ Lfk.Kernels.scalar_kernels))

let utilization (ds : Dataset.t) =
  let t =
    Table.create
      ~header:
        [ "LFK"; "load/store"; "add"; "multiply"; "bottleneck" ]
      ()
  in
  List.iter
    (fun (h : Macs.Hierarchy.t) ->
      let cycles = h.t_p.Convex_vpsim.Measure.cycles in
      let busy pipe =
        match
          List.assoc_opt (Pipe.name pipe)
            h.t_p.Convex_vpsim.Measure.stats.Convex_vpsim.Sim.pipe_busy
        with
        | Some b -> b /. cycles
        | None -> 0.0
      in
      let lsu = busy Pipe.Load_store
      and add = busy Pipe.Add_unit
      and mul = busy Pipe.Multiply_unit in
      let bottleneck =
        if lsu >= add && lsu >= mul then "load/store"
        else if add >= mul then "add"
        else "multiply"
      in
      Table.add_row t
        [
          Table.cell_int h.kernel.id;
          Table.cell_pct lsu;
          Table.cell_pct add;
          Table.cell_pct mul;
          bottleneck;
        ])
    ds.rows;
  "Pipe utilization (fraction of measured run time each function pipe is \
   busy; the load/store column shows the single memory port saturating \
   on the memory-bound kernels)\n" ^ Table.render t

let roofline () =
  let entries =
    List.map
      (fun (k : Lfk.Kernel.t) -> (k.name, Macs.Roofline.of_kernel k))
      Lfk.Kernels.all
  in
  Macs.Roofline.render entries

let gallery () =
  let machine = Machine.c240 in
  let t =
    Table.create
      ~header:
        [ "kernel"; "MA"; "MAC"; "MACS"; "MACD"; "t_p"; "verified" ]
      ()
  in
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      let h = Macs.Hierarchy.of_compiled c in
      let body = Program.body c.program in
      let d = Macs.Dbound.compute ~machine body in
      let got = Fcc.Compiler.run_interp c in
      let want = Lfk.Data.store_of k in
      Lfk.Gallery.run_reference k want;
      let ok =
        List.for_all
          (fun name ->
            let g = Convex_vpsim.Store.get got name in
            let w = Convex_vpsim.Store.get want name in
            let fine = ref true in
            Array.iteri
              (fun i wv ->
                if Float.abs (g.(i) -. wv) > 1e-9 *. (Float.abs wv +. 1.0)
                then fine := false)
              w;
            !fine)
          (Lfk.Gallery.output_arrays k)
      in
      Table.add_row t
        [
          k.name;
          f3 (Macs.Hierarchy.t_ma_cpf h);
          f3 (Macs.Hierarchy.t_mac_cpf h);
          f3 (Macs.Hierarchy.t_macs_cpf h);
          f3 (d.Macs.Dbound.t_macd /. float_of_int (Lfk.Kernel.flops k));
          f3 (Macs.Hierarchy.t_p_cpf h);
          (if ok then "ok" else "MISMATCH");
        ])
    Lfk.Gallery.all;
  "Gallery kernels (beyond the Livermore set), CPF: the stride-16 gather \
   shows the MACD column explaining what MACS cannot\n" ^ Table.render t

let hockney () =
  Macs.Hockney.render
    (Lfk.Kernels.all @ Lfk.Kernels.scalar_kernels)

let design_space () =
  let vls = [ 16; 32; 64; 128 ] in
  let t =
    Table.create
      ~header:("LFK" :: List.map (fun v -> Printf.sprintf "VL=%d" v) vls)
      ()
  in
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let cells =
        List.map
          (fun max_vl ->
            let machine = { Machine.c240 with Machine.max_vl } in
            let h = Macs.Hierarchy.analyze ~machine k in
            f3 (Macs.Hierarchy.t_p_cpf h))
          vls
      in
      Table.add_row t (Table.cell_int k.id :: cells))
    Lfk.Kernels.all;
  let banks_list = [ 8; 16; 32; 64 ] in
  let bt =
    Table.create
      ~header:
        ("stride"
        :: List.map (fun b -> Printf.sprintf "%d banks" b) banks_list)
      ()
  in
  List.iter
    (fun stride ->
      let cells =
        List.map
          (fun banks ->
            let machine =
              {
                Machine.c240 with
                Machine.memory = { Machine.c240.memory with banks };
              }
            in
            f3 (Macs.Dbound.stream_rate ~machine ~stride))
          banks_list
      in
      Table.add_row bt (Table.cell_int stride :: cells))
    [ 1; 4; 8; 16; 32 ];
  Printf.sprintf
    "Design-space exploration (ours)\n\nmeasured CPF vs maximum vector \
     length - shorter registers amortize start-up and bubbles over fewer \
     elements:\n%s\n\nsustained stream rate (accesses/cycle) vs bank \
     count - doubling banks doubles the tolerable stride:\n%s"
    (Table.render t) (Table.render bt)

let application () =
  let mix = [ (7, 40.0); (1, 30.0); (10, 20.0); (2, 10.0) ] in
  let report =
    Macs.Application.render
      (Macs.Application.analyze
         (List.map (fun (k, w) -> (Lfk.Kernels.find k, w)) mix))
  in
  (* [render] ends its last line; here the printer does, as for the
     other tables *)
  String.sub report 0 (String.length report - 1)
