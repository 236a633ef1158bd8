(* Tests for the extensions beyond the paper's evaluation: the
   vectorization legality analysis and scalar mode (LFK5/LFK11), the
   scalar bound with its dependence pseudo-unit, the D (stride) bound,
   and the parallel vector mode model. *)

open Convex_machine
open Convex_vpsim

let machine = Machine.c240

(* ---- Vectorizer ---- *)

let test_verdicts () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      Alcotest.(check bool)
        (k.name ^ " vectorizable")
        true
        (Fcc.Vectorizer.vectorizable k))
    Lfk.Kernels.all;
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      Alcotest.(check bool)
        (k.name ^ " carried")
        false
        (Fcc.Vectorizer.vectorizable k))
    Lfk.Kernels.scalar_kernels

let test_verdict_details () =
  match Fcc.Vectorizer.analyze Lfk.Kernels.lfk5 with
  | Fcc.Vectorizer.Carried_dependence { store; load } ->
      Alcotest.(check string) "store array" "X" store.Lfk.Ir.array;
      Alcotest.(check int) "distance 1" 1
        (store.Lfk.Ir.offset - load.Lfk.Ir.offset)
  | Fcc.Vectorizer.Vectorizable -> Alcotest.fail "lfk5 must be carried"

let test_trip_count_window () =
  (* a dependence at distance >= the trip count never materializes: this
     is what keeps LFK10 (columns 101 apart, 101 trips) vectorizable *)
  Alcotest.(check bool) "lfk10 vectorizable" true
    (Fcc.Vectorizer.vectorizable (Lfk.Kernels.find 10))

let test_anti_dependence_ok () =
  (* load ahead of the store (lfk12 reads y, writes x; craft x-on-x
     anti-dependence): store x(k), load x(k+1) is legal *)
  let k =
    {
      (Lfk.Kernels.find 12) with
      Lfk.Kernel.body =
        [
          Lfk.Ir.Store
            ( { array = "X"; scale = 1; offset = 0 },
              Lfk.Ir.Load { array = "X"; scale = 1; offset = 1 } );
        ];
    }
  in
  Alcotest.(check bool) "anti-dependence vectorizes" true
    (Fcc.Vectorizer.vectorizable k)

(* ---- scalar mode compilation ---- *)

let test_scalar_mode_selected () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      Alcotest.(check bool) (k.name ^ " scalar mode") true
        (c.mode = Job.Scalar);
      Alcotest.(check bool) (k.name ^ " no vector instrs") true
        (List.for_all Convex_isa.Instr.is_scalar
           (Convex_isa.Program.body c.program)))
    Lfk.Kernels.scalar_kernels

let test_scalar_functional () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      let got = Fcc.Compiler.run_interp c in
      let want = Lfk.Data.store_of k in
      Lfk.Reference.run k want;
      List.iter
        (fun name ->
          let g = Store.get got name and w = Store.get want name in
          Array.iteri
            (fun i wv ->
              if Float.abs (g.(i) -. wv) > 1e-9 *. (Float.abs wv +. 1.0) then
                Alcotest.failf "%s: %s[%d] = %g, want %g" k.name name i
                  g.(i) wv)
            w)
        (Lfk.Reference.output_arrays k))
    Lfk.Kernels.scalar_kernels

let test_force_scalar () =
  let k = Lfk.Kernels.find 1 in
  let c = Fcc.Compiler.compile ~force_scalar:true k in
  Alcotest.(check bool) "forced scalar" true (c.mode = Job.Scalar);
  (* still computes the right thing *)
  let got = Fcc.Compiler.run_interp c in
  let want = Lfk.Data.store_of k in
  Lfk.Reference.run k want;
  let g = Store.get got "X" and w = Store.get want "X" in
  Alcotest.(check (float 1e-12)) "x[500]" w.(500) g.(500)

let test_vectorization_speedup () =
  let k = Lfk.Kernels.find 1 in
  let v = Fcc.Compiler.compile k in
  let sc = Fcc.Compiler.compile ~force_scalar:true k in
  let mv = Measure.run_exn ~flops_per_iteration:5 v.job in
  let ms = Measure.run_exn ~flops_per_iteration:5 sc.job in
  let speedup = ms.Measure.cpl /. mv.Measure.cpl in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.1f in 3-20x" speedup)
    true
    (speedup > 3.0 && speedup < 20.0)

let test_scalar_job_counts_elements () =
  let c = Fcc.Compiler.compile Lfk.Kernels.lfk11 in
  let r = Sim.run_exn c.job in
  (* one body execution per element *)
  Alcotest.(check int) "strips = elements" r.Sim.stats.elements
    r.Sim.stats.strips

(* ---- Scalar_bound ---- *)

let test_scalar_bound_lfk5 () =
  let c = Fcc.Compiler.compile Lfk.Kernels.lfk5 in
  let b = Macs.Scalar_bound.of_compiled ~machine:Machine.c240 c in
  (* dependence chain: ld x (5) -> sub (3) -> mul (3) -> st (1) = 12 *)
  Alcotest.(check (float 0.01)) "dependence" 12.0 b.dependence;
  Alcotest.(check (float 0.01)) "issue 10 instrs" 10.0 b.issue;
  Alcotest.(check (float 0.01)) "memory 4" 4.0 b.memory;
  Alcotest.(check (float 0.01)) "fp 2" 2.0 b.fp;
  Alcotest.(check (float 0.01)) "cpl = dependence" 12.0 b.cpl

let test_scalar_bound_uses_machine () =
  (* the issue term is the machine's own: 10 instructions at 4 cycles *)
  let machine =
    Result.get_ok (Convex_dsl.Machine_dsl.of_name_or_spec "c240;scalar=4/3")
  in
  let c = Fcc.Compiler.compile Lfk.Kernels.lfk5 in
  let b = Macs.Scalar_bound.of_compiled ~machine c in
  Alcotest.(check (float 0.01)) "issue 10 instrs x 4" 40.0 b.issue;
  Alcotest.(check (float 0.01)) "cpl = issue" 40.0 b.cpl

let test_scalar_bound_below_measured () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      let b = Macs.Scalar_bound.of_compiled ~machine:Machine.c240 c in
      let m =
        Measure.run_exn ~flops_per_iteration:c.flops_per_iteration c.job
      in
      Alcotest.(check bool) (k.name ^ " bound <= measured") true
        (b.cpl <= m.Measure.cpl +. 0.01);
      Alcotest.(check bool) (k.name ^ " bound explains > 50%") true
        (b.cpl /. m.Measure.cpl > 0.5))
    Lfk.Kernels.scalar_kernels

let test_scalar_bound_rejects_vector () =
  let c = Fcc.Compiler.compile (Lfk.Kernels.find 1) in
  Alcotest.check_raises "vector mode"
    (Invalid_argument "Scalar_bound.of_compiled: vector-mode compilation")
    (fun () -> ignore (Macs.Scalar_bound.of_compiled ~machine:Machine.c240 c))

(* ---- Dbound ---- *)

let test_stream_rates () =
  List.iter
    (fun (stride, expected) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "stride %d" stride)
        expected
        (Macs.Dbound.stream_rate ~machine ~stride))
    [
      (1, 1.0); (2, 1.0); (3, 1.0); (5, 1.0); (7, 1.0);
      (8, 0.5); (16, 0.25); (32, 0.125); (64, 0.125);
      (0, 1.0); (-2, 1.0); (-32, 0.125);
    ]

let test_dbound_matches_simulator () =
  (* the model rate must match the bank simulator within 3% across
     strides *)
  let m = Machine.no_refresh machine in
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
        Job.make ~name:"s" ~body ~segments:[ Job.segment 1024 ] ()
      in
      let r =
        Sim.run_exn ~machine:m
          ~layout:(Convex_memsys.Layout.build [ ("A", 40000) ])
          job
      in
      let sim = float_of_int r.Sim.stats.mem_accesses /. r.Sim.stats.cycles in
      let model = Macs.Dbound.stream_rate ~machine:m ~stride in
      Alcotest.(check bool)
        (Printf.sprintf "stride %d: model %.3f sim %.3f" stride model sim)
        true
        (Float.abs (model -. sim) /. model < 0.03))
    [ 1; 2; 4; 8; 16; 32 ]

let test_macd_demo_kernel () =
  let body =
    [
      Convex_isa.Instr.Vld
        { dst = Convex_isa.Reg.v 0;
          src = { array = "A"; offset = 0; stride = 32 } };
      Convex_isa.Instr.Vst
        { src = Convex_isa.Reg.v 0;
          dst = { array = "B"; offset = 0; stride = 1 } };
    ]
  in
  let d = Macs.Dbound.compute ~machine body in
  (* one stride-32 load at rate 1/8 plus one unit-stride store *)
  Alcotest.(check (float 1e-9)) "t_m^D" 9.0 d.t_m_d;
  Alcotest.(check int) "worst stride" 32 d.worst_stride;
  Alcotest.(check (float 1e-9)) "bound" 9.0 d.t_macd;
  (* the MAC bound misses it *)
  Alcotest.(check int) "MAC says 2" 2
    (Macs.Counts.t_m (Macs.Counts.mac_of_instrs body))

let test_dbound_equals_mac_at_unit_stride () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      let body = Convex_isa.Program.body c.program in
      let d = Macs.Dbound.compute ~machine body in
      let mac = Macs.Counts.mac_of_instrs body in
      (* all streams in these kernels run at full rate (strides 1, 2, 4,
         5 are all conflict-free on 32 banks) *)
      Alcotest.(check (float 1e-9))
        (k.name ^ " t_m^D = t_m'")
        (float_of_int (Macs.Counts.t_m mac))
        d.t_m_d)
    Lfk.Kernels.all

(* ---- Parallel vector mode (bank co-simulation) ---- *)

let workload id =
  let c = Fcc.Compiler.compile (Lfk.Kernels.find id) in
  (c.Fcc.Compiler.job, c.Fcc.Compiler.kernel.Lfk.Kernel.name)

let test_parallel_lockstep_band () =
  let r = Cosim.run_exn (List.init 4 (fun _ -> workload 1)) in
  Alcotest.(check bool)
    (Printf.sprintf "lockstep %.2f in 1.03-1.15" r.average_slowdown)
    true
    (r.average_slowdown > 1.03 && r.average_slowdown < 1.15)

let test_parallel_single_cpu_free () =
  let r = Cosim.run_exn [ workload 10 ] in
  Alcotest.(check (float 1e-9)) "no contention alone" 1.0
    r.average_slowdown

let test_parallel_slowdowns_at_least_one () =
  let r = Cosim.run_exn [ workload 1; workload 12 ] in
  List.iter
    (fun (c : Cosim.cpu_outcome) ->
      Alcotest.(check bool) "slowdown >= 1" true (c.slowdown >= 0.999))
    r.cpus

(* ---- gather / scatter ---- *)

let test_gather_classification () =
  let g =
    Convex_isa.Instr.Vgather
      {
        dst = Convex_isa.Reg.v 1;
        base = { array = "A"; offset = 0; stride = 1 };
        index = Convex_isa.Reg.v 0;
      }
  in
  Alcotest.(check bool) "memory" true (Convex_isa.Instr.is_vector_memory g);
  Alcotest.(check bool) "load class" true
    (Convex_isa.Instr.vclass_of g = Some Convex_isa.Instr.Cld);
  Alcotest.(check (list int)) "reads index" [ 0 ]
    (List.map Convex_isa.Reg.v_index (Convex_isa.Instr.reads_v g));
  Alcotest.(check (list int)) "writes dst" [ 1 ]
    (List.map Convex_isa.Reg.v_index (Convex_isa.Instr.writes_v g))

let test_gather_rate_closed_form () =
  (* the queueing closed form matches the bank simulator within 3% *)
  let m = Machine.no_refresh machine in
  let body =
    [
      Convex_isa.Instr.Vgather
        {
          dst = Convex_isa.Reg.v 1;
          base = { array = "A"; offset = 0; stride = 1 };
          index = Convex_isa.Reg.v 0;
        };
    ]
  in
  let job = Job.make ~name:"g" ~body ~segments:[ Job.segment 2048 ] () in
  let r = Sim.run_exn ~machine:m job in
  let sim_rate = 2048.0 /. r.Sim.stats.cycles in
  let model = Macs.Dbound.gather_rate ~machine:m in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.3f vs model %.3f" sim_rate model)
    true
    (Float.abs (sim_rate -. model) /. model < 0.03)

let test_scatter_interp () =
  let store =
    Store.create
      [
        ("A", Array.make 32 0.0);
        ("IDX", [| 5.0; 2.0; 9.0; 0.0 |]);
        ("V", [| 10.0; 20.0; 30.0; 40.0 |]);
      ]
  in
  let body =
    [
      Convex_isa.Instr.Vld
        { dst = Convex_isa.Reg.v 0;
          src = { array = "IDX"; offset = 0; stride = 1 } };
      Convex_isa.Instr.Vld
        { dst = Convex_isa.Reg.v 1;
          src = { array = "V"; offset = 0; stride = 1 } };
      Convex_isa.Instr.Vscatter
        {
          src = Convex_isa.Reg.v 1;
          base = { array = "A"; offset = 0; stride = 1 };
          index = Convex_isa.Reg.v 0;
        };
    ]
  in
  let job = Job.make ~name:"sc" ~body ~segments:[ Job.segment 4 ] () in
  let (_ : float array) = Interp.run_exn ~store job in
  let a = Store.get store "A" in
  Alcotest.(check (float 1e-12)) "a[5]" 10.0 a.(5);
  Alcotest.(check (float 1e-12)) "a[2]" 20.0 a.(2);
  Alcotest.(check (float 1e-12)) "a[9]" 30.0 a.(9);
  Alcotest.(check (float 1e-12)) "a[0]" 40.0 a.(0);
  Alcotest.(check (float 1e-12)) "untouched" 0.0 a.(1)

let test_gather_ir_counting () =
  let body = Lfk.Gallery.permute.Lfk.Kernel.body in
  (* loads: IDX stream + Y stream + the gather itself *)
  Alcotest.(check int) "MA loads" 3 (Lfk.Ir.ma_load_count body);
  Alcotest.(check (list string)) "indexed arrays" [ "A" ]
    (Lfk.Ir.indexed_arrays body)

let test_gather_scalar_mode_rejected () =
  try
    ignore (Fcc.Compiler.compile ~force_scalar:true Lfk.Gallery.permute);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_permute_macd_semantics () =
  let c = Fcc.Compiler.compile Lfk.Gallery.permute in
  let body = Convex_isa.Program.body c.program in
  let d = Macs.Dbound.compute ~machine body in
  (* 3 unit streams + one gather at the saturated-stream weight *)
  Alcotest.(check (float 0.01)) "t_m^D"
    (3.0 +. (1.0 /. Macs.Dbound.gather_rate ~machine))
    d.Macs.Dbound.t_m_d;
  Alcotest.(check int) "worst is the gather (stride 0 tag)" 0
    d.Macs.Dbound.worst_stride

(* ---- merge register (compare/select) ---- *)

let test_clip_codegen () =
  let c = Fcc.Compiler.compile Lfk.Gallery.clip in
  let body = Convex_isa.Program.body c.program in
  Alcotest.(check int) "one compare" 1
    (List.length
       (List.filter
          (fun i -> Convex_isa.Instr.vclass_of i = Some Convex_isa.Instr.Ccmp)
          body));
  Alcotest.(check int) "one merge" 1
    (List.length
       (List.filter
          (fun i ->
            Convex_isa.Instr.vclass_of i = Some Convex_isa.Instr.Cmerge)
          body))

let test_merge_interp_semantics () =
  let store =
    Store.create [ ("X", [| 1.0; 5.0; 2.0; 9.0 |]); ("Y", Array.make 4 0.0) ]
  in
  let v = Convex_isa.Reg.v in
  let body =
    [
      Convex_isa.Instr.Vld
        { dst = v 0; src = { array = "X"; offset = 0; stride = 1 } };
      Convex_isa.Instr.Vcmp
        { op = Convex_isa.Instr.Lt; src1 = v 0; src2 = Sr (Convex_isa.Reg.s 0) };
      Convex_isa.Instr.Vmerge
        {
          dst = v 1;
          src_true = Vr (v 0);
          src_false = Sr (Convex_isa.Reg.s 0);
        };
      Convex_isa.Instr.Vst
        { src = v 1; dst = { array = "Y"; offset = 0; stride = 1 } };
    ]
  in
  let job = Job.make ~name:"m" ~body ~segments:[ Job.segment 4 ] () in
  let (_ : float array) = Interp.run_exn ~sregs:[ (0, 3.0) ] ~store job in
  Alcotest.(check (list (float 1e-12))) "min(x,3)" [ 1.0; 3.0; 2.0; 3.0 ]
    (Array.to_list (Store.get store "Y"))

let test_merge_chains_in_chime () =
  (* ld + cmp + merge occupy three different pipes: one chime *)
  let v = Convex_isa.Reg.v in
  let body =
    [
      Convex_isa.Instr.Vld
        { dst = v 0; src = { array = "X"; offset = 0; stride = 1 } };
      Convex_isa.Instr.Vcmp
        { op = Convex_isa.Instr.Lt; src1 = v 0; src2 = Vr (v 1) };
      Convex_isa.Instr.Vmerge
        { dst = v 2; src_true = Vr (v 0); src_false = Vr (v 1) };
    ]
  in
  Alcotest.(check int) "one chime" 1
    (List.length (Macs.Chime.partition ~machine body))

let test_merge_register_dependence_timing () =
  (* the merge cannot start before the compare produces the mask *)
  let v = Convex_isa.Reg.v in
  let body =
    [
      Convex_isa.Instr.Vcmp
        { op = Convex_isa.Instr.Lt; src1 = v 0; src2 = Vr (v 1) };
      Convex_isa.Instr.Vmerge
        { dst = v 2; src_true = Vr (v 3); src_false = Vr (v 4) };
    ]
  in
  let job = Job.make ~name:"vm" ~body ~segments:[ Job.segment 128 ] () in
  let machine_nr = Machine.no_refresh machine in
  let r = Sim.run_exn ~machine:machine_nr ~trace:true job in
  match r.Sim.events with
  | [ cmp; merge ] ->
      Alcotest.(check bool) "merge chains on the mask" true
        (merge.Sim.start >= cmp.Sim.first_result -. 0.001)
  | _ -> Alcotest.fail "two events expected"

(* ---- Cosim (first-principles replay) ---- *)

let test_cosim_stream_capture () =
  let job, name = workload 1 in
  let s = Cosim.stream_of_job ~name job in
  (* lfk1: 4 memory ops per iteration over 1001 iterations *)
  Alcotest.(check int) "access count" (4 * 1001)
    (List.length s.Cosim.accesses);
  (* time-ordered, one per cycle at most *)
  let rec ordered = function
    | (a : Cosim.access) :: (b :: _ as rest) ->
        a.cycle < b.cycle && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly ordered" true (ordered s.Cosim.accesses)

let test_cosim_single_cpu_free () =
  let r = Cosim.run_exn [ workload 1 ] in
  Alcotest.(check (float 1e-9)) "alone costs nothing" 1.0 r.average_slowdown

let test_cosim_four_cpus_band () =
  let r = Cosim.run_exn [ workload 1; workload 1; workload 1; workload 1 ] in
  Alcotest.(check bool)
    (Printf.sprintf "lockstep replay %.2f in 1.02-1.25" r.average_slowdown)
    true
    (r.average_slowdown > 1.02 && r.average_slowdown < 1.25);
  List.iter
    (fun (o : Cosim.cpu_outcome) ->
      Alcotest.(check bool) "no speedup from contention" true
        (o.slowdown >= 1.0))
    r.cpus

let test_cosim_more_cpus_more_contention () =
  let two = Cosim.run_exn [ workload 1; workload 1 ] in
  let four = Cosim.run_exn [ workload 1; workload 1; workload 1; workload 1 ] in
  Alcotest.(check bool) "four worse than two" true
    (four.average_slowdown >= two.average_slowdown)

let test_cosim_guards () =
  Alcotest.check_raises "empty" (Invalid_argument "Cosim.replay: no streams")
    (fun () -> ignore (Cosim.replay []));
  let s = Cosim.stream_of_job ~name:"x" (fst (workload 12)) in
  Alcotest.check_raises "five"
    (Invalid_argument "Cosim.replay: 5 memory ports serve at most 4 CPUs")
    (fun () -> ignore (Cosim.replay [ s; s; s; s; s ]))

(* the CPU cap is read from the machine's ports, one kept for I/O *)
let test_cosim_ports_cap () =
  let machine =
    match Convex_dsl.Machine_dsl.parse "c240;ports=3" with
    | Ok m -> m
    | Error e -> Alcotest.fail (Macs_util.Macs_error.to_string e)
  in
  let s = Cosim.stream_of_job ~machine ~name:"x" (fst (workload 12)) in
  Alcotest.(check int) "two CPUs" 2 (Cosim.max_cpus machine);
  (match Cosim.replay ~machine [ s; s ] with
  | Ok r -> Alcotest.(check int) "two replayed" 2 (List.length r.cpus)
  | Error e -> Alcotest.fail (Macs_util.Macs_error.to_string e));
  Alcotest.check_raises "third stream"
    (Invalid_argument "Cosim.replay: 3 memory ports serve at most 2 CPUs")
    (fun () -> ignore (Cosim.replay ~machine [ s; s; s ]))

(* ---- report renderers ---- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

let test_extension_reports_render () =
  let s = Macs_report.Tables.scalar_mode () in
  Alcotest.(check bool) "scalar mentions lfk5" true (contains ~needle:"lfk5" s);
  Alcotest.(check bool) "scalar mentions dependence" true
    (contains ~needle:"dependence" s);
  let p = Macs_report.Tables.parallel_mode () in
  Alcotest.(check bool) "parallel mentions lockstep" true
    (contains ~needle:"lockstep" p);
  Alcotest.(check bool) "parallel prints the paper's bands" true
    (contains ~needle:"(paper section 4.2: 5-10%)" p
    && contains ~needle:"(paper section 4.2: ~20%)" p);
  let d = Macs_report.Tables.stride_sweep () in
  Alcotest.(check bool) "strides mentions 32" true (contains ~needle:"32" d);
  Alcotest.(check bool) "strides mentions MACD" true
    (contains ~needle:"MACD" d)

let () =
  Alcotest.run "extensions"
    [
      ( "vectorizer",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "details" `Quick test_verdict_details;
          Alcotest.test_case "trip-count window" `Quick
            test_trip_count_window;
          Alcotest.test_case "anti-dependence" `Quick test_anti_dependence_ok;
        ] );
      ( "scalar-mode",
        [
          Alcotest.test_case "mode selected" `Quick test_scalar_mode_selected;
          Alcotest.test_case "functional" `Quick test_scalar_functional;
          Alcotest.test_case "force scalar" `Quick test_force_scalar;
          Alcotest.test_case "vectorization speedup" `Quick
            test_vectorization_speedup;
          Alcotest.test_case "per-element driver" `Quick
            test_scalar_job_counts_elements;
        ] );
      ( "scalar-bound",
        [
          Alcotest.test_case "lfk5 components" `Quick test_scalar_bound_lfk5;
          Alcotest.test_case "machine's issue term" `Quick
            test_scalar_bound_uses_machine;
          Alcotest.test_case "below measured" `Quick
            test_scalar_bound_below_measured;
          Alcotest.test_case "rejects vector mode" `Quick
            test_scalar_bound_rejects_vector;
        ] );
      ( "dbound",
        [
          Alcotest.test_case "stream rates" `Quick test_stream_rates;
          Alcotest.test_case "matches simulator" `Quick
            test_dbound_matches_simulator;
          Alcotest.test_case "stride-32 demo" `Quick test_macd_demo_kernel;
          Alcotest.test_case "unit stride = MAC" `Quick
            test_dbound_equals_mac_at_unit_stride;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "lockstep band" `Quick
            test_parallel_lockstep_band;
          Alcotest.test_case "single cpu free" `Quick
            test_parallel_single_cpu_free;
          Alcotest.test_case "slowdowns >= 1" `Quick
            test_parallel_slowdowns_at_least_one;
        ] );
      ( "merge-register",
        [
          Alcotest.test_case "clip codegen" `Quick test_clip_codegen;
          Alcotest.test_case "interp semantics" `Quick
            test_merge_interp_semantics;
          Alcotest.test_case "chime packing" `Quick
            test_merge_chains_in_chime;
          Alcotest.test_case "mask dependence" `Quick
            test_merge_register_dependence_timing;
        ] );
      ( "gather-scatter",
        [
          Alcotest.test_case "classification" `Quick
            test_gather_classification;
          Alcotest.test_case "rate closed form" `Quick
            test_gather_rate_closed_form;
          Alcotest.test_case "scatter interp" `Quick test_scatter_interp;
          Alcotest.test_case "IR counting" `Quick test_gather_ir_counting;
          Alcotest.test_case "scalar mode rejected" `Quick
            test_gather_scalar_mode_rejected;
          Alcotest.test_case "permute MACD" `Quick
            test_permute_macd_semantics;
        ] );
      ( "cosim",
        [
          Alcotest.test_case "stream capture" `Quick
            test_cosim_stream_capture;
          Alcotest.test_case "single cpu free" `Quick
            test_cosim_single_cpu_free;
          Alcotest.test_case "four-cpu band" `Quick test_cosim_four_cpus_band;
          Alcotest.test_case "monotone in cpus" `Quick
            test_cosim_more_cpus_more_contention;
          Alcotest.test_case "guards" `Quick test_cosim_guards;
          Alcotest.test_case "ports cap" `Quick test_cosim_ports_cap;
        ] );
      ( "reports",
        [
          Alcotest.test_case "render" `Quick test_extension_reports_render;
        ] );
    ]
