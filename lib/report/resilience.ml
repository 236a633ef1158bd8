open Convex_machine
open Convex_vpsim
open Convex_fault
open Macs_util

type kernel_row = {
  kernel : Lfk.Kernel.t;
  bound_cpl : float;
  healthy : Measure.t;
  healthy_gap_pct : float;
  faulted : (Measure.t, Macs_error.t) Stdlib.result;
}

type contention_probe = {
  label : string;
  healthy_slowdown : float;
  faulted_slowdown : (float, Macs_error.t) Stdlib.result;
}

type t = {
  machine : Machine.t;
  faults : Fault.t;
  rows : kernel_row list;
  probes : contention_probe list;
  oracle : Macs.Oracle.violation list;
}

let gap_pct ~measured ~bound =
  if bound <= 0.0 then 0.0 else 100.0 *. ((measured /. bound) -. 1.0)

let run_kernel machine opt faults (k : Lfk.Kernel.t) =
  let c = Fcc.Compiler.compile ~opt k in
  let body = Convex_isa.Program.body c.Fcc.Compiler.program in
  let bound = Macs.Macs_bound.compute ~machine body in
  let measure ?faults ?guard () =
    Measure.run ~machine ?faults ?guard
      ~flops_per_iteration:c.Fcc.Compiler.flops_per_iteration
      c.Fcc.Compiler.job
  in
  let healthy = Macs_error.of_result (measure ()) in
  let faulted =
    Retry.with_relaxed_guard (fun ~guard_scale ->
        measure ~faults ~guard:(Sim.guard_for faults * guard_scale) ())
  in
  {
    kernel = k;
    bound_cpl = bound.Macs.Macs_bound.cpl;
    healthy;
    healthy_gap_pct =
      gap_pct ~measured:healthy.Measure.cpl ~bound:bound.Macs.Macs_bound.cpl;
    faulted;
  }

let probe machine faults ~label ids =
  let cl id =
    let c = Fcc.Compiler.compile (Lfk.Kernels.find id) in
    (c.Fcc.Compiler.job, c.Fcc.Compiler.kernel.Lfk.Kernel.name)
  in
  let workloads = List.map cl ids in
  let healthy = Cosim.run_exn ~machine workloads in
  let faulted =
    match Cosim.run ~machine ~faults workloads with
    | Ok r -> Ok r.Cosim.average_slowdown
    | Error e -> Error e
  in
  {
    label;
    healthy_slowdown = healthy.Cosim.average_slowdown;
    faulted_slowdown = faulted;
  }

let run ?(machine = Machine.c240) ?(opt = Fcc.Opt_level.v61) faults =
  let kernels =
    List.sort
      (fun (a : Lfk.Kernel.t) b -> compare a.id b.id)
      Lfk.Kernels.all
  in
  let rows = List.map (run_kernel machine opt faults) kernels in
  let probes =
    [
      probe machine faults ~label:"lockstep (4x LFK1)" [ 1; 1; 1; 1 ];
      probe machine faults ~label:"different (LFK 1,7,9,10)" [ 1; 7; 9; 10 ];
    ]
  in
  let oracle = Macs.Oracle.check_faulted_never_faster ~machine faults in
  { machine; faults; rows; probes; oracle }

let render t =
  let tbl =
    Table.create
      ~header:
        [
          "LFK";
          "MACS CPL";
          "healthy CPL";
          "gap%";
          "faulted CPL";
          "gap%";
          "slowdown";
          "fault stalls";
        ]
      ()
  in
  List.iter
    (fun r ->
      let base =
        [
          Table.cell_int r.kernel.Lfk.Kernel.id;
          Table.cell_float ~decimals:3 r.bound_cpl;
          Table.cell_float ~decimals:3 r.healthy.Measure.cpl;
          Table.cell_float ~decimals:1 r.healthy_gap_pct;
        ]
      in
      match r.faulted with
      | Ok m ->
          Table.add_row tbl
            (base
            @ [
                Table.cell_float ~decimals:3 m.Measure.cpl;
                Table.cell_float ~decimals:1
                  (gap_pct ~measured:m.Measure.cpl ~bound:r.bound_cpl);
                Printf.sprintf "%.2fx" (m.Measure.cpl /. r.healthy.Measure.cpl);
                Table.cell_int m.Measure.stats.Sim.fault_stalls;
              ])
      | Error e ->
          Table.add_row tbl
            (base @ [ "-"; "-"; Macs_error.kind e; "-" ]))
    t.rows;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "Resilience report: simulated %s under fault plan %S\n  plan: %s\n\n%s\n"
       t.machine.Machine.name t.faults.Fault.name (Fault.to_string t.faults)
       (Table.render tbl));
  let failures =
    List.filter_map
      (fun r ->
        match r.faulted with
        | Error e ->
            Some
              (Printf.sprintf "  LFK%-2d %s" r.kernel.Lfk.Kernel.id
                 (Macs_error.to_string e))
        | Ok _ -> None)
      t.rows
  in
  if failures <> [] then
    Buffer.add_string buf
      (Printf.sprintf "\ndiagnostics:\n%s\n" (String.concat "\n" failures));
  Buffer.add_string buf
    "\nmemory contention under the plan (bank co-simulation, paper \
     \xc2\xa74.2):\n";
  List.iter
    (fun p ->
      let faulted =
        match p.faulted_slowdown with
        | Ok s -> Printf.sprintf "%.2fx" s
        | Error e -> Macs_error.kind e
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-28s healthy %.2fx -> faulted %s\n" p.label
           p.healthy_slowdown faulted))
    t.probes;
  (match t.oracle with
  | [] ->
      Buffer.add_string buf
        "\nbound oracle: faulted-never-faster holds on the unit-stride \
         load probe\n"
  | vs ->
      Buffer.add_string buf
        (Printf.sprintf "\nbound-oracle violations (%d):\n%s\n"
           (List.length vs)
           (String.concat "\n"
              (List.map
                 (fun (v : Macs.Oracle.violation) ->
                   Printf.sprintf "  %-22s %s" v.Macs.Oracle.invariant
                     v.Macs.Oracle.detail)
                 vs))));
  Buffer.add_string buf
    "\nThe paper's \xc2\xa74.2 rules of thumb (5-10% lockstep, ~20% \
     different programs) hold only on a healthy memory system; degraded \
     or stolen banks widen both, and the MACS bound gap grows by the \
     cycles the plan steals.\n";
  Buffer.contents buf
