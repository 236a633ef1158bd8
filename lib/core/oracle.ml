open Convex_isa
open Convex_machine
open Convex_vpsim

type violation = { invariant : string; subject : string; detail : string }

let default_tol = 0.02

let to_error v =
  Macs_util.Macs_error.oracle_violation
    ~site:(Printf.sprintf "Oracle(%s)" v.subject)
    ~invariant:v.invariant v.detail

(* M bound: the machine-only model knows just the peak FP issue rate *)
let t_m ~machine ~flops =
  let fp_units =
    machine.Machine.pipes.Machine.add_unit
    + machine.Machine.pipes.Machine.multiply_unit
  in
  float_of_int flops /. float_of_int (max 1 fp_units)

(* [a <= b] with relative slack: the hierarchy is exact mathematics, but
   measured times carry strip start-up noise the bounds idealize away *)
let leq ~tol a b = a <= (b *. (1.0 +. tol)) +. 1e-9

let chain_violations ~tol ~subject links =
  let rec go acc = function
    | (la, a) :: ((lb, b) :: _ as rest) ->
        let acc =
          if leq ~tol a b then acc
          else
            {
              invariant = Printf.sprintf "%s<=%s" la lb;
              subject;
              detail =
                Printf.sprintf "%s = %.4f CPL exceeds %s = %.4f CPL (tol %.1f%%)"
                  la a lb b (100.0 *. tol);
            }
            :: acc
        in
        go acc rest
    | _ -> List.rev acc
  in
  go [] links

let check_hierarchy ?(tol = default_tol) (h : Hierarchy.t) =
  let subject = h.Hierarchy.kernel.Lfk.Kernel.name in
  let chain =
    chain_violations ~tol ~subject
      [
        ("M", t_m ~machine:h.Hierarchy.machine ~flops:h.Hierarchy.flops);
        ("MA", h.Hierarchy.t_ma);
        ("MAC", h.Hierarchy.t_mac);
        ("MACS", h.Hierarchy.t_macs.Macs_bound.cpl);
        ("measured", h.Hierarchy.t_p.Measure.cpl);
      ]
  in
  let eq18 =
    if Hierarchy.eq18_holds h then []
    else
      [
        {
          invariant = "max(t_a,t_x)<=t_p<=t_a+t_x";
          subject;
          detail =
            Printf.sprintf
              "t_p = %.4f, t_a = %.4f, t_x = %.4f CPL break eq. 18"
              h.Hierarchy.t_p.Measure.cpl h.Hierarchy.t_a.Measure.cpl
              h.Hierarchy.t_x.Measure.cpl;
        };
      ]
  in
  chain @ eq18

(* Cheap per-row variant for suite supervision: bounds need no simulation,
   so a successful measured row is cross-checked for the cost of a chime
   partition. *)
let check_row ?(tol = default_tol) ~machine (c : Fcc.Compiler.t) ~measured_cpl
    =
  let subject = c.Fcc.Compiler.kernel.Lfk.Kernel.name in
  let body = Program.body c.Fcc.Compiler.program in
  match c.Fcc.Compiler.mode with
  | Job.Scalar ->
      let carried = c.Fcc.Compiler.verdict <> Fcc.Vectorizer.Vectorizable in
      let b = Scalar_bound.compute ~carried ~machine body in
      chain_violations ~tol ~subject
        [ ("scalar-bound", b.Scalar_bound.cpl); ("measured", measured_cpl) ]
  | Job.Vector ->
      let ma = Counts.ma_of_kernel c.Fcc.Compiler.kernel in
      let mac = Counts.mac_of_program c.Fcc.Compiler.program in
      let macs = Macs_bound.compute ~machine body in
      (* the measured link holds only on memory-paced loops, where chime
         serialization equals memory-pipe occupancy; a memoryless Z=1
         chime streams under its neighbours in the simulator and the
         serialized bound can exceed the machine (the model-internal
         links M <= MA <= MAC <= MACS hold regardless) *)
      let measured_link =
        if
          Macs_bound.memory_paced ~machine
            (Chime.partition ~machine body)
        then [ ("measured", measured_cpl) ]
        else []
      in
      chain_violations ~tol ~subject
        ([
           ( "M",
             t_m ~machine ~flops:c.Fcc.Compiler.flops_per_iteration );
           ("MA", float_of_int (Counts.t_bound ma));
           ("MAC", float_of_int (Counts.t_bound mac));
           ("MACS", macs.Macs_bound.cpl);
         ]
        @ measured_link)

(* "The scheduler never adds chimes and ideal reuse never adds loads" —
   two premises, checked directly, because neither implies full-bound
   monotonicity.  Fuzzing found both gaps: a long operation's drain flips
   between masked and exposed accounting as the scheduler changes which
   instructions share its chime, moving the full-model bound by +-VL for
   schedules of identical real cost, so the packed comparison is made on
   a drain-neutral machine (Z clamped to 1) where the bound reduces to
   chime count, bubbles, and refresh; and removing a reused load can
   perturb the greedy chime partition into one MORE chime, so ideal's
   bound is not comparable to v61's at all — only its instruction count
   is. *)
let check_opt_monotonicity ?(tol = default_tol) ~machine (k : Lfk.Kernel.t) =
  if not (Fcc.Vectorizer.vectorizable k) then []
  else
    let body opt =
      Program.body (Fcc.Compiler.compile ~opt k).Fcc.Compiler.program
    in
    let v61 = body Fcc.Opt_level.v61 in
    let neutral = Machine.no_long_z machine in
    let bound b = (Macs_bound.compute ~machine:neutral b).Macs_bound.cpl in
    let b61 = bound v61 in
    let bp = bound (body Fcc.Opt_level.packed) in
    let packed_viol =
      if leq ~tol bp b61 then []
      else
        [
          {
            invariant = "MACS(packed)<=MACS(v61)";
            subject = k.Lfk.Kernel.name;
            detail =
              Printf.sprintf
                "packed schedule bounds at %.4f CPL, above v61's %.4f CPL \
                 (drain-neutral comparison)"
                bp b61;
          };
        ]
    in
    let count b = List.length (List.filter Instr.is_vector b) in
    let ni = count (body Fcc.Opt_level.ideal) and n61 = count v61 in
    let ideal_viol =
      if ni <= n61 then []
      else
        [
          {
            invariant = "instrs(ideal)<=instrs(v61)";
            subject = k.Lfk.Kernel.name;
            detail =
              Printf.sprintf
                "ideal reuse emits %d vector instructions, above v61's %d"
                ni n61;
          };
        ]
    in
    packed_viol @ ideal_viol

(* Faulted-never-faster, on the one workload where it is provable: a
   single unit-stride load stream issues its accesses in order down one
   pipe, so injected delays can only push completion later.  (General
   kernels are not monotone: delaying one stream can let another through
   earlier.) *)
let check_faulted_never_faster ?(tol = default_tol)
    ?(machine = Machine.c240) ?fidelity faults =
  let body =
    [
      Instr.Vld { dst = Reg.v 0; src = { array = "A"; offset = 0; stride = 1 } };
    ]
  in
  let job =
    Job.make ~name:"oracle-probe" ~body ~segments:[ Job.segment 512 ] ()
  in
  match
    ( Sim.run ~machine ?fidelity job,
      Sim.run ~machine ~faults ?fidelity job )
  with
  | Ok h, Ok f
    when f.Sim.stats.Sim.cycles < h.Sim.stats.Sim.cycles *. (1.0 -. tol) ->
      [
        {
          invariant = "faulted-never-faster";
          subject = "unit-stride load probe";
          detail =
            Printf.sprintf
              "plan %S ran the probe in %.0f cycles, below the healthy %.0f"
              faults.Convex_fault.Fault.name f.Sim.stats.Sim.cycles
              h.Sim.stats.Sim.cycles;
        };
      ]
  | _ ->
      (* a stalled-out or failed probe is a diagnosed outcome, not a
         hierarchy violation *)
      []

type report = {
  machine : Machine.t;
  opt : Fcc.Opt_level.t;
  tol : float;
  checked : int;
  violations : violation list;
  skipped : (string * Macs_util.Macs_error.t) list;
}

let validate ?(tol = default_tol) ?(opt = Fcc.Opt_level.v61)
    ?(machine = Machine.c240) ?faults ?watchdog ?fidelity ?memo () =
  let kernels =
    List.sort (fun (a : Lfk.Kernel.t) b -> compare a.id b.id) Lfk.Kernels.all
  in
  let skipped = ref [] in
  (* A kernel whose measurement blows its deadline is skipped with its
     typed diagnostic rather than sinking the whole validation — the
     same graceful degradation the suite supervisor applies. *)
  let per_kernel =
    List.concat_map
      (fun (k : Lfk.Kernel.t) ->
        let wd =
          match watchdog with
          | None -> None
          | Some f -> f ~site:("Oracle.validate:" ^ k.name)
        in
        match
          check_hierarchy ~tol
            (Hierarchy.analyze ~machine ?watchdog:wd ?fidelity ?memo ~opt k)
          @ check_opt_monotonicity ~tol ~machine k
        with
        | vs -> vs
        | exception Macs_util.Macs_error.Error e ->
            skipped := (k.name, e) :: !skipped;
            [])
      kernels
  in
  let faulted =
    match faults with
    | Some plan -> check_faulted_never_faster ~tol ~machine ?fidelity plan
    | None -> []
  in
  {
    machine;
    opt;
    tol;
    checked = List.length kernels - List.length !skipped;
    violations = per_kernel @ faulted;
    skipped = List.rev !skipped;
  }

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Bound-oracle validation of %s (opt %s, tolerance %.1f%%): %d kernels \
        checked\n"
       r.machine.Machine.name
       (Fcc.Opt_level.name r.opt)
       (100.0 *. r.tol) r.checked);
  (match r.violations with
  | [] ->
      Buffer.add_string buf
        "  all hierarchy invariants hold: M <= MA <= MAC <= MACS <= \
         measured, schedule monotonicity, eq. 18\n"
  | vs ->
      Buffer.add_string buf
        (Printf.sprintf "  %d violation%s:\n" (List.length vs)
           (if List.length vs = 1 then "" else "s"));
      List.iter
        (fun v ->
          Buffer.add_string buf
            (Printf.sprintf "  %-10s %-22s %s\n" v.subject v.invariant
               v.detail))
        vs);
  (match r.skipped with
  | [] -> ()
  | ss ->
      Buffer.add_string buf
        (Printf.sprintf "  %d kernel%s skipped over budget:\n"
           (List.length ss)
           (if List.length ss = 1 then "" else "s"));
      List.iter
        (fun (name, e) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-10s %s\n" name
               (Macs_util.Macs_error.to_string e)))
        ss);
  Buffer.contents buf

let pp_violation fmt v =
  Format.fprintf fmt "%s: %s broken: %s" v.subject v.invariant v.detail
