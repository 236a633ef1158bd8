type issue =
  | Compiler_inserted_ops of { extra_memory_ops : int }
  | Schedule_effects of { macs_over_mac : float }
  | Chime_splitting of { split_chimes : int }
  | Short_vector_startup of { average_vl : float }
  | Outer_loop_overhead
  | Reduction_serialization
  | Poor_overlap of { overlap_excess : float }
  | Access_bound
  | Execute_bound
  | Well_modeled of { macs_coverage : float }

let issue_name = function
  | Compiler_inserted_ops _ -> "compiler-inserted operations"
  | Schedule_effects _ -> "schedule effects"
  | Chime_splitting _ -> "chime splitting by scalar memory"
  | Short_vector_startup _ -> "short-vector start-up"
  | Outer_loop_overhead -> "outer-loop overhead"
  | Reduction_serialization -> "reduction serialization"
  | Poor_overlap _ -> "poor access-execute overlap"
  | Access_bound -> "access-bound"
  | Execute_bound -> "execute-bound"
  | Well_modeled _ -> "well modeled"

let describe = function
  | Compiler_inserted_ops { extra_memory_ops } ->
      Printf.sprintf
        "the compiler inserted %d extra memory operation(s) per iteration \
         (reloads of reuse streams shifted by the loop increment)"
        extra_memory_ops
  | Schedule_effects { macs_over_mac } ->
      Printf.sprintf
        "the specific schedule costs %.1f%% over the MAC bound (tailgate \
         bubbles, memory refresh, imperfect chime packing)"
        ((macs_over_mac -. 1.0) *. 100.0)
  | Chime_splitting { split_chimes } ->
      Printf.sprintf
        "%d chime(s) per iteration are split by scalar loads/stores \
         competing for the memory port, so vector instructions overlap \
         poorly (the LFK8 effect)"
        split_chimes
  | Short_vector_startup { average_vl } ->
      Printf.sprintf
        "average vector length is only %.1f, so pipeline start-up (X and Y) \
         is exposed on every strip"
        average_vl
  | Outer_loop_overhead ->
      "outer-loop scalar code runs between inner-loop instances and is not \
       modeled by the inner-loop bounds"
  | Reduction_serialization ->
      "the vector reduction drains at Z > 1 and its scalar result \
       serializes against the next loop instance"
  | Poor_overlap { overlap_excess } ->
      Printf.sprintf
        "t_p exceeds max(t_a, t_x) by %.2f CPL: the access and execute \
         processes overlap poorly"
        overlap_excess
  | Access_bound ->
      "the access process dominates: optimization should target memory \
       traffic first"
  | Execute_bound ->
      "the execute process dominates: optimization should target the \
       floating-point work first"
  | Well_modeled { macs_coverage } ->
      Printf.sprintf
        "the MACS bound explains %.1f%% of measured time; the schedule is \
         close to its deliverable performance"
        (macs_coverage *. 100.0)

let coverage_floor = 0.9

let average_vl (h : Hierarchy.t) =
  let elements = Lfk.Kernel.total_elements h.kernel in
  let strips =
    Convex_vpsim.Job.strip_count h.compiled.Fcc.Compiler.job
      ~max_vl:h.machine.Convex_machine.Machine.max_vl
  in
  float_of_int elements /. float_of_int (max 1 strips)

let diagnose (h : Hierarchy.t) =
  let open Convex_vpsim in
  let macs = h.t_macs.Macs_bound.cpl in
  let p = h.t_p.Measure.cpl
  and a = h.t_a.Measure.cpl
  and x = h.t_x.Measure.cpl in
  let issues = ref [] in
  let add impact issue = issues := (impact, issue) :: !issues in
  (* MA -> MAC: compiler-inserted work *)
  let extra =
    Counts.t_m h.mac - Counts.t_m h.ma + (Counts.t_f h.mac - Counts.t_f h.ma)
  in
  if h.t_mac > h.t_ma +. 1e-9 then
    add (h.t_mac -. h.t_ma) (Compiler_inserted_ops { extra_memory_ops = extra });
  (* MAC -> MACS: schedule *)
  if macs > h.t_mac *. 1.02 then
    add (macs -. h.t_mac) (Schedule_effects { macs_over_mac = macs /. h.t_mac });
  let splits =
    let flagged =
      List.length
        (List.filter
           (fun (cc : Macs_bound.chime_cost) ->
             cc.chime.Chime.split_by_scalar_memory)
           h.t_macs.Macs_bound.chimes)
    in
    let scalar_mem =
      Convex_isa.Program.count Convex_isa.Instr.is_scalar_memory
        h.compiled.Fcc.Compiler.program
    in
    max flagged scalar_mem
  in
  if
    splits > 0
    && macs
       > 1.05 *. Float.max h.t_macs_f.Macs_bound.cpl h.t_macs_m.Macs_bound.cpl
  then
    add
      (macs
      -. Float.max h.t_macs_f.Macs_bound.cpl h.t_macs_m.Macs_bound.cpl)
      (Chime_splitting { split_chimes = splits });
  (* MACS -> t_p: unmodeled activity *)
  let coverage = macs /. p in
  if coverage < coverage_floor then begin
    let avl = average_vl h in
    if avl < 64.0 then
      add (p -. macs) (Short_vector_startup { average_vl = avl });
    if h.kernel.outer_ops > 0 then add ((p -. macs) /. 2.0) Outer_loop_overhead;
    if
      Lfk.Kernel.has_reduction h.kernel
      && x > 1.15 *. h.t_macs_f.Macs_bound.cpl
    then add ((p -. macs) /. 2.0) Reduction_serialization
  end;
  (* overlap and dominance *)
  let overlap_excess = p -. Float.max a x in
  if overlap_excess > 0.1 *. p then
    add overlap_excess (Poor_overlap { overlap_excess });
  if a > 1.3 *. x then add (a /. 20.0) Access_bound
  else if x > 1.3 *. a then add (x /. 20.0) Execute_bound;
  let sorted =
    List.sort (fun (i1, _) (i2, _) -> Float.compare i2 i1) !issues
  in
  match sorted with
  | [] -> [ Well_modeled { macs_coverage = coverage } ]
  | l -> List.map snd l

let report h =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %s\n" h.Hierarchy.kernel.name
       h.Hierarchy.kernel.description);
  List.iter
    (fun issue ->
      Buffer.add_string buf
        (Printf.sprintf "  - [%s] %s\n" (issue_name issue) (describe issue)))
    (diagnose h);
  Buffer.contents buf
