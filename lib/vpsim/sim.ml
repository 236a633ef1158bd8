open Convex_isa
open Convex_machine
open Convex_memsys
open Convex_fault
open Macs_util

type event = {
  instr : Instr.t;
  strip : int;
  issue : float;
  start : float;
  first_result : float;
  completion : float;
}

type stats = {
  cycles : float;
  elements : int;
  instructions : int;
  strips : int;
  mem_accesses : int;
  bank_conflict_stalls : int;
  refresh_stalls : int;
  port_stalls : int;
  fault_stalls : int;
  pipe_busy : (string * float) list;
}

type result = { stats : stats; events : event list }

(* An executing (or executed) vector instruction.  [enter.(e)] is the cycle
   at which element [e] entered the first stage of the function pipe;
   results stream out [y] cycles later.  [source_unit] is the function unit
   ultimately pacing this instruction's element stream: itself if it starts
   unchained, the producer's source if it chains — tailgate bubbles of
   chained consumers are charged back to that unit (back-pressure). *)
type inflight = {
  instr : Instr.t;
  enter : float array;
  y : float;
  completion : float;
  source_unit : int;
  unit_id : int;
  rmask : int;
      (* per-pair vector-read counts, 8 bits per pair id — lets the
         pair-port scan test chime-concurrent usage without walking
         register lists *)
  wmask : int;  (* per-pair vector-write counts, same packing *)
}

(* packed per-pair register counts: byte [pid] of the int counts the
   registers of pair [pid] in the list *)
let pair_mask rs =
  List.fold_left (fun m r -> m + (1 lsl (8 * Reg.pair_id r))) 0 rs

type unit_state = { mutable used : bool; mutable next_accept : float }

(* the issue front and the latest completion so far; an all-float record
   is stored flat, so advancing either allocates nothing *)
type clock = { mutable issue_front : float; mutable finish : float }

(* latency of a scalar load (cache) and a scalar FP ALU operation *)
let scalar_load_latency = 4.0
let scalar_fp_latency = 3.0

(* a store in flight: words [lo..hi] complete at [done_at]; [upto] is
   the latest [done_at] among it and every older store still tracked *)
type store = { lo : int; hi : int; done_at : float; upto : float }

let result_at w e =
  let n = Array.length w.enter in
  w.enter.(min e (n - 1)) +. w.y

let enter_at w e =
  let n = Array.length w.enter in
  w.enter.(min e (n - 1))

(* spin budget of the memory-progress guard, in cycles per access.  Under
   an active fault plan, legitimate waits stay under a few hundred cycles
   (degraded banks, scrub windows and port spikes are all short); only a
   permanently blocked bank spins longer, so a small guard diagnoses a
   stalled-out run cheaply without false positives. *)
let guard_for faults = if Fault.is_none faults then 1_000_000 else 50_000

(* watchdog spin-check interval in acquire_mem: frequent enough to cancel
   a stalled access long before the livelock guard trips, rare enough to
   stay off the healthy path's profile.  Shared with the fast path so a
   leap can prove it never absorbs a wait that would have polled. *)
let watchdog_spin_mask = Fastpath.spin_check_interval - 1

let run ?(machine = Machine.c240) ?layout ?(faults = Fault.none) ?guard
    ?watchdog ?access_log ?(trace = false) ?(fidelity = Fastpath.Tiered)
    (job : Job.t) =
  let layout =
    match layout with Some l -> l | None -> Job.layout job
  in
  let guard = Option.value guard ~default:(guard_for faults) in
  let memory = Memory.create ~faults ?log:access_log machine.memory in
  (* function unit instances: load/store units first, then add, then
     multiply *)
  let lsu_n = machine.pipes.load_store in
  let add_n = machine.pipes.add_unit in
  let mul_n = machine.pipes.multiply_unit in
  let n_units = lsu_n + add_n + mul_n in
  let units =
    Array.init n_units (fun _ -> { used = false; next_accept = 0.0 })
  in
  let unit_last_start = Array.make n_units 0.0 in
  let pipe_busy = Array.make Pipe.count 0.0 in
  let vwriter : inflight option array = Array.make Reg.vector_count None in
  let vm_writer : inflight option ref = ref None in
  let vreaders : inflight list array = Array.make Reg.vector_count [] in
  let sready = Array.make Reg.scalar_count 0.0 in
  let clock = { issue_front = 0.0; finish = 0.0 } in
  let active : inflight list ref = ref [] in
  (* outstanding stores, newest first: a later load overlapping a
     store's range must wait for its completion — memory RAW
     dependences, which serialize LFK2's ICCG passes and LFK6's
     recurrence *)
  let stores : store list ref = ref [] in
  (* [max floor (completion of every store overlapping lo..hi)].  Each
     entry carries the latest completion among itself and every older
     entry, so the walk stops at the first entry that cannot beat the
     running maximum — usually within the few newest stores, where a
     full scan would visit up to 65 *)
  let store_dep ~floor ~lo ~hi =
    let acc = ref floor in
    let rest = ref !stores in
    while
      match !rest with
      | s :: tl when s.upto > !acc ->
          if s.hi >= lo && s.lo <= hi then acc := Float.max !acc s.done_at;
          rest := tl;
          true
      | _ -> false
    do
      ()
    done;
    !acc
  in
  let push ~lo ~hi ~done_at older =
    let upto =
      match older with [] -> done_at | s :: _ -> Float.max done_at s.upto
    in
    { lo; hi; done_at; upto } :: older
  in
  (* [List.length !stores], kept alongside so a store pays no walk *)
  let n_stores = ref 0 in
  let note_store ~lo ~hi ~completion ~now =
    if !n_stores > 64 then begin
      n_stores := 0;
      stores :=
        List.fold_right
          (fun s older ->
            if s.done_at > now then begin
              incr n_stores;
              push ~lo:s.lo ~hi:s.hi ~done_at:s.done_at older
            end
            else older)
          !stores []
    end;
    incr n_stores;
    stores := push ~lo ~hi ~done_at:completion !stores
  in
  let events = ref [] in
  let instructions = ref 0 in
  let strips = ref 0 in
  (* call sites guard on [trace] themselves, so the non-traced hot loop
     never even constructs the event record *)
  let record ev = events := ev :: !events in
  let note_finish t = if t > clock.finish then clock.finish <- t in

  let check_watchdog cycle =
    match watchdog with
    | None -> ()
    | Some w -> (
        match w ~cycle with
        | Some e -> Macs_error.raise_error e
        | None -> ())
  in

  let acquire_mem ~earliest ~word =
    let c = ref (int_of_float (Float.ceil earliest)) in
    let spins = ref 0 in
    while not (Memory.try_access memory ~cycle:!c ~word) do
      incr c;
      incr spins;
      if !spins land watchdog_spin_mask = 0 then
        check_watchdog (float_of_int !c);
      if !spins > guard then
        Macs_error.raise_error
          (if Fault.is_none faults then
             Macs_error.livelock ~site:"Sim.run" ~cycle:!c
               ~pending:(List.length !active) ~word ()
           else
             Macs_error.stall_out ~site:"Sim.run" ~cycle:!c
               ~pending:(List.length !active) ~plan:faults.Fault.name)
    done;
    float_of_int !c
  in

  let shift_of (seg : Job.segment) array =
    match List.assoc_opt array seg.shifts with Some s -> s | None -> 0
  in

  (* A memory operand's address part that is invariant within a segment,
     resolved once: the word of loop index 0 ([base + offset + shift]) for
     an affine operand, the array base for an indexed one.  An array the
     layout lacks resolves to [unresolved], and its use then raises
     [Not_found] from the layout, as if resolved on the spot. *)
  let unresolved = min_int in
  let origin_of (seg : Job.segment) i =
    match Instr.mem_ref i with
    | None -> unresolved
    | Some m -> (
        match Layout.base_of layout m.array with
        | exception Not_found -> unresolved
        | base -> (
            match i with
            | Instr.Vgather _ | Instr.Vscatter _ -> base
            | _ -> base + m.offset + shift_of seg m.array))
  in
  (* the word of element 0 of a strip at [base_index] *)
  let first_word (m : Instr.mem) ~origin ~base_index =
    if origin = unresolved then Layout.base_of layout m.array
    else origin + (base_index * m.stride)
  in

  (* ---- scalar instructions ---- *)
  let exec_scalar ~origin ~base_index ~strip i =
    (* the fold of [Instr.reads_s] over [sready], without the list *)
    let sdeps =
      match i with
      | Instr.Sst { src; _ } -> Float.max 0.0 sready.(Reg.s_index src)
      | Sbin { src1; src2; _ } ->
          Float.max
            (Float.max 0.0 sready.(Reg.s_index src1))
            sready.(Reg.s_index src2)
      | _ -> 0.0
    in
    let t0 = Float.max clock.issue_front sdeps in
    let fin =
      match i with
      | Instr.Sld { dst; src } ->
          let word = first_word src ~origin ~base_index in
          let t0 = store_dep ~floor:t0 ~lo:word ~hi:word in
          let t_acc = acquire_mem ~earliest:t0 ~word in
          sready.(Reg.s_index dst) <- t_acc +. scalar_load_latency;
          clock.issue_front <- t_acc +. float_of_int machine.scalar_memory_cycles;
          t_acc +. scalar_load_latency
      | Sst { dst; _ } ->
          let word = first_word dst ~origin ~base_index in
          let t_acc = acquire_mem ~earliest:t0 ~word in
          clock.issue_front <- t_acc +. float_of_int machine.scalar_memory_cycles;
          note_store ~lo:word ~hi:word ~completion:(t_acc +. 1.0) ~now:t0;
          t_acc +. 1.0
      | Sbin { dst; _ } ->
          sready.(Reg.s_index dst) <- t0 +. scalar_fp_latency;
          clock.issue_front <- t0 +. float_of_int machine.scalar_cycles;
          t0 +. scalar_fp_latency
      | Sop _ | Smovvl | Sbranch ->
          clock.issue_front <- t0 +. float_of_int machine.scalar_cycles;
          t0 +. float_of_int machine.scalar_cycles
      | Vld _ | Vst _ | Vgather _ | Vscatter _ | Vbin _ | Vneg _ | Vsqrt _
      | Vcmp _ | Vmerge _ | Vsum _ ->
          invalid_arg "Sim.exec_scalar: vector instruction"
    in
    note_finish fin;
    if trace then
      record
        { instr = i; strip; issue = t0; start = t0; first_result = fin;
          completion = fin }
  in

  (* ---- vector instructions ---- *)
  let exec_vector ~origin ~base_index ~strip ~vl i =
    let cls = Option.get (Instr.vclass_of i) in
    let pipe = Pipe.of_vclass cls in
    let p = Timing.get machine.timing cls in
    (* choose the least-busy unit instance of the pipe: instances are
       numbered load/store first, then add, then multiply, so a pipe's
       instances are the range [first, first + count) *)
    let first, count =
      match pipe with
      | Pipe.Load_store -> (0, lsu_n)
      | Pipe.Add_unit -> (lsu_n, add_n)
      | Pipe.Multiply_unit -> (lsu_n + add_n, mul_n)
    in
    let u = ref first in
    for id = first + 1 to first + count - 1 do
      if units.(id).next_accept < units.(!u).next_accept then u := id
    done;
    let u = !u in
    (* in-order issue with bounded run-ahead: issue of this instruction
       cannot begin before the previous instruction on the same unit has
       started *)
    let issue_t = Float.max clock.issue_front unit_last_start.(u) in
    (* a slowed function pipe streams below rate and pays extra issue
       cycles.  Both costs are charged at the cycle they are paid — the
       startup at issue, the per-element rate at each element's entry — so
       a transient plan whose window closes mid-run stops injecting from
       that cycle on and the stream recovers to the healthy rate.  The
       healthy path must not pay for the check. *)
    let p =
      if Fault.is_none faults then p
      else
        {
          p with
          Timing.x =
            p.x
            + Fault.pipe_extra_startup faults
                ~cycle:(int_of_float issue_t) pipe;
        }
    in
    let z_at t =
      if Fault.is_none faults then p.Timing.z
      else p.Timing.z *. Fault.pipe_z_factor faults ~cycle:(int_of_float t) pipe
    in
    let arrive = issue_t +. float_of_int p.x in
    clock.issue_front <- arrive;
    let sdep =
      List.fold_left (fun acc r -> Float.max acc sready.(Reg.s_index r)) 0.0
        (Instr.reads_s i)
    in
    let srcs = Instr.reads_v i in
    let dsts = Instr.writes_v i in
    let producers =
      List.filter_map (fun r -> vwriter.(Reg.v_index r)) srcs
      @ (if Instr.reads_merge i then Option.to_list !vm_writer else [])
    in
    let waw =
      List.filter_map (fun r -> vwriter.(Reg.v_index r)) dsts
    in
    let war =
      List.concat_map (fun r -> vreaders.(Reg.v_index r)) dsts
    in
    let ready e =
      let chain =
        List.fold_left (fun acc w -> Float.max acc (result_at w e)) 0.0
          producers
      in
      let waw_c =
        List.fold_left (fun acc w -> Float.max acc (enter_at w e +. 1.0)) 0.0
          waw
      in
      let war_c =
        List.fold_left (fun acc w -> Float.max acc (enter_at w e +. 1.0)) 0.0
          war
      in
      Float.max chain (Float.max waw_c war_c)
    in
    let pipe_c =
      if units.(u).used then units.(u).next_accept +. float_of_int p.b
      else 0.0
    in
    let vmem = if Instr.is_vector_memory i then Instr.mem_ref i else None in
    let indexed =
      match i with Instr.Vgather _ | Instr.Vscatter _ -> true | _ -> false
    in
    (* placing an element below is arithmetic only: element [e] of an
       affine stream sits at [word0 + e * wstride] *)
    let abase, word0, wstride =
      match vmem with
      | Some m when indexed ->
          ((if origin = unresolved then Layout.base_of layout m.array
            else origin), 0, 0)
      | Some m -> (0, first_word m ~origin ~base_index, m.stride)
      | None -> (0, 0, 0)
    in
    let mem_range =
      match vmem with
      | Some _ when indexed ->
          (* data-dependent addresses: conservatively cover the array *)
          Some (abase, abase + 0xFFFF)
      | Some _ ->
          let w1 = word0 + ((vl - 1) * wstride) in
          Some (min word0 w1, max word0 w1)
      | None -> None
    in
    let t0 = Float.max arrive (Float.max pipe_c (Float.max (ready 0) sdep)) in
    (* a load also waits for every in-flight store it overlaps *)
    let t0 =
      match (i, mem_range) with
      | (Instr.Vld _ | Instr.Vgather _), Some (lo, hi) ->
          store_dep ~floor:t0 ~lo ~hi
      | _ -> t0
    in
    (* Register-pair port limits: at most [pair_read_limit] reads and
       [pair_write_limit] writes per pair among chime-concurrent
       instructions.  Two instructions are chime-concurrent when their
       element-entry windows overlap — tailgating instructions in
       successive chimes reuse pairs freely.  A violation delays the start
       past the end of the earliest conflicting entry window. *)
    active := List.filter (fun w -> w.completion > t0) !active;
    let entry_end w = w.enter.(Array.length w.enter - 1) in
    let my_span = z_at t0 *. float_of_int (max 0 (vl - 1)) in
    let my_rmask = pair_mask srcs in
    let my_wmask = pair_mask dsts in
    let pair_conflict_until t0 =
      let my_end = t0 +. my_span in
      (* accumulate packed per-pair usage over chime-concurrent windows
         in one pass; the per-window walk repeats only on the rare
         violation path *)
      let tr = ref my_rmask in
      let tw = ref my_wmask in
      List.iter
        (fun w ->
          if entry_end w >= t0 && w.enter.(0) <= my_end then begin
            tr := !tr + w.rmask;
            tw := !tw + w.wmask
          end)
        !active;
      let viol = ref 0 in
      for pid = 0 to Reg.pair_count - 1 do
        if
          ((my_rmask lsr (8 * pid)) land 0xff)
          + ((my_wmask lsr (8 * pid)) land 0xff)
          > 0
          && ((!tr lsr (8 * pid)) land 0xff > machine.pair_read_limit
             || (!tw lsr (8 * pid)) land 0xff > machine.pair_write_limit)
        then viol := !viol lor (1 lsl pid)
      done;
      if !viol = 0 then None
      else begin
        let best = ref Float.infinity in
        List.iter
          (fun w ->
            if entry_end w >= t0 && w.enter.(0) <= my_end then begin
              let touches = ref false in
              for pid = 0 to Reg.pair_count - 1 do
                if
                  (!viol lsr pid) land 1 = 1
                  && ((w.rmask lsr (8 * pid)) land 0xff > 0
                     || (w.wmask lsr (8 * pid)) land 0xff > 0)
                then touches := true
              done;
              if !touches && entry_end w < !best then best := entry_end w
            end)
          !active;
        if !best = Float.infinity then None else Some !best
      end
    in
    let rec settle t0 guard =
      if guard > 64 then t0
      else
        match pair_conflict_until t0 with
        | None -> t0
        | Some t when t +. 1.0 > t0 -> settle (t +. 1.0) (guard + 1)
        | Some _ -> t0 +. 1.0
    in
    let t0 = settle t0 0 in
    (* back-pressure: a chained consumer charges its bubble to the ultimate
       stream source unit (unless that is its own unit, where the tailgate
       bubble already applies) *)
    let binding_producer =
      List.fold_left
        (fun acc w ->
          if w.completion > t0 then
            match acc with
            | None -> Some w
            | Some best ->
                if result_at w 0 > result_at best 0 then Some w else acc
          else acc)
        None producers
    in
    let source_unit =
      match binding_producer with
      | Some w when w.source_unit <> u ->
          units.(w.source_unit).next_accept <-
            units.(w.source_unit).next_accept +. float_of_int p.b;
          w.source_unit
      | _ -> u
    in
    (* element streaming: in tiered mode, first try to advance the whole
       stream in one analytical leap — sound only when Fastpath can prove
       the cycle loop below would have produced exactly the closed-form
       schedule (see DESIGN §14); any failed obligation falls back to
       stepping the seam cycle by cycle *)
    let leap =
      match fidelity with
      | Fastpath.Cycle -> None
      | Fastpath.Tiered ->
          let stream =
            match vmem with
            | Some _ when indexed -> Fastpath.Opaque
            | Some _ -> Fastpath.Affine { word0; wstride }
            | None -> Fastpath.Compute
          in
          let deps =
            List.map
              (fun w -> { Fastpath.curve = w.enter; lift = w.y })
              producers
            @ List.map
                (fun w -> { Fastpath.curve = w.enter; lift = 1.0 })
                (waw @ war)
          in
          Fastpath.try_leap ~memory ~mem_params:machine.memory ~faults
            ~guard ~watchdog_armed:(watchdog <> None) ~t0 ~vl ~z:(z_at t0)
            ~deps stream
    in
    let enter =
      match leap with
      | Some entries -> entries
      | None ->
          let enter = Array.make vl t0 in
          let place e earliest =
            match vmem with
            | Some m ->
                let word =
                  if indexed then
                    (* the timing model carries no register values: indexed
                       elements address synthetic uniformly-distributed words
                       (a mixed integer hash, so banks are genuinely random),
                       the statistically faithful stand-in for a
                       data-dependent gather/scatter pattern *)
                    let h = (e + (base_index * 131) + m.offset) * 0x9E3779B1 in
                    let h = h land 0x3FFFFFFF in
                    let h = h lxor (h lsr 15) in
                    let h = h * 0x85EBCA77 land 0x3FFFFFFF in
                    let h = h lxor (h lsr 13) in
                    abase + (h land 0xFFFF)
                  else word0 + (e * wstride)
                in
                acquire_mem ~earliest ~word
            | None -> earliest
          in
          enter.(0) <- place 0 t0;
          for e = 1 to vl - 1 do
            let t =
              Float.max (enter.(e - 1) +. z_at enter.(e - 1)) (ready e)
            in
            enter.(e) <- place e t
          done;
          enter
    in
    let completion = enter.(vl - 1) +. float_of_int p.y +. 1.0 in
    (match (i, mem_range) with
    | (Instr.Vst _ | Instr.Vscatter _), Some (lo, hi) ->
        note_store ~lo ~hi ~completion ~now:t0
    | _ -> ());
    let me = { instr = i; enter; y = float_of_int p.y; completion;
               source_unit; unit_id = u;
               rmask = my_rmask; wmask = my_wmask } in
    let tail_z = z_at enter.(vl - 1) in
    units.(u).used <- true;
    units.(u).next_accept <- enter.(vl - 1) +. tail_z;
    unit_last_start.(u) <- t0;
    pipe_busy.(Pipe.index pipe) <-
      pipe_busy.(Pipe.index pipe) +. (enter.(vl - 1) +. tail_z -. enter.(0));
    List.iter
      (fun r ->
        let idx = Reg.v_index r in
        vwriter.(idx) <- Some me;
        vreaders.(idx) <- [])
      dsts;
    List.iter
      (fun r ->
        let idx = Reg.v_index r in
        vreaders.(idx) <-
          me :: List.filter (fun w -> w.completion > t0) vreaders.(idx))
      srcs;
    List.iter
      (fun r -> sready.(Reg.s_index r) <- completion)
      (Instr.writes_s i);
    if Instr.writes_merge i then vm_writer := Some me;
    active := me :: !active;
    note_finish completion;
    if trace then
      record
        { instr = i; strip; issue = issue_t; start = t0;
          first_result = enter.(0) +. me.y; completion }
  in

  let exec_instr ~origin ~base_index ~strip ~vl i =
    check_watchdog (Float.max clock.issue_front clock.finish);
    incr instructions;
    if Instr.is_vector i then exec_vector ~origin ~base_index ~strip ~vl i
    else exec_scalar ~origin ~base_index ~strip i
  in

  (* the body's operands resolve once per segment into [origins], so a
     strip (one iteration, in scalar mode) only does address arithmetic;
     the prologue and epilogue run once per segment and resolve as they
     go *)
  let body = Array.of_list job.body in
  let execute () =
    List.iter
      (fun (seg : Job.segment) ->
        let pro_vl = min seg.vl machine.max_vl in
        let run_once ~base_index ~strip =
          List.iter (fun i ->
              exec_instr ~origin:(origin_of seg i) ~base_index ~strip
                ~vl:pro_vl i)
        in
        run_once ~base_index:seg.base ~strip:!strips seg.prologue;
        let origins = Array.map (origin_of seg) body in
        let step = match job.mode with
          | Job.Vector -> machine.max_vl
          | Job.Scalar -> 1
        in
        let remaining = ref seg.vl in
        let base = ref seg.base in
        while !remaining > 0 do
          let vl = min step !remaining in
          for k = 0 to Array.length body - 1 do
            exec_instr ~origin:origins.(k) ~base_index:!base ~strip:!strips
              ~vl body.(k)
          done;
          incr strips;
          base := !base + vl;
          remaining := !remaining - vl
        done;
        run_once ~base_index:seg.base ~strip:(!strips - 1) seg.epilogue)
      job.segments
  in
  match execute () with
  | exception Macs_error.Error e -> Error e
  | () ->
      let stats =
        {
          cycles = clock.finish;
          elements = Job.total_elements job;
          instructions = !instructions;
          strips = !strips;
          mem_accesses = Memory.stats_accesses memory;
          bank_conflict_stalls = Memory.stats_conflict_stalls memory;
          refresh_stalls = Memory.stats_refresh_stalls memory;
          port_stalls = Memory.stats_port_stalls memory;
          fault_stalls = Memory.stats_fault_stalls memory;
          pipe_busy =
            List.map
              (fun pipe -> (Pipe.name pipe, pipe_busy.(Pipe.index pipe)))
              Pipe.all;
        }
      in
      Ok { stats; events = List.rev !events }

let run_exn ?machine ?layout ?faults ?guard ?watchdog ?access_log ?trace
    ?fidelity job =
  Macs_error.of_result
    (run ?machine ?layout ?faults ?guard ?watchdog ?access_log ?trace
       ?fidelity job)

let cpl r = r.stats.cycles /. float_of_int r.stats.elements

let cpf r ~flops_per_iteration =
  if flops_per_iteration <= 0 then invalid_arg "Sim.cpf: nonpositive flops";
  cpl r /. float_of_int flops_per_iteration

let pp_event fmt (e : event) =
  Format.fprintf fmt "%-30s strip=%d issue=%.1f start=%.1f first=%.1f done=%.1f"
    (Asm.print_instr e.instr) e.strip e.issue e.start e.first_result
    e.completion
