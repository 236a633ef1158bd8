open Convex_isa
open Convex_machine

type t = {
  issue : float;
  memory : float;
  fp : float;
  dependence : float;
  cpl : float;
}

(* latencies mirroring the simulator's scalar unit *)
let load_latency = Convex_vpsim.Sim.scalar_load_latency +. 1.0
let fp_latency = Convex_vpsim.Sim.scalar_fp_latency

let compute ?(carried = false) ~machine instrs =
  let scalar_instrs = List.filter Instr.is_scalar instrs in
  let issue =
    float_of_int (List.length scalar_instrs * machine.Machine.scalar_cycles)
  in
  let memory =
    float_of_int (List.length (List.filter Instr.is_scalar_memory instrs))
  in
  let fp =
    float_of_int
      (List.length
         (List.filter (function Instr.Sbin _ -> true | _ -> false) instrs))
  in
  (* critical path through the scalar registers *)
  let ready = Array.make Reg.scalar_count 0.0 in
  let last_store = ref 0.0 in
  let path = ref 0.0 in
  List.iter
    (fun i ->
      let dep =
        List.fold_left
          (fun acc r -> Float.max acc ready.(Reg.s_index r))
          0.0 (Instr.reads_s i)
      in
      let completion =
        match i with
        | Instr.Sld _ -> dep +. load_latency
        | Instr.Sbin _ -> dep +. fp_latency
        | Instr.Sst _ ->
            let t = dep +. 1.0 in
            last_store := Float.max !last_store t;
            t
        | _ -> dep
      in
      List.iter
        (fun r -> ready.(Reg.s_index r) <- completion)
        (Instr.writes_s i);
      path := Float.max !path completion)
    scalar_instrs;
  let dependence = if carried then Float.max !last_store !path else 0.0 in
  let cpl =
    Float.max issue (Float.max memory (Float.max fp dependence))
  in
  { issue; memory; fp; dependence; cpl }

let of_compiled ~machine (c : Fcc.Compiler.t) =
  match c.mode with
  | Convex_vpsim.Job.Vector ->
      invalid_arg "Scalar_bound.of_compiled: vector-mode compilation"
  | Convex_vpsim.Job.Scalar ->
      let carried = c.verdict <> Fcc.Vectorizer.Vectorizable in
      compute ~carried ~machine (Convex_isa.Program.body c.program)

let pp fmt t =
  Format.fprintf fmt
    "scalar bound: issue %.1f, memory %.1f, fp %.1f, dependence %.1f -> \
     %.1f CPL"
    t.issue t.memory t.fp t.dependence t.cpl
