(* The cycle-vs-tiered perf gate.

   For every Livermore kernel in [Lfk.Kernels.all], simulate the compiled
   job once per tier to warm up, then take [samples] back-to-back pairs of
   one cycle run and one tiered run.  A kernel's speedup is the median of
   its per-pair ratios (the interquartile range rides along as the
   spread), and the gate is the geometric mean of those medians against
   [tiered_geomean_floor] in bench/perf_floor.json.  Interleaving puts the
   two tiers of a pair under the same machine conditions, so drift cancels
   in the ratio; the median discards the pairs a stolen time slice spoils.

   Writes BENCH_vpsim.json and exits 1 below the floor, 2 on a missing or
   malformed floor.  Takes no arguments; run it from the repository root:
   dune exec bench/main.exe *)

module Json = Convex_serve.Json
module Stats = Macs_util.Stats
module Sim = Convex_vpsim.Sim
open Convex_vpsim.Fastpath

(* Chosen by spread: over ten interleaved gate runs of each on a 2-core
   box the geomean ranged 0.37x wide at 15 pairs, 0.28x at 51 and 0.25x
   at 151.  Past 51 the spread is run-to-run drift that more pairs do
   not remove, and 151 pairs cost three times as long. *)
let samples = 51
let floor_path = "bench/perf_floor.json"
let floor_key = "tiered_geomean_floor"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let read_perf_floor () =
  let text =
    try In_channel.with_open_bin floor_path In_channel.input_all
    with Sys_error e -> die "cannot read the perf floor: %s" e
  in
  match Json.parse text with
  | Error e -> die "%s: %s" floor_path e
  | Ok json -> (
      match Option.bind (Json.mem json floor_key) Json.num with
      | Some floor -> floor
      | None -> die "%s: %S is missing or not a number" floor_path floor_key)

(* A bank-conflict-heavy kernel: stride 32 folds every access onto one
   bank.  Reported beside the suite but kept out of the geomean, to record
   what attempting leaps costs on the worst stream. *)
let adversarial_job =
  let v = Convex_isa.Reg.v in
  let m array offset stride : Convex_isa.Instr.mem =
    { array; offset; stride }
  in
  Convex_vpsim.Job.make ~name:"bank-storm"
    ~body:
      [
        Convex_isa.Instr.Vld { dst = v 0; src = m "A" 0 32 };
        Convex_isa.Instr.Vbin
          { op = Add; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) };
        Convex_isa.Instr.Vst { src = v 2; dst = m "B" 0 32 };
      ]
    ~segments:[ Convex_vpsim.Job.segment 1024 ]
    ()

type row = {
  name : string;
  cycle_s : float;  (** median seconds per cycle-tier run *)
  tiered_s : float;  (** median seconds per tiered run *)
  speedup : float;  (** median of the per-pair cycle/tiered ratios *)
  iqr : float;  (** interquartile range of those ratios *)
  ns_per_elem : float;  (** [tiered_s] per simulated element, in ns *)
}

let measure name ?layout job =
  let sim fidelity = Sim.run_exn ?layout ~fidelity job in
  let time fidelity =
    let t0 = Unix.gettimeofday () in
    ignore (sim fidelity);
    Unix.gettimeofday () -. t0
  in
  ignore (sim Cycle);
  let elements = (sim Tiered).Sim.stats.elements in
  let pairs = Array.init samples (fun _ -> (time Cycle, time Tiered)) in
  let ratios = Array.map (fun (c, t) -> c /. t) pairs in
  let tiered_s = Stats.median (Array.map snd pairs) in
  let row =
    {
      name;
      cycle_s = Stats.median (Array.map fst pairs);
      tiered_s;
      speedup = Stats.median ratios;
      iqr = Stats.percentile 75.0 ratios -. Stats.percentile 25.0 ratios;
      ns_per_elem = tiered_s *. 1e9 /. float_of_int elements;
    }
  in
  Printf.printf
    "  %-11s cycle %7.3f ms  tiered %7.3f ms  %6.1f ns/elem  speedup %6.2fx \
     (IQR %.2f)\n%!"
    name (row.cycle_s *. 1e3) (tiered_s *. 1e3) row.ns_per_elem row.speedup
    row.iqr;
  row

let write_json path ~rows ~geomean ~floor =
  let json_row r =
    Printf.sprintf
      "    { \"kernel\": %S, \"cycle_s\": %.6f, \"tiered_s\": %.6f, \
       \"tiered_ns_per_elem\": %.1f, \"speedup\": %.3f, \"speedup_iqr\": \
       %.3f }"
      r.name r.cycle_s r.tiered_s r.ns_per_elem r.speedup r.iqr
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"macs-bench-vpsim/2\",\n\
        \  \"samples\": %d,\n\
        \  \"geomean_speedup\": %.3f,\n\
        \  \"floor\": %.3f,\n\
        \  \"kernels\": [\n\
         %s\n\
        \  ]\n\
         }\n"
        samples geomean floor
        (String.concat ",\n" (List.map json_row rows)));
  Printf.printf "wrote %s\n" path

let () =
  if Array.length Sys.argv > 1 then
    die "takes no arguments (got %s)" Sys.argv.(1);
  let floor = read_perf_floor () in
  Printf.printf
    "Tiered fidelity: median cycle/tiered ratio of %d interleaved pairs\n"
    samples;
  let kernel_rows =
    List.map
      (fun (k : Lfk.Kernel.t) ->
        let c = Fcc.Compiler.compile k in
        measure k.name ~layout:(Macs.Hierarchy.layout_of c) c.job)
      Lfk.Kernels.all
  in
  let storm = measure "bank-storm" adversarial_job in
  let geomean =
    Stats.geometric_mean
      (Array.of_list (List.map (fun r -> r.speedup) kernel_rows))
  in
  Printf.printf "  %-11s geomean speedup %.2fx (bank-storm excluded)\n"
    "livermore" geomean;
  write_json "BENCH_vpsim.json" ~rows:(kernel_rows @ [ storm ]) ~geomean
    ~floor;
  if geomean < floor then begin
    Printf.printf
      "PERF REGRESSION: tiered geomean %.2fx below committed floor %.2fx\n"
      geomean floor;
    exit 1
  end;
  Printf.printf "perf gate: geomean %.2fx >= floor %.2fx\n" geomean floor
