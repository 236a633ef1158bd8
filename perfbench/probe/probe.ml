(* In-process side of the benchmark (perfbench/run.py drives it).

   probe reference --frames F --dir D --out O
     Answers every frame of F, in order, through one in-process
     [Server.handle_line] configured like the benchmarked server (session
     and cache under D), one reply per line of O: the solo reference that
     multi-client replies must equal byte for byte.

   probe layers --specs S --frames F --dir D --jobs N --trace T --out O
     Times the public entry point of each layer on the seed's specs and
     frames, checks what it computes, keeps one span per call in memory
     and writes them to T at exit in the Chrome trace-event format of
     [Convex_vpsim.Trace_export].  O receives the per-layer metrics as one
     JSON object; exits 1 if a check fails. *)

open Convex_machine
module Json = Convex_serve.Json
module Server = Convex_serve.Server
module Session = Convex_serve.Session
module Protocol = Convex_serve.Protocol
module Engine = Convex_serve.Engine
module Cache = Convex_cache.Cache
module Measure = Convex_vpsim.Measure
module Sim = Convex_vpsim.Sim
module Fastpath = Convex_vpsim.Fastpath

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written once at exit.                        *)

type span = {
  name : string;
  id : int;
  parent : int option;
  ts : float;  (** seconds since [epoch] *)
  dur : float;  (** seconds *)
  args : (string * Json.t) list;
}

let epoch = Unix.gettimeofday ()
let spans = ref []
let next_id = ref 0
let open_spans = ref []

(* Run [f] inside a span; returns its result, host seconds and minor
   words allocated. *)
let timed ?(args = []) name f =
  incr next_id;
  let id = !next_id in
  let parent = match !open_spans with p :: _ -> Some p | [] -> None in
  open_spans := id :: !open_spans;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    open_spans := List.tl !open_spans;
    spans := { name; id; parent; ts = t0 -. epoch; dur = t1 -. t0; args }
             :: !spans;
    (t1 -. t0, w1 -. w0)
  in
  match f () with
  | r ->
      let dt, words = finish () in
      (r, dt, words)
  | exception e ->
      ignore (finish ());
      raise e

let trace_json () =
  let span_event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("pid", Json.Num 2.0);
        ("tid", Json.Num 1.0);
        ("ts", Json.Num (s.ts *. 1e6));
        ("dur", Json.Num (Float.max 0.001 (s.dur *. 1e6)));
        ( "args",
          Json.Obj
            ((("span", Json.Num (float_of_int s.id))
             :: (match s.parent with
                | Some p -> [ ("parent", Json.Num (float_of_int p)) ]
                | None -> []))
            @ s.args) );
      ]
  in
  let meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 2.0);
        ("tid", Json.Num 1.0);
        ("args", Json.Obj [ ("name", Json.Str "in-process layers") ]);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (meta :: List.rev_map span_event !spans));
         ("displayTimeUnit", Json.Str "ms");
       ])

(* ------------------------------------------------------------------ *)
(* Small statistics.                                                   *)

let median l =
  match l with
  | [] -> nan
  | _ -> Macs_util.Stats.median (Array.of_list l)

let mean l =
  match l with [] -> nan | _ -> Macs_util.Stats.mean (Array.of_list l)

let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* Sweep cells rebuilt from the public pieces.                         *)

let parse_machine spec =
  match Convex_dsl.Machine_dsl.parse spec with
  | Ok m -> m
  | Error e ->
      fail "spec %S: %s" spec (Macs_util.Macs_error.to_string e);
      Machine.c240

type sims = {
  mutable tiered : (float * float * int) list;  (** s, minor words, elems *)
  mutable cycle : (float * float * int) list;
  mutable cycle_major : int;
  mutable elements : int;
  mutable sim_cycles : float;
  mutable stalls : int;
  mutable compile : (float * float) list;
  mutable bound : float list;
  mutable bound_ratio : float list;
}

let measure sims ~label ~machine ~layout ~flops job =
  let run fidelity name =
    let major0 = (Gc.quick_stat ()).Gc.major_collections in
    let r, dt, words =
      timed name ~args:[ ("job", Json.Str label) ] (fun () ->
          Measure.run ~machine ~layout ~fidelity ~flops_per_iteration:flops
            job)
    in
    let majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
    (r, dt, words, majors)
  in
  let rt, dt_t, w_t, _ = run Fastpath.Tiered "vpsim.measure.tiered" in
  let rc, dt_c, w_c, majors = run Fastpath.Cycle "vpsim.measure.cycle" in
  match (rt, rc) with
  | Ok t, Ok c ->
      if t <> c then fail "%s: tiered and cycle measurements differ" label;
      let s = t.Measure.stats in
      sims.tiered <- (dt_t, w_t, s.Sim.elements) :: sims.tiered;
      sims.cycle <- (dt_c, w_c, s.Sim.elements) :: sims.cycle;
      sims.cycle_major <- sims.cycle_major + majors;
      sims.elements <- sims.elements + s.Sim.elements;
      sims.sim_cycles <- sims.sim_cycles +. s.Sim.cycles;
      sims.stalls <-
        sims.stalls + s.Sim.bank_conflict_stalls + s.Sim.refresh_stalls
        + s.Sim.port_stalls + s.Sim.fault_stalls;
      Some (t, dt_t)
  | Error e, _ | _, Error e ->
      fail "%s: %s" label (Macs_util.Macs_error.to_string e);
      None

let sweep_cell sims ~spec ~machine (k : Lfk.Kernel.t) =
  let label = Printf.sprintf "%s/%s" k.Lfk.Kernel.name spec in
  let cell () =
    let c, dt, words = timed "fcc.compile" (fun () -> Fcc.Compiler.compile k) in
    sims.compile <- (dt, words) :: sims.compile;
    let flops = c.Fcc.Compiler.flops_per_iteration in
    let layout = Macs.Hierarchy.layout_of c in
    if not (Fcc.Vectorizer.vectorizable k) then
      ignore (measure sims ~label ~machine ~layout ~flops c.Fcc.Compiler.job)
    else
      let body = Convex_isa.Program.body c.Fcc.Compiler.program in
      let t_macs, dt, _ =
        timed "core.bound" (fun () -> Macs.Macs_bound.compute ~machine body)
      in
      sims.bound <- dt :: sims.bound;
      let _, dt_est, _ =
        timed "core.estimate" (fun () -> Macs.Estimate.of_compiled ~machine c)
      in
      let job = c.Fcc.Compiler.job in
      let m name j = measure sims ~label:(label ^ name) ~machine ~layout ~flops j in
      match (m "" job, m "/a" (Macs.Ax.a_process job), m "/x" (Macs.Ax.x_process job)) with
      | Some (t_p, dt_p), Some (t_a, _), Some (t_x, _) ->
          sims.bound_ratio <- (dt_p /. dt_est) :: sims.bound_ratio;
          let ma = Macs.Counts.ma_of_kernel k in
          let mac = Macs.Counts.mac_of_program c.Fcc.Compiler.program in
          let h =
            {
              Macs.Hierarchy.kernel = k;
              compiled = c;
              machine;
              flops;
              ma;
              mac;
              t_ma = float_of_int (Macs.Counts.t_bound ma);
              t_mac = float_of_int (Macs.Counts.t_bound mac);
              t_macs;
              t_macs_f = Macs.Macs_bound.f_only ~machine body;
              t_macs_m = Macs.Macs_bound.m_only ~machine body;
              t_p;
              t_a;
              t_x;
            }
          in
          let violations, _, _ =
            timed "core.check_hierarchy" (fun () ->
                Macs.Oracle.check_hierarchy h)
          in
          if violations <> [] then
            fail "%s: %d bound-oracle violations" label
              (List.length violations);
          let r =
            Macs.Hierarchy.of_compiled ~machine ~fidelity:Fastpath.Tiered c
          in
          let open Macs.Hierarchy in
          if
            not
              (r.t_ma = h.t_ma && r.t_mac = h.t_mac
              && r.t_macs.Macs.Macs_bound.cpl = t_macs.Macs.Macs_bound.cpl
              && r.t_macs_f.Macs.Macs_bound.cpl = h.t_macs_f.Macs.Macs_bound.cpl
              && r.t_macs_m.Macs.Macs_bound.cpl = h.t_macs_m.Macs.Macs_bound.cpl
              && r.t_p = t_p && r.t_a = t_a && r.t_x = t_x)
          then fail "%s: rebuilt hierarchy differs from Hierarchy.of_compiled" label
      | _ -> ()
  in
  ignore (timed "sweep.cell" ~args:[ ("cell", Json.Str label) ] cell)

(* Cycle / tiered host time per LFK kernel on the C-240, interleaved
   samples, medians: the repeated-sample form of bench/main.exe's gate. *)
let speedups ~samples =
  List.map
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      let layout = Macs.Hierarchy.layout_of c in
      let run fidelity () =
        ignore
          (Measure.run ~layout ~fidelity
             ~flops_per_iteration:c.Fcc.Compiler.flops_per_iteration
             c.Fcc.Compiler.job)
      in
      let one fidelity =
        let (), dt, _ = timed "vpsim.speedup_sample" (run fidelity) in
        dt
      in
      run Fastpath.Tiered ();
      let cyc = ref [] and tie = ref [] in
      for _ = 1 to samples do
        cyc := one Fastpath.Cycle :: !cyc;
        tie := one Fastpath.Tiered :: !tie
      done;
      median !cyc /. median !tie)
    Lfk.Kernels.all

(* ------------------------------------------------------------------ *)
(* Report, harness and executor.                                       *)

let cpf_err_pct (d : Macs_report.Dataset.t) =
  mean
    (List.map
       (fun (h : Macs.Hierarchy.t) ->
         let paper = Macs_report.Paper.row h.Macs.Hierarchy.kernel.Lfk.Kernel.id in
         100.0
         *. Float.abs (Macs.Hierarchy.t_p_cpf h -. paper.Macs_report.Paper.t_p_cpf)
         /. paper.Macs_report.Paper.t_p_cpf)
       d.Macs_report.Dataset.rows)

let report_layer ~samples =
  let ds = ref [] and render = ref [] and last = ref None in
  for _ = 1 to samples do
    let d, dt, _ =
      timed "report.dataset" (fun () -> Macs_report.Dataset.compute ())
    in
    ds := dt :: !ds;
    let _, dt, _ =
      timed "report.render" (fun () ->
          String.concat "\n"
            [
              Macs_report.Tables.table1 ();
              Macs_report.Tables.table2 d;
              Macs_report.Tables.table3 d;
              Macs_report.Tables.table4 d;
              Macs_report.Tables.table5 d;
            ])
    in
    render := dt :: !render;
    last := Some d
  done;
  (median !ds, median !render, cpf_err_pct (Option.get !last))

let harness_layer ~jobs ~samples =
  let suite j =
    let r, dt, _ =
      timed "harness.suite" ~args:[ ("jobs", Json.Num (float_of_int j)) ]
        (fun () ->
          Convex_harness.Supervisor.run ~jobs:j ~fidelity:Fastpath.Tiered ())
    in
    (match r with
    | Ok o ->
        if
          o.Convex_harness.Supervisor.stats.Convex_harness.Supervisor.estimated
          <> 0
          || o.Convex_harness.Supervisor.quarantined <> []
          || List.length o.Convex_harness.Supervisor.suite.Macs_report.Suite.rows
             <> 12
        then fail "harness suite at jobs %d: estimated or quarantined rows" j
    | Error why -> fail "harness suite at jobs %d: %s" j why);
    dt
  in
  ignore (suite jobs);
  let one = ref [] and n = ref [] in
  for _ = 1 to samples do
    one := suite 1 :: !one;
    n := suite jobs :: !n
  done;
  let spawn = ref [] in
  for _ = 1 to 4 * samples do
    let _, dt, _ =
      timed "exec.run" (fun () ->
          Convex_exec.Executor.run ~jobs ~cells:jobs (fun i -> i))
    in
    spawn := dt :: !spawn
  done;
  (median !n, median !one, median !spawn)

(* ------------------------------------------------------------------ *)
(* Serve layers, in process, on the seed's frames.                     *)

let serve_layers ~dir frames =
  let decoded =
    List.map
      (fun line ->
        let r, dt, _ =
          timed "serve.decode" (fun () ->
              Protocol.decode_frame ~max_batch:64 line)
        in
        (line, r, dt))
      frames
  in
  let evals = Hashtbl.create 4 in
  List.iter
    (fun (_, r, _) ->
      match r with
      | Ok (Protocol.Batch { items; budget_cycles = None; _ }) ->
          List.iter
            (fun item ->
              let op =
                match item with
                | Ok (it : Protocol.item) -> Protocol.op_name it.op
                | Error _ -> "error"
              in
              let _, dt, _ =
                timed "serve.eval_item" ~args:[ ("op", Json.Str op) ]
                  (fun () -> Engine.eval_item item)
              in
              Hashtbl.replace evals op
                (dt :: Option.value ~default:[] (Hashtbl.find_opt evals op)))
            items
      | Ok _ -> ()
      | Error e -> fail "frame rejected: %s" e.Protocol.message)
    decoded;
  let make config =
    match Server.create config with
    | Ok s -> s
    | Error why ->
        fail "server: %s" why;
        exit 1
  in
  let handle server name =
    List.map
      (fun line ->
        let reply, dt, _ = timed name (fun () -> Server.handle_line server line) in
        (reply, dt))
      frames
  in
  let cache_dir = Filename.concat dir "layers.cache" in
  let cold =
    handle
      (make
         {
           Server.default_config with
           session = Some (Filename.concat dir "layers.session");
           cache_dir = Some cache_dir;
         })
      "serve.handle_line.cold"
  in
  let hit =
    handle
      (make { Server.default_config with cache_dir = Some cache_dir })
      "serve.handle_line.hit"
  in
  List.iter2
    (fun (c, _) (h, _) -> if c <> h then fail "cache-hit reply differs from cold reply")
    cold hit;
  (* the cache and the journal on their own, fed the same replies *)
  let cache = Cache.open_dir (Filename.concat dir "probe.cache") in
  let keyed =
    List.map2
      (fun (line, r, _) (reply, _) ->
        let id =
          match r with Ok (Protocol.Batch { id; _ }) -> id | _ -> ""
        in
        let fkey = Session.frame_key ~id ~payload:line in
        (fkey, id, Cache.key ~kind:"serve-reply" [ ("frame", fkey) ], reply))
      decoded cold
  in
  let stores =
    List.map
      (fun (_, _, key, reply) ->
        let (), dt, _ = timed "cache.store" (fun () -> Cache.store cache ~key reply) in
        dt)
      keyed
  in
  let finds =
    List.map
      (fun (_, _, key, reply) ->
        let r, dt, _ = timed "cache.find" (fun () -> Cache.find cache ~key) in
        if r <> Some reply then fail "cache.find did not return the stored reply";
        dt)
      keyed
  in
  let entry_bytes =
    mean
      (List.map
         (fun (_, _, key, _) ->
           float_of_int (Unix.stat (Cache.entry_path cache key)).Unix.st_size)
         keyed)
  in
  let session =
    match Session.open_ (Filename.concat dir "probe.session") with
    | Ok s -> s
    | Error why ->
        fail "session: %s" why;
        exit 1
  in
  let appends =
    List.concat_map
      (fun (fkey, id, _, reply) ->
        let items =
          match Option.bind (Result.to_option (Json.parse reply)) (fun j -> Json.mem j "results") with
          | Some (Json.Arr l) -> l
          | _ -> []
        in
        let item_times =
          List.mapi
            (fun index it ->
              let (), dt, _ =
                timed "journal.record_item" (fun () ->
                    Session.record_item session ~key:fkey ~index (Json.to_string it))
              in
              dt)
            items
        in
        let (), dt, _ =
          timed "journal.record_frame" (fun () ->
              Session.record_frame session ~key:fkey ~id reply)
        in
        dt :: item_times)
      keyed
  in
  let op_ms op =
    1e3 *. median (Option.value ~default:[] (Hashtbl.find_opt evals op))
  in
  ( [
      ("serve.decode_us", 1e6 *. median (List.map (fun (_, _, d) -> d) decoded));
      ("serve.eval_simulate_ms", op_ms "simulate");
      ("serve.eval_hierarchy_ms", op_ms "hierarchy");
      ("serve.handle_line_us", 1e6 *. median (List.map snd cold));
      ("serve.handle_line_hit_us", 1e6 *. median (List.map snd hit));
      ("cache.store_us", 1e6 *. median stores);
      ("cache.find_us", 1e6 *. median finds);
      ("cache.entry_bytes", entry_bytes);
      ("journal.append_us", 1e6 *. median appends);
    ],
    List.map (fun (_, dt) -> 1e6 *. dt) hit )

(* ------------------------------------------------------------------ *)

let layers ~specs ~frames ~dir ~jobs ~trace ~out =
  let sims =
    {
      tiered = [];
      cycle = [];
      cycle_major = 0;
      elements = 0;
      sim_cycles = 0.0;
      stalls = 0;
      compile = [];
      bound = [];
      bound_ratio = [];
    }
  in
  List.iter
    (fun spec ->
      let machine = parse_machine spec in
      List.iter (sweep_cell sims ~spec ~machine)
        (Lfk.Kernels.all @ Lfk.Kernels.scalar_kernels))
    specs;
  let ratios = speedups ~samples:9 in
  let geomean = Macs_util.Stats.geometric_mean (Array.of_list ratios) in
  let machines = List.map parse_machine specs in
  let advise =
    List.map
      (fun (k : Lfk.Kernel.t) ->
        let _, dt, _ =
          timed "core.advise" (fun () -> Macs.Advisor.advise ~machine:Machine.c240 k)
        in
        dt)
      Lfk.Kernels.all
  in
  let validate =
    List.map
      (fun machine ->
        let r, dt, _ =
          timed "core.validate" (fun () ->
              Macs.Oracle.validate ~machine ~fidelity:Fastpath.Tiered ())
        in
        if r.Macs.Oracle.violations <> [] then
          fail "validate %s: violations" machine.Machine.name;
        dt)
      machines
  in
  let dataset_s, render_s, cpf_err = report_layer ~samples:3 in
  let suite_n, suite_1, spawn = harness_layer ~jobs ~samples:5 in
  let serve_metrics, hit_us = serve_layers ~dir frames in
  let per_sim l f = mean (List.map f l) in
  let metrics =
    [
      ("fcc.compile_us", 1e6 *. median (List.map fst sims.compile));
      ("fcc.compile_kwords", per_sim sims.compile (fun (_, w) -> w /. 1e3));
      ("core.bound_us", 1e6 *. median sims.bound);
      ("core.advise_ms", 1e3 *. median advise);
      ("core.validate_ms", 1e3 *. median validate);
      ("vpsim.tiered_ms", 1e3 *. median (List.map (fun (d, _, _) -> d) sims.tiered));
      ("vpsim.cycle_ms", 1e3 *. median (List.map (fun (d, _, _) -> d) sims.cycle));
      ( "vpsim.tiered_ns_per_elem",
        1e9 *. sum (List.map (fun (d, _, _) -> d) sims.tiered)
        /. float_of_int sims.elements );
      ( "vpsim.cycle_ns_per_elem",
        1e9 *. sum (List.map (fun (d, _, _) -> d) sims.cycle)
        /. float_of_int sims.elements );
      ("vpsim.tiered_kwords", per_sim sims.tiered (fun (_, w, _) -> w /. 1e3));
      ("vpsim.cycle_kwords", per_sim sims.cycle (fun (_, w, _) -> w /. 1e3));
      ( "vpsim.major_gcs",
        float_of_int sims.cycle_major /. float_of_int (List.length sims.cycle) );
      ("vpsim.tiered_speedup_geomean", geomean);
      ("vpsim.tiered_speedup_min", List.fold_left Float.min infinity ratios);
      ("vpsim.bound_ratio", median sims.bound_ratio);
      ("vpsim.sim_elements", float_of_int sims.elements);
      ("vpsim.sim_cycles", sims.sim_cycles);
      ("vpsim.stall_cycles", float_of_int sims.stalls);
      ("report.dataset_ms", 1e3 *. dataset_s);
      ("report.render_ms", 1e3 *. render_s);
      ("model.cpf_err_pct", cpf_err);
      ("harness.suite_ms", 1e3 *. suite_n);
      ("harness.suite_jobs1_ms", 1e3 *. suite_1);
      ("exec.scaling", suite_1 /. suite_n);
      ("exec.spawn_us", 1e6 *. spawn);
    ]
    @ serve_metrics
  in
  write_file trace (trace_json ());
  let num x = Json.Num x in
  write_file out
    (Json.to_string
       (Json.Obj
          [
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) metrics));
            ("handle_line_hit_us", Json.Arr (List.map num hit_us));
            ("failures", Json.Arr (List.rev_map (fun m -> Json.Str m) !failures));
          ]));
  if !failures <> [] then (
    List.iter prerr_endline (List.rev !failures);
    exit 1)

let reference ~frames ~dir ~out =
  match
    Server.create
      {
        Server.default_config with
        session = Some (Filename.concat dir "reference.session");
        cache_dir = Some (Filename.concat dir "reference.cache");
      }
  with
  | Error why ->
      prerr_endline why;
      exit 1
  | Ok server ->
      let buf = Buffer.create 65536 in
      List.iter
        (fun line ->
          Buffer.add_string buf (Server.handle_line server line);
          Buffer.add_char buf '\n')
        frames;
      write_file out (Buffer.contents buf)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> opt name rest
    | [] ->
        Printf.eprintf "probe: missing %s\n" name;
        exit 2
  in
  let get name = opt name args in
  match args with
  | _ :: "reference" :: _ ->
      reference ~frames:(read_lines (get "--frames")) ~dir:(get "--dir")
        ~out:(get "--out")
  | _ :: "layers" :: _ ->
      layers
        ~specs:(read_lines (get "--specs"))
        ~frames:(read_lines (get "--frames"))
        ~dir:(get "--dir")
        ~jobs:(int_of_string (get "--jobs"))
        ~trace:(get "--trace") ~out:(get "--out")
  | _ ->
      prerr_endline "usage: probe (reference | layers) ...";
      exit 2
