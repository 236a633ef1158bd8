type pipe_config = { load_store : int; add_unit : int; multiply_unit : int }
[@@deriving show, eq]

type t = {
  name : string;
  clock_mhz : float;
  max_vl : int;
  timing : Timing.table;
  memory : Mem_params.t;
  pipes : pipe_config;
  pair_read_limit : int;
  pair_write_limit : int;
  scalar_cycles : int;
  scalar_memory_cycles : int;
}

let c240 =
  {
    name = "Convex C-240";
    clock_mhz = 25.0;
    max_vl = 128;
    timing = Timing.c240;
    memory = Mem_params.c240;
    pipes = { load_store = 1; add_unit = 1; multiply_unit = 1 };
    pair_read_limit = 2;
    pair_write_limit = 1;
    scalar_cycles = 1;
    scalar_memory_cycles = 1;
  }

let no_bubbles m =
  { m with name = m.name ^ " (B=0)"; timing = Timing.zero_bubbles m.timing }

let no_refresh m =
  {
    m with
    name = m.name ^ " (no refresh)";
    memory = Mem_params.no_refresh m.memory;
  }

let no_long_z m =
  {
    m with
    name = m.name ^ " (Z=1)";
    timing = Timing.map (fun _ p -> { p with z = 1.0 }) m.timing;
  }

let ideal =
  let m = no_refresh (no_bubbles c240) in
  {
    m with
    name = "Idealized C-240";
    timing = Timing.map (fun _ p -> { p with z = 1.0 }) m.timing;
  }

let dual_load_store m =
  {
    m with
    name = m.name ^ " (dual LSU)";
    pipes = { m.pipes with load_store = 2 };
  }

(* Doubling every function unit lets the schedule-aware MACS bound pack
   two memory (or FP) operations per chime, dropping it below the MA/MAC
   counts bounds, which assume one operation per pipe class per cycle —
   the hierarchy M <= MA <= MAC <= MACS no longer holds.  Kept as a stock
   preset precisely so the bound oracle has a machine it must reject. *)
let broken_hierarchy m =
  {
    m with
    name = m.name ^ " (broken hierarchy: doubled pipes)";
    pipes = { load_store = 2; add_unit = 2; multiply_unit = 2 };
  }

let clock_period_ns m = 1000.0 /. m.clock_mhz
let mflops_of_cpf m cpf = m.clock_mhz /. cpf

let pipe_count m = function
  | Pipe.Load_store -> m.pipes.load_store
  | Pipe.Add_unit -> m.pipes.add_unit
  | Pipe.Multiply_unit -> m.pipes.multiply_unit

let pp fmt m =
  Format.fprintf fmt
    "@[<v>%s: %.0f MHz, VL=%d, pipes=%a@,timing:@,%a@,memory: %a@]" m.name
    m.clock_mhz m.max_vl pp_pipe_config m.pipes Timing.pp m.timing
    Mem_params.pp m.memory

let equal m1 m2 =
  String.equal m1.name m2.name
  && m1.clock_mhz = m2.clock_mhz
  && m1.max_vl = m2.max_vl
  && Timing.equal m1.timing m2.timing
  && Mem_params.equal m1.memory m2.memory
  && equal_pipe_config m1.pipes m2.pipes
  && m1.pair_read_limit = m2.pair_read_limit
  && m1.pair_write_limit = m2.pair_write_limit
  && m1.scalar_cycles = m2.scalar_cycles
  && m1.scalar_memory_cycles = m2.scalar_memory_cycles

(* ---- the canonical spec grid ---- *)

let vclass_names =
  [
    ("ld", Convex_isa.Instr.Cld);
    ("st", Convex_isa.Instr.Cst);
    ("add", Convex_isa.Instr.Cadd);
    ("sub", Convex_isa.Instr.Csub);
    ("mul", Convex_isa.Instr.Cmul);
    ("div", Convex_isa.Instr.Cdiv);
    ("sqrt", Convex_isa.Instr.Csqrt);
    ("sum", Convex_isa.Instr.Csum);
    ("neg", Convex_isa.Instr.Cneg);
    ("cmp", Convex_isa.Instr.Ccmp);
    ("merge", Convex_isa.Instr.Cmerge);
  ]

(* Shortest decimal that parses back to exactly the same float — the
   Fault.to_spec idiom, so canonical specs stay human-readable without
   losing round-trip fidelity. *)
let float_token f =
  let short = Printf.sprintf "%.12g" f in
  if float_of_string short = f then short else Printf.sprintf "%.17g" f

(* Names travel as one clause value, so only the clause separator, the
   escape character itself, and control bytes need armor; everything else
   (spaces, parens, colons, even '=') passes through literally. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '%' || c = ';' || Char.code c < 0x20 || Char.code c = 0x7f then
        Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c))
      else Buffer.add_char b c)
    s;
  Buffer.contents b

(* every clause after [name=]: the fields that can change a result *)
let field_clauses m =
  let mem = m.memory in
  let buf = Buffer.create 256 in
  let clause fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  clause ";clock=%s" (float_token m.clock_mhz);
  clause ";vl=%d" m.max_vl;
  clause ";pipes=%d/%d/%d" m.pipes.load_store m.pipes.add_unit
    m.pipes.multiply_unit;
  clause ";pair=%d/%d" m.pair_read_limit m.pair_write_limit;
  clause ";scalar=%d/%d" m.scalar_cycles m.scalar_memory_cycles;
  clause ";banks=%d" mem.Mem_params.banks;
  clause ";word=%d" mem.Mem_params.word_bytes;
  clause ";busy=%d" mem.Mem_params.bank_busy_cycles;
  (if mem.Mem_params.refresh_duration = 0 then clause ";refresh=none"
   else
     clause ";refresh=%d/%d" mem.Mem_params.refresh_duration
       mem.Mem_params.refresh_period);
  clause ";ports=%d" mem.Mem_params.ports;
  List.iter
    (fun (cname, c) ->
      let p = Timing.get m.timing c in
      clause ";t.%s=%d/%d/%s/%d" cname p.Timing.x p.Timing.y
        (float_token p.Timing.z) p.Timing.b)
    vclass_names;
  Buffer.contents buf

let to_spec m = "name=" ^ escape m.name ^ field_clauses m
let digest m = Digest.to_hex (Digest.string (field_clauses m))

let presets =
  [
    ("c240", c240);
    ("ideal", ideal);
    ("no-bubbles", no_bubbles c240);
    ("no-refresh", no_refresh c240);
    ("dual-lsu", dual_load_store c240);
    ("broken-hierarchy", broken_hierarchy c240);
  ]

let preset_names = List.map fst presets

let of_name n =
  match List.assoc_opt n presets with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown machine %S (one of: %s)" n
           (String.concat ", " preset_names))
