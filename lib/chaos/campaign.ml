open Convex_machine
module Fault = Convex_fault.Fault
module Macs_error = Macs_util.Macs_error
module Journal = Macs_util.Journal
module Budget = Convex_harness.Budget
module Suite = Macs_report.Suite
module Exec = Convex_exec.Executor
module Cache = Convex_cache.Cache
module Durable = Convex_exec.Durable

(* ---- configuration ---- *)

type config = {
  seed : int;
  cells : int;
  machine : Machine.t;
  opt : Fcc.Opt_level.t;
  budget : Budget.t;
      (** per-cell watchdog; keep it to cycles for a byte-identical
          journal — wall-clock budgets trade determinism for safety *)
  journal : string option;
  resume : bool;
  max_shrink_steps : int;
  jobs : int;
  kill_cells : int list;
      (** fault injection into the harness itself: these cells raise
          {!Exec.Worker_killed} instead of running — not part of the
          journaled config, like [budget] *)
  cache : string option;
      (** content-addressed result cache directory; keyed on the cell's
          (kernel, plan, machine, opt, budget, shrink cap) — not
          on seed or index, so any campaign sharing the cache reuses
          matching cells *)
  fidelity : Convex_vpsim.Fastpath.fidelity;
      (** stepper tier for every cell simulation; verdicts are
          bit-identical across tiers, so this is not part of the
          journaled config or the cache key *)
}

let default_config =
  {
    seed = 42;
    cells = 24;
    machine = Machine.c240;
    opt = Fcc.Opt_level.v61;
    budget = Budget.none;
    journal = None;
    resume = false;
    max_shrink_steps = 200;
    jobs = 1;
    kill_cells = [];
    cache = None;
    fidelity = Convex_vpsim.Fastpath.Tiered;
  }

(* ---- cells ---- *)

type cell = { index : int; kernel : Lfk.Kernel.t; plan : Fault.t }

(* Each cell's plan is a pure function of (campaign seed, cell index):
   resuming, re-running, and delta-debugging all regenerate exactly the
   same fault space. *)
let cell_of_index cfg i =
  let kernels = Suite.kernels () in
  let kernel = List.nth kernels (i mod List.length kernels) in
  let rand = Random.State.make [| cfg.seed; i; 0xC7A05 |] in
  { index = i; kernel; plan = Fault_space.sample rand ~index:i }

type verdict =
  | Pass
  | Degraded of { kind : string; detail : string }
  | Violation of { check : string; detail : string }

type cell_result = {
  cell : cell;
  verdict : verdict;
  cpl : float option;
  minimized : string option;  (** minimal reproducing plan, as a spec *)
  shrink_steps : int;
  shrink_tried : int;
}

type t = {
  config : config;
  results : cell_result list;
  quarantined : Exec.poison list;
      (** cells whose exception escaped the SLO machinery — no verdict *)
  resumed : int;  (** cells replayed from the journal *)
  executed : int;  (** cells actually run this invocation *)
  cache_counters : Cache.counters option;
      (** per-run hit/miss/store/quarantine counts when a cache was
          configured; never rendered, so cold and warm runs match *)
}

let violations t =
  List.filter
    (fun r -> match r.verdict with Violation _ -> true | _ -> false)
    t.results

let clean t = violations t = [] && t.quarantined = []

(* ---- running one cell ---- *)

let flatten (v : Slo.verdict) =
  match v with
  | Slo.Pass -> Pass
  | Slo.Degraded e ->
      Degraded { kind = Macs_error.kind e; detail = Macs_error.to_string e }
  | Slo.Violation { check; detail } -> Violation { check; detail }

module Plan_shrink = Convex_fuzz.Shrink.Make (struct
  type t = Fault.t

  let equal = Fault.equal_behaviour
  let valid p = Fault.validate p = Ok ()
  let candidates = Fault_space.shrink_candidates
end)

let run_cell cfg (cell : cell) =
  let site = Printf.sprintf "Chaos[%d:%s]" cell.index cell.kernel.Lfk.Kernel.name in
  let check plan =
    let watchdog = Budget.watchdog ~site cfg.budget in
    Slo.check_cell ?watchdog ~fidelity:cfg.fidelity ~machine:cfg.machine
      ~opt:cfg.opt plan cell.kernel
  in
  let outcome = check cell.plan in
  match outcome.Slo.verdict with
  | Slo.Violation { check = check0; _ } ->
      (* delta-debug the plan: which clauses does this violation actually
         need?  The predicate re-runs the whole cell under the candidate
         plan and demands the same check fail. *)
      let still_fails plan' =
        match (check plan').Slo.verdict with
        | Slo.Violation { check = c; _ } -> c = check0
        | _ -> false
      in
      let shrunk =
        Plan_shrink.shrink ~max_steps:cfg.max_shrink_steps ~still_fails
          cell.plan
      in
      {
        cell;
        verdict = flatten outcome.Slo.verdict;
        cpl = outcome.Slo.cpl;
        minimized = Some (Fault.to_spec shrunk.Convex_fuzz.Shrink.value);
        shrink_steps = shrunk.Convex_fuzz.Shrink.steps;
        shrink_tried = shrunk.Convex_fuzz.Shrink.tried;
      }
  | v ->
      {
        cell;
        verdict = flatten v;
        cpl = outcome.Slo.cpl;
        minimized = None;
        shrink_steps = 0;
        shrink_tried = 0;
      }

(* ---- journal codec ---- *)

let format = "macs-chaos-campaign"
let ( let* ) = Result.bind

(* the journal config fields after the machine digest; the budget is
   deliberately absent, so a resumed run may use a different safety
   net *)
let config_fields cfg =
  [
    ("seed", Journal.put_int cfg.seed);
    ("cells", Journal.put_int cfg.cells);
    ("opt", Fcc.Opt_level.name cfg.opt);
    ("shrink", Journal.put_int cfg.max_shrink_steps);
  ]

(* everything about a result that is not the cell's identity — shared
   between the journal codec and the cache payload, which stores only
   these fields (identity is pinned by the cache key and rebuilt from
   [cell_of_index]) *)
let verdict_fields (r : cell_result) =
  let verdict =
    match r.verdict with
    | Pass -> [ ("verdict", "pass") ]
    | Degraded { kind; detail } ->
        [ ("verdict", "degraded"); ("kind", kind); ("detail", detail) ]
    | Violation { check; detail } ->
        [ ("verdict", "violation"); ("check", check); ("detail", detail) ]
  in
  let cpl =
    match r.cpl with
    | Some c -> [ ("cpl", Journal.put_float c) ]
    | None -> []
  in
  let min =
    match r.minimized with
    | Some spec ->
        [
          ("min", spec);
          ("min_steps", Journal.put_int r.shrink_steps);
          ("min_tried", Journal.put_int r.shrink_tried);
        ]
    | None -> []
  in
  verdict @ cpl @ min

let verdict_of_record ~cell r : (cell_result, string) result =
  let* verdict_tag = Journal.field_err r "verdict" in
  let* verdict =
    match verdict_tag with
    | "pass" -> Ok Pass
    | "degraded" ->
        let* kind = Journal.field_err r "kind" in
        let* detail = Journal.field_err r "detail" in
        Ok (Degraded { kind; detail })
    | "violation" ->
        let* check = Journal.field_err r "check" in
        let* detail = Journal.field_err r "detail" in
        Ok (Violation { check; detail })
    | v -> Error (Printf.sprintf "unknown verdict %S" v)
  in
  let cpl = Option.bind (Journal.field r "cpl") Journal.get_float in
  let minimized = Journal.field r "min" in
  let opt_int k =
    Option.value ~default:0 (Option.bind (Journal.field r k) Journal.get_int)
  in
  Ok
    {
      cell;
      verdict;
      cpl;
      minimized;
      shrink_steps = opt_int "min_steps";
      shrink_tried = opt_int "min_tried";
    }

let record_of_result (r : cell_result) =
  let base =
    [
      ("index", Journal.put_int r.cell.index);
      ("lfk", Journal.put_int r.cell.kernel.Lfk.Kernel.id);
      ("name", r.cell.plan.Fault.name);
      ("plan", Fault.to_spec r.cell.plan);
    ]
  in
  { Journal.tag = "cell"; fields = base @ verdict_fields r }

(* [index] is the cell the record closes, already checked against the
   campaign by the runner *)
let result_of_record cfg index r : (cell_result, string) result =
  if r.Journal.tag <> "cell" then
    Error (Printf.sprintf "expected cell record, got %S" r.Journal.tag)
  else
    let cell = cell_of_index cfg index in
    let* lfk = Journal.int_field r "lfk" in
    let* plan_spec = Journal.field_err r "plan" in
    if lfk <> cell.kernel.Lfk.Kernel.id then
      Error
        (Printf.sprintf "cell %d: journal ran LFK%d, campaign generates LFK%d"
           index lfk cell.kernel.Lfk.Kernel.id)
    else if plan_spec <> Fault.to_spec cell.plan then
      Error
        (Printf.sprintf
           "cell %d: journal plan %S differs from the generated %S" index
           plan_spec (Fault.to_spec cell.plan))
    else verdict_of_record ~cell r

(* ---- the durable run ---- *)

let spec cfg =
  {
    Durable.kind = "chaos-cell";
    machine = cfg.machine;
    cells = cfg.cells;
    (* no seed, no index: any campaign evaluating the same (kernel, plan)
       under the same conditions shares the entry *)
    key =
      (fun i ->
        let cell = cell_of_index cfg i in
        [
          ("opt", Fcc.Opt_level.name cfg.opt);
          ("budget", Budget.to_string cfg.budget);
          ("shrink", Journal.put_int cfg.max_shrink_steps);
          ("kernel", Durable.value_digest cell.kernel);
          ("plan", Fault.to_spec cell.plan);
        ]);
    (* the payload holds only the verdict: identity is pinned by the key
       and rebuilt from [cell_of_index] *)
    payload =
      {
        Durable.encode =
          (fun r ->
            [ { Journal.tag = "chaos-verdict"; fields = verdict_fields r } ]);
        decode =
          (fun i -> function
            | [ ({ Journal.tag = "chaos-verdict"; _ } as r) ] ->
                verdict_of_record ~cell:(cell_of_index cfg i) r
            | _ -> Error "expected one chaos-verdict record");
      };
    compute = (fun i -> run_cell cfg (cell_of_index cfg i));
    context =
      (fun i ->
        let c = cell_of_index cfg i in
        Printf.sprintf "%s under %s" c.kernel.Lfk.Kernel.name
          (Fault.to_spec c.plan));
    label =
      Printf.sprintf "chaos seed=%d cells=%d jobs=%d" cfg.seed cfg.cells
        cfg.jobs;
  }

let cell_key cfg i = Durable.key (spec cfg) i

let run ?(progress = fun _ -> ()) cfg =
  let journal =
    Option.map
      (fun path ->
        {
          Durable.path;
          format;
          resume = cfg.resume;
          config = config_fields cfg;
          records =
            {
              Durable.encode = (fun r -> [ record_of_result r ]);
              decode =
                (fun i -> function
                  | [ r ] -> result_of_record cfg i r
                  | rs ->
                      Error
                        (Printf.sprintf
                           "cell %d: expected one journal record, got %d" i
                           (List.length rs)));
            };
          closes =
            (fun r ->
              if r.Journal.tag = "cell" then
                Option.bind (Journal.field r "index") Journal.get_int
              else None);
        })
      cfg.journal
  in
  (* harness-level fault injection fires before the cache, so a warm
     cell is killed exactly like a cold one *)
  let around i cell =
    if List.mem i cfg.kill_cells then
      raise (Exec.Worker_killed (Printf.sprintf "injected kill at cell %d" i));
    cell i
  in
  let* r =
    Durable.run ~jobs:cfg.jobs ~progress ~around ?journal ?cache:cfg.cache
      (spec cfg)
  in
  let results = ref [] and quarantined = ref [] in
  Array.iter
    (function
      | Some (Exec.Done r) -> results := r :: !results
      | Some (Exec.Poisoned p) -> quarantined := p :: !quarantined
      | None -> ())
    r.Durable.outcomes;
  Ok
    {
      config = cfg;
      results = List.rev !results;
      quarantined = List.rev !quarantined;
      resumed = r.Durable.stats.Exec.replayed;
      executed = r.Durable.stats.Exec.executed;
      cache_counters = r.Durable.counters;
    }

(* ---- rendering ---- *)

let matrix t =
  let rows =
    List.filter
      (fun name ->
        List.exists
          (fun r -> r.cell.kernel.Lfk.Kernel.name = name)
          t.results)
      (List.map (fun (k : Lfk.Kernel.t) -> k.name) (Suite.kernels ()))
  in
  let cols =
    List.fold_left
      (fun acc r ->
        let f = Fault_space.family_of_name r.cell.plan.Fault.name in
        if List.mem f acc then acc else acc @ [ f ])
      [] t.results
  in
  let m = Macs_report.Matrix.create ~rows ~cols in
  List.iter
    (fun r ->
      let v =
        match r.verdict with
        | Pass -> Macs_report.Matrix.Pass
        | Degraded _ -> Macs_report.Matrix.Degraded
        | Violation _ -> Macs_report.Matrix.Violation
      in
      Macs_report.Matrix.set m
        ~row:r.cell.kernel.Lfk.Kernel.name
        ~col:(Fault_space.family_of_name r.cell.plan.Fault.name)
        v)
    t.results;
  m

let render t =
  let buf = Buffer.create 2048 in
  let count p = List.length (List.filter p t.results) in
  let passed = count (fun r -> r.verdict = Pass) in
  let degraded =
    count (fun r -> match r.verdict with Degraded _ -> true | _ -> false)
  in
  let viols = violations t in
  Buffer.add_string buf
    (Printf.sprintf
       "Chaos campaign: seed %d, %d cells on %s (opt %s)\n"
       t.config.seed t.config.cells t.config.machine.Machine.name
       (Fcc.Opt_level.name t.config.opt));
  let quarantine_note =
    match t.quarantined with
    | [] -> ""
    | ps -> Printf.sprintf ", %d quarantined" (List.length ps)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "  %d pass, %d degraded (typed diagnostics), %d violation%s%s; %d \
        replayed from journal, %d executed\n\n"
       passed degraded (List.length viols)
       (if List.length viols = 1 then "" else "s")
       quarantine_note t.resumed t.executed);
  Buffer.add_string buf
    (Macs_report.Matrix.render
       ~title:
         "Resilience matrix (fault family x kernel; worst verdict: ok < deg \
          < VIOL)"
       (matrix t));
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      match r.verdict with
      | Violation { check; detail } ->
          Buffer.add_string buf
            (Printf.sprintf
               "\ncell %d: %s under %S broke %s\n  %s\n  plan: %s\n"
               r.cell.index r.cell.kernel.Lfk.Kernel.name
               r.cell.plan.Fault.name check detail
               (Fault.to_spec r.cell.plan));
          Option.iter
            (fun spec ->
              Buffer.add_string buf
                (Printf.sprintf
                   "  minimal plan: %s  (%d shrink steps, %d candidates \
                    tried)\n"
                   spec r.shrink_steps r.shrink_tried))
            r.minimized
      | _ -> ())
    viols;
  List.iter
    (fun (p : Exec.poison) ->
      Buffer.add_string buf
        (Printf.sprintf
           "\ncell %d QUARANTINED after %d attempt%s: %s\n  context: %s\n"
           p.Exec.index p.Exec.attempts
           (if p.Exec.attempts = 1 then "" else "s")
           p.Exec.error p.Exec.context))
    t.quarantined;
  Buffer.contents buf
