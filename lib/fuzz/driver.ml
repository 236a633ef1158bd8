module Machine = Convex_machine.Machine
module Fault = Convex_fault.Fault
module Budget = Convex_harness.Budget
module Clock = Macs_util.Clock
module Table = Macs_util.Table
module Exec = Convex_exec.Executor
module Cache = Convex_cache.Cache
module Journal = Macs_util.Journal
module Durable = Convex_exec.Durable

type config = {
  seed : int;
  count : int;
  machine : Machine.t;
  fault_plans : Fault.t list;
  budget : Budget.t;
  max_wall_s : float option;
  corpus : string option;
  sim : bool;
  jobs : int;
  cache : string option;
  fidelity : Convex_vpsim.Fastpath.fidelity;
}

let default_config =
  {
    seed = 42;
    count = 500;
    machine = Machine.c240;
    fault_plans = List.map (fun (_, _, p) -> p) Fault.presets;
    budget = Budget.make ~max_wall_s:10.0 ();
    max_wall_s = None;
    corpus = None;
    sim = true;
    jobs = 1;
    cache = None;
    fidelity = Convex_vpsim.Fastpath.Tiered;
  }

type violation = {
  case_index : int;
  case_label : string;
  check : string;
  detail : string;
  kind : Corpus.kind;
  payload : string;
  shrink_steps : int;
  shrink_tried : int;
}

type summary = {
  cases_requested : int;
  cases_run : int;
  by_label : (string * int) list;
  checks_passed : int;
  checks_skipped : int;
  violations : violation list;
  probe_violations : (string * string) list;
  wall_s : float;
  stopped_early : bool;
  cache_counters : Cache.counters option;
}

let clean s = s.violations = [] && s.probe_violations = []

(* ---- one case ---- *)

type tally = { mutable passed : int; mutable skipped : int }

let tally_checks tally (report : Oracle_stack.report) =
  List.iter
    (fun (c : Oracle_stack.check) ->
      match c.outcome with
      | Oracle_stack.Pass -> tally.passed <- tally.passed + 1
      | Oracle_stack.Skip _ -> tally.skipped <- tally.skipped + 1
      | Oracle_stack.Fail _ -> ())
    report.checks

let first_failure (report : Oracle_stack.report) =
  match Oracle_stack.failures report with
  | [] -> None
  | c :: _ -> (
      match c.outcome with
      | Oracle_stack.Fail d -> Some (c.id, d)
      | _ -> None)

let kernel_case cfg ~index ~label ~plans tally k =
  let report =
    Oracle_stack.run ~machine:cfg.machine ~sim:cfg.sim ~fault_plans:plans
      ~budget:cfg.budget ~fidelity:cfg.fidelity k
  in
  tally_checks tally report;
  match first_failure report with
  | None -> None
  | Some (check, detail) ->
      (* shrink under the cheapest predicate that can still see the
         failure: functional checks replay without the simulator *)
      let needs_sim = Corpus.check_needs_sim check in
      let still_fails k' =
        let r =
          Oracle_stack.run ~machine:cfg.machine ~sim:(cfg.sim && needs_sim)
            ~fault_plans:(if needs_sim then plans else [])
            ~budget:cfg.budget ~fidelity:cfg.fidelity k'
        in
        Oracle_stack.fails r ~id:check
      in
      let shrunk = Shrink.kernel ~jobs:cfg.jobs ~still_fails k in
      Some
        {
          case_index = index;
          case_label = label;
          check;
          detail;
          kind = Corpus.Kernel_case;
          payload = Codec.to_string shrunk.Shrink.value;
          shrink_steps = shrunk.Shrink.steps;
          shrink_tried = shrunk.Shrink.tried;
        }

let asm_case ~index ~jobs tally p =
  let check = Oracle_stack.check_program p in
  match check.Oracle_stack.outcome with
  | Oracle_stack.Pass ->
      tally.passed <- tally.passed + 1;
      None
  | Oracle_stack.Skip _ ->
      tally.skipped <- tally.skipped + 1;
      None
  | Oracle_stack.Fail detail ->
      let still_fails p' =
        match (Oracle_stack.check_program p').Oracle_stack.outcome with
        | Oracle_stack.Fail _ -> true
        | _ -> false
      in
      let shrunk = Shrink.program ~jobs ~still_fails p in
      Some
        {
          case_index = index;
          case_label = "asm";
          check = "asm-roundtrip";
          detail;
          kind = Corpus.Asm_case;
          payload = Convex_isa.Asm.print_program shrunk.Shrink.value;
          shrink_steps = shrunk.Shrink.steps;
          shrink_tried = shrunk.Shrink.tried;
        }

(* ---- the campaign ---- *)

let persist cfg v =
  match cfg.corpus with
  | None -> ()
  | Some path ->
      Corpus.append ~path
        {
          Corpus.kind = v.kind;
          machine = Machine.to_spec cfg.machine;
          seed = cfg.seed;
          expect = Corpus.Violation v.check;
          payload = v.payload;
        }

(* what one fuzz case reports back through the executor *)
type case_out = {
  label : string;
  passed : int;
  skipped : int;
  violation : violation option;
}

(* ---- result cache ----

   A case is fully determined by (seed, index) — the generator draws
   from [Random.State.make [| seed; index |]] — plus the machine, the
   fault-plan list (selection rotates by index over the whole list), the
   watchdog budget and the sim switch.  All of that goes into the key
   ([fidelity] deliberately does not: the two tiers are bit-identical by
   contract — the fidelity-diff rung enforces it on every case — so a
   warm cache stays valid across the flag);
   the payload is the journal-encoded [case_out], so a hit replays
   exactly what a recompute would have produced, corpus bytes
   included. *)

let case_records (o : case_out) =
  let case_r =
    {
      Journal.tag = "fuzz-case";
      fields =
        [
          ("label", o.label);
          ("passed", Journal.put_int o.passed);
          ("skipped", Journal.put_int o.skipped);
        ];
    }
  in
  let violation_r v =
    {
      Journal.tag = "fuzz-violation";
      fields =
        [
          ("index", Journal.put_int v.case_index);
          ("label", v.case_label);
          ("check", v.check);
          ("detail", v.detail);
          ("kind", Corpus.kind_name v.kind);
          ("payload", v.payload);
          ("steps", Journal.put_int v.shrink_steps);
          ("tried", Journal.put_int v.shrink_tried);
        ];
    }
  in
  case_r :: (match o.violation with None -> [] | Some v -> [ violation_r v ])

let ( let* ) = Result.bind

let case_of_records records =
  let violation_of r =
    let* case_index = Journal.int_field r "index" in
    let* case_label = Journal.field_err r "label" in
    let* check = Journal.field_err r "check" in
    let* detail = Journal.field_err r "detail" in
    let* kind = Result.bind (Journal.field_err r "kind") Corpus.kind_of_name in
    let* payload = Journal.field_err r "payload" in
    let* shrink_steps = Journal.int_field r "steps" in
    let* shrink_tried = Journal.int_field r "tried" in
    Ok
      {
        case_index;
        case_label;
        check;
        detail;
        kind;
        payload;
        shrink_steps;
        shrink_tried;
      }
  in
  let case_of r violation =
    if r.Journal.tag <> "fuzz-case" then
      Error (Printf.sprintf "expected fuzz-case record, got %S" r.Journal.tag)
    else
      let* label = Journal.field_err r "label" in
      let* passed = Journal.int_field r "passed" in
      let* skipped = Journal.int_field r "skipped" in
      Ok { label; passed; skipped; violation }
  in
  match records with
  | [ case_r ] -> case_of case_r None
  | [ case_r; v_r ] ->
      let* v = violation_of v_r in
      case_of case_r (Some v)
  | _ -> Error "fuzz cache payload: expected one or two records"

let compute cfg index =
  let tally = { passed = 0; skipped = 0 } in
  let rand = Random.State.make [| cfg.seed; index |] in
  let mix = Random.State.int rand 10 in
  let label, violation =
    if mix < 2 then
      ( "asm",
        asm_case ~index ~jobs:cfg.jobs tally
          (QCheck.Gen.generate1 ~rand Gen.program_gen) )
    else begin
      let label, profile =
        if mix < 4 then ("scalar", Gen.Scalar_profile)
        else ("vector", Gen.Vector_profile)
      in
      let plans =
        match cfg.fault_plans with
        | [] -> []
        | ps -> [ List.nth ps (index mod List.length ps) ]
      in
      ( label,
        kernel_case cfg ~index ~label ~plans tally
          (QCheck.Gen.generate1 ~rand (Gen.fuzz_kernel_gen profile)) )
    end
  in
  { label; passed = tally.passed; skipped = tally.skipped; violation }

let spec cfg =
  {
    Durable.kind = "fuzz-case";
    machine = cfg.machine;
    cells = cfg.count;
    key =
      (fun index ->
        [
          ("seed", string_of_int cfg.seed);
          ("index", string_of_int index);
          ("sim", Journal.put_bool cfg.sim);
          ("budget", Budget.to_string cfg.budget);
          ("plans", String.concat ";" (List.map Fault.to_spec cfg.fault_plans));
        ]);
    payload =
      {
        Durable.encode = case_records;
        decode = (fun _ rs -> case_of_records rs);
      };
    compute = compute cfg;
    context = (fun i -> Printf.sprintf "fuzz case %d of seed %d" i cfg.seed);
    label =
      Printf.sprintf "fuzz seed=%d count=%d jobs=%d" cfg.seed cfg.count
        cfg.jobs;
  }

let case_key cfg index = Durable.key (spec cfg) index

let run ?(progress = fun _ -> ()) cfg =
  let started = Clock.now () in
  let over_budget () =
    match cfg.max_wall_s with
    | None -> false
    | Some cap -> Clock.elapsed ~since:started > cap
  in
  (* a sequential run persists incrementally, exactly as it always has —
     cache hits included; a parallel run defers to the index-ordered pass
     below so the corpus bytes come out identical *)
  let around index case =
    let o = case index in
    (match o.violation with
    | Some v when cfg.jobs <= 1 -> persist cfg v
    | _ -> ());
    o
  in
  (* without a journal the runner has nothing to refuse *)
  let r =
    Result.get_ok
      (Durable.run ~jobs:cfg.jobs ~progress ~should_stop:over_budget ~around
         ?cache:cfg.cache (spec cfg))
  in
  let outcomes = r.Durable.outcomes and estats = r.Durable.stats in
  let tally = { passed = 0; skipped = 0 } in
  let violations = ref [] in
  let by_label = Hashtbl.create 4 in
  let count_label l =
    Hashtbl.replace by_label l
      (1 + Option.value ~default:0 (Hashtbl.find_opt by_label l))
  in
  let cases_run = ref 0 in
  Array.iter
    (function
      | Some (Exec.Done o) ->
          incr cases_run;
          count_label o.label;
          tally.passed <- tally.passed + o.passed;
          tally.skipped <- tally.skipped + o.skipped;
          Option.iter
            (fun v ->
              if cfg.jobs > 1 then persist cfg v;
              violations := v :: !violations)
            o.violation
      | Some (Exec.Poisoned p) ->
          (* the case escaped the oracle stack entirely: surface it as a
             violation (never persisted — its payload is not a test case) *)
          incr cases_run;
          count_label "quarantined";
          violations :=
            {
              case_index = p.Exec.index;
              case_label = "quarantined";
              check = "quarantine";
              detail = p.Exec.error;
              kind = Corpus.Kernel_case;
              payload = p.Exec.context;
              shrink_steps = 0;
              shrink_tried = 0;
            }
            :: !violations
      | None -> ())
    outcomes;
  let stopped_early = ref estats.Exec.stopped_early in
  (* the probe-based fault oracle, once per plan *)
  let probe_violations =
    if not cfg.sim then []
    else
      List.concat_map
        (fun plan ->
          match
            Macs.Oracle.check_faulted_never_faster ~machine:cfg.machine plan
          with
          | vs ->
              List.map
                (fun (v : Macs.Oracle.violation) ->
                  (plan.Fault.name, v.invariant ^ ": " ^ v.detail))
                vs
          | exception e ->
              [ (plan.Fault.name, "exception: " ^ Printexc.to_string e) ])
        cfg.fault_plans
  in
  {
    cases_requested = cfg.count;
    cases_run = !cases_run;
    by_label =
      List.sort compare
        (Hashtbl.fold (fun l n acc -> (l, n) :: acc) by_label []);
    checks_passed = tally.passed;
    checks_skipped = tally.skipped;
    violations = List.rev !violations;
    probe_violations;
    wall_s = Clock.elapsed ~since:started;
    stopped_early = !stopped_early;
    cache_counters = r.Durable.counters;
  }

(* ---- rendering ---- *)

let render_summary (s : summary) =
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right ]
      ~header:[ "fuzz campaign"; "" ] ()
  in
  Table.add_row t
    [ "cases run";
      Printf.sprintf "%d/%d%s" s.cases_run s.cases_requested
        (if s.stopped_early then " (wall budget)" else "") ];
  List.iter
    (fun (label, n) ->
      Table.add_row t [ "  " ^ label; Table.cell_int n ])
    s.by_label;
  Table.add_row t [ "checks passed"; Table.cell_int s.checks_passed ];
  Table.add_row t [ "checks skipped"; Table.cell_int s.checks_skipped ];
  Table.add_separator t;
  Table.add_row t
    [ "violations"; Table.cell_int (List.length s.violations) ];
  Table.add_row t
    [ "probe violations"; Table.cell_int (List.length s.probe_violations) ];
  Table.add_row t [ "wall seconds"; Table.cell_float ~decimals:1 s.wall_s ];
  let b = Buffer.create 256 in
  Buffer.add_string b (Table.render t);
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf
           "\n\nVIOLATION case %d (%s) check %s\n  %s\n  shrunk in %d steps \
            (%d candidates tried):\n%s"
           v.case_index v.case_label v.check v.detail v.shrink_steps
           v.shrink_tried v.payload))
    s.violations;
  List.iter
    (fun (plan, detail) ->
      Buffer.add_string b
        (Printf.sprintf "\n\nPROBE VIOLATION under plan %s\n  %s" plan detail))
    s.probe_violations;
  Buffer.contents b
