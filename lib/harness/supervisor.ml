open Convex_machine
open Convex_fault
open Macs_report
module Exec = Convex_exec.Executor
module J = Macs_util.Journal
module Durable = Convex_exec.Durable

type stats = { resumed : int; executed : int; estimated : int }

type outcome = {
  suite : Suite.t;
  stats : stats;
  quarantined : Exec.poison list;
  cache_counters : Convex_cache.Cache.counters option;
}

let ( let* ) = Result.bind

(* the journal config fields after the machine digest: everything a
   resumed row must share with a fresh one (the budget is deliberately
   absent, so --retry-failed may heal rows under a different budget) *)
let config ~opt ~faults =
  [
    ("opt", Fcc.Opt_level.name opt);
    ("faults", if Fault.is_none faults then "" else Fault.to_spec faults);
    ("guard", J.put_int (Convex_vpsim.Sim.guard_for faults));
  ]

(* Substitute the analytic estimate for a row the simulation could not
   finish: optimistic numbers, the diagnostic kept, the suite intact. *)
let degrade ~machine ~opt (row : Suite.row) err =
  let e = Macs.Estimate.of_kernel ~machine ~opt row.Suite.kernel in
  {
    row with
    Suite.outcome =
      Ok
        {
          Suite.cpl = e.Macs.Estimate.cpl;
          cpf = e.Macs.Estimate.cpf;
          mflops = e.Macs.Estimate.mflops;
          checksum = Float.nan;
          checksum_ok = false;
        };
    source = Suite.Estimated err;
  }

let cell_codec =
  {
    Durable.encode = Suite_journal.records_of_cell;
    decode = (fun _ records -> Suite_journal.cell_of_records records);
  }

let spec ~karr ~machine ~opt ~faults ~budget ~oracle_tol ?fidelity ~jobs () =
  let compute i =
    let k = karr.(i) in
    let watchdog =
      Budget.watchdog
        ~site:(Printf.sprintf "Supervisor(%s)" k.Lfk.Kernel.name)
        budget
    in
    let c = Fcc.Compiler.compile ~opt k in
    let row, attempts =
      Suite.run_compiled_attempts ?watchdog ?fidelity ~machine ~faults c
    in
    match row.Suite.outcome with
    | Ok p ->
        (* cross-check every measured row against the bounds hierarchy *)
        let vs =
          Macs.Oracle.check_row ~tol:oracle_tol ~machine c
            ~measured_cpl:p.Suite.cpl
        in
        { Suite_journal.row; attempts; violations = vs }
    | Error e ->
        {
          Suite_journal.row = degrade ~machine ~opt row e;
          attempts;
          violations = [];
        }
  in
  (* [fidelity] is deliberately absent from the key: the tiers are
     bit-identical by contract, so cached cells stay valid across the
     flag *)
  let key i =
    config ~opt ~faults
    @ [
        ("budget", Budget.to_string budget);
        ("tol", J.put_float oracle_tol);
        ("kernel", Durable.value_digest karr.(i));
      ]
  in
  {
    Durable.kind = "suite-cell";
    machine;
    cells = Array.length karr;
    key;
    payload = cell_codec;
    compute;
    context =
      (fun i ->
        Printf.sprintf "LFK%d (%s)" karr.(i).Lfk.Kernel.id
          karr.(i).Lfk.Kernel.name);
    label = Printf.sprintf "suite machine=%s jobs=%d" machine.Machine.name jobs;
  }

let cell_key ~machine i =
  let karr = Array.of_list (Suite.kernels ()) in
  Durable.key
    (spec ~karr ~machine ~opt:Fcc.Opt_level.v61 ~faults:Fault.none
       ~budget:Budget.none ~oracle_tol:Macs.Oracle.default_tol ~jobs:1 ())
    i

let run ?(machine = Machine.c240) ?(opt = Fcc.Opt_level.v61)
    ?(faults = Fault.none) ?(budget = Budget.none)
    ?(oracle_tol = Macs.Oracle.default_tol) ?(jobs = 1) ?journal
    ?(resume = false) ?(retry_failed = false) ?cache ?fidelity () =
  let karr = Array.of_list (Suite.kernels ()) in
  let spec =
    spec ~karr ~machine ~opt ~faults ~budget ~oracle_tol ?fidelity ~jobs ()
  in
  let kernel_index id = Array.find_index (fun k -> k.Lfk.Kernel.id = id) karr in
  let journal =
    Option.map
      (fun path ->
        {
          Durable.path;
          format = Suite_journal.format;
          resume = resume || retry_failed;
          config = config ~opt ~faults;
          records = cell_codec;
          (* retry attempts and violations close with their row *)
          closes =
            (fun r ->
              if r.J.tag = "row" then
                Option.bind (Option.bind (J.field r "lfk") J.get_int)
                  kernel_index
              else None);
        })
      journal
  in
  (* [retry_failed] keeps measured rows only: diagnostic, estimated and
     quarantined cells run again *)
  let replay = function
    | Exec.Done (c : Suite_journal.cell) -> (
        match c.Suite_journal.row with
        | { Suite.outcome = Ok _; source = Suite.Measured; _ } -> true
        | _ -> false)
    | Exec.Poisoned _ -> false
  in
  let* r =
    Durable.run ~jobs
      ?replay:(if retry_failed then Some replay else None)
      ?journal ?cache spec
  in
  let rows = ref [] and violations = ref [] in
  let poisons = ref [] and estimated = ref 0 in
  Array.iteri
    (fun i o ->
      match o with
      | Some (Exec.Done (c : Suite_journal.cell)) ->
          rows := c.Suite_journal.row :: !rows;
          violations :=
            List.rev_append c.Suite_journal.violations !violations;
          if not r.Durable.replayed.(i) then (
            match c.Suite_journal.row.Suite.source with
            | Suite.Estimated _ -> incr estimated
            | Suite.Measured -> ())
      | Some (Exec.Poisoned p) -> poisons := p :: !poisons
      | None -> ())
    r.Durable.outcomes;
  let suite =
    Suite.of_rows
      ~violations:(List.rev !violations)
      ~machine ~faults (List.rev !rows)
  in
  Ok
    {
      suite;
      stats =
        {
          resumed = r.Durable.stats.Exec.replayed;
          executed = r.Durable.stats.Exec.executed;
          estimated = !estimated;
        };
      quarantined = List.rev !poisons;
      cache_counters = r.Durable.counters;
    }
