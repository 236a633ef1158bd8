let sections () =
  let ds = Dataset.compute () in
  [
    ("Table 1 — instruction timing (calibration)", Tables.table1 ());
    ("Figure 2 — chaining and tailgating", Figures.figure2 ());
    ("Table 2 — LFK workload", Tables.table2 ds);
    ("Table 3 — bounds (CPL)", Tables.table3 ds);
    ("Table 4 — bounds vs measured (CPF)", Tables.table4 ds);
    ("Table 5 — A/X measurements (CPL)", Tables.table5 ds);
    ("Figure 3 — bounds hierarchy per kernel", Figures.figure3 ds);
    ("LFK1 worked example (paper section 3.5)", Tables.lfk1_example ());
    ("Gap diagnosis (paper section 4.4)", Tables.diagnosis ds);
    ("Ablation — compiler levels", Tables.ablation_compiler ());
    ("Ablation — machine variants", Tables.ablation_machine ());
    ("Pipe utilization", Tables.utilization ds);
    ("Extension — scalar mode", Tables.scalar_mode ());
    ("Extension — parallel vector mode", Tables.parallel_mode ());
    ("Extension — the D (stride) bound", Tables.stride_sweep ());
    ("Extension — roofline view", Tables.roofline ());
    ("Extension — Hockney characterization", Tables.hockney ());
    ("Extension — design space", Tables.design_space ());
    ("Extension — kernel gallery", Tables.gallery ());
    ("Extension — application profile", Tables.application ());
    ("Pipeline trace (LFK1)", Figures.pipeline_trace ());
    ("Livermore suite", Suite.render (Suite.run ()));
    ("Goal-directed advice", Tables.advice ());
  ]

let to_markdown () =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf
    "# MACS reproduction — generated results\n\n\
     Regenerate with `dune exec bin/macs_cli.exe -- report`.\n";
  List.iter
    (fun (title, body) ->
      Buffer.add_string buf (Printf.sprintf "\n## %s\n\n```\n" title);
      Buffer.add_string buf body;
      if body = "" || body.[String.length body - 1] <> '\n' then
        Buffer.add_char buf '\n';
      Buffer.add_string buf "```\n")
    (sections ());
  Buffer.contents buf

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_markdown ()))
