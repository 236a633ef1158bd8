(* The two "daily driver" entry points of the library:

   1. run the whole Livermore suite (ten vectorized kernels plus the two
      scalar-mode recurrences), with every kernel's output checksummed
      against its reference implementation;
   2. ask the goal-directed advisor (the paper's concluding vision) where
      the time would best be spent, per kernel.

   Run with: dune exec examples/suite_and_advice.exe *)

let () =
  let suite = Macs_report.Suite.run () in
  print_string (Macs_report.Suite.render suite);
  print_newline ();

  (* kernels that completed, with their measurements; on the healthy
     machine that is all of them *)
  let measured =
    List.filter_map
      (fun (r : Macs_report.Suite.row) ->
        match r.outcome with Ok p -> Some (r, p) | Error _ -> None)
      suite.rows
  in

  (* advice for the kernels furthest from peak *)
  let worst =
    measured
    |> List.sort
         (fun ((_ : Macs_report.Suite.row), (a : Macs_report.Suite.perf))
              (_, b) -> Float.compare b.cpf a.cpf)
    |> List.filteri (fun i _ -> i < 3)
  in
  print_endline "advice for the three slowest kernels:";
  print_newline ();
  List.iter
    (fun ((r : Macs_report.Suite.row), _) ->
      print_string (Macs.Advisor.report r.kernel))
    worst;

  (* and the parallel-throughput picture for the fastest one *)
  print_newline ();
  let best, _ =
    List.fold_left
      (fun acc ((_, p) as cand) ->
        match acc with
        | Some (_, (b : Macs_report.Suite.perf)) when b.cpf <= p.Macs_report.Suite.cpf -> acc
        | _ -> Some cand)
      None measured
    |> Option.get
  in
  let k = best.Macs_report.Suite.kernel in
  let c = Fcc.Compiler.compile k in
  let par =
    Convex_vpsim.Cosim.run_exn
      (List.init 4 (fun _ -> (c.Fcc.Compiler.job, k.name)))
  in
  Format.printf "four copies of the fastest kernel (%s):@.%a@." k.name
    Convex_vpsim.Cosim.pp par
