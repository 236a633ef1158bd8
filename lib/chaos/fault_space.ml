open Convex_machine
module Fault = Convex_fault.Fault

(* Every choice below is drawn from a caller-provided [Random.State.t]
   seeded by (campaign seed, cell index), and every value lands on the
   spec grammar's grid (integer factors, 8-cycle extra-busy steps,
   discrete slow-pipe factors), so a sampled plan round-trips through
   [Fault.to_spec]/[Fault.parse] byte-for-byte — which is what lets the
   campaign journal store plans as specs and resume exactly. *)

let pick rand xs = List.nth xs (Random.State.int rand (List.length xs))
let range rand lo hi = lo + Random.State.int rand (hi - lo)

(* Bounds chosen so a transient plan always fits comfortably inside the
   faulted progress guard (Sim.guard_for a plan = 50k spins): the recovery
   probe must be able to sit out the whole window and still finish. *)
let max_window_close = 2_000

let random_clause rand : Fault.clause =
  match Random.State.int rand 6 with
  | 0 ->
      Degrade
        { bank = range rand 0 Fault.bank_limit;
          extra_busy = 8 * range rand 1 6 }
  | 1 ->
      let from_cycle = range rand 0 200 in
      let until_cycle =
        (* mostly finite outages; 1 in 4 is a dead module *)
        if Random.State.int rand 4 = 0 then None
        else Some (from_cycle + range rand 50 800)
      in
      Stuck { bank = range rand 0 Fault.bank_limit; from_cycle; until_cycle }
  | 2 ->
      let period = range rand 100 800 in
      Scrub
        { bank = range rand 0 Fault.bank_limit;
          period;
          duration = range rand 4 (min 64 period) }
  | 3 -> Jitter (range rand 1 16)
  | 4 ->
      Slow_pipe
        { pipe = pick rand Pipe.all;
          z_factor = pick rand [ 1.25; 1.5; 2.0; 3.0 ];
          extra_startup = 0 }
  | _ ->
      let period = range rand 100 800 in
      Port_spike { period; duration = range rand 4 (min 64 period) }

let random_window rand : Fault.window =
  let opens = range rand 0 400 in
  { opens; closes = opens + range rand 64 (max_window_close - opens) }

let random_plan rand =
  let n = 1 + Random.State.int rand 3 in
  Fault.with_clauses
    { Fault.none with name = "random"; seed = Random.State.int rand 10_000 }
    (List.init n (fun _ -> random_clause rand))

let mutate rand plan =
  match Random.State.int rand 3 with
  | 0 -> Fault.with_clauses plan (Fault.clauses plan @ [ random_clause rand ])
  | 1 ->
      (* intensify one clause *)
      let cs = Fault.clauses plan in
      if cs = [] then
        Fault.with_clauses plan [ random_clause rand ]
      else
        let i = Random.State.int rand (List.length cs) in
        Fault.with_clauses plan
          (List.mapi
             (fun j (c : Fault.clause) ->
               if j <> i then c
               else
                 match c with
                 | Degrade d -> Degrade { d with extra_busy = d.extra_busy + 8 }
                 | Stuck s ->
                     Stuck
                       {
                         s with
                         until_cycle =
                           Option.map (fun u -> u + 200) s.until_cycle;
                       }
                 | Scrub s when s.duration * 2 < s.period ->
                     Scrub { s with duration = s.duration * 2 }
                 | Scrub s -> Scrub s
                 | Jitter j -> Jitter (j * 2)
                 | Slow_pipe p -> Slow_pipe { p with z_factor = p.z_factor *. 1.5 }
                 | Port_spike s when s.duration * 2 < s.period ->
                     Port_spike { s with duration = s.duration * 2 }
                 | Port_spike s -> Port_spike s)
             cs)
  | _ -> { plan with seed = Random.State.int rand 10_000 }

let transient rand plan = { plan with Fault.window = Some (random_window rand) }

let base_plans =
  Fault.none :: List.map (fun (_, _, p) -> p) Fault.presets

let sample rand ~index =
  let base, family =
    if Random.State.int rand 100 < 15 then (random_plan rand, "random")
    else
      let p = pick rand base_plans in
      (p, p.Fault.name)
  in
  let plan =
    let rec mutate_n p n = if n = 0 then p else mutate_n (mutate rand p) (n - 1) in
    mutate_n base (Random.State.int rand 3)
  in
  let plan, family =
    if Random.State.bool rand then (transient rand plan, family ^ "/transient")
    else (plan, family)
  in
  { plan with Fault.name = Printf.sprintf "%s~%d" family index }

let family_of_name name =
  match String.index_opt name '~' with
  | Some i -> String.sub name 0 i
  | None -> name

(* ---- delta-debugging rewrites, aggressive first ---- *)

let set_nth cs i c = List.mapi (fun j x -> if j = i then c else x) cs
let drop_nth cs i = List.filteri (fun j _ -> j <> i) cs

let clause_shrinks (c : Fault.clause) : Fault.clause list =
  let open Fault in
  match c with
  | Degrade d -> if d.extra_busy > 8 then [ Degrade { d with extra_busy = 8 } ] else []
  | Stuck s ->
      (match s.until_cycle with
      | Some u ->
          (* a dead module is a simpler spec than a finite outage *)
          [ Stuck { s with until_cycle = None } ]
          @ (if u - s.from_cycle > 1 then
               [ Stuck { s with until_cycle = Some (s.from_cycle + ((u - s.from_cycle) / 2)) } ]
             else [])
      | None -> [])
      @ (if s.from_cycle > 0 then [ Stuck { s with from_cycle = 0 } ] else [])
  | Scrub s -> if s.duration > 1 then [ Scrub { s with duration = 1 } ] else []
  | Jitter j -> if j > 1 then [ Jitter 1 ] else []
  | Slow_pipe p ->
      if p.z_factor > 2.0 then [ Slow_pipe { p with z_factor = 2.0 } ]
      else if p.z_factor > 1.5 then [ Slow_pipe { p with z_factor = 1.5 } ]
      else []
  | Port_spike s -> if s.duration > 1 then [ Port_spike { s with duration = 1 } ] else []

let shrink_candidates plan =
  let cs = Fault.clauses plan in
  let n = List.length cs in
  let rebuild cs' = Fault.with_clauses plan cs' in
  let keep_one =
    if n <= 1 then [] else List.map (fun c -> rebuild [ c ]) cs
  in
  let drop_one =
    if n = 0 then [] else List.init n (fun i -> rebuild (drop_nth cs i))
  in
  let window_shrinks =
    match plan.Fault.window with
    | None -> []
    | Some w ->
        [ { plan with Fault.window = None } ]
        @ (if w.Fault.closes - w.Fault.opens > 1 then
             [ { plan with
                 Fault.window =
                   Some { w with Fault.closes = w.Fault.opens + ((w.Fault.closes - w.Fault.opens) / 2) } } ]
           else [])
        @ (if w.Fault.opens > 0 then
             [ { plan with Fault.window = Some { w with Fault.opens = 0 } } ]
           else [])
  in
  let reseed = if plan.Fault.seed <> 0 then [ { plan with Fault.seed = 0 } ] else [] in
  let value_shrinks =
    List.concat
      (List.mapi (fun i c -> List.map (fun c' -> rebuild (set_nth cs i c')) (clause_shrinks c)) cs)
  in
  keep_one @ drop_one @ window_shrinks @ reseed @ value_shrinks
