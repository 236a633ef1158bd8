open Convex_machine
open Convex_memsys
open Macs_util

type t = {
  cpl : float;
  cpf : float;
  mflops : float;
  cycles : float;
  stats : Sim.stats;
}

module Memo = struct
  type measurement = t

  type nonrec t = {
    mutex : Mutex.t;  (** guards [table] *)
    table : (Digest.t, measurement) Hashtbl.t;
    n_hits : int Atomic.t;
    n_misses : int Atomic.t;
    last_machine : (Machine.t * string) option Atomic.t;
        (** the machine last keyed and its digest: the measurements of
            one hierarchy share one machine value, which then hashes
            its spec once *)
  }

  type counters = { hits : int; misses : int; entries : int }

  let capacity = 4096

  let create () =
    {
      mutex = Mutex.create ();
      table = Hashtbl.create 256;
      n_hits = Atomic.make 0;
      n_misses = Atomic.make 0;
      last_machine = Atomic.make None;
    }

  let locked m f =
    Mutex.lock m.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock m.mutex) f

  let counters m =
    let entries = locked m (fun () -> Hashtbl.length m.table) in
    { hits = Atomic.get m.n_hits; misses = Atomic.get m.n_misses; entries }

  let machine_digest m machine =
    match Atomic.get m.last_machine with
    | Some (last, d) when last == machine -> d
    | _ ->
        let d = Machine.digest machine in
        Atomic.set m.last_machine (Some (machine, d));
        d

  (* everything Sim.run and the unit conversion read, each resolved to
     the value the run uses; the job is hashed by its marshalled bytes,
     which [No_sharing] makes independent of physical sharing *)
  let key m ~machine ~layout ~faults ~guard ~fidelity ~flops_per_iteration
      (job : Job.t) =
    Digest.string
      (Marshal.to_string
         ( machine_digest m machine,
           Option.map Layout.bindings layout,
           (faults : Convex_fault.Fault.t),
           (guard : int),
           (fidelity : Fastpath.fidelity),
           flops_per_iteration,
           job )
         [ Marshal.No_sharing ])

  let find m key = locked m (fun () -> Hashtbl.find_opt m.table key)

  (* clear-on-full keeps the bound exact at the cost of a cold restart
     every [capacity] distinct measurements *)
  let store m key v =
    locked m (fun () ->
        if Hashtbl.length m.table >= capacity then Hashtbl.reset m.table;
        Hashtbl.replace m.table key v)
end

let simulate ~machine ?layout ~faults ~guard ?watchdog ~fidelity
    ~flops_per_iteration job =
  match
    Sim.run ~machine ?layout ~faults ~guard ?watchdog ~fidelity job
  with
  | Error _ as e -> e
  | Ok r ->
      let cpl = Sim.cpl r in
      let cpf = cpl /. float_of_int flops_per_iteration in
      Ok
        {
          cpl;
          cpf;
          mflops = Machine.mflops_of_cpf machine cpf;
          cycles = r.stats.cycles;
          stats = r.stats;
        }

let run ?(machine = Machine.c240) ?layout ?(faults = Convex_fault.Fault.none)
    ?guard ?watchdog ?(fidelity = Fastpath.Tiered) ?memo ~flops_per_iteration
    job =
  if flops_per_iteration <= 0 then
    invalid_arg "Measure.run: nonpositive flops_per_iteration";
  let guard = Option.value guard ~default:(Sim.guard_for faults) in
  let simulate () =
    simulate ~machine ?layout ~faults ~guard ?watchdog ~fidelity
      ~flops_per_iteration job
  in
  match memo with
  | None -> simulate ()
  | Some memo -> (
      let key =
        Memo.key memo ~machine ~layout ~faults ~guard ~fidelity
          ~flops_per_iteration job
      in
      let admits m =
        match watchdog with
        | None -> true
        | Some w -> Option.is_none (w ~cycle:m.stats.cycles)
      in
      match Memo.find memo key with
      | Some m when admits m ->
          Atomic.incr memo.Memo.n_hits;
          Ok m
      | _ -> (
          Atomic.incr memo.Memo.n_misses;
          match simulate () with
          | Ok m as r ->
              Memo.store memo key m;
              r
          | Error _ as e -> e))

let run_exn ?machine ?layout ?faults ?guard ?watchdog ?fidelity ?memo
    ~flops_per_iteration job =
  Macs_error.of_result
    (run ?machine ?layout ?faults ?guard ?watchdog ?fidelity ?memo
       ~flops_per_iteration job)

let pp fmt m =
  Format.fprintf fmt "%.3f CPL, %.3f CPF, %.2f MFLOPS (%.0f cycles)" m.cpl
    m.cpf m.mflops m.cycles
