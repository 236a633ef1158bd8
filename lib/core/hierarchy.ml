open Convex_machine
open Convex_vpsim

type t = {
  kernel : Lfk.Kernel.t;
  compiled : Fcc.Compiler.t;
  machine : Machine.t;
  flops : int;
  ma : Counts.t;
  mac : Counts.t;
  t_ma : float;
  t_mac : float;
  t_macs : Macs_bound.result;
  t_macs_f : Macs_bound.result;
  t_macs_m : Macs_bound.result;
  t_p : Measure.t;
  t_a : Measure.t;
  t_x : Measure.t;
}

let layout_of (c : Fcc.Compiler.t) = Job.layout c.job

let of_compiled ?(machine = Machine.c240) ?watchdog ?fidelity ?memo
    (c : Fcc.Compiler.t) =
  let kernel = c.kernel in
  let flops = c.flops_per_iteration in
  let ma = Counts.ma_of_kernel kernel in
  let mac = Counts.mac_of_program c.program in
  let body = Convex_isa.Program.body c.program in
  let t_macs = Macs_bound.compute ~machine body in
  let t_macs_f = Macs_bound.f_only ~machine body in
  let t_macs_m = Macs_bound.m_only ~machine body in
  let measure job =
    Measure.run_exn ~machine ?watchdog ?fidelity ?memo
      ~flops_per_iteration:flops job
  in
  let t_p = measure c.job in
  let t_a = measure (Ax.a_process c.job) in
  let t_x = measure (Ax.x_process c.job) in
  {
    kernel;
    compiled = c;
    machine;
    flops;
    ma;
    mac;
    t_ma = float_of_int (Counts.t_bound ma);
    t_mac = float_of_int (Counts.t_bound mac);
    t_macs;
    t_macs_f;
    t_macs_m;
    t_p;
    t_a;
    t_x;
  }

let analyze ?machine ?watchdog ?fidelity ?memo ?opt kernel =
  of_compiled ?machine ?watchdog ?fidelity ?memo
    (Fcc.Compiler.compile ?opt kernel)

let cpf_of_cpl t cpl = Units.cpf_of_cpl ~cpl ~flops:t.flops
let t_ma_cpf t = cpf_of_cpl t t.t_ma
let t_mac_cpf t = cpf_of_cpl t t.t_mac
let t_macs_cpf t = cpf_of_cpl t t.t_macs.Macs_bound.cpl
let t_p_cpf t = t.t_p.Measure.cpf

let pct_ma t = Units.percent_of_bound ~bound:t.t_ma ~measured:t.t_p.Measure.cpl
let pct_mac t = Units.percent_of_bound ~bound:t.t_mac ~measured:t.t_p.Measure.cpl

let pct_macs t =
  Units.percent_of_bound ~bound:t.t_macs.Macs_bound.cpl
    ~measured:t.t_p.Measure.cpl

let eq18_holds t =
  let p = t.t_p.Measure.cpl
  and a = t.t_a.Measure.cpl
  and x = t.t_x.Measure.cpl in
  let tol = 0.02 *. p in
  Float.max a x <= p +. tol && p <= a +. x +. tol

let pp_summary fmt t =
  Format.fprintf fmt
    "@[<v>%s (%d flops/iter)@,\
     MA  %6.3f CPL  %6.3f CPF@,\
     MAC %6.3f CPL  %6.3f CPF@,\
     MACS %5.3f CPL  %6.3f CPF  (f: %.3f, m: %.3f)@,\
     t_p %6.3f CPL  %6.3f CPF  (%.1f%% of MACS)@,\
     t_a %6.3f CPL   t_x %6.3f CPL@]"
    t.kernel.name t.flops t.t_ma (t_ma_cpf t) t.t_mac (t_mac_cpf t)
    t.t_macs.Macs_bound.cpl (t_macs_cpf t) t.t_macs_f.Macs_bound.cpl
    t.t_macs_m.Macs_bound.cpl t.t_p.Measure.cpl t.t_p.Measure.cpf
    (100.0 *. pct_macs t)
    t.t_a.Measure.cpl t.t_x.Measure.cpl
