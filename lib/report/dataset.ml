open Convex_machine

type t = {
  machine : Machine.t;
  opt : Fcc.Opt_level.t;
  rows : Macs.Hierarchy.t list;
}

let compute ?(machine = Machine.c240) ?(opt = Fcc.Opt_level.v61) ?fidelity
    () =
  let rows =
    List.map
      (fun k -> Macs.Hierarchy.analyze ~machine ?fidelity ~opt k)
      Lfk.Kernels.all
  in
  { machine; opt; rows }

let find t id =
  List.find (fun (h : Macs.Hierarchy.t) -> h.kernel.id = id) t.rows

let cpf_columns t =
  let col f = Array.of_list (List.map f t.rows) in
  ( col Macs.Hierarchy.t_ma_cpf,
    col Macs.Hierarchy.t_mac_cpf,
    col Macs.Hierarchy.t_macs_cpf,
    col Macs.Hierarchy.t_p_cpf )
