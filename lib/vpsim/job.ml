open Convex_isa

type segment = {
  base : int;
  vl : int;
  shifts : (string * int) list;
  prologue : Instr.t list;
  epilogue : Instr.t list;
}

let segment ?(base = 0) ?(shifts = []) ?(prologue = []) ?(epilogue = []) vl =
  { base; vl; shifts; prologue; epilogue }

type mode = Vector | Scalar

type storage = {
  arrays : (string * int) list;
  aliases : (string * string) list;
}

type t = {
  name : string;
  body : Instr.t list;
  segments : segment list;
  mode : mode;
  storage : storage option;
}

let make ?(mode = Vector) ?storage ~name ~body ~segments () =
  if body = [] then invalid_arg "Job.make: empty body";
  if segments = [] then invalid_arg "Job.make: no segments";
  List.iter
    (fun s -> if s.vl <= 0 then invalid_arg "Job.make: nonpositive segment")
    segments;
  { name; body; segments; mode; storage }

let of_program p ~n =
  make ~name:(Program.name p) ~body:(Program.body p) ~segments:[ segment n ]
    ()

let total_elements t = List.fold_left (fun acc s -> acc + s.vl) 0 t.segments

let strip_count t ~max_vl =
  let max_vl = match t.mode with Vector -> max_vl | Scalar -> 1 in
  List.fold_left (fun acc s -> acc + ((s.vl + max_vl - 1) / max_vl)) 0 t.segments

let arrays t =
  let of_instrs is =
    List.filter_map
      (fun i -> Option.map (fun (m : Instr.mem) -> m.array) (Instr.mem_ref i))
      is
  in
  let names =
    of_instrs t.body
    @ List.concat_map (fun s -> of_instrs s.prologue @ of_instrs s.epilogue)
        t.segments
  in
  List.sort_uniq String.compare names

let layout t =
  match t.storage with
  | None ->
      Convex_memsys.Layout.build (List.map (fun a -> (a, 8192)) (arrays t))
  | Some { arrays; aliases } ->
      let layout = Convex_memsys.Layout.build arrays in
      List.iter
        (fun (name, target) ->
          Convex_memsys.Layout.alias layout ~existing:target name)
        aliases;
      layout

let map_body f t =
  let map_seg s =
    { s with prologue = f s.prologue; epilogue = f s.epilogue }
  in
  let body = f t.body in
  if body = [] then invalid_arg "Job.map_body: transform emptied body";
  { t with body; segments = List.map map_seg t.segments }
