open Convex_machine
module Machine_dsl = Convex_dsl.Machine_dsl

type perror = { kind : string; site : string; message : string }

let perror ?(site = "macs_serve") ~kind message = { kind; site; message }

let of_macs_error e =
  {
    kind = Macs_util.Macs_error.kind e;
    site = Macs_util.Macs_error.site e;
    message = Macs_util.Macs_error.to_string e;
  }

let error_json e =
  Json.Obj
    [
      ("kind", Json.Str e.kind);
      ("site", Json.Str e.site);
      ("message", Json.Str e.message);
    ]

let error_reply ?id e =
  let id_field =
    match id with None -> [] | Some id -> [ ("id", Json.Str id) ]
  in
  Json.to_string
    (Json.Obj
       (id_field @ [ ("ok", Json.Bool false); ("error", error_json e) ]))

let too_large_error bytes limit =
  perror ~kind:"frame-too-large"
    (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" bytes limit)

type op = Simulate | Hierarchy | Validate | Advise

let op_name = function
  | Simulate -> "simulate"
  | Hierarchy -> "hierarchy"
  | Validate -> "validate"
  | Advise -> "advise"

type item = {
  op : op;
  kernel : Lfk.Kernel.t option;
  kernel_label : string;
  machine : Machine.t;
  faults : Convex_fault.Fault.t;
  fidelity : Convex_vpsim.Fastpath.fidelity;
  opt : Fcc.Opt_level.t;
  tol : float option;
}

type control = Ping | Stats | Shutdown

type frame =
  | Control of { id : string option; control : control }
  | Batch of {
      id : string;
      deadline_ms : float option;
      budget_cycles : float option;
      items : (item, perror) result list;
    }

let ( let* ) = Result.bind

let bad ?site fmt =
  Printf.ksprintf (fun m -> Error (perror ?site ~kind:"bad-request" m)) fmt

let decode_kernel = function
  | None -> Ok (None, "-")
  | Some j -> (
      match (Json.int j, Json.str j) with
      | Some id, _ -> (
          match Lfk.Kernels.find id with
          | k -> Ok (Some k, Printf.sprintf "lfk%d" id)
          | exception Not_found ->
              bad "kernel: no LFK kernel numbered %d (valid: 1-12)" id)
      | None, Some src -> (
          match Convex_fuzz.Codec.of_string src with
          | Error m ->
              Error
                (perror ~site:"Codec.of_string" ~kind:"parse-failure"
                   ("kernel: " ^ m))
          | Ok k -> (
              match Lfk.Kernel.validate k with
              | Ok () -> Ok (Some k, "inline:" ^ k.Lfk.Kernel.name)
              | Error m ->
                  Error
                    (perror ~site:"Kernel.validate" ~kind:"parse-failure"
                       ("kernel: " ^ m))))
      | None, None -> bad "kernel must be an LFK number or an s-expression")

let decode_machine = function
  | None -> Ok Machine.c240
  | Some j -> (
      match Json.str j with
      | None -> bad "machine must be a spec string"
      | Some spec -> (
          match Machine_dsl.parse spec with
          | Ok m -> Ok m
          | Error e -> Error (of_macs_error e)))

let decode_faults = function
  | None -> Ok Convex_fault.Fault.none
  | Some j -> (
      match Json.str j with
      | None -> bad "faults must be a spec string"
      | Some spec -> (
          match Convex_fault.Fault.parse spec with
          | Ok f -> Ok f
          | Error m ->
              Error
                (perror ~site:"Fault.parse" ~kind:"parse-failure"
                   ("faults: " ^ m))))

let decode_fidelity = function
  | None -> Ok Convex_vpsim.Fastpath.Tiered
  | Some j -> (
      match Json.str j with
      | Some "cycle" -> Ok Convex_vpsim.Fastpath.Cycle
      | Some "tiered" -> Ok Convex_vpsim.Fastpath.Tiered
      | _ -> bad "fidelity must be \"cycle\" or \"tiered\"")

let decode_opt = function
  | None -> Ok Fcc.Opt_level.v61
  | Some j -> (
      match Option.bind (Json.str j) Fcc.Opt_level.of_name with
      | Some o -> Ok o
      | None ->
          bad "opt must be one of %s"
            (String.concat ", "
               (List.map Fcc.Opt_level.name Fcc.Opt_level.all)))

let decode_tol = function
  | None -> Ok None
  | Some j -> (
      match Json.num j with
      | Some t when t >= 0.0 && t <= 1.0 -> Ok (Some t)
      | _ -> bad "tol must be a number in [0, 1]")

let decode_item j =
  match j with
  | Json.Obj _ -> (
      let* op =
        match Option.bind (Json.mem j "op") Json.str with
        | Some "simulate" -> Ok Simulate
        | Some "hierarchy" -> Ok Hierarchy
        | Some "validate" -> Ok Validate
        | Some "advise" -> Ok Advise
        | Some other -> bad "unknown op %S" other
        | None -> bad "item is missing \"op\""
      in
      let* kernel, kernel_label = decode_kernel (Json.mem j "kernel") in
      let* machine = decode_machine (Json.mem j "machine") in
      let* faults = decode_faults (Json.mem j "faults") in
      let* fidelity = decode_fidelity (Json.mem j "fidelity") in
      let* opt = decode_opt (Json.mem j "opt") in
      let* tol = decode_tol (Json.mem j "tol") in
      match (op, kernel) with
      | (Simulate | Hierarchy | Advise), None ->
          bad "op %S needs a kernel" (op_name op)
      | _ ->
          Ok { op; kernel; kernel_label; machine; faults; fidelity; opt; tol }
      )
  | _ -> bad "batch items must be objects"

let decode_frame ~max_batch line =
  match Json.parse line with
  | Error m -> Error (perror ~kind:"bad-frame" ("not JSON: " ^ m))
  | Ok (Json.Obj _ as j) -> (
      let id = Option.bind (Json.mem j "id") Json.str in
      let control =
        match Option.bind (Json.mem j "op") Json.str with
        | Some "ping" -> Some Ping
        | Some "stats" -> Some Stats
        | Some "shutdown" -> Some Shutdown
        | _ -> None
      in
      match control with
      | Some control -> Ok (Control { id; control })
      | None -> (
          let* id =
            match id with
            | Some id when id <> "" -> Ok id
            | Some _ -> bad "\"id\" must be nonempty"
            | None -> (
                match Json.mem j "id" with
                | Some _ -> bad "\"id\" must be a string"
                | None -> bad "frame is missing \"id\"")
          in
          let* deadline_ms =
            match Json.mem j "deadline_ms" with
            | None -> Ok None
            | Some d -> (
                match Json.num d with
                | Some ms when ms >= 0.0 -> Ok (Some ms)
                | _ -> bad "deadline_ms must be a nonnegative number")
          in
          let* budget_cycles =
            match Json.mem j "budget_cycles" with
            | None -> Ok None
            | Some d -> (
                match Json.num d with
                | Some c when c >= 0.0 -> Ok (Some c)
                | _ -> bad "budget_cycles must be a nonnegative number")
          in
          let* raw_items =
            match Json.mem j "batch" with
            | Some b -> (
                match Json.arr b with
                | Some items -> Ok items
                | None -> bad "\"batch\" must be an array")
            | None ->
                if Json.mem j "op" <> None then Ok [ j ]
                else bad "frame has neither \"batch\" nor an inline \"op\""
          in
          if List.length raw_items > max_batch then
            Error
              (perror ~kind:"batch-too-large"
                 (Printf.sprintf "batch of %d items exceeds the %d-item limit"
                    (List.length raw_items) max_batch))
          else
            Ok
              (Batch
                 {
                   id;
                   deadline_ms;
                   budget_cycles;
                   items = List.map decode_item raw_items;
                 })))
  | Ok _ -> Error (perror ~kind:"bad-frame" "frame must be a JSON object")
