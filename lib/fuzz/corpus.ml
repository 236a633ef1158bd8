module Journal = Macs_util.Journal

type kind = Kernel_case | Asm_case

type expect = Clean | Violation of string

type entry = {
  kind : kind;
  machine : string;
  seed : int;
  expect : expect;
  payload : string;
}

let format = "macs-fuzz-corpus"
let kind_name = function Kernel_case -> "kernel" | Asm_case -> "asm"

let kind_of_name = function
  | "kernel" -> Ok Kernel_case
  | "asm" -> Ok Asm_case
  | s -> Error (Printf.sprintf "unknown case kind %S" s)

let record_of_entry (e : entry) =
  {
    Journal.tag = "case";
    fields =
      [
        ("kind", kind_name e.kind);
        ("machine", e.machine);
        ("seed", Journal.put_int e.seed);
        ( "expect",
          match e.expect with Clean -> "clean" | Violation _ -> "violation" );
        ("check", match e.expect with Clean -> "" | Violation c -> c);
        ("payload", e.payload);
      ];
  }

let entry_of_record (r : Journal.record) =
  let ( let* ) = Result.bind in
  if r.Journal.tag <> "case" then
    Error (Printf.sprintf "unexpected record tag %S" r.Journal.tag)
  else
    let* kind = Result.bind (Journal.field_err r "kind") kind_of_name in
    let* machine = Journal.field_err r "machine" in
    let* seed = Journal.int_field r "seed" in
    let* expect_s = Journal.field_err r "expect" in
    let* expect =
      match expect_s with
      | "clean" -> Ok Clean
      | "violation" -> (
          match Journal.field r "check" with
          | Some c when c <> "" -> Ok (Violation c)
          | _ -> Error "violation entry is missing its check id")
      | s -> Error (Printf.sprintf "unknown expectation %S" s)
    in
    let* payload = Journal.field_err r "payload" in
    Ok { kind; machine; seed; expect; payload }

let create ~path = Journal.create ~path ~format []

let append ~path entry =
  if Sys.file_exists path then (
    (match Journal.repair ~path ~format with
    | Ok () -> ()
    | Error msg ->
        Macs_util.Macs_error.raise_error
          (Macs_util.Macs_error.parse_failure ~site:"Corpus.append" msg));
    Journal.append ~path (record_of_entry entry))
  else Journal.create ~path ~format [ record_of_entry entry ]

let load ~path =
  match Journal.load ~path ~format with
  | Error _ as e -> e
  | Ok records ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | r :: rest -> (
            match entry_of_record r with
            | Ok e -> go (e :: acc) rest
            | Error _ as err -> err)
      in
      go [] records

(* ---- replay ---- *)

type replay = { entry : entry; ok : bool; detail : string }

let check_needs_sim id =
  let prefixed p =
    String.length id >= String.length p && String.sub id 0 (String.length p) = p
  in
  id = "sim" || prefixed "oracle:" || prefixed "fault-sim:"

let describe_failures report =
  String.concat "; "
    (List.map
       (fun (c : Oracle_stack.check) ->
         match c.outcome with
         | Oracle_stack.Fail d -> c.id ^ ": " ^ d
         | _ -> c.id)
       (Oracle_stack.failures report))

let replay_kernel ~sim (e : entry) =
  match Codec.of_string e.payload with
  | Error msg -> { entry = e; ok = false; detail = "payload: " ^ msg }
  | Ok k -> (
      match Convex_dsl.Machine_dsl.of_name_or_spec e.machine with
      | Error msg -> { entry = e; ok = false; detail = msg }
      | Ok machine -> (
          let sim =
            match sim with
            | Some s -> s
            | None -> (
                match e.expect with
                | Clean -> true
                | Violation id -> check_needs_sim id)
          in
          let report = Oracle_stack.run ~machine ~sim k in
          match e.expect with
          | Violation id ->
              if Oracle_stack.fails report ~id then
                { entry = e; ok = true;
                  detail = Printf.sprintf "%s still fails, as recorded" id }
              else
                { entry = e; ok = false;
                  detail =
                    Printf.sprintf
                      "%s no longer fails — fixed? retire or flip the entry \
                       to expect=clean"
                      id }
          | Clean -> (
              match Oracle_stack.failures report with
              | [] -> { entry = e; ok = true; detail = "all checks pass" }
              | _ ->
                  { entry = e; ok = false;
                    detail = "regressed: " ^ describe_failures report })))

let replay_asm (e : entry) =
  match Convex_isa.Asm.parse_program e.payload with
  | Error msg -> (
      match e.expect with
      | Violation _ ->
          { entry = e; ok = true; detail = "listing still unparseable: " ^ msg }
      | Clean ->
          { entry = e; ok = false; detail = "listing does not parse: " ^ msg })
  | Ok p -> (
      let check = Oracle_stack.check_program p in
      let round_trip_ok =
        match check.Oracle_stack.outcome with
        | Oracle_stack.Pass -> true
        | _ -> false
      in
      match e.expect with
      | Clean ->
          if round_trip_ok then
            { entry = e; ok = true; detail = "round trip holds" }
          else { entry = e; ok = false; detail = "round trip regressed" }
      | Violation _ ->
          if round_trip_ok then
            { entry = e; ok = false;
              detail = "round trip no longer fails — retire or flip to clean" }
          else { entry = e; ok = true; detail = "round trip still fails" })

let replay_entry ?sim (e : entry) =
  match e.kind with
  | Kernel_case -> replay_kernel ~sim e
  | Asm_case -> replay_asm e

let replay ?sim ~path () =
  match load ~path with
  | Error _ as e -> e
  | Ok entries -> Ok (List.map (replay_entry ?sim) entries)
