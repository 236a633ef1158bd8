open Convex_isa

(* Internal unwind carrying the typed fault; caught at the entry points so
   the stepping code below stays direct-style. *)
exception Fault of Macs_util.Macs_error.t

let errorf fmt =
  Printf.ksprintf
    (fun s ->
      raise (Fault (Macs_util.Macs_error.interp_fault ~site:"Interp.run" s)))
    fmt

(* A memory operand resolved against the store and one segment: the
   array's storage and [origin], the index of loop element 0 ([shift +
   offset]), so element [e] of a strip whose base index is [b] sits at
   [origin + (b + e) * stride].  An unknown array resolves with [known =
   false] and faults only when the operand is used, so the first fault in
   program order is the one reported. *)
type operand = {
  mem : Instr.mem;
  arr : float array;
  known : bool;
  origin : int;
}

let no_operand =
  { mem = { array = ""; offset = 0; stride = 0 }; arr = [||]; known = true;
    origin = 0 }

let resolve store (seg : Job.segment) i =
  match Instr.mem_ref i with
  | None -> no_operand
  | Some m -> (
      let shift =
        match List.assoc_opt m.array seg.shifts with Some s -> s | None -> 0
      in
      match Store.get store m.array with
      | arr -> { mem = m; arr; known = true; origin = shift + m.offset }
      | exception Not_found -> { no_operand with mem = m; known = false })

let storage opnd =
  if not opnd.known then errorf "Interp: unknown array %s" opnd.mem.array;
  opnd.arr

(* the checked index of element [e]: the per-element walk *)
let checked_index opnd ~base_index ~e =
  let arr = storage opnd in
  let idx = opnd.origin + ((base_index + e) * opnd.mem.stride) in
  if idx < 0 || idx >= Array.length arr then
    errorf "Interp: %s[%d] out of bounds (len %d)" opnd.mem.array idx
      (Array.length arr);
  idx

(* Index of element 0 of a [vl]-element stream when all of it is in
   bounds, else [-1].  The stream is affine, so its extreme indices are its
   first and last elements and two checks cover it; on [-1] the caller
   walks element by element, which faults at the first bad element. *)
let stream_start opnd ~base_index ~vl =
  if vl <= 0 then -1
  else
    let n = Array.length (storage opnd) in
    let i0 = opnd.origin + (base_index * opnd.mem.stride) in
    let i1 = i0 + ((vl - 1) * opnd.mem.stride) in
    if i0 >= 0 && i0 < n && i1 >= 0 && i1 < n then i0 else -1

let run_raw ?(max_vl = 128) ?(sregs = []) ~store (job : Job.t) =
  let sr = Array.make Reg.scalar_count 0.0 in
  List.iter
    (fun (i, x) ->
      if i < 0 || i >= Reg.scalar_count then
        invalid_arg "Interp.run: scalar register index out of range";
      sr.(i) <- x)
    sregs;
  let vr = Array.init Reg.vector_count (fun _ -> Array.make max_vl 0.0) in
  let vm = Array.make max_vl false in
  (* a vector source as an array: a vector register itself, a scalar
     broadcast into [scratch] — so the element loops below read float
     arrays only and box nothing *)
  let scratch = Array.init 2 (fun _ -> Array.make max_vl 0.0) in
  let vsrc ~vl k = function
    | Instr.Vr r -> vr.(Reg.v_index r)
    | Instr.Sr r ->
        let x = sr.(Reg.s_index r) and s = scratch.(k) in
        for e = 0 to vl - 1 do
          s.(e) <- x
        done;
        s
  in
  let exec ~base_index ~vl i opnd =
    match i with
    | Instr.Vld { dst; _ } ->
        let d = vr.(Reg.v_index dst) in
        let i0 = stream_start opnd ~base_index ~vl in
        if i0 >= 0 then begin
          let arr = opnd.arr and stride = opnd.mem.stride in
          for e = 0 to vl - 1 do
            d.(e) <- arr.(i0 + (e * stride))
          done
        end
        else
          for e = 0 to vl - 1 do
            d.(e) <- opnd.arr.(checked_index opnd ~base_index ~e)
          done
    | Vst { src; _ } ->
        let s = vr.(Reg.v_index src) in
        let i0 = stream_start opnd ~base_index ~vl in
        if i0 >= 0 then begin
          let arr = opnd.arr and stride = opnd.mem.stride in
          for e = 0 to vl - 1 do
            arr.(i0 + (e * stride)) <- s.(e)
          done
        end
        else
          for e = 0 to vl - 1 do
            opnd.arr.(checked_index opnd ~base_index ~e) <- s.(e)
          done
    | Vbin { op; dst; src1; src2 } -> (
        let d = vr.(Reg.v_index dst) in
        let a = vsrc ~vl 0 src1 and b = vsrc ~vl 1 src2 in
        match op with
        | Instr.Add ->
            for e = 0 to vl - 1 do
              d.(e) <- a.(e) +. b.(e)
            done
        | Instr.Sub ->
            for e = 0 to vl - 1 do
              d.(e) <- a.(e) -. b.(e)
            done
        | Instr.Mul ->
            for e = 0 to vl - 1 do
              d.(e) <- a.(e) *. b.(e)
            done
        | Instr.Div ->
            for e = 0 to vl - 1 do
              d.(e) <- a.(e) /. b.(e)
            done)
    | Vneg { dst; src } ->
        let d = vr.(Reg.v_index dst) and s = vr.(Reg.v_index src) in
        for e = 0 to vl - 1 do
          d.(e) <- -.s.(e)
        done
    | Vsqrt { dst; src } ->
        let d = vr.(Reg.v_index dst) and s = vr.(Reg.v_index src) in
        for e = 0 to vl - 1 do
          d.(e) <- Float.sqrt s.(e)
        done
    | Vcmp { op; src1; src2 } ->
        let a = vr.(Reg.v_index src1) and b = vsrc ~vl 1 src2 in
        for e = 0 to vl - 1 do
          vm.(e) <-
            (match op with
            | Instr.Lt -> a.(e) < b.(e)
            | Instr.Le -> a.(e) <= b.(e)
            | Instr.Eq -> a.(e) = b.(e)
            | Instr.Ne -> a.(e) <> b.(e))
        done
    | Vmerge { dst; src_true; src_false } ->
        let d = vr.(Reg.v_index dst) in
        let t = vsrc ~vl 0 src_true and f = vsrc ~vl 1 src_false in
        for e = 0 to vl - 1 do
          d.(e) <- (if vm.(e) then t.(e) else f.(e))
        done
    | Vgather { dst; base; index } ->
        let d = vr.(Reg.v_index dst) and ix = vr.(Reg.v_index index) in
        let arr = storage opnd in
        for e = 0 to vl - 1 do
          let idx = base.offset + int_of_float ix.(e) in
          if idx < 0 || idx >= Array.length arr then
            errorf "Interp: gather %s[%d] out of bounds" base.array idx;
          d.(e) <- arr.(idx)
        done
    | Vscatter { src; base; index } ->
        let s = vr.(Reg.v_index src) and ix = vr.(Reg.v_index index) in
        let arr = storage opnd in
        for e = 0 to vl - 1 do
          let idx = base.offset + int_of_float ix.(e) in
          if idx < 0 || idx >= Array.length arr then
            errorf "Interp: scatter %s[%d] out of bounds" base.array idx;
          arr.(idx) <- s.(e)
        done
    | Vsum { dst; src } ->
        let s = vr.(Reg.v_index src) in
        let acc = ref 0.0 in
        for e = 0 to vl - 1 do
          acc := !acc +. s.(e)
        done;
        sr.(Reg.s_index dst) <- !acc
    | Sld { dst; _ } ->
        sr.(Reg.s_index dst) <- opnd.arr.(checked_index opnd ~base_index ~e:0)
    | Sst { src; _ } ->
        opnd.arr.(checked_index opnd ~base_index ~e:0) <- sr.(Reg.s_index src)
    | Sbin { op; dst; src1; src2 } ->
        let a = sr.(Reg.s_index src1) and b = sr.(Reg.s_index src2) in
        sr.(Reg.s_index dst) <-
          (match op with
          | Instr.Add -> a +. b
          | Instr.Sub -> a -. b
          | Instr.Mul -> a *. b
          | Instr.Div -> a /. b)
    | Sop _ | Smovvl | Sbranch -> ()
  in
  (* the prologue and epilogue run once per segment and resolve as they
     go; the body's operands are resolved once per segment, so a strip
     (a single iteration, in scalar mode) only does index arithmetic *)
  let body = Array.of_list job.body in
  let run_once seg ~base_index ~vl =
    List.iter (fun i -> exec ~base_index ~vl i (resolve store seg i))
  in
  List.iter
    (fun (seg : Job.segment) ->
      let pro_vl = min seg.vl max_vl in
      run_once seg ~base_index:seg.base ~vl:pro_vl seg.prologue;
      let ops = Array.map (resolve store seg) body in
      let step = match job.mode with
        | Job.Vector -> max_vl
        | Job.Scalar -> 1
      in
      let remaining = ref seg.vl in
      let base = ref seg.base in
      while !remaining > 0 do
        let vl = min step !remaining in
        for k = 0 to Array.length body - 1 do
          exec ~base_index:!base ~vl body.(k) ops.(k)
        done;
        base := !base + vl;
        remaining := !remaining - vl
      done;
      run_once seg ~base_index:seg.base ~vl:pro_vl seg.epilogue)
    job.segments;
  sr

let run ?max_vl ?sregs ~store job =
  try Ok (run_raw ?max_vl ?sregs ~store job) with Fault e -> Error e

let run_exn ?max_vl ?sregs ~store job =
  Macs_util.Macs_error.of_result (run ?max_vl ?sregs ~store job)
