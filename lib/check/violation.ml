(* A single finding from any analysis pass, with enough context to act on:
   which pass, which rule, the simulation instant, and a free-form detail
   line (for lifecycle findings, the object's event backtrace). *)

type t = {
  pass : string;  (* "lifecycle", "invariant:<rule>", "determinism", "crash" *)
  rule : string;
  time_ns : int;
  detail : string;
}

let make ~pass ~rule ~time_ns detail = { pass; rule; time_ns; detail }

(* A frame of the OCaml standard library: [Stdlib.failwith],
   [Stdlib__Queue.take], [CamlinternalFormat.make_printf]. *)
let in_stdlib slot =
  match Printexc.Slot.name slot with
  | Some name ->
      List.exists
        (fun prefix -> String.starts_with ~prefix name)
        [ "Stdlib."; "Stdlib__"; "Camlinternal" ]
  | None -> false

(* Where the exception was raised: the first backtrace frame with a source
   location outside the standard library, so a [Queue.Empty] names the
   caller of [Queue.pop]; the first located frame if every one is inside
   it.  Empty unless backtraces are being recorded. *)
let raise_site bt =
  let located =
    match Printexc.backtrace_slots bt with
    | Some slots when Printexc.backtrace_status () ->
        List.filter_map
          (fun slot ->
            Option.map
              (fun l -> (in_stdlib slot, l))
              (Printexc.Slot.location slot))
          (Array.to_list slots)
    | _ -> []
  in
  match (List.find_opt (fun (std, _) -> not std) located, located) with
  | Some (_, l), _ | None, (_, l) :: _ ->
      Printf.sprintf ", raised at %s:%d" l.Printexc.filename
        l.Printexc.line_number
  | None, [] -> ""

let crash ~time_ns exn bt =
  make ~pass:"crash" ~rule:"uncaught-exception" ~time_ns
    (Printexc.to_string exn ^ raise_site bt)

let pp fmt v =
  Format.fprintf fmt "[%s] %s at t=%dns: %s" v.pass v.rule v.time_ns v.detail

let to_string v = Format.asprintf "%a" pp v

let by_time a b =
  match compare a.time_ns b.time_ns with
  | 0 -> compare (a.pass, a.rule, a.detail) (b.pass, b.rule, b.detail)
  | c -> c
