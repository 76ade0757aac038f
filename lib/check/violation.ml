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

(* The first backtrace frame that has a source location: where the
   exception was raised.  Empty unless backtraces are being recorded. *)
let raise_site bt =
  let located slot =
    Option.map
      (fun (l : Printexc.location) ->
        Printf.sprintf ", raised at %s:%d" l.filename l.line_number)
      (Printexc.Slot.location slot)
  in
  if not (Printexc.backtrace_status ()) then ""
  else
    Option.value ~default:""
      (Option.bind (Printexc.backtrace_slots bt) (Array.find_map located))

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
