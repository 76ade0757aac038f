(* Diagnostics for clic-lint: a finding names the rule it breaks, the
   source position, and a message precise enough to act on.  Findings are
   what the exit status is computed from; waivers are the annotations that
   silenced would-be findings and are surfaced by [--waiver-report]. *)

type rule =
  | R1  (* no-sleep-in-atomic *)
  | R2  (* unsafe-cast confinement *)
  | R3  (* hot-path allocation *)
  | R4  (* probe-guard discipline *)
  | R5  (* mli coverage *)
  | R6  (* every lib export has an outside reader *)
  | Parse  (* the file did not parse: nothing else can be checked *)

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | Parse -> "parse"

let rule_title = function
  | R1 -> "no-sleep-in-atomic"
  | R2 -> "unsafe-cast confinement"
  | R3 -> "hot-path allocation"
  | R4 -> "probe-guard discipline"
  | R5 -> "mli coverage"
  | R6 -> "export has a reader"
  | Parse -> "parse error"

let rule_of_id s =
  match String.uppercase_ascii s with
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | _ -> None

let all_rules = [ R1; R2; R3; R4; R5; R6 ]

type pos = { p_file : string; p_line : int; p_col : int }

let pos_of_location (l : Location.t) =
  {
    p_file = l.loc_start.Lexing.pos_fname;
    p_line = l.loc_start.Lexing.pos_lnum;
    p_col = l.loc_start.Lexing.pos_cnum - l.loc_start.Lexing.pos_bol;
  }

type t = { d_rule : rule; d_pos : pos; d_msg : string }

let make rule pos msg = { d_rule = rule; d_pos = pos; d_msg = msg }

let compare_by_pos a b =
  match compare a.d_pos.p_file b.d_pos.p_file with
  | 0 -> (
      match compare a.d_pos.p_line b.d_pos.p_line with
      | 0 -> compare a.d_pos.p_col b.d_pos.p_col
      | c -> c)
  | c -> c

let to_string d =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.d_pos.p_file d.d_pos.p_line
    d.d_pos.p_col (rule_id d.d_rule) d.d_msg

(* A waiver annotation seen anywhere in the scanned sources.  [w_rule] is
   the rule the attribute silences; [w_reason] is None when the attribute
   carries no written justification (itself a finding — every waiver must
   say why). *)
type waiver = {
  w_attr : string;  (* "clic.allow_block", ... *)
  w_rule : rule;
  w_pos : pos;
  w_reason : string option;
  w_context : string;  (* enclosing function, for the report *)
}

let waiver_to_string w =
  Printf.sprintf "%s:%d: [@%s] (%s, in %s) %s" w.w_pos.p_file w.w_pos.p_line
    w.w_attr (rule_id w.w_rule) w.w_context
    (match w.w_reason with
    | Some r -> Printf.sprintf "%S" r
    | None -> "<< MISSING REASON >>")
