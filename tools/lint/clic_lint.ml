(* clic-lint CLI.

   Usage:
     clic-lint --all [--root DIR]        lint lib/ bin/ bench/ under DIR,
                                         plus the project rules R5 and R6
     clic-lint FILE.ml ...               lint specific files (R1-R4 only)
     --rule R1,R3                        keep only the named rules
     --waiver-report                     print every waiver annotation
   Exit status: 0 when no finding survives the filter, 1 otherwise,
   2 on usage error. *)

module Lint_diag = Lint_core.Lint_diag
module Lint_project = Lint_core.Lint_project

let usage () =
  prerr_endline
    "usage: clic-lint (--all [--root DIR] | FILE.ml ...) [--rule \
     R1,R2,...] [--waiver-report]";
  exit 2

let () =
  let all = ref false in
  let root = ref "." in
  let rules : Lint_diag.rule list option ref = ref None in
  let waiver_report = ref false in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--all" :: rest ->
        all := true;
        parse rest
    | "--root" :: dir :: rest ->
        root := dir;
        parse rest
    | "--rule" :: spec :: rest ->
        let keep =
          String.split_on_char ',' spec
          |> List.filter (fun s -> s <> "")
          |> List.map (fun s ->
                 match Lint_diag.rule_of_id (String.trim s) with
                 | Some r -> r
                 | None ->
                     Printf.eprintf "clic-lint: unknown rule %S\n" s;
                     exit 2)
        in
        rules :=
          Some (keep @ match !rules with Some r -> r | None -> []);
        parse rest
    | "--waiver-report" :: rest ->
        waiver_report := true;
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "clic-lint: unknown option %s\n" arg;
        usage ()
    | file :: rest ->
        files := file :: !files;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !all && !files <> [] then begin
    prerr_endline "clic-lint: --all and explicit files are exclusive";
    exit 2
  end;
  if (not !all) && !files = [] then usage ();
  let report =
    if !all then Lint_project.run_all ~root:!root
    else Lint_project.run_files (List.rev !files)
  in
  let report = Lint_project.filter_rules !rules report in
  if !waiver_report then Lint_project.pp_waiver_report stdout report;
  Lint_project.pp_findings stdout report;
  exit (if report.Lint_project.r_findings = [] then 0 else 1)
