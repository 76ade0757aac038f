(* Prints the lib/ exports that nothing outside test/ reads, one
   "Module.value" per line, sorted; exits 1 if a source does not parse.
   test/dune diffs the list against golden/test_only_exports.txt.

   Usage: test_only_exports.exe ROOT *)

let () =
  match Lint_core.Lint_project.test_only_exports ~root:Sys.argv.(1) with
  | names, [] -> List.iter print_endline names
  | _, bad ->
      List.iter
        (fun d -> prerr_endline (Lint_core.Lint_diag.to_string d))
        bad;
      exit 1
