(* Project-level driver for clic-lint: file discovery under a repo root,
   per-file analysis, R5 mli-coverage over [lib/], R6 export readers,
   and aggregation of findings + waivers into sorted reports. *)

let is_ml f = Filename.check_suffix f ".ml"

(* Recursively list regular [.ml] files under [dir], skipping build and
   VCS directories.  Answers [] when [dir] does not exist so a root
   without [bench/] still lints. *)
let rec ml_files_under dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           if entry = "" || entry.[0] = '.' || entry = "_build" then []
           else
             let path = Filename.concat dir entry in
             if Sys.is_directory path then ml_files_under path
             else if is_ml entry then [ path ]
             else [])

(* The scanned subtrees for [--all]. *)
let default_subdirs = [ "lib"; "bin"; "bench" ]

(* The trees whose [.ml] files count as readers for R6. *)
let reader_subdirs =
  default_subdirs @ [ "benchsuite"; "test"; "examples"; "tools" ]

let under ~root subdirs =
  List.concat_map (fun d -> ml_files_under (Filename.concat root d)) subdirs

let discover ~root = under ~root default_subdirs

(* R5: every module under [lib/] ships an interface. *)
let mli_coverage ~root =
  ml_files_under (Filename.concat root "lib")
  |> List.filter_map (fun ml ->
         let mli = ml ^ "i" in
         if Sys.file_exists mli then None
         else
           Some
             (Lint_diag.make Lint_diag.R5
                { Lint_diag.p_file = ml; p_line = 1; p_col = 0 }
                (Printf.sprintf
                   "module has no interface: expected %s (every module \
                    under lib/ must hide its internals behind an .mli)"
                   (Filename.basename mli))))

let lib_mlis ~root =
  under ~root [ "lib" ]
  |> List.map (fun ml -> ml ^ "i")
  |> List.filter Sys.file_exists

(* R6: every value a [lib/] interface exports is read from another
   compilation unit (see Lint_exports). *)
let export_readers ~root =
  Lint_exports.check ~mlis:(lib_mlis ~root)
    ~readers:(under ~root reader_subdirs)

(* The [lib/] exports that only [test/] reads, as sorted "Module.value"
   names, with any parse failures: R6 with every reader tree but
   [test/]. *)
let test_only_exports ~root =
  let xs, bad =
    Lint_exports.unread ~mlis:(lib_mlis ~root)
      ~readers:(under ~root (List.filter (( <> ) "test") reader_subdirs))
  in
  ( List.sort compare
      (List.map (fun x -> String.concat "." x.Lint_exports.x_path) xs),
    bad )

type report = {
  r_findings : Lint_diag.t list;  (* sorted by position *)
  r_waivers : Lint_diag.waiver list;
  r_files : int;
}

let empty_report = { r_findings = []; r_waivers = []; r_files = 0 }

(* Analyze [files]; a parse failure becomes a finding rather than an
   abort so one broken file cannot hide the rest. *)
let run_files files =
  let findings, waivers =
    List.fold_left
      (fun (fs, ws) file ->
        match Lint_module.analyze file with
        | m -> (Lint_module.findings m @ fs, Lint_module.waivers m @ ws)
        | exception Lint_module.Parse_failure d -> (d :: fs, ws))
      ([], []) files
  in
  {
    r_findings = List.stable_sort Lint_diag.compare_by_pos findings;
    r_waivers =
      List.stable_sort
        (fun (a : Lint_diag.waiver) (b : Lint_diag.waiver) ->
          match compare a.w_pos.p_file b.w_pos.p_file with
          | 0 -> compare a.w_pos.p_line b.w_pos.p_line
          | c -> c)
        waivers;
    r_files = List.length files;
  }

(* A file that fails to parse is reported by both the per-file pass and
   R6: keep one copy. *)
let run_all ~root =
  let r = run_files (discover ~root) in
  {
    r with
    r_findings =
      List.sort_uniq
        (fun a b ->
          match Lint_diag.compare_by_pos a b with 0 -> compare a b | c -> c)
        (mli_coverage ~root @ export_readers ~root @ r.r_findings);
  }

let filter_rules rules r =
  match rules with
  | None -> r
  | Some keep ->
      {
        r with
        r_findings =
          List.filter
            (fun (d : Lint_diag.t) ->
              d.d_rule = Lint_diag.Parse || List.mem d.d_rule keep)
            r.r_findings;
      }

let pp_findings out r =
  List.iter
    (fun d -> Printf.fprintf out "%s\n" (Lint_diag.to_string d))
    r.r_findings;
  Printf.fprintf out "%d file%s scanned, %d finding%s\n" r.r_files
    (if r.r_files = 1 then "" else "s")
    (List.length r.r_findings)
    (if List.length r.r_findings = 1 then "" else "s")

let pp_waiver_report out r =
  let n = List.length r.r_waivers in
  let missing =
    List.length
      (List.filter (fun (w : Lint_diag.waiver) -> w.w_reason = None) r.r_waivers)
  in
  Printf.fprintf out "# clic-lint waiver report: %d waiver%s, %d missing \
                      reason%s\n"
    n
    (if n = 1 then "" else "s")
    missing
    (if missing = 1 then "" else "s");
  List.iter
    (fun w -> Printf.fprintf out "%s\n" (Lint_diag.waiver_to_string w))
    r.r_waivers
