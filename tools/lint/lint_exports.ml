(* R6 for clic-lint: every value a [lib/**/*.mli] exports, including the
   values of [module X : sig .. end] blocks, is read by some other
   compilation unit.  An export nothing outside its own module reads is
   API without a caller: drop the [val], and the definition too when its
   module does not use it either.

   Parse-only, like R1-R5.  A reference to export [M.v] (or [M.Sub.v])
   is a value identifier, in any reader [.ml] other than the export's
   own, that after expansion ends in that path.  Expansion covers what
   the scope around the identifier can add in front of it:

   - a [module F = A.M] alias (structure-level or [let module]) rewrites
     a leading [F] into [A.M];
   - an [open A.M] / [let open A.M in] / [A.M.( .. )] in scope also tries
     the identifier behind [A.M], so a bare [v] or a partly qualified
     [Sub.v] still reaches [M.v] / [M.Sub.v].

   Every approximation errs towards "referenced": scopes are syntactic
   (a local module that shadows a library name counts for it), a module
   used whole ([include M], a functor argument, [(module M)]) reads every
   value under it, and a reader that does not parse suppresses the rule
   entirely.  So every R6 finding is deletable. *)

open Parsetree

type export = {
  x_path : string list;  (* ["Stats"; "Counter"; "incr"] *)
  x_own : string;  (* the implementation: its own reads do not count *)
  x_pos : Lint_diag.pos;
}

let module_name file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

let exports_of_mli mli =
  let rec walk prefix (sg : signature) =
    List.concat_map
      (fun item ->
        match item.psig_desc with
        | Psig_value vd ->
            [
              {
                x_path = prefix @ [ vd.pval_name.txt ];
                x_own = Filename.remove_extension mli ^ ".ml";
                x_pos = Lint_diag.pos_of_location vd.pval_loc;
              };
            ]
        | Psig_module
            {
              pmd_name = { txt = Some sub; _ };
              pmd_type = { pmty_desc = Pmty_signature sg; _ };
              _;
            } ->
            walk (prefix @ [ sub ]) sg
        | _ -> [])
      sg
  in
  walk [ module_name mli ] (Lint_module.parse_with Parse.interface mli)

(* The value paths and whole-module paths one reader mentions, each
   already expanded through the aliases and opens in scope. *)
type reads = { values : string list list; wholes : string list list }

let reads_of_ml ml =
  let values = ref [] and wholes = ref [] in
  let opens : string list list ref = ref [] in
  let aliases : (string * string list) list ref = ref [] in
  let expand = function
    | hd :: rest when List.mem_assoc hd !aliases ->
        List.assoc hd !aliases @ rest
    | p -> p
  in
  (* the identifier as written plus its reading under each open *)
  let candidates lid =
    let p = expand (Longident.flatten lid) in
    p :: List.map (fun o -> o @ p) !opens
  in
  let scoped f =
    let saved_opens = !opens and saved_aliases = !aliases in
    Fun.protect
      ~finally:(fun () ->
        opens := saved_opens;
        aliases := saved_aliases)
      f
  in
  let open_ (od : module_expr open_infos) =
    match od.popen_expr.pmod_desc with
    | Pmod_ident { txt; _ } ->
        opens := expand (Longident.flatten txt) :: !opens;
        true
    | _ -> false
  in
  let alias name (me : module_expr) =
    match (name, me.pmod_desc) with
    | Some name, Pmod_ident { txt; _ } ->
        aliases := (name, expand (Longident.flatten txt)) :: !aliases;
        true
    | _ -> false
  in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      structure = (fun it s -> scoped (fun () -> default.structure it s));
      structure_item =
        (fun it si ->
          match si.pstr_desc with
          | Pstr_open od when open_ od -> ()
          | Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ }
            when alias txt pmb_expr ->
              ()
          | _ -> default.structure_item it si);
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> values := candidates txt @ !values
          | Pexp_open (od, body) ->
              scoped (fun () ->
                  if not (open_ od) then it.module_expr it od.popen_expr;
                  it.expr it body)
          | Pexp_letmodule ({ txt; _ }, me, body) ->
              scoped (fun () ->
                  if not (alias txt me) then it.module_expr it me;
                  it.expr it body)
          | _ -> default.expr it e);
      module_expr =
        (fun it me ->
          match me.pmod_desc with
          | Pmod_ident { txt; _ } -> wholes := candidates txt @ !wholes
          | _ -> default.module_expr it me);
    }
  in
  it.structure it (Lint_module.parse_file ml);
  { values = !values; wholes = !wholes }

let is_suffix suffix path =
  let drop = List.length path - List.length suffix in
  drop >= 0 && List.filteri (fun i _ -> i >= drop) path = suffix

let last path = List.nth path (List.length path - 1)

(* The modules enclosing an export, outermost first: [M.Sub.v] answers
   [M] and [M.Sub], the paths a whole-module read can name. *)
let rec module_prefixes = function
  | [] | [ _ ] -> []
  | m :: rest -> [ m ] :: List.map (List.cons m) (module_prefixes rest)

let finding x =
  let dotted = String.concat "." x.x_path in
  Lint_diag.make Lint_diag.R6 x.x_pos
    (Printf.sprintf
       "`%s` is exported but nothing outside %s reads it; drop the val \
        (and the definition, when %s does not use it either)"
       dotted
       (Filename.basename x.x_own)
       (List.hd x.x_path))

(* R6 over the interfaces [mlis] against the reader sources [readers]. *)
let check ~mlis ~readers =
  let parsed parse files =
    List.fold_left
      (fun (ok, bad) f ->
        match parse f with
        | v -> ((f, v) :: ok, bad)
        | exception Lint_module.Parse_failure d -> (ok, d :: bad))
      ([], []) (List.rev files)
  in
  let exports, bad_mlis = parsed exports_of_mli mlis in
  let readers, bad_readers = parsed reads_of_ml readers in
  if bad_readers <> [] then bad_mlis @ bad_readers
  else
    (* index value reads by their last component *)
    let by_name = Hashtbl.create 4096 in
    List.iter
      (fun (file, r) ->
        List.iter (fun p -> Hashtbl.add by_name (last p) (file, p)) r.values)
      readers;
    let read_elsewhere x =
      List.exists
        (fun (file, p) -> file <> x.x_own && is_suffix x.x_path p)
        (Hashtbl.find_all by_name (last x.x_path))
      || List.exists
           (fun (file, r) ->
             file <> x.x_own
             && List.exists
                  (fun m -> List.exists (is_suffix m) r.wholes)
                  (module_prefixes x.x_path))
           readers
    in
    bad_mlis
    @ List.concat_map
        (fun (_, xs) ->
          List.filter_map
            (fun x -> if read_elsewhere x then None else Some (finding x))
            xs)
        exports
