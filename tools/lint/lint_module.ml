(* Per-module analysis for clic-lint.

   One parse with [Parse.implementation], then a single [Ast_iterator]
   pass that simultaneously

   - builds the module's call graph: top-level value bindings are nodes,
     and a binding that mentions another top-level name (including from
     inside lambdas it passes to ordinary functions — callbacks run in
     the caller's context until proven otherwise) gets an edge to it.
     References that escape the current execution context — handler
     arguments to [Process.spawn]/[Process.fork] and to the raw
     [Sim.post*/schedule*] entry points — are NOT edges: the handler runs
     later, in its own context.  Handler arguments to the three
     kernel-context registration points ([Interrupt.raise_irq ~isr],
     [Bottom_half.schedule], [Ktimer.after]) instead become atomic ROOTS
     of their own;

   - records every blocking-primitive call site, every [Obj.magic]-family
     mention, every [Probe.emit] mention together with whether it sits
     under an inline [!Probe.on] / [Probe.enabled ()] guard, and every
     syntactic allocation inside a [@clic.hot] function;

   - tracks the active waiver attributes ([@clic.allow_block],
     [@clic.allow_magic], [@clic.alloc_ok], [@clic.probe_ok]) from
     enclosing expressions and bindings, and collects them all for the
     waiver report.  A waiver without a written reason is itself a
     finding under the rule it tries to silence.

   The rules, resolved after the pass:

   R1  no-sleep-in-atomic: no blocking primitive may be reachable (in the
       per-module call-graph approximation) from a function that is an
       ISR / bottom-half / timer handler or is annotated [@clic.atomic].
   R2  Obj.magic / Obj.repr / Obj.obj only under [@clic.allow_magic].
   R3  a [@clic.hot] function may not syntactically allocate (closures,
       records, tuples, variant/list/option payloads, arrays, lazy),
       except under a [!Probe.on] guard (the probes-off steady state
       never runs that branch) or a [@clic.alloc_ok] waiver.
   R4  every [Probe.emit] mention must be dominated by an inline
       [!Probe.on] / [Probe.enabled ()] check (the then-branch of an
       [if], or a [when] guard) or carry [@clic.probe_ok].

   Known blind spots of the approximation are documented in DESIGN.md
   §12: cross-module calls are only classified when they hit the
   primitive table, calls through record fields / function values are
   invisible, partial applications are not counted as allocations, and
   [if not !Probe.on then .. else emit] is not recognized as a guard. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Vocabulary *)

(* Blocking primitives (R1 leaves): anything that suspends the calling
   simulation process.  Matched on the trailing components of the
   (possibly library-qualified) dotted path. *)
let blocking_primitives =
  [
    "Semaphore.acquire";
    "Process.delay";
    "Process.wait_in";
    "Process.await";
    "Mailbox.recv";
    "Ivar.read";
    "Link.wait_room";
    "Resource.acquire";
    "Resource.use";
    "Resource.use_f";
  ]

(* Handler arguments to these escape the current context entirely: the
   thunk runs later as a plain event/process, so its body is neither an
   edge nor a root. *)
let escape_points =
  [
    "Process.spawn";
    "Process.fork";
    "Sim.post";
    "Sim.schedule";
    "Sim.schedule_at";
  ]

(* Handler arguments to these run in atomic kernel context: the handler
   (labelled [~isr:], else the last argument) becomes an R1 root. *)
let registration_points =
  [
    ("Interrupt.raise_irq", "ISR");
    ("Bottom_half.schedule", "bottom-half");
    ("Ktimer.after", "timer");
  ]

let magic_idents = [ "Obj.magic"; "Obj.repr"; "Obj.obj" ]

let waiver_attrs =
  [
    ("clic.allow_block", Lint_diag.R1);
    ("clic.allow_magic", Lint_diag.R2);
    ("clic.alloc_ok", Lint_diag.R3);
    ("clic.probe_ok", Lint_diag.R4);
  ]

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let dotted lid = String.concat "." (Longident.flatten lid)

(* [path_matches "Engine.Semaphore.acquire" "Semaphore.acquire"] is true:
   library wrapping prefixes the path, the tail identifies the call. *)
let path_matches path target =
  path = target
  ||
  let suffix = "." ^ target in
  let lp = String.length path and ls = String.length suffix in
  lp > ls && String.sub path (lp - ls) ls = suffix

let in_table path table = List.find_opt (fun t -> path_matches path t) table

let attr_reason (a : attribute) =
  match a.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let has_attr name attrs =
  List.exists (fun (a : attribute) -> a.attr_name.txt = name) attrs

(* ------------------------------------------------------------------ *)
(* Analysis state *)

type leaf_site = {
  ls_prim : string;  (* entry from [blocking_primitives] *)
  ls_pos : Lint_diag.pos;
  ls_waived : bool;
}

type fn = {
  f_name : string;
  mutable f_root : string option;  (* Some "ISR" / "bottom-half" / ... *)
  f_hot : bool;
  mutable f_calls : string list;  (* candidate local callees, unresolved *)
  mutable f_leaves : leaf_site list;
}

type t = {
  file : string;
  fns : (string, fn) Hashtbl.t;  (* named top-level bindings *)
  mutable anon_roots : fn list;  (* handler lambdas at registration sites *)
  mutable findings : Lint_diag.t list;  (* R2/R3/R4 + waiver problems *)
  mutable waivers : Lint_diag.waiver list;
}

exception Parse_failure of Lint_diag.t

(* Parse [path] with [parse] ([Parse.implementation] or
   [Parse.interface]); a failure becomes a [Parse] finding. *)
let parse_with parse path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      try parse lexbuf
      with exn ->
        let pos =
          match exn with
          | Syntaxerr.Error e ->
              Lint_diag.pos_of_location (Syntaxerr.location_of_error e)
          | _ -> { Lint_diag.p_file = path; p_line = 1; p_col = 0 }
        in
        raise
          (Parse_failure
             (Lint_diag.make Lint_diag.Parse pos
                (Printf.sprintf "cannot parse %s (%s)" path
                   (Printexc.to_string exn)))))

let parse_file = parse_with Parse.implementation

(* Does an expression mention the probe-enabled flag?  Covers [!Probe.on],
   [Probe.enabled ()], and compound conditions containing either. *)
let mentions_probe_flag expr =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
              let p = dotted txt in
              if path_matches p "Probe.on" || path_matches p "Probe.enabled"
              then found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr;
  !found

(* The head identifier of an application chain: [f x y] and [f] both
   answer [f]. *)
let rec head_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some txt
  | Pexp_apply (hd, _) -> head_ident hd
  | _ -> None

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let analyze file =
  let structure = parse_file file in
  let m =
    {
      file;
      fns = Hashtbl.create 64;
      anon_roots = [];
      findings = [];
      waivers = [];
    }
  in
  let in_probe_ml = Filename.basename file = "probe.ml" in
  (* Walk context: the function whose body we are inside, whether we are
     under a probe guard, and the stack of active waiver kinds. *)
  let cur : fn option ref = ref None in
  let guard_depth = ref 0 in
  let active_waivers : string list ref = ref [] in
  (* root marks naming a function by identifier, resolved after the pass *)
  let pending_roots : (string * string) list ref = ref [] in
  let finding rule loc msg =
    m.findings <-
      Lint_diag.make rule (Lint_diag.pos_of_location loc) msg :: m.findings
  in
  let context_name () =
    match !cur with Some f -> f.f_name | None -> "<module toplevel>"
  in
  (* Record the waiver attributes carried by [attrs]; answers the kinds
     to keep active while walking the annotated subtree.  A reason-less
     waiver is reported but still treated as active so the silenced site
     is not double-reported. *)
  let note_waivers (attrs : attributes) =
    List.filter_map
      (fun (a : attribute) ->
        match List.assoc_opt a.attr_name.txt waiver_attrs with
        | None -> None
        | Some rule ->
            let reason = attr_reason a in
            m.waivers <-
              {
                Lint_diag.w_attr = a.attr_name.txt;
                w_rule = rule;
                w_pos = Lint_diag.pos_of_location a.attr_loc;
                w_reason = reason;
                w_context = context_name ();
              }
              :: m.waivers;
            if reason = None then
              finding rule a.attr_loc
                (Printf.sprintf
                   "waiver [@%s] carries no reason string; every waiver must \
                    say why (e.g. [@%s \"why this is safe\"])"
                   a.attr_name.txt a.attr_name.txt);
            Some a.attr_name.txt)
      attrs
  in
  let with_waivers pushed f =
    if pushed = [] then f ()
    else begin
      let saved = !active_waivers in
      active_waivers := pushed @ saved;
      Fun.protect ~finally:(fun () -> active_waivers := saved) f
    end
  in
  let waived kind = List.mem kind !active_waivers in
  let with_guard f =
    incr guard_depth;
    Fun.protect ~finally:(fun () -> decr guard_depth) f
  in
  (* -------------------- site noters -------------------- *)
  let note_ident loc lid =
    let p = dotted lid in
    (* call-graph edge candidates: bare local names only *)
    (match (lid, !cur) with
    | Longident.Lident n, Some f -> f.f_calls <- n :: f.f_calls
    | _ -> ());
    if List.exists (path_matches p) magic_idents then begin
      if not (waived "clic.allow_magic") then
        finding Lint_diag.R2 loc
          (Printf.sprintf
             "unsafe cast `%s` outside a [@clic.allow_magic \"reason\"] \
              waiver (in %s)"
             p (context_name ()))
    end;
    if path_matches p "Probe.emit" && not in_probe_ml then
      if !guard_depth = 0 && not (waived "clic.probe_ok") then
        finding Lint_diag.R4 loc
          (Printf.sprintf
             "`Probe.emit` not dominated by an inline `!Probe.on` / \
              `Probe.enabled ()` check (in %s); guard it or use a guarded \
              wrapper"
             (context_name ()))
  in
  let note_leaf loc prim =
    match !cur with
    | None -> ()
    | Some f ->
        f.f_leaves <-
          {
            ls_prim = prim;
            ls_pos = Lint_diag.pos_of_location loc;
            ls_waived = waived "clic.allow_block";
          }
          :: f.f_leaves
  in
  let note_alloc loc what =
    match !cur with
    | Some f when f.f_hot && !guard_depth = 0 && not (waived "clic.alloc_ok")
      ->
        finding Lint_diag.R3 loc
          (Printf.sprintf
             "[@clic.hot] function `%s` allocates (%s); hoist it, guard it \
              behind `!Probe.on`, or waive with [@clic.alloc_ok \"reason\"]"
             f.f_name what)
    | _ -> ()
  in
  (* -------------------- the walkers -------------------- *)
  let rec expr_iter it e =
    let pushed = note_waivers e.pexp_attributes in
    with_waivers pushed (fun () -> expr_body it e)
  and expr_body it e =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> note_ident loc txt
    | Pexp_ifthenelse (cond, then_, else_) ->
        it.Ast_iterator.expr it cond;
        if mentions_probe_flag cond then
          with_guard (fun () -> it.Ast_iterator.expr it then_)
        else it.Ast_iterator.expr it then_;
        Option.iter (it.Ast_iterator.expr it) else_
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        it.Ast_iterator.expr it scrut;
        List.iter (case_iter it) cases
    | Pexp_function cases ->
        note_alloc e.pexp_loc "a closure";
        List.iter (case_iter it) cases
    | Pexp_fun (_, default, _, body) ->
        note_alloc e.pexp_loc "a closure";
        Option.iter (it.Ast_iterator.expr it) default;
        it.Ast_iterator.expr it body
    | Pexp_apply (hd, args) -> apply_iter it e hd args
    | Pexp_record _ ->
        note_alloc e.pexp_loc "a record";
        Ast_iterator.default_iterator.expr it e
    | Pexp_tuple _ ->
        note_alloc e.pexp_loc "a tuple";
        Ast_iterator.default_iterator.expr it e
    | Pexp_array _ ->
        note_alloc e.pexp_loc "an array literal";
        Ast_iterator.default_iterator.expr it e
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some payload) ->
        (* one diagnostic per cons cell, not an extra one for its tuple *)
        note_alloc e.pexp_loc "a list cell";
        (match payload.pexp_desc with
        | Pexp_tuple elts -> List.iter (it.Ast_iterator.expr it) elts
        | _ -> it.Ast_iterator.expr it payload)
    | Pexp_construct (_, Some _) ->
        note_alloc e.pexp_loc "a constructor with payload";
        Ast_iterator.default_iterator.expr it e
    | Pexp_variant (_, Some _) ->
        note_alloc e.pexp_loc "a polymorphic variant with payload";
        Ast_iterator.default_iterator.expr it e
    | Pexp_lazy _ ->
        note_alloc e.pexp_loc "a lazy block";
        Ast_iterator.default_iterator.expr it e
    | _ -> Ast_iterator.default_iterator.expr it e
  and case_iter it (c : case) =
    Option.iter (it.Ast_iterator.expr it) c.pc_guard;
    let guarded =
      match c.pc_guard with Some g -> mentions_probe_flag g | None -> false
    in
    if guarded then with_guard (fun () -> it.Ast_iterator.expr it c.pc_rhs)
    else it.Ast_iterator.expr it c.pc_rhs
  and apply_iter it e hd args =
    match head_ident hd with
    | None ->
        it.Ast_iterator.expr it hd;
        List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
    | Some lid -> (
        let p = dotted lid in
        match in_table p blocking_primitives with
        | Some prim ->
            note_leaf e.pexp_loc prim;
            it.Ast_iterator.expr it hd;
            List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
        | None ->
            if in_table p escape_points <> None then begin
              (* The handler escapes this context: no edges out of its
                 body.  A closure literally built here still costs an
                 allocation in a hot function. *)
              it.Ast_iterator.expr it hd;
              List.iter
                (fun (_, a) ->
                  match a.pexp_desc with
                  | Pexp_fun _ | Pexp_function _ ->
                      note_alloc a.pexp_loc "a closure"
                  | _ -> ())
                args
            end
            else begin
              match
                List.find_opt
                  (fun (name, _) -> path_matches p name)
                  registration_points
              with
              | Some (_, kind) ->
                  it.Ast_iterator.expr it hd;
                  register_handler it kind e args
              | None ->
                  it.Ast_iterator.expr it hd;
                  List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
            end)
  (* The handler argument of a registration point: the [~isr:] argument
     when labelled, else the last argument.  A lambda becomes an
     anonymous atomic root analyzed in place; a named local function gets
     marked as a root; anything else is walked normally. *)
  and register_handler it kind e args =
    let n_args = List.length args in
    let has_isr_label =
      List.exists (fun (label, _) -> label = Asttypes.Labelled "isr") args
    in
    let is_handler i label =
      if has_isr_label then label = Asttypes.Labelled "isr"
      else i = n_args - 1
    in
    List.iteri
      (fun i (label, a) ->
        if not (is_handler i label) then it.Ast_iterator.expr it a
        else
          match a.pexp_desc with
          | Pexp_fun _ | Pexp_function _ ->
              let root =
                {
                  f_name =
                    Printf.sprintf "<%s handler at line %d>" kind
                      (line_of e.pexp_loc);
                  f_root = Some kind;
                  f_hot = false;
                  f_calls = [];
                  f_leaves = [];
                }
              in
              m.anon_roots <- root :: m.anon_roots;
              let saved = !cur in
              cur := Some root;
              Fun.protect
                ~finally:(fun () -> cur := saved)
                (fun () ->
                  (* walk the lambda body only: the lambda node itself is
                     the handler, not an allocation charged to [root] *)
                  match a.pexp_desc with
                  | Pexp_fun (_, default, _, body) ->
                      Option.iter (it.Ast_iterator.expr it) default;
                      it.Ast_iterator.expr it body
                  | Pexp_function cases -> List.iter (case_iter it) cases
                  | _ -> ())
          | _ -> (
              match head_ident a with
              | Some (Longident.Lident n) ->
                  pending_roots := (n, kind) :: !pending_roots
              | _ -> it.Ast_iterator.expr it a))
      args
  in
  (* Top-level value bindings become call-graph nodes. *)
  let handle_binding it (vb : value_binding) =
    let name =
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } -> Some txt
      | _ -> None
    in
    let pushed = note_waivers vb.pvb_attributes in
    let fn =
      {
        f_name =
          (match name with
          | Some n -> n
          | None -> Printf.sprintf "<binding at line %d>" (line_of vb.pvb_loc));
        f_root =
          (if has_attr "clic.atomic" vb.pvb_attributes then
             Some "[@clic.atomic]"
           else None);
        f_hot = has_attr "clic.hot" vb.pvb_attributes;
        f_calls = [];
        f_leaves = [];
      }
    in
    (match name with Some n -> Hashtbl.replace m.fns n fn | None -> ());
    let saved = !cur in
    cur := Some fn;
    Fun.protect
      ~finally:(fun () -> cur := saved)
      (fun () ->
        with_waivers pushed (fun () ->
            (* unwrap the leading parameter lambdas: they are the function
               itself, not closures it allocates *)
            let rec body e =
              match e.pexp_desc with
              | Pexp_fun (_, default, _, inner) ->
                  Option.iter (it.Ast_iterator.expr it) default;
                  body inner
              | Pexp_newtype (_, inner) -> body inner
              | _ -> it.Ast_iterator.expr it e
            in
            body vb.pvb_expr))
  in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr = expr_iter;
      structure_item =
        (fun it si ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) -> List.iter (handle_binding it) vbs
          | _ -> Ast_iterator.default_iterator.structure_item it si);
    }
  in
  iterator.Ast_iterator.structure iterator structure;
  (* resolve handler roots named by identifier *)
  List.iter
    (fun (n, kind) ->
      match Hashtbl.find_opt m.fns n with
      | Some f -> if f.f_root = None then f.f_root <- Some kind
      | None -> ())
    !pending_roots;
  m

(* ------------------------------------------------------------------ *)
(* R1 resolution: transitive reachability of unwaived blocking leaves *)

type block_path = { bp_via : string list; bp_leaf : leaf_site }

let resolve_r1 (m : t) : Lint_diag.t list =
  (* Small per-module graphs: memoize positives only (a positive is valid
     regardless of the DFS stack it was found under; negatives found
     inside a cycle would be unsound to cache). *)
  let blocked_memo : (string, block_path) Hashtbl.t = Hashtbl.create 16 in
  let rec blocked_fn visiting (f : fn) : block_path option =
    match
      List.find_opt
        (fun (l : leaf_site) -> not l.ls_waived)
        (List.rev f.f_leaves)
    with
    | Some leaf -> Some { bp_via = [ f.f_name ]; bp_leaf = leaf }
    | None ->
        let callees =
          List.sort_uniq compare f.f_calls
          |> List.filter_map (fun n ->
                 if List.mem n visiting then None
                 else Option.map (fun g -> (n, g)) (Hashtbl.find_opt m.fns n))
        in
        List.fold_left
          (fun acc (n, g) ->
            match acc with
            | Some _ -> acc
            | None -> (
                let sub =
                  match Hashtbl.find_opt blocked_memo n with
                  | Some bp -> Some bp
                  | None ->
                      let r = blocked_fn (n :: visiting) g in
                      (match r with
                      | Some bp -> Hashtbl.replace blocked_memo n bp
                      | None -> ());
                      r
                in
                match sub with
                | Some bp -> Some { bp with bp_via = f.f_name :: bp.bp_via }
                | None -> None))
          None callees
  in
  let check_root (f : fn) acc =
    match f.f_root with
    | None -> acc
    | Some kind -> (
        match blocked_fn [ f.f_name ] f with
        | None -> acc
        | Some bp ->
            let via =
              match bp.bp_via with
              | [ _ ] -> ""
              | path -> Printf.sprintf " via %s" (String.concat " -> " path)
            in
            Lint_diag.make Lint_diag.R1 bp.bp_leaf.ls_pos
              (Printf.sprintf
                 "blocking `%s` is reachable from %s context `%s`%s; atomic \
                  contexts must not sleep (waive a deliberate site with \
                  [@clic.allow_block \"reason\"])"
                 bp.bp_leaf.ls_prim kind f.f_name via)
            :: acc)
  in
  let acc = Hashtbl.fold (fun _ f acc -> check_root f acc) m.fns [] in
  List.fold_left (fun acc f -> check_root f acc) acc m.anon_roots

let findings m = List.rev_append m.findings (resolve_r1 m)
let waivers m = List.rev m.waivers
