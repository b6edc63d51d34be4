(* Rule O1: static lock-order checking.

   The engine documents one canonical acquisition order (DESIGN.md,
   "Domain-safety"):

     Maint_job -> Txn_lock -> Pool_pin -> Wal_sync

   mirrored at runtime by [Fieldrep_util.Lockdep].  This module rebuilds
   the order statically: it scans every parsed compilation unit for
   acquisition sites — the [Lockdep] primitives themselves plus the
   caller-facing heads of the instrumented subsystems (lock-manager
   acquire/grant, buffer-pool pin and its bracket combinators, Wal.sync) —
   propagates a syntactic held-context through each definition, closes a
   may-acquire summary over the interprocedural call graph, and reports
   every edge that runs against the canonical ranks.

   The analysis is deliberately an under-approximation: locks held across
   separate top-level definitions (a caller pinning in one function and
   syncing in another) are invisible to it, as are acquisitions behind
   closures stored in records.  The runtime lockdep recorder covers that
   remainder; O1 exists to catch the direct and one-call-deep inversions
   at review time, before any schedule runs. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Lock classes and the canonical partial order (total, as ranks).      *)

type cls = Maint_job | Txn_lock | Pool_pin | Wal_sync

let cls_name = function
  | Maint_job -> "Maint_job"
  | Txn_lock -> "Txn_lock"
  | Pool_pin -> "Pool_pin"
  | Wal_sync -> "Wal_sync"

let rank = function Maint_job -> 0 | Txn_lock -> 1 | Pool_pin -> 2 | Wal_sync -> 3

let canonical = "Maint_job -> Txn_lock -> Pool_pin -> Wal_sync"

let of_constructor = function
  | "Maint_job" -> Some Maint_job
  | "Txn_lock" -> Some Txn_lock
  | "Pool_pin" -> Some Pool_pin
  | "Wal_sync" -> Some Wal_sync
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Caller-facing acquisition heads, by resolved-name suffix.  The        *)
(* [Lockdep] primitives are handled separately (their class comes from   *)
(* the constructor argument); these tables cover the instrumented        *)
(* subsystems' own entry points, so a caller of [Buffer_pool.pin] gets   *)
(* the same held-context the runtime recorder would give it.             *)

(* Held for the rest of the enclosing sequence, until a release head.  The
   pool exports no bare [pin]/[unpin]; the names stay as a guard, so one
   reintroduced is tracked from its first caller. *)
let bare_heads = [ ("pin", Pool_pin); ("acquire", Txn_lock); ("grant", Txn_lock) ]
let release_heads = [ ("unpin", Pool_pin); ("release_all", Txn_lock) ]

(* Held for the function argument only (never leaks): a lambda, or a named
   step such as [Pager.with_pin_arg]'s, which runs as a call under it. *)
let bracket_heads =
  [
    ("with_pin_arg", Pool_pin);
    ("with_page_read", Pool_pin);
    ("with_page_write", Pool_pin);
  ]

(* ------------------------------------------------------------------ *)
(* Per-definition facts gathered by the walk.                           *)

type acq = {
  cls : cls;
  loc : Location.t;
  isolated : bool;
  held_at_acq : cls list;
}

type call = {
  callee : string * string;  (* (Module, name), alias-resolved *)
  call_loc : Location.t;
  held_at_call : cls list;
  call_isolated : bool;
}

type def = {
  key : string * string;
  label : string;  (* "Module.name", for witness chains *)
  rel_path : string;
  mutable acqs : acq list;
  mutable calls : call list;
}

let diag loc fmt =
  Printf.ksprintf (fun message -> { Diag.rule = "O1"; loc; message }) fmt

let module_of_path rel_path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename rel_path))

(* Normalize [f @@ x] and [x |> f] into a plain application of [f]. *)
let rec normalize_apply fn args =
  match fn.pexp_desc with
  | Pexp_ident { txt = Longident.Lident "@@"; _ } -> (
      match args with
      | [ (_, f); (_, x) ] -> (
          match f.pexp_desc with
          | Pexp_apply (f', args') -> normalize_apply f' (args' @ [ (Asttypes.Nolabel, x) ])
          | _ -> (f, [ (Asttypes.Nolabel, x) ]))
      | _ -> (fn, args))
  | Pexp_ident { txt = Longident.Lident "|>"; _ } -> (
      match args with
      | [ (_, x); (_, f) ] -> (
          match f.pexp_desc with
          | Pexp_apply (f', args') -> normalize_apply f' (args' @ [ (Asttypes.Nolabel, x) ])
          | _ -> (f, [ (Asttypes.Nolabel, x) ]))
      | _ -> (fn, args))
  | _ -> (fn, args)

(* The lock-class constructor argument of a Lockdep primitive. *)
let cls_arg args =
  List.find_map
    (fun (_, a) ->
      match a.pexp_desc with
      | Pexp_construct (lid, None) -> (
          match List.rev (Lint_ast.flatten lid.Location.txt) with
          | last :: _ -> of_constructor last
          | [] -> None)
      | _ -> None)
    args

let is_lockdep env fn =
  match fn.pexp_desc with
  | Pexp_ident lid -> (
      match List.rev (Lint_ast.resolve env lid.Location.txt) with
      | _ :: qual :: _ -> qual = "Lockdep"
      | _ -> false)
  | _ -> false

let head_in table env fn =
  match fn.pexp_desc with
  | Pexp_ident lid when not (is_lockdep env fn) -> (
      match List.rev (Lint_ast.resolve env lid.Location.txt) with
      | last :: _ -> List.assoc_opt last table
      | [] -> None)
  | _ -> None

let remove_one c held =
  let rec go = function
    | [] -> []
    | x :: rest -> if x = c then rest else x :: go rest
  in
  go held

(* Collect the acquisition/call facts of one definition body.  [walk]
   threads the held-context through sequencing positions and returns the
   context as it stands after the expression; branch-local acquires are
   deliberately not propagated past their branch (under-approximation). *)
let collect_def env cur_module d body =
  let note_acq cls loc held isolated =
    d.acqs <- { cls; loc; isolated; held_at_acq = held } :: d.acqs
  in
  let note_call callee call_loc held isolated =
    d.calls <- { callee; call_loc; held_at_call = held; call_isolated = isolated } :: d.calls
  in
  let note_ident_call lid loc held iso =
    let key =
      match List.rev (Lint_ast.resolve env lid.Location.txt) with
      | name :: qual :: _ -> Some (qual, name)
      | [ name ] -> Some (cur_module, name)
      | [] -> None
    in
    Option.iter (fun k -> note_call k loc held iso) key
  in
  let rec walk ~iso held e =
    match e.pexp_desc with
    | Pexp_apply (fn0, args0) -> begin
        let fn, args = normalize_apply fn0 args0 in
        let head = Lint_ast.apply_head fn in
        if is_lockdep env fn then begin
          match (head, cls_arg args) with
          | Some "acquire", Some c ->
              note_acq c e.pexp_loc held iso;
              c :: held
          | Some "note", Some c ->
              note_acq c e.pexp_loc held iso;
              held
          | Some "release", Some c -> remove_one c held
          | Some "with_held", Some c ->
              note_acq c e.pexp_loc held iso;
              walk_bracket_args ~iso (c :: held) args;
              held
          | Some "isolated", _ ->
              (* A fresh node boundary: the lambda runs under no inherited
                 locks, and nothing inside propagates to callers. *)
              walk_bracket_args ~iso:true [] args;
              held
          | _ ->
              List.iter (fun (_, a) -> ignore (walk ~iso held a)) args;
              held
        end
        else begin
          match head_in bracket_heads env fn with
          | Some c ->
              note_acq c e.pexp_loc held iso;
              walk_bracket_args ~iso (c :: held) args;
              held
          | None -> (
              match head_in bare_heads env fn with
              | Some c ->
                  let held = List.fold_left (fun h (_, a) -> walk ~iso h a) held args in
                  note_acq c e.pexp_loc held iso;
                  c :: held
              | None -> (
                  match head_in release_heads env fn with
                  | Some c ->
                      List.iter (fun (_, a) -> ignore (walk ~iso held a)) args;
                      remove_one c held
                  | None ->
                      (match fn.pexp_desc with
                      | Pexp_ident lid -> note_ident_call lid e.pexp_loc held iso
                      | _ -> ());
                      List.fold_left (fun h (_, a) -> walk ~iso h a) held args))
        end
      end
    | Pexp_sequence (a, b) ->
        let held = walk ~iso held a in
        walk ~iso held b
    | Pexp_let (_, vbs, body) ->
        let held = List.fold_left (fun h vb -> walk ~iso h vb.pvb_expr) held vbs in
        walk ~iso held body
    | Pexp_match (scrut, cases) ->
        let held = walk ~iso held scrut in
        List.iter
          (fun c ->
            Option.iter (fun g -> ignore (walk ~iso held g)) c.pc_guard;
            ignore (walk ~iso held c.pc_rhs))
          cases;
        held
    | Pexp_try (body, cases) ->
        ignore (walk ~iso held body);
        List.iter (fun c -> ignore (walk ~iso held c.pc_rhs)) cases;
        held
    | Pexp_ifthenelse (cond, t, else_) ->
        let held = walk ~iso held cond in
        ignore (walk ~iso held t);
        Option.iter (fun e2 -> ignore (walk ~iso held e2)) else_;
        held
    | Pexp_fun (_, _, _, body) ->
        ignore (walk ~iso held body);
        held
    | Pexp_function cases ->
        List.iter (fun c -> ignore (walk ~iso held c.pc_rhs)) cases;
        held
    | Pexp_constraint (e1, _) | Pexp_open (_, e1) | Pexp_letmodule (_, _, e1)
    | Pexp_newtype (_, e1) ->
        walk ~iso held e1
    | _ ->
        Lint_ast.iter_child_exprs (fun child -> ignore (walk ~iso held child)) e;
        held
  (* A lambda argument to a bracket runs under the bracket's class, and so
     does a named function passed unlabelled (it is called in there); any
     other expression argument is evaluated in the current context. *)
  and walk_bracket_args ~iso held args =
    List.iter
      (fun (label, a) ->
        match (label, a.pexp_desc) with
        | _, Pexp_fun (_, _, _, body) -> ignore (walk ~iso held body)
        | _, Pexp_function cases ->
            List.iter (fun c -> ignore (walk ~iso held c.pc_rhs)) cases
        | Asttypes.Nolabel, Pexp_ident lid -> note_ident_call lid a.pexp_loc held iso
        | _ -> ignore (walk ~iso held a))
      args
  in
  ignore (walk ~iso:false [] body)

(* Peel the parameters off a definition to reach its body. *)
let rec peel_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> peel_params body
  | Pexp_newtype (_, body) -> peel_params body
  | Pexp_constraint (body, _) -> peel_params body
  | _ -> e

(* Every named top-level definition in the unit (descending into plain
   sub-modules: their defs are keyed under the file's module, which is how
   call sites qualify them from outside). *)
let defs_of_unit ~rel_path ~env str =
  let cur_module = module_of_path rel_path in
  let out = ref [] in
  let rec items str =
    List.iter
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let name =
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var v -> v.Location.txt
                  | _ -> "_"
                in
                let d =
                  {
                    key = (cur_module, name);
                    label = cur_module ^ "." ^ name;
                    rel_path;
                    acqs = [];
                    calls = [];
                  }
                in
                collect_def env cur_module d (peel_params vb.pvb_expr);
                out := d :: !out)
              vbs
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } -> items s
        | _ -> ())
      str
  in
  items str;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Interprocedural closure and reporting.                               *)

type witness = { w_cls : cls; chain : string }

let check units =
  let defs =
    List.concat_map (fun (rel_path, str, env) -> defs_of_unit ~rel_path ~env str) units
  in
  let by_key = Hashtbl.create 256 in
  List.iter (fun d -> Hashtbl.add by_key d.key d) defs;
  (* may_acquire: def key -> class -> witness chain (first discovered).
     Acquires and calls under [Lockdep.isolated] never propagate — the
     runtime recorder resets its held-stack at the same boundary. *)
  let ma : (string * string, witness list) Hashtbl.t = Hashtbl.create 256 in
  let get k = Option.value ~default:[] (Hashtbl.find_opt ma k) in
  let add k w =
    let cur = get k in
    if List.exists (fun x -> x.w_cls = w.w_cls) cur then false
    else begin
      Hashtbl.replace ma k (w :: cur);
      true
    end
  in
  List.iter
    (fun d ->
      List.iter
        (fun (a : acq) ->
          if not a.isolated then
            ignore (add d.key { w_cls = a.cls; chain = d.label }))
        d.acqs)
    defs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        List.iter
          (fun (c : call) ->
            if not c.call_isolated then
              List.iter
                (fun callee ->
                  List.iter
                    (fun (w : witness) ->
                      if add d.key { w with chain = d.label ^ " -> " ^ w.chain }
                      then changed := true)
                    (get callee.key))
                (Hashtbl.find_all by_key c.callee))
          d.calls)
      defs
  done;
  (* Report: every acquisition (direct or through a call) made while a
     higher-ranked class is held. *)
  let out = ref [] in
  let report ~rel_path loc ~held ~acquired ~how =
    List.iter
      (fun h ->
        if h <> acquired && rank h > rank acquired then
          out :=
            ( rel_path,
              diag loc
                "%s acquired while %s is held — reverses the canonical lock \
                 order %s%s"
                (cls_name acquired) (cls_name h) canonical how )
            :: !out)
      (List.sort_uniq compare held)
  in
  List.iter
    (fun d ->
      (* Direct edges: the walk threaded earlier acquires into the held
         context of later sites. *)
      List.iter
        (fun (a : acq) ->
          report ~rel_path:d.rel_path a.loc ~held:a.held_at_acq ~acquired:a.cls ~how:"")
        (List.rev d.acqs);
      (* Interprocedural edges: classes the callee may transitively
         acquire, against the context held at the call site. *)
      List.iter
        (fun (c : call) ->
          if c.held_at_call <> [] then
            List.iter
              (fun callee ->
                List.iter
                  (fun (w : witness) ->
                    report ~rel_path:d.rel_path c.call_loc ~held:c.held_at_call
                      ~acquired:w.w_cls
                      ~how:(Printf.sprintf " (via %s -> %s)" d.label w.chain))
                  (get callee.key))
              (Hashtbl.find_all by_key c.callee))
        (List.rev d.calls))
    defs;
  List.rev !out
