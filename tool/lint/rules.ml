(* The five fieldrep disciplines, as syntactic checks over one parsed
   compilation unit.  Each rule returns raw diagnostics; the driver applies
   [@lint.allow] suppressions and the lint.toml allowlist afterwards.

   All checks are intentionally syntactic (no typing pass): they resolve
   names through the repo's top-of-file alias idiom
   ([module Disk = Fieldrep_storage.Disk]) and through [open], which is how
   every cross-library reference in this codebase is written. *)

open Parsetree

type input = {
  rel_path : string;  (* repo-relative, '/'-separated *)
  str : structure;
  env : Lint_ast.env;
}

let diag rule loc fmt = Printf.ksprintf (fun message -> { Diag.rule; loc; message }) fmt

let under dir rel_path =
  let dir = if String.length dir > 0 && dir.[String.length dir - 1] = '/' then dir else dir ^ "/" in
  String.starts_with ~prefix:dir rel_path

let in_lib i = under "lib" i.rel_path
let in_lint_tool i = under "tool/lint" i.rel_path

(* ------------------------------------------------------------------ *)
(* L1: layering.  Guarded internals only from their owning directories; *)
(* no txn -> replication back-edge.  Scope: lib/.                       *)

let l1 i =
  if not (in_lib i) then []
  else begin
    let dirname = Filename.dirname i.rel_path in
    let sites = Lint_ast.longident_sites i.str in
    let acc = ref [] in
    let allowed dirs = List.exists (fun d -> under d (dirname ^ "/")) dirs in
    List.iter
      (fun (lid, loc) ->
        let resolved = Lint_ast.resolve i.env lid in
        List.iter
          (fun (g : Layers.guard) ->
            let hit =
              match resolved with
              | l :: m :: _ when l = g.library && m = g.name -> true
              | m :: _ ->
                  (* Bare [Disk.x] only reaches the internal module if the
                     file opened the wrapping library. *)
                  m = g.name && List.mem [ g.library ] i.env.Lint_ast.opens
              | [] -> false
            in
            if hit && not (allowed g.allowed_dirs) then
              acc :=
                diag "L1" loc "%s.%s used outside %s (%s)" g.library g.name
                  (String.concat ", " g.allowed_dirs)
                  g.why
                :: !acc)
          Layers.guards;
        List.iter
          (fun (dir, library, why) ->
            if under dir i.rel_path
               && (match resolved with l :: _ -> l = library | [] -> false)
            then acc := diag "L1" loc "%s must not reference %s (%s)" dir library why :: !acc)
          Layers.forbidden_edges)
      sites;
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)
(* P1: pin discipline.  Every [pin] call must be post-dominated by        *)
(* [unpin] (or divergence) on every straight-line, match and if path —   *)
(* or sit inside a [Fun.protect] whose [~finally] releases.  The pool    *)
(* takes a pin only through its [with_pin_arg] / [with_page_read] /      *)
(* [with_page_write] brackets, which never leak, and exports no bare     *)
(* [pin]/[unpin]: the names stay as a guard against one coming back.    *)

let acquire_names = [ "pin" ]
let release_names = [ "unpin" ]
let diverge_names = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

let is_named names fn =
  match Lint_ast.apply_head fn with Some n -> List.mem n names | None -> false

let is_protect fn =
  match Lint_ast.apply_head fn with Some "protect" -> true | _ -> false

let finally_body args =
  List.find_map
    (fun (label, a) ->
      match (label, a.pexp_desc) with
      | Asttypes.Labelled "finally", Pexp_fun (_, _, _, body) -> Some body
      | _ -> None)
    args

(* Does evaluating [e] guarantee a release (or divergence) on every path? *)
let rec settles e =
  match e.pexp_desc with
  | Pexp_apply (fn, args) ->
      is_named release_names fn || is_named diverge_names fn
      || (is_protect fn
         && match finally_body args with Some b -> settles b | None -> false)
      || List.exists (fun (_, a) -> settles a) args
  | Pexp_sequence (a, b) -> settles a || settles b
  | Pexp_let (_, vbs, body) ->
      List.exists (fun vb -> settles vb.pvb_expr) vbs || settles body
  | Pexp_match (scrut, cases) ->
      settles scrut
      || (cases <> [] && List.for_all (fun c -> settles c.pc_rhs) cases)
  | Pexp_try (body, cases) ->
      settles body && cases <> [] && List.for_all (fun c -> settles c.pc_rhs) cases
  | Pexp_ifthenelse (cond, t, Some e2) -> settles cond || (settles t && settles e2)
  | Pexp_ifthenelse (cond, _, None) -> settles cond
  | Pexp_constraint (e, _) | Pexp_open (_, e) | Pexp_letmodule (_, _, e) | Pexp_newtype (_, e) ->
      settles e
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ } ->
      true
  | Pexp_fun _ | Pexp_function _ -> false
  | _ -> false

(* What still runs after the current expression: either one expression, or
   a set of alternative branches all of which must settle. *)
type cont = C_one of expression | C_all of expression list

let cont_settles = function
  | C_one e -> settles e
  | C_all es -> es <> [] && List.for_all settles es

let p1 i =
  let acc = ref [] in
  let rec walk conts e =
    match e.pexp_desc with
    | Pexp_apply (fn, args) ->
        if is_named acquire_names fn && not (List.exists cont_settles conts)
        then
          acc :=
            diag "P1" e.pexp_loc
              "%s is not post-dominated by a release (unpin); use \
               with_pin_arg/with_page_read/with_page_write or Fun.protect"
              (match Lint_ast.apply_head fn with Some n -> n | None -> "acquire")
            :: !acc;
        (* A lambda passed to Fun.protect runs under its ~finally. *)
        let protect_finally =
          if is_protect fn then finally_body args else None
        in
        List.iter
          (fun (label, a) ->
            match (a.pexp_desc, protect_finally, label) with
            | Pexp_fun (_, _, _, body), Some fin, Asttypes.Nolabel ->
                walk [ C_one fin ] body
            | _ -> walk conts a)
          args
    | Pexp_sequence (a, b) ->
        walk (C_one b :: conts) a;
        walk conts b
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> walk (C_one body :: conts) vb.pvb_expr) vbs;
        walk conts body
    | Pexp_match (scrut, cases) ->
        walk (C_all (List.map (fun c -> c.pc_rhs) cases) :: conts) scrut;
        List.iter
          (fun c ->
            Option.iter (walk conts) c.pc_guard;
            walk conts c.pc_rhs)
          cases
    | Pexp_try (body, cases) ->
        walk conts body;
        List.iter (fun c -> walk conts c.pc_rhs) cases
    | Pexp_ifthenelse (cond, t, else_) ->
        let branches =
          match else_ with Some e2 -> [ t; e2 ] | None -> []
        in
        (if branches = [] then walk conts cond
         else walk (C_all branches :: conts) cond);
        walk conts t;
        Option.iter (walk conts) else_
    | Pexp_fun (_, _, _, body) ->
        (* A lambda body is its own scope: pins taken inside must be
           released inside (the caller is unknown). *)
        walk [] body
    | Pexp_function cases -> List.iter (fun c -> walk [] c.pc_rhs) cases
    | Pexp_constraint (e1, _)
    | Pexp_open (_, e1)
    | Pexp_letmodule (_, _, e1)
    | Pexp_newtype (_, e1) ->
        walk conts e1
    | _ -> Lint_ast.iter_child_exprs (walk conts) e
  in
  let it =
    {
      Ast_iterator.default_iterator with
      (* [walk] covers whole expression trees itself (including nested
         lets), so the generic expr hook is a no-op; bindings and
         top-level evals are the entry points. *)
      value_binding = (fun _ vb -> walk [] vb.pvb_expr);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_eval (e, _) -> walk [] e
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
      expr = (fun _ _ -> ());
    }
  in
  it.structure it i.str;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* D1: durability.  A structure item that appends a commit / abort /     *)
(* checkpoint / repair record must also sync the log.  Scope: lib/.      *)

let d1_constructors = [ "Txn_commit"; "Txn_abort"; "Scrub_repair"; "Checkpoint" ]

let expr_mentions_constructor e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_construct (lid, _) -> (
              match List.rev (Lint_ast.flatten lid.Location.txt) with
              | last :: _ when List.mem last d1_constructors -> found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let d1 i =
  if not (in_lib i) then []
  else begin
    let acc = ref [] in
    let check_item si =
      let triggers = ref [] in
      let has_sync = ref false in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_apply (fn, args) -> (
                  match Lint_ast.apply_head fn with
                  | Some "sync" -> has_sync := true
                  | Some "append"
                    when List.exists (fun (_, a) -> expr_mentions_constructor a) args
                    ->
                      triggers := e.pexp_loc :: !triggers
                  | Some "append_abort" -> triggers := e.pexp_loc :: !triggers
                  | _ -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.structure_item it si;
      if not !has_sync then
        List.iter
          (fun loc ->
            acc :=
              diag "D1" loc
                "durability-critical WAL append without Wal.sync in the same \
                 definition"
              :: !acc)
          !triggers
    in
    List.iter check_item i.str;
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)
(* E1: exception hygiene.  No catch-alls that could swallow              *)
(* Corrupt_page / Read_error.  A catch-all that re-raises the bound      *)
(* exception is fine.  Scope: lib/ and tool/lint.                        *)

let rec reraises v e =
  match e.pexp_desc with
  | Pexp_apply (fn, args) ->
      (is_named [ "raise"; "raise_notrace" ] fn
      && List.exists
           (fun (_, a) ->
             match a.pexp_desc with
             | Pexp_ident { txt = Longident.Lident x; _ } -> x = v
             | _ -> false)
           args)
      || List.exists (fun (_, a) -> reraises v a) args
  | Pexp_sequence (a, b) -> reraises v a || reraises v b
  | Pexp_let (_, _, body) | Pexp_constraint (body, _) | Pexp_open (_, body) ->
      reraises v body
  | Pexp_ifthenelse (_, t, e2) ->
      reraises v t || (match e2 with Some x -> reraises v x | None -> false)
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.exists (fun c -> reraises v c.pc_rhs) cases
  | _ -> false

let rec catchall_pat p =
  match p.ppat_desc with
  | Ppat_any -> Some None
  | Ppat_var v -> Some (Some v.Location.txt)
  | Ppat_alias (inner, v) -> (
      match catchall_pat inner with Some _ -> Some (Some v.Location.txt) | None -> None)
  | Ppat_or (a, b) -> (
      match catchall_pat a with Some r -> Some r | None -> catchall_pat b)
  | _ -> None

let e1 i =
  if not (in_lib i || in_lint_tool i) then []
  else begin
    let acc = ref [] in
    let flag_cases cases =
      List.iter
        (fun c ->
          let pat, rhs =
            match c.pc_lhs.ppat_desc with
            | Ppat_exception p -> (Some p, c.pc_rhs)
            | _ -> (None, c.pc_rhs)
          in
          match pat with
          | None -> ()
          | Some p -> (
              match catchall_pat p with
              | Some (Some v) when reraises v rhs -> ()
              | Some _ ->
                  acc :=
                    diag "E1" p.ppat_loc
                      "catch-all exception handler can swallow Corrupt_page / \
                       Read_error; match specific exceptions or re-raise"
                    :: !acc
              | None -> ()))
        cases
    in
    let flag_try_cases cases =
      List.iter
        (fun c ->
          match c.pc_lhs.ppat_desc with
          | Ppat_exception _ -> ()  (* handled via flag_cases on match *)
          | _ -> (
              match catchall_pat c.pc_lhs with
              | Some (Some v) when reraises v c.pc_rhs -> ()
              | Some _ ->
                  acc :=
                    diag "E1" c.pc_lhs.ppat_loc
                      "catch-all exception handler can swallow Corrupt_page / \
                       Read_error; match specific exceptions or re-raise"
                    :: !acc
              | None -> ()))
        cases
    in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_try (_, cases) -> flag_try_cases cases
            | Pexp_match (_, cases) -> flag_cases cases
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.structure it i.str;
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)
(* F1: partiality.  Total alternatives exist for each of these; see      *)
(* lib/util/listx.ml.  Scope: lib/ and tool/lint.                        *)

let f1_banned =
  [
    ([ "List"; "hd" ], "use pattern matching or Listx.last_exn");
    ([ "List"; "nth" ], "use List.nth_opt or Listx.nth_exn");
    ([ "Option"; "get" ], "match and raise a named error instead");
    ([ "Array"; "unsafe_get" ], "use Array.get; bounds checks are not the bottleneck");
    ([ "Hashtbl"; "find" ], "use Hashtbl.find_opt and handle None");
    ([ "Obj"; "magic" ], "no unchecked casts in lib/");
  ]

let f1 i =
  if not (in_lib i || in_lint_tool i) then []
  else begin
    let acc = ref [] in
    let check_ident lid loc =
      let resolved = Lint_ast.strip_stdlib (Lint_ast.resolve i.env lid) in
      List.iter
        (fun (banned, hint) ->
          if resolved = banned then
            acc :=
              diag "F1" loc "%s is partial; %s" (String.concat "." banned) hint
              :: !acc)
        f1_banned
    in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_ident lid -> check_ident lid.Location.txt lid.Location.loc
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
        structure_item =
          (fun it si ->
            (match si.pstr_desc with
            | Pstr_primitive vd
              when List.exists
                     (fun p -> p = "%identity")
                     vd.pval_prim ->
                acc :=
                  diag "F1" si.pstr_loc
                    "external ... = \"%%identity\" is an unchecked cast"
                  :: !acc
            | _ -> ());
            Ast_iterator.default_iterator.structure_item it si);
      }
    in
    it.structure it i.str;
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)
(* S1: shared-mutable-state inventory.  Every [mutable] record field,     *)
(* module-level [ref]/[Hashtbl.create] binding and Hashtbl-typed field    *)
(* in lib/ is a potential cross-domain data race once the engine runs     *)
(* under Domain.spawn.  Each one must either be wrapped in Atomic/Mutex   *)
(* or carry a lint.toml [protected_by] entry naming its protecting lock,  *)
(* so the ownership map stays complete and reviewed.  Scope: lib/.        *)

(* Type constructors that make a slot safe by construction. *)
let s1_safe_constrs = [ "Atomic"; "Mutex"; "Condition"; "Semaphore" ]

let rec s1_safe_typ t =
  match t.ptyp_desc with
  | Ptyp_constr (lid, args) -> (
      match Lint_ast.flatten lid.Location.txt with
      | [ m ] when List.mem m s1_safe_constrs -> true
      | m :: _ :: _ when List.mem m s1_safe_constrs -> true
      | path -> (
          (match List.rev path with
          | "t" :: m :: _ when List.mem m s1_safe_constrs -> true
          | "key" :: "DLS" :: _ -> true  (* Domain.DLS is per-domain *)
          | _ -> false)
          || List.exists s1_safe_typ args))
  | _ -> false

let s1_hashtbl_typ t =
  match t.ptyp_desc with
  | Ptyp_constr (lid, _) -> (
      match List.rev (Lint_ast.flatten lid.Location.txt) with
      | "t" :: "Hashtbl" :: _ -> true
      | _ -> false)
  | _ -> false

let s1_msg = "name its protecting lock in lint.toml [protected_by] or wrap it in Atomic/Mutex"

let s1 i =
  if not (in_lib i) then []
  else begin
    let acc = ref [] in
    (* Mutable and Hashtbl-typed record fields, anywhere in the unit. *)
    let it =
      {
        Ast_iterator.default_iterator with
        type_declaration =
          (fun it td ->
            (match td.ptype_kind with
            | Ptype_record labels ->
                List.iter
                  (fun ld ->
                    if s1_safe_typ ld.pld_type then ()
                    else if ld.pld_mutable = Asttypes.Mutable then
                      acc :=
                        diag "S1" ld.pld_loc
                          "mutable field '%s' is shared mutable state; %s"
                          ld.pld_name.Location.txt s1_msg
                        :: !acc
                    else if s1_hashtbl_typ ld.pld_type then
                      acc :=
                        diag "S1" ld.pld_loc
                          "Hashtbl field '%s' is shared mutable state; %s"
                          ld.pld_name.Location.txt s1_msg
                        :: !acc)
                  labels
            | _ -> ());
            Ast_iterator.default_iterator.type_declaration it td);
      }
    in
    it.structure it i.str;
    (* Module-level refs and tables (locals are domain-private).  Only the
       top level of the unit and of plain sub-modules counts. *)
    let rec binding_head e =
      match e.pexp_desc with
      | Pexp_constraint (e1, _) -> binding_head e1
      | _ -> e
    in
    let flag_binding vb =
      let e = binding_head vb.pvb_expr in
      match e.pexp_desc with
      | Pexp_apply (fn, _) -> (
          match Lint_ast.apply_head fn with
          | Some "ref" ->
              acc :=
                diag "S1" vb.pvb_loc
                  "module-level ref is shared mutable state; %s" s1_msg
                :: !acc
          | Some "create" -> (
              match fn.pexp_desc with
              | Pexp_ident lid
                when (match List.rev (Lint_ast.resolve i.env lid.Location.txt) with
                     | _ :: "Hashtbl" :: _ -> true
                     | _ -> false) ->
                  acc :=
                    diag "S1" vb.pvb_loc
                      "module-level Hashtbl is shared mutable state; %s" s1_msg
                    :: !acc
              | _ -> ())
          | _ -> ())
      | _ -> ()
    in
    let rec items str =
      List.iter
        (fun si ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) -> List.iter flag_binding vbs
          | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
              items s
          | _ -> ())
        str
    in
    items i.str;
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)
(* C1: no bare Stats counter increments.  [s.field <- s.field + n] is a   *)
(* lost-update race the moment two domains touch the same block; every    *)
(* counter bump goes through the blessed Stats.bump/Stats.add so the      *)
(* representation can become Atomic in one place.  The single permitted   *)
(* mutation site is the one match inside lib/storage/stats.ml.  Scope:    *)
(* lib/, bin/ and bench/.                                                 *)

let c1_stats_fields =
  [
    "page_reads"; "page_writes"; "buffer_hits"; "pages_allocated";
    "objects_read"; "objects_written"; "wal_appends"; "wal_bytes";
    "recovery_replays"; "txn_commits"; "txn_aborts"; "lock_waits";
    "deadlocks"; "undo_applied"; "checksum_failures"; "scrub_pages";
    "repairs"; "degraded_reads"; "read_retries"; "failed_reads";
    "wal_flushes"; "frames_shipped"; "frames_applied"; "acks_waited";
    "replica_lag_bytes"; "maint_steps"; "maint_pages_walked";
    "maint_lock_yields"; "maint_backfill_pending"; "peer_deaths";
    "ack_demotions"; "heartbeats_missed"; "failovers"; "reconnects";
    "deadlock_upgrades"; "file_reads"; "file_writes";
  ]

let c1 i =
  if i.rel_path = "lib/storage/stats.ml" then []
  else if not (in_lib i || under "bin" i.rel_path || under "bench" i.rel_path)
  then []
  else begin
    let acc = ref [] in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_setfield (_, lid, _) -> (
                match List.rev (Lint_ast.flatten lid.Location.txt) with
                | field :: _ when List.mem field c1_stats_fields ->
                    acc :=
                      diag "C1" e.pexp_loc
                        "direct mutation of Stats field '%s'; use Stats.bump \
                         / Stats.add (the single blessed mutation point)"
                        field
                      :: !acc
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.structure it i.str;
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)
(* R1: an existing object is rewritten as bytes.  The payload argument of *)
(* [Heap_file.update] is never an application of [Record.encode]: a       *)
(* stored record is edited with the [Record] byte editors and written     *)
(* back with [~len]; only a fresh object (an insert) is encoded.  Scope:  *)
(* lib/.                                                                  *)

let r1 i =
  if not (in_lib i) then []
  else begin
    let acc = ref [] in
    let names suffix fn =
      match fn.pexp_desc with
      | Pexp_ident lid -> (
          match List.rev (Lint_ast.resolve i.env lid.Location.txt) with
          | name :: m :: _ -> [ m; name ] = suffix
          | [ _ ] | [] -> false)
      | _ -> false
    in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_apply (fn, args) when names [ "Heap_file"; "update" ] fn ->
                List.iter
                  (fun (_, (a : expression)) ->
                    match a.pexp_desc with
                    | Pexp_apply (g, _) when names [ "Record"; "encode" ] g ->
                        acc :=
                          diag "R1" a.pexp_loc
                            "Heap_file.update of a re-encoded record; edit the \
                             stored bytes (Record.set_value_at / set_link_at / \
                             remove_link_at) and write them with ~len"
                          :: !acc
                    | _ -> ())
                  args
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.structure it i.str;
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)

let all i = List.concat [ l1 i; p1 i; d1 i; e1 i; f1 i; s1 i; c1 i; r1 i ]

(* O1 is interprocedural: it sees every parsed unit at once and returns
   diagnostics tagged with the file they belong to, so the driver can
   apply that file's suppressions. *)
let global (inputs : input list) : (string * Diag.t) list =
  inputs
  |> List.filter (fun i -> in_lib i)
  |> List.map (fun i -> (i.rel_path, i.str, i.env))
  |> Lockorder.check
