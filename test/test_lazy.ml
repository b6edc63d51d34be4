(* Tests for lazy (deferred) propagation — the paper's §8 future work,
   "replication techniques in which updates are not propagated until
   needed".  Updates to replicated fields only invalidate the affected
   sources in an in-memory table; hidden copies are repaired by a forward
   walk the first time they are read. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Pager = Fieldrep_storage.Pager
module Stats = Fieldrep_storage.Stats
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Engine = Fieldrep_replication.Engine
module Ast = Fieldrep_query.Ast
module Exec = Fieldrep_query.Exec
module Lang = Fieldrep_query.Lang

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable
let vstr s = Value.VString s

let lazy_options = { Schema.default_options with Schema.lazy_propagation = true }

type fixture = { db : Db.t; orgs : Oid.t array; depts : Oid.t array; emps : Oid.t array }

let employee_db ?(ndepts = 4) ?(nemps = 16) () =
  let db = Db.create ~page_size:1024 ~frames:128 () in
  Db.define_type db
    (Ty.make ~name:"ORG" [ { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString } ]);
  Db.define_type db
    (Ty.make ~name:"DEPT"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "org"; ftype = Ty.Ref "ORG" };
       ]);
  Db.define_type db
    (Ty.make ~name:"EMP"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "dept"; ftype = Ty.Ref "DEPT" };
       ]);
  Db.create_set db ~name:"Org" ~elem_type:"ORG" ();
  Db.create_set db ~name:"Dept" ~elem_type:"DEPT" ();
  Db.create_set db ~name:"Emp1" ~elem_type:"EMP" ();
  let orgs = Array.init 2 (fun i -> Db.insert db ~set:"Org" [ vstr (Printf.sprintf "org-%d" i) ]) in
  let depts =
    Array.init ndepts (fun i ->
        Db.insert db ~set:"Dept"
          [ vstr (Printf.sprintf "dept-%d" i); Value.VRef orgs.(i mod 2) ])
  in
  let emps =
    Array.init nemps (fun i ->
        Db.insert db ~set:"Emp1"
          [ vstr (Printf.sprintf "emp-%d" i); Value.VRef depts.(i mod ndepts) ])
  in
  { db; orgs; depts; emps }

let pending fx = Engine.pending_count (Db.engine fx.db)

(* ------------------------------------------------------------------ *)

let test_update_only_invalidates () =
  let fx = employee_db () in
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.name");
  checki "clean after build" 0 (pending fx);
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "renamed");
  (* 4 employees of dept 0 are now pending; nothing was written to them. *)
  checki "four sources invalidated" 4 (pending fx);
  (* The invariant checker accepts pending-stale copies. *)
  Db.check_integrity fx.db

let test_read_repairs () =
  let fx = employee_db () in
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.name");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "renamed");
  (* Reading through deref returns the fresh value and repairs. *)
  checkv "read sees new value" (vstr "renamed")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  checki "one repaired" 3 (pending fx);
  (* The repaired copy is now physically up to date (no more walk). *)
  let record = Db.get fx.db ~set:"Emp1" fx.emps.(0) in
  let idx =
    Schema.hidden_index (Db.schema fx.db) "Emp1"
      ~rep_id:
        (Option.get (Schema.find_replication (Db.schema fx.db) (Path.parse "Emp1.dept.name")))
          .Schema.rep_id
      ~field:(Some "name")
  in
  checkv "hidden copy repaired in place" (vstr "renamed")
    record.Fieldrep_model.Record.values.(idx);
  Db.check_integrity fx.db

let test_flush_pending () =
  let fx = employee_db () in
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.name");
  Db.update_field fx.db ~set:"Dept" fx.depts.(1) ~field:"name" (vstr "x1");
  Db.update_field fx.db ~set:"Dept" fx.depts.(2) ~field:"name" (vstr "x2");
  checkb "pending accumulated" true (pending fx > 0);
  Engine.flush_pending (Db.engine fx.db);
  checki "flushed" 0 (pending fx);
  Db.check_integrity fx.db;
  checkv "values correct after flush" (vstr "x1")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(1) "dept.name")

let test_repeated_updates_coalesce () =
  let fx = employee_db () in
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.name");
  for i = 1 to 10 do
    Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name"
      (vstr (Printf.sprintf "v%d" i))
  done;
  (* Ten updates, still only the 4 affected sources pending — the whole
     point of invalidation over eager propagation. *)
  checki "coalesced" 4 (pending fx);
  checkv "one repair gets the last value" (vstr "v10")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  Db.check_integrity fx.db

let test_lazy_update_io_cheaper () =
  let mk lazy_ =
    let fx = employee_db ~ndepts:2 ~nemps:64 () in
    let options = if lazy_ then lazy_options else Schema.default_options in
    Db.replicate fx.db ~options ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
    fx
  in
  let io fx f =
    Pager.run_cold (Db.pager fx.db) f;
    Stats.total_io (Db.stats fx.db)
  in
  let eager = mk false and lzy = mk true in
  let eager_io =
    io eager (fun () ->
        Db.update_field eager.db ~set:"Dept" eager.depts.(0) ~field:"name" (vstr "e"))
  in
  let lazy_io =
    io lzy (fun () ->
        Db.update_field lzy.db ~set:"Dept" lzy.depts.(0) ~field:"name" (vstr "l"))
  in
  (* 32 employees share dept 0: eager propagation writes all their pages,
     lazy only reads the link object. *)
  checkb
    (Printf.sprintf "lazy update cheaper (%d < %d)" lazy_io eager_io)
    true
    (lazy_io * 2 <= eager_io)

let test_query_reads_repair () =
  let fx = employee_db () in
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.name");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "fresh");
  let rows =
    Exec.retrieve_values fx.db
      { Ast.from_set = "Emp1"; projections = [ "name"; "dept.name" ]; where = None }
  in
  checki "all rows" 16 (List.length rows);
  List.iter
    (fun row ->
      match row with
      | [ Value.VString name; Value.VString dept ] ->
          let i = Scanf.sscanf name "emp-%d" (fun i -> i) in
          if i mod 4 = 0 then checkv "query sees fresh value" (vstr "fresh") (vstr dept)
      | _ -> Alcotest.fail "bad row")
    rows;
  checki "query repaired everything it read" 0 (pending fx);
  Db.check_integrity fx.db

let test_two_level_lazy () =
  let fx = employee_db () in
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.org.name");
  Db.update_field fx.db ~set:"Org" fx.orgs.(0) ~field:"name" (vstr "megacorp");
  checkb "invalidated through two levels" true (pending fx > 0);
  checkv "repair walks two levels" (vstr "megacorp")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  Db.check_integrity fx.db;
  Engine.flush_pending (Db.engine fx.db);
  Db.check_integrity fx.db

let test_ref_update_repairs_eagerly () =
  let fx = employee_db () in
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.name");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "stale-maker");
  (* A reference update refreshes the moved source eagerly and clears its
     invalidation entry. *)
  Db.update_field fx.db ~set:"Emp1" fx.emps.(0) ~field:"dept" (Value.VRef fx.depts.(1));
  checkb "moved source no longer pending" false
    (Engine.is_pending (Db.engine fx.db)
       (Option.get (Schema.find_replication (Db.schema fx.db) (Path.parse "Emp1.dept.name")))
       fx.emps.(0));
  checkv "moved source correct" (vstr "dept-1")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  Db.check_integrity fx.db

let test_delete_clears_pending () =
  let fx = employee_db () in
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.name");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "gone");
  let before = pending fx in
  Db.delete fx.db ~set:"Emp1" fx.emps.(0);
  checki "entry dropped with the object" (before - 1) (pending fx);
  Db.check_integrity fx.db

let test_lazy_rejected_for_separate () =
  let fx = employee_db () in
  try
    Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Separate
      (Path.parse "Emp1.dept.name");
    Alcotest.fail "lazy separate accepted"
  with Invalid_argument _ -> ()

let test_lazy_path_cannot_be_indexed () =
  let fx = employee_db () in
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.name");
  try
    Db.build_index fx.db ~name:"bad" ~set:"Emp1" ~field:"Emp1.dept.name" ~clustered:false;
    Alcotest.fail "index on lazy path accepted"
  with Invalid_argument _ -> ()

let test_lang_lazy_modifier () =
  let fx = employee_db () in
  (match Lang.exec fx.db "replicate Emp1.dept.name lazy" with
  | Lang.Replicated _ -> ()
  | _ -> Alcotest.fail "expected Replicated");
  let rep =
    Option.get (Schema.find_replication (Db.schema fx.db) (Path.parse "Emp1.dept.name"))
  in
  checkb "lazy flag set" true rep.Schema.options.Schema.lazy_propagation

let test_eval_without_oid_still_correct () =
  let fx = employee_db () in
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.name");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "careful");
  (* Without the OID the engine cannot repair, but it must never serve the
     stale copy: it falls back to the actual walk. *)
  let record = Db.get fx.db ~set:"Emp1" fx.emps.(0) in
  checkv "no-oid read still fresh" (vstr "careful")
    (Db.eval fx.db (Db.expr fx.db ~set:"Emp1" "dept.name") record)

let test_eager_and_lazy_coexist () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.replicate fx.db ~options:lazy_options ~strategy:Schema.Inplace
    (Path.parse "Emp1.dept.org.name");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "eager-now");
  checki "eager path propagated immediately" 0 (pending fx);
  Db.update_field fx.db ~set:"Org" fx.orgs.(0) ~field:"name" (vstr "lazy-later");
  checkb "lazy path deferred" true (pending fx > 0);
  checkv "eager value" (vstr "eager-now") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  checkv "lazy value on read" (vstr "lazy-later")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  Db.check_integrity fx.db

let () =
  Alcotest.run "fieldrep_lazy"
    [
      ( "lazy propagation",
        [
          Alcotest.test_case "update only invalidates" `Quick test_update_only_invalidates;
          Alcotest.test_case "read repairs" `Quick test_read_repairs;
          Alcotest.test_case "flush" `Quick test_flush_pending;
          Alcotest.test_case "repeated updates coalesce" `Quick test_repeated_updates_coalesce;
          Alcotest.test_case "lazy update io cheaper" `Quick test_lazy_update_io_cheaper;
          Alcotest.test_case "query reads repair" `Quick test_query_reads_repair;
          Alcotest.test_case "two-level lazy" `Quick test_two_level_lazy;
          Alcotest.test_case "ref update repairs eagerly" `Quick test_ref_update_repairs_eagerly;
          Alcotest.test_case "delete clears pending" `Quick test_delete_clears_pending;
          Alcotest.test_case "rejected for separate" `Quick test_lazy_rejected_for_separate;
          Alcotest.test_case "cannot be indexed" `Quick test_lazy_path_cannot_be_indexed;
          Alcotest.test_case "language modifier" `Quick test_lang_lazy_modifier;
          Alcotest.test_case "no-oid reads stay correct" `Quick
            test_eval_without_oid_still_correct;
          Alcotest.test_case "eager and lazy coexist" `Quick test_eager_and_lazy_coexist;
        ] );
    ]
