(* End-to-end tests of the field-replication engine through the Db facade,
   built around the paper's employee database (ORG / DEPT / EMP, §2).

   Covers: in-place and separate strategies at 1 and 2 levels, full-object
   replication, link sharing across paths with common prefixes (§4.1.4),
   insert/delete maintenance (§4.1.1), scalar- and reference-update
   propagation (§4.1.2-3, §5.2), small-link elimination (§4.3.1), collapsed
   inverted paths (§4.3.3), indexes on replicated data (§3.3.4), and the
   from-scratch invariant checker. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Heap_file = Fieldrep_storage.Heap_file
module Pager = Fieldrep_storage.Pager
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Key = Fieldrep_btree.Key
module Registry = Fieldrep_replication.Registry
module Store = Fieldrep_replication.Store
module Engine = Fieldrep_replication.Engine
module Invariants = Fieldrep_replication.Invariants
module Splitmix = Fieldrep_util.Splitmix

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable

(* ------------------------------------------------------------------ *)
(* Fixture: the employee database                                      *)

type fixture = {
  db : Db.t;
  orgs : Oid.t array;
  depts : Oid.t array;
  emps : Oid.t array;
}

let org_ty =
  Ty.make ~name:"ORG"
    [
      { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
      { Ty.fname = "budget"; ftype = Ty.Scalar Ty.SInt };
    ]

let dept_ty =
  Ty.make ~name:"DEPT"
    [
      { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
      { Ty.fname = "budget"; ftype = Ty.Scalar Ty.SInt };
      { Ty.fname = "org"; ftype = Ty.Ref "ORG" };
    ]

let emp_ty =
  Ty.make ~name:"EMP"
    [
      { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
      { Ty.fname = "age"; ftype = Ty.Scalar Ty.SInt };
      { Ty.fname = "salary"; ftype = Ty.Scalar Ty.SInt };
      { Ty.fname = "dept"; ftype = Ty.Ref "DEPT" };
    ]

let employee_db ?(norgs = 2) ?(ndepts = 4) ?(nemps = 16) ?(two_sets = false) () =
  let db = Db.create ~page_size:1024 ~frames:128 () in
  Db.define_type db org_ty;
  Db.define_type db dept_ty;
  Db.define_type db emp_ty;
  Db.create_set db ~name:"Org" ~elem_type:"ORG" ();
  Db.create_set db ~name:"Dept" ~elem_type:"DEPT" ();
  Db.create_set db ~name:"Emp1" ~elem_type:"EMP" ();
  if two_sets then Db.create_set db ~name:"Emp2" ~elem_type:"EMP" ();
  let orgs =
    Array.init norgs (fun i ->
        Db.insert db ~set:"Org"
          [ Value.VString (Printf.sprintf "org-%d" i); Value.VInt (1000 * (i + 1)) ])
  in
  let depts =
    Array.init ndepts (fun i ->
        Db.insert db ~set:"Dept"
          [
            Value.VString (Printf.sprintf "dept-%d" i);
            Value.VInt (100 * (i + 1));
            Value.VRef orgs.(i mod norgs);
          ])
  in
  let emps =
    Array.init nemps (fun i ->
        Db.insert db ~set:"Emp1"
          [
            Value.VString (Printf.sprintf "emp-%d" i);
            Value.VInt (20 + (i mod 40));
            Value.VInt (30_000 + (1000 * i));
            Value.VRef depts.(i mod ndepts);
          ])
  in
  { db; orgs; depts; emps }

let check_all fx = Db.check_integrity fx.db

let vstr s = Value.VString s
let vint i = Value.VInt i

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry_link_sharing () =
  (* The paper's §4.1.4 example: three paths from Emp1 share link 1; a path
     from Emp2 gets its own. *)
  let fx = employee_db ~two_sets:true () in
  let s = Db.schema fx.db in
  List.iter
    (fun p -> ignore (Schema.add_replication s ~strategy:Schema.Inplace (Path.parse p)))
    [ "Emp1.dept.budget"; "Emp1.dept.name"; "Emp1.dept.org.name"; "Emp2.dept.org.name" ];
  let reg = Registry.compile s in
  let link_ids_of p =
    let rep = Option.get (Schema.find_replication s (Path.parse p)) in
    List.map (fun (n : Registry.node) -> n.Registry.link_id) (Registry.chain reg rep)
  in
  let budget = link_ids_of "Emp1.dept.budget" in
  let name = link_ids_of "Emp1.dept.name" in
  let orgname = link_ids_of "Emp1.dept.org.name" in
  let other = link_ids_of "Emp2.dept.org.name" in
  checkb "shared level-1 link" true (List.hd budget = List.hd name);
  checkb "longer path shares level-1 link" true (List.hd budget = List.hd orgname);
  checkb "different source set gets a new link" true (List.hd other <> List.hd budget);
  checki "link sequence lengths" 2 (List.length orgname);
  checkb "all links materialised" true
    (List.for_all Option.is_some (budget @ name @ orgname @ other))

let test_registry_stable_ids () =
  let fx = employee_db () in
  let s = Db.schema fx.db in
  ignore (Schema.add_replication s ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name"));
  let reg1 = Registry.compile s in
  let id1 = (List.hd (Registry.roots reg1 "Emp1")).Registry.link_id in
  ignore
    (Schema.add_replication s ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name"));
  let reg2 = Registry.compile s in
  let id2 = (List.hd (Registry.roots reg2 "Emp1")).Registry.link_id in
  checkb "level-1 link id stable across recompiles" true (id1 = id2)

let test_registry_collapse_validation () =
  let fx = employee_db () in
  let s = Db.schema fx.db in
  let options = { Schema.default_options with Schema.collapse = true } in
  ignore
    (Schema.add_replication s ~options ~strategy:Schema.Inplace
       (Path.parse "Emp1.dept.name"));
  try
    ignore (Registry.compile s);
    Alcotest.fail "expected Invalid_argument for 1-level collapse"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* In-place replication, 1 level                                       *)

let test_inplace_deref_no_join () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  checki "no functional join" 0 (Db.deref_would_join fx.db ~set:"Emp1" "dept.name");
  checkv "replicated value" (vstr "dept-1") (Db.deref fx.db ~set:"Emp1" fx.emps.(1) "dept.name");
  (* An uncovered path still walks. *)
  checki "uncovered path joins" 1 (Db.deref_would_join fx.db ~set:"Emp1" "dept.budget");
  check_all fx

(* Minor-heap words per call of [f], over enough calls that the boxed float
   [Gc.minor_words] returns is noise. *)
let words_per_call f =
  let n = 2000 in
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* In-place replication makes [deref] one object read, so it should cost
   what a [get] costs, and a [get] what its layers cost: a resident pool
   hit allocates (almost) nothing, and a heap read copies the payload out
   once. *)
let test_inplace_read_allocation () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  let oid = fx.emps.(5) in
  let pager = Db.pager fx.db in
  let hit =
    words_per_call (fun () ->
        Pager.with_page_read pager ~file:oid.Oid.file ~page:oid.Oid.page (fun b ->
            ignore (Bytes.length b)))
  in
  checkb (Printf.sprintf "pool hit %.1f words <= 4" hit) true (hit <= 4.);
  let hf = (Db.engine fx.db).Engine.file_of_set "Emp1" in
  let payload = Heap_file.read hf oid in
  let copy = float_of_int (Obj.reachable_words (Obj.repr payload)) in
  let read = words_per_call (fun () -> ignore (Heap_file.read hf oid)) in
  checkb
    (Printf.sprintf "heap read %.1f words <= payload %.0f + 8" read copy)
    true
    (read <= copy +. 8.);
  let get = words_per_call (fun () -> ignore (Db.get fx.db ~set:"Emp1" oid)) in
  let deref =
    words_per_call (fun () -> ignore (Db.deref fx.db ~set:"Emp1" oid "dept.name"))
  in
  checkb
    (Printf.sprintf "deref %.1f words <= 1.25 x get %.1f" deref get)
    true
    (deref <= 1.25 *. get)

(* A read decodes in the frame it pinned.  [get] allocates its record's
   decode and at most 10 words more; an S' projection, one hop to a second
   object, decodes only the replicated field, at most 24 words; a plain
   field is read off the record. *)
let test_in_frame_read_words () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Separate (Path.parse "Emp1.dept.name");
  let oid = fx.emps.(5) in
  let hf = (Db.engine fx.db).Engine.file_of_set "Emp1" in
  let payload = Heap_file.read hf oid in
  let decode =
    words_per_call (fun () ->
        ignore (Record.decode_at payload 0 (Bytes.length payload)))
  in
  let get = words_per_call (fun () -> ignore (Db.get fx.db ~set:"Emp1" oid)) in
  checkb
    (Printf.sprintf "get %.1f words <= decode %.1f + 10" get decode)
    true
    (get <= decode +. 10.);
  let record = Db.get fx.db ~set:"Emp1" oid in
  let sprime = Db.expr fx.db ~set:"Emp1" "dept.name" in
  checki "one hop" 1 (Db.joins sprime);
  checkv "S' value" (vstr "dept-1") (Db.eval ~oid fx.db sprime record);
  let eval = words_per_call (fun () -> ignore (Db.eval ~oid fx.db sprime record)) in
  checkb (Printf.sprintf "S' eval %.1f words <= 24" eval) true (eval <= 24.);
  let plain = Db.expr fx.db ~set:"Emp1" "salary" in
  let field = words_per_call (fun () -> ignore (Db.eval ~oid fx.db plain record)) in
  checkb (Printf.sprintf "plain field %.1f words <= 2" field) true (field <= 2.)

let test_inplace_scalar_propagation () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.update_field fx.db ~set:"Dept" fx.depts.(2) ~field:"name" (vstr "renamed");
  (* Every employee of dept 2 sees the new value without a join. *)
  Array.iteri
    (fun i e ->
      if i mod 4 = 2 then
        checkv "propagated" (vstr "renamed") (Db.deref fx.db ~set:"Emp1" e "dept.name"))
    fx.emps;
  (* Unrelated departments untouched. *)
  checkv "other dept" (vstr "dept-1") (Db.deref fx.db ~set:"Emp1" fx.emps.(1) "dept.name");
  check_all fx

let test_inplace_update_to_unreferenced_dept_is_free () =
  let fx = employee_db ~ndepts:5 ~nemps:4 () in
  (* Dept 4 has no employees (emps cover depts 0-3). *)
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  let d4 = Db.get fx.db ~set:"Dept" fx.depts.(4) in
  checki "unreferenced dept has no link pairs" 0 (List.length d4.Record.links);
  Db.update_field fx.db ~set:"Dept" fx.depts.(4) ~field:"name" (vstr "quiet");
  check_all fx

let test_inplace_insert_maintenance () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  let e =
    Db.insert fx.db ~set:"Emp1"
      [ vstr "newhire"; vint 30; vint 55_000; Value.VRef fx.depts.(0) ]
  in
  checkv "hidden filled at insert" (vstr "dept-0") (Db.deref fx.db ~set:"Emp1" e "dept.name");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "d0x");
  checkv "new member receives updates" (vstr "d0x") (Db.deref fx.db ~set:"Emp1" e "dept.name");
  check_all fx

let test_inplace_delete_maintenance () =
  let fx = employee_db ~ndepts:2 ~nemps:4 () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  (* Employees 1 and 3 belong to dept 1; delete both. *)
  Db.delete fx.db ~set:"Emp1" fx.emps.(1);
  check_all fx;
  Db.delete fx.db ~set:"Emp1" fx.emps.(3);
  check_all fx;
  (* Dept 1 is now off-path: no link pairs left. *)
  let d1 = Db.get fx.db ~set:"Dept" fx.depts.(1) in
  checki "dept off path" 0 (List.length d1.Record.links);
  (* Its updates no longer propagate anywhere (nothing to check beyond
     invariants, but the call must not fail). *)
  Db.update_field fx.db ~set:"Dept" fx.depts.(1) ~field:"name" (vstr "empty");
  check_all fx

let test_inplace_ref_update_source () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.update_field fx.db ~set:"Emp1" fx.emps.(0) ~field:"dept" (Value.VRef fx.depts.(3));
  checkv "hidden refreshed" (vstr "dept-3") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  check_all fx;
  (* And updates now follow the new department. *)
  Db.update_field fx.db ~set:"Dept" fx.depts.(3) ~field:"name" (vstr "d3x");
  checkv "tracks new dept" (vstr "d3x") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "d0x");
  checkv "old dept no longer tracked" (vstr "d3x")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  check_all fx

let test_inplace_ref_update_to_null_and_back () =
  let fx = employee_db ~nemps:4 () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.update_field fx.db ~set:"Emp1" fx.emps.(0) ~field:"dept" Value.VNull;
  checkv "null path yields null" Value.VNull
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  check_all fx;
  Db.update_field fx.db ~set:"Emp1" fx.emps.(0) ~field:"dept" (Value.VRef fx.depts.(1));
  checkv "reattached" (vstr "dept-1") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  check_all fx

(* ------------------------------------------------------------------ *)
(* In-place replication, 2 levels                                      *)

let test_two_level_propagation () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  checki "two joins eliminated" 0 (Db.deref_would_join fx.db ~set:"Emp1" "dept.org.name");
  checkv "initial" (vstr "org-0") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  Db.update_field fx.db ~set:"Org" fx.orgs.(0) ~field:"name" (vstr "megacorp");
  (* Emps in depts 0 and 2 (org 0) see it; others do not. *)
  checkv "propagates through two links" (vstr "megacorp")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  checkv "org-1 employees untouched" (vstr "org-1")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(1) "dept.org.name");
  check_all fx

let test_two_level_intermediate_ref_update () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  (* Move dept 0 from org 0 to org 1: all its employees' hidden values must
     flip, and future org-1 updates must reach them. *)
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"org" (Value.VRef fx.orgs.(1));
  checkv "refreshed after move" (vstr "org-1")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  check_all fx;
  Db.update_field fx.db ~set:"Org" fx.orgs.(1) ~field:"name" (vstr "newcorp");
  checkv "tracked via new org" (vstr "newcorp")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  Db.update_field fx.db ~set:"Org" fx.orgs.(0) ~field:"name" (vstr "oldcorp");
  checkv "old org detached" (vstr "newcorp")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  check_all fx

let test_two_level_source_ref_update () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  (* Employee 0 moves from dept 0 (org 0) to dept 1 (org 1). *)
  Db.update_field fx.db ~set:"Emp1" fx.emps.(0) ~field:"dept" (Value.VRef fx.depts.(1));
  checkv "hidden follows both levels" (vstr "org-1")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  check_all fx

let test_shared_prefix_paths () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.budget");
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  check_all fx;
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"budget" (vint 777);
  checkv "budget propagated" (vint 777) (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.budget");
  Db.update_field fx.db ~set:"Org" fx.orgs.(0) ~field:"name" (vstr "shared");
  checkv "org name propagated" (vstr "shared")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  checkv "dept name untouched" (vstr "dept-0")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  (* Moving an employee updates all three hidden groups. *)
  Db.update_field fx.db ~set:"Emp1" fx.emps.(0) ~field:"dept" (Value.VRef fx.depts.(1));
  checkv "name follows" (vstr "dept-1") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  checkv "budget follows" (vint 200) (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.budget");
  checkv "org follows" (vstr "org-1") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  check_all fx

let test_full_object_replication () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.all");
  checkv "name covered" (vstr "dept-0") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  checki "name: no join" 0 (Db.deref_would_join fx.db ~set:"Emp1" "dept.name");
  checkv "budget covered" (vint 100) (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.budget");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"budget" (vint 42);
  checkv "all fields propagate" (vint 42) (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.budget");
  check_all fx

(* ------------------------------------------------------------------ *)
(* Separate replication                                                *)

let test_separate_basic () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Separate (Path.parse "Emp1.dept.name");
  checki "separate costs one hop" 1 (Db.deref_would_join fx.db ~set:"Emp1" "dept.name");
  checkv "value via S'" (vstr "dept-2") (Db.deref fx.db ~set:"Emp1" fx.emps.(2) "dept.name");
  check_all fx

let test_separate_update_is_shared () =
  let fx = employee_db ~ndepts:2 ~nemps:10 () in
  Db.replicate fx.db ~strategy:Schema.Separate (Path.parse "Emp1.dept.name");
  (* One update, one S' object rewritten, all five employees see it. *)
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "sep0");
  Array.iteri
    (fun i e ->
      if i mod 2 = 0 then
        checkv "shared copy" (vstr "sep0") (Db.deref fx.db ~set:"Emp1" e "dept.name"))
    fx.emps;
  check_all fx

let test_separate_sprime_sharing_and_refcounts () =
  let fx = employee_db ~ndepts:2 ~nemps:6 () in
  Db.replicate fx.db ~strategy:Schema.Separate (Path.parse "Emp1.dept.name");
  let eng = Db.engine fx.db in
  let rep = Option.get (Schema.find_replication (Db.schema fx.db) (Path.parse "Emp1.dept.name")) in
  let sp_file = Option.get (Store.sprime_file_opt eng.Engine.store rep.Schema.rep_id) in
  checki "one S' object per referenced dept" 2 (Heap_file.object_count sp_file);
  (* Deleting all employees of dept 1 reclaims its S' object. *)
  Array.iteri (fun i e -> if i mod 2 = 1 then Db.delete fx.db ~set:"Emp1" e) fx.emps;
  checki "S' reclaimed" 1 (Heap_file.object_count sp_file);
  check_all fx

let test_separate_two_level () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Separate (Path.parse "Emp1.dept.org.name");
  checkv "initial" (vstr "org-0") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  Db.update_field fx.db ~set:"Org" fx.orgs.(0) ~field:"name" (vstr "sep-org");
  checkv "S' updated in place" (vstr "sep-org")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  check_all fx;
  (* The paper's Figure 8 scenario: D.org changes, sources must repoint
     their S' references. *)
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"org" (Value.VRef fx.orgs.(1));
  checkv "sref repointed" (vstr "org-1")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  check_all fx

let test_separate_and_inplace_coexist () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.replicate fx.db ~strategy:Schema.Separate (Path.parse "Emp1.dept.budget");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"name" (vstr "both-n");
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"budget" (vint 9);
  checkv "inplace side" (vstr "both-n") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.name");
  checkv "separate side" (vint 9) (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.budget");
  check_all fx

(* ------------------------------------------------------------------ *)
(* Optimizations                                                       *)

let test_small_link_elimination () =
  (* f = 1: every link object would hold exactly one OID, so none should be
     materialised (paper §4.3.1). *)
  let fx = employee_db ~ndepts:4 ~nemps:4 () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  let eng = Db.engine fx.db in
  let reg = eng.Engine.registry in
  let link_id = Option.get (List.hd (Registry.roots reg "Emp1")).Registry.link_id in
  let lf = Fieldrep_replication.Store.link_file eng.Engine.store link_id in
  checki "no link objects at f=1" 0 (Heap_file.object_count lf);
  check_all fx;
  (* A second member forces materialisation... *)
  let e =
    Db.insert fx.db ~set:"Emp1" [ vstr "x"; vint 30; vint 1; Value.VRef fx.depts.(0) ]
  in
  checki "link object materialised" 1 (Heap_file.object_count lf);
  check_all fx;
  (* ...and deleting back to one member eliminates it again. *)
  Db.delete fx.db ~set:"Emp1" e;
  checki "re-eliminated" 0 (Heap_file.object_count lf);
  check_all fx

let test_elimination_disabled () =
  let fx = employee_db ~ndepts:4 ~nemps:4 () in
  let options = { Schema.default_options with Schema.small_link_threshold = 0 } in
  Db.replicate fx.db ~options ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  let eng = Db.engine fx.db in
  let link_id =
    Option.get (List.hd (Registry.roots eng.Engine.registry "Emp1")).Registry.link_id
  in
  let lf = Fieldrep_replication.Store.link_file eng.Engine.store link_id in
  checki "link objects even at f=1" 4 (Heap_file.object_count lf);
  check_all fx

let test_collapsed_path () =
  let fx = employee_db () in
  let options = { Schema.default_options with Schema.collapse = true } in
  Db.replicate fx.db ~options ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  checki "collapsed still no join" 0 (Db.deref_would_join fx.db ~set:"Emp1" "dept.org.name");
  checkv "initial" (vstr "org-0") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  check_all fx;
  (* Field update propagates straight from org to employees. *)
  Db.update_field fx.db ~set:"Org" fx.orgs.(0) ~field:"name" (vstr "collapsed");
  checkv "one-hop propagation" (vstr "collapsed")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  check_all fx;
  (* The paper's tagged-move scenario: D.org flips, entries tagged D move. *)
  Db.update_field fx.db ~set:"Dept" fx.depts.(0) ~field:"org" (Value.VRef fx.orgs.(1));
  checkv "tagged entries moved" (vstr "org-1")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  check_all fx;
  (* Source-side move under a collapsed path. *)
  Db.update_field fx.db ~set:"Emp1" fx.emps.(0) ~field:"dept" (Value.VRef fx.depts.(1));
  checkv "source move" (vstr "org-1") (Db.deref fx.db ~set:"Emp1" fx.emps.(0) "dept.org.name");
  check_all fx

(* One compiled expression, evaluated over every source, answers exactly
   what [Db.deref] plans per call, under each strategy and with none. *)
let test_compiled_expr_matches_deref () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.replicate fx.db ~strategy:Schema.Separate (Path.parse "Emp1.dept.budget");
  let options = { Schema.default_options with Schema.collapse = true } in
  Db.replicate fx.db ~options ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  Db.update_field fx.db ~set:"Emp1" fx.emps.(1) ~field:"dept" Value.VNull;
  let sources = ref [] in
  Db.scan fx.db ~set:"Emp1" (fun oid record -> sources := (oid, record) :: !sources);
  List.iter
    (fun (source, joins) ->
      let e = Db.expr fx.db ~set:"Emp1" source in
      checki (source ^ " joins") joins (Db.joins e);
      checki (source ^ " joins as planned per call")
        (Db.deref_would_join fx.db ~set:"Emp1" source)
        (Db.joins e);
      List.iter
        (fun (oid, record) ->
          checkv source
            (Db.deref fx.db ~set:"Emp1" oid source)
            (Db.eval ~oid fx.db e record))
        !sources)
    [
      ("dept.name", 0);
      ("dept.budget", 1);
      ("dept.org.name", 0);
      ("dept.org.budget", 2);
      ("salary", 0);
    ];
  check_all fx

(* ------------------------------------------------------------------ *)
(* Deletion protection                                                 *)

let test_delete_referenced_dept_rejected () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  try
    Db.delete fx.db ~set:"Dept" fx.depts.(0);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> check_all fx

let test_delete_unreferenced_dept_ok () =
  let fx = employee_db ~ndepts:5 ~nemps:4 () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  (* Dept 4 has no employees. *)
  Db.delete fx.db ~set:"Dept" fx.depts.(4);
  checki "gone" 4 (Db.set_size fx.db "Dept");
  check_all fx

(* ------------------------------------------------------------------ *)
(* Indexes on replicated data (§3.3.4)                                 *)

let test_path_index () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  Db.build_index fx.db ~name:"emp_by_orgname" ~set:"Emp1" ~field:"Emp1.dept.org.name"
    ~clustered:false;
  let hits = Db.index_lookup fx.db ~index:"emp_by_orgname" (Key.String "org-0") in
  checki "index maps org names to employees" 8 (List.length hits);
  check_all fx;
  (* Propagated updates keep the index current. *)
  Db.update_field fx.db ~set:"Org" fx.orgs.(0) ~field:"name" (vstr "indexed-org");
  checki "old key empty" 0
    (List.length (Db.index_lookup fx.db ~index:"emp_by_orgname" (Key.String "org-0")));
  checki "new key found" 8
    (List.length (Db.index_lookup fx.db ~index:"emp_by_orgname" (Key.String "indexed-org")));
  check_all fx;
  (* Employee moves also maintain the index. *)
  Db.update_field fx.db ~set:"Emp1" fx.emps.(0) ~field:"dept" (Value.VRef fx.depts.(1));
  checki "after move: old key" 7
    (List.length (Db.index_lookup fx.db ~index:"emp_by_orgname" (Key.String "indexed-org")));
  checki "after move: new key" 9
    (List.length (Db.index_lookup fx.db ~index:"emp_by_orgname" (Key.String "org-1")));
  check_all fx

let test_user_field_index_maintained () =
  let fx = employee_db () in
  Db.build_index fx.db ~name:"emp_by_salary" ~set:"Emp1" ~field:"salary" ~clustered:false;
  Db.update_field fx.db ~set:"Emp1" fx.emps.(0) ~field:"salary" (vint 99_999);
  checki "new salary indexed" 1
    (List.length (Db.index_lookup fx.db ~index:"emp_by_salary" (Key.Int 99_999)));
  checki "old salary gone" 0
    (List.length (Db.index_lookup fx.db ~index:"emp_by_salary" (Key.Int 30_000)));
  Db.delete fx.db ~set:"Emp1" fx.emps.(1);
  checki "deleted employee unindexed" 0
    (List.length (Db.index_lookup fx.db ~index:"emp_by_salary" (Key.Int 31_000)));
  check_all fx

(* ------------------------------------------------------------------ *)
(* Inverse references (paper §8: inverted paths as inverse functions)  *)

let test_referencers_via_links () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  let members, how = Db.referencers fx.db ~source_set:"Emp1" ~attr:"dept" fx.depts.(0) in
  checkb "answered from link objects" true (how = Db.Via_links);
  checki "four employees" 4 (List.length members);
  (* Physical order, as stored in the link object. *)
  let sorted = List.sort Oid.compare members in
  checkb "physical order" true (List.equal Oid.equal members sorted);
  (* Follows reference updates. *)
  Db.update_field fx.db ~set:"Emp1" fx.emps.(0) ~field:"dept" (Value.VRef fx.depts.(1));
  let members', _ = Db.referencers fx.db ~source_set:"Emp1" ~attr:"dept" fx.depts.(0) in
  checki "one fewer" 3 (List.length members')

let test_referencers_via_scan () =
  let fx = employee_db () in
  (* No replication: falls back to a scan but gives the same answer. *)
  let members, how = Db.referencers fx.db ~source_set:"Emp1" ~attr:"dept" fx.depts.(2) in
  checkb "scan fallback" true (how = Db.Via_scan);
  checki "four employees" 4 (List.length members);
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  let members', how' = Db.referencers fx.db ~source_set:"Emp1" ~attr:"dept" fx.depts.(2) in
  checkb "now via links" true (how' = Db.Via_links);
  checkb "same answer" true (List.equal Oid.equal members members')

let test_referencers_validates_attr () =
  let fx = employee_db () in
  try
    ignore (Db.referencers fx.db ~source_set:"Emp1" ~attr:"salary" fx.depts.(0));
    Alcotest.fail "scalar attr accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* The invariant checker detects corruption                            *)

let test_invariants_detect_corruption () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  let eng = Db.engine fx.db in
  checki "clean before corruption" 0 (List.length (Invariants.errors eng));
  (* Corrupt one hidden copy behind the engine's back. *)
  let hf = eng.Engine.file_of_set "Emp1" in
  let record = Record.decode (Heap_file.read hf fx.emps.(0)) in
  let idx =
    Schema.hidden_index (Db.schema fx.db) "Emp1"
      ~rep_id:
        (Option.get (Schema.find_replication (Db.schema fx.db) (Path.parse "Emp1.dept.name")))
          .Schema.rep_id
      ~field:(Some "name")
  in
  let values = Array.copy record.Record.values in
  values.(idx) <- vstr "corrupted";
  Heap_file.update hf fx.emps.(0) (Record.encode { record with Record.values });
  checkb "corruption detected" true (List.length (Invariants.errors eng) > 0)

(* ------------------------------------------------------------------ *)
(* The compiled catalog                                                *)

(* Everything a write looks up in the catalog, recomputed here from
   [all_replications], the states and the types alone, and compared with
   the schema's per-set memo, the engine's registry and a fresh compile of
   it, and Db's per-set index lists. *)
let check_catalog db =
  let s = Db.schema db in
  let all = Schema.all_replications s in
  let live (r : Schema.replication) =
    Schema.rep_state s r.Schema.rep_id <> Schema.Dropped
  in
  let ids reps = List.map (fun (r : Schema.replication) -> r.Schema.rep_id) reps in
  (* set -> (rep_id, field) per hidden slot, in layout order *)
  let layout set =
    List.concat_map
      (fun (r : Schema.replication) ->
        if r.Schema.rpath.Path.source_set <> set then []
        else
          match r.Schema.strategy with
          | Schema.Separate -> [ (r.Schema.rep_id, None) ]
          | Schema.Inplace ->
              List.map
                (fun (f, _) -> (r.Schema.rep_id, Some f))
                (Schema.resolve_path s r.Schema.rpath).Schema.terminal_fields)
      all
  in
  let slot set rep_id field =
    let arity = Ty.arity (Schema.set_type s set) in
    let rec go i = function
      | [] -> Alcotest.failf "no slot for rep %d in %s" rep_id set
      | (id, f) :: rest -> if id = rep_id && f = field then arity + i else go (i + 1) rest
    in
    go 0 (layout set)
  in
  List.iter
    (fun (set, _) ->
      Alcotest.(check (list int))
        ("replications_from " ^ set)
        (ids
           (List.filter
              (fun (r : Schema.replication) ->
                live r && r.Schema.rpath.Path.source_set = set)
              all))
        (ids (Schema.replications_from s set));
      List.iter
        (fun (rep_id, field) ->
          checki
            (Printf.sprintf "hidden_index %s #%d" set rep_id)
            (slot set rep_id field)
            (Schema.hidden_index s set ~rep_id ~field))
        (layout set);
      checki ("record_width " ^ set)
        (Ty.arity (Schema.set_type s set) + List.length (layout set))
        (Schema.record_width s set);
      let names defs =
        List.sort compare (List.map (fun (d : Schema.index_def) -> d.Schema.iname) defs)
      in
      Alcotest.(check (list string))
        ("indexes of " ^ set)
        (names
           (List.filter (fun (d : Schema.index_def) -> d.Schema.iset = set) (Schema.indexes s)))
        (names (Db.set_indexes db ~set)))
    (Schema.sets s);
  let engine = (Db.engine db).Engine.registry in
  let fresh = Registry.compile s in
  List.iter
    (fun (r : Schema.replication) ->
      let set = r.Schema.rpath.Path.source_set in
      if not (live r) then
        List.iter
          (fun reg ->
            match Registry.chain reg r with
            | _ -> Alcotest.failf "dropped rep %d still compiled" r.Schema.rep_id
            | exception Not_found -> ())
          [ engine; fresh ]
      else begin
        let resolved = Schema.resolve_path s r.Schema.rpath in
        let types = Array.of_list resolved.Schema.type_chain in
        let steps = Array.of_list r.Schema.rpath.Path.steps in
        let check_reg label reg =
          let chain = Registry.chain reg r in
          checki (label ^ " chain length") (Array.length steps) (List.length chain);
          List.iteri
            (fun i (n : Registry.node) ->
              Alcotest.(check string) (label ^ " step") steps.(i) n.Registry.step;
              Alcotest.(check string) (label ^ " from") types.(i) n.Registry.from_type;
              Alcotest.(check string) (label ^ " to") types.(i + 1) n.Registry.to_type;
              checki (label ^ " step index")
                (Ty.field_index (Schema.find_type s types.(i)) steps.(i))
                n.Registry.step_index)
            chain;
          let final, term = Registry.terminal_of reg r in
          checki (label ^ " final") (List.nth chain (List.length chain - 1)).Registry.node_id
            final.Registry.node_id;
          checki (label ^ " terminal rep") r.Schema.rep_id term.Registry.rep.Schema.rep_id;
          checkb (label ^ " fields") true (term.Registry.fields = resolved.Schema.terminal_fields);
          let final_ty = Schema.find_type s types.(Array.length steps) in
          Alcotest.(check (array int))
            (label ^ " field indexes")
            (Array.of_list
               (List.map (fun (f, _) -> Ty.field_index final_ty f) resolved.Schema.terminal_fields))
            term.Registry.field_indexes;
          Alcotest.(check (array int))
            (label ^ " hidden slots")
            (match r.Schema.strategy with
            | Schema.Separate -> [| slot set r.Schema.rep_id None |]
            | Schema.Inplace ->
                Array.of_list
                  (List.map
                     (fun (f, _) -> slot set r.Schema.rep_id (Some f))
                     resolved.Schema.terminal_fields))
            term.Registry.slots;
          List.map
            (fun (n : Registry.node) -> (n.Registry.node_id, n.Registry.link_id))
            chain
        in
        let a = check_reg "engine" engine and b = check_reg "fresh" fresh in
        checkb "engine registry = fresh compile" true (a = b)
      end)
    all

(* Random catalog histories: new types and sets, quiesced and online
   replication (in-place, separate, collapsed, .all), the
   Building -> Active and Dropping -> Dropped transitions, unreplicate and
   indexes; the compiled catalog is checked after every step. *)
let test_catalog_model =
  let templates =
    [|
      ("dept.name", Schema.Inplace, false);
      ("dept.budget", Schema.Separate, false);
      ("dept.all", Schema.Inplace, false);
      ("dept.all", Schema.Separate, false);
      ("dept.org.name", Schema.Inplace, false);
      ("dept.org.name", Schema.Inplace, true);
      ("dept.org.budget", Schema.Separate, false);
      ("dept.org.all", Schema.Inplace, false);
    |]
  in
  QCheck.Test.make ~name:"compiled catalog matches recomputation" ~count:15
    QCheck.(list_of_size Gen.(5 -- 25) (pair (int_range 0 5) (pair small_nat small_nat)))
    (fun ops ->
      let fx = employee_db ~norgs:2 ~ndepts:3 ~nemps:6 () in
      let db = fx.db in
      let sources = ref [ "Emp1" ] in
      let next = ref 0 in
      check_catalog db;
      let live_reps () =
        List.filter
          (fun (r : Schema.replication) ->
            Schema.rep_state (Db.schema db) r.Schema.rep_id = Schema.Active)
          (Schema.replications (Db.schema db))
      in
      (* A refused declaration (an index reads the path) changes nothing. *)
      let refusable f = match f () with () -> () | exception Invalid_argument _ -> () in
      let online f =
        let tx = Db.begin_txn db in
        refusable f;
        check_catalog db;
        Db.maint_drain db;
        Db.commit db tx
      in
      List.iter
        (fun (op, (a, b)) ->
          (match op with
          | 0 ->
              incr next;
              let name = Printf.sprintf "X%d" !next in
              Db.define_type db
                (Ty.make ~name
                   [
                     { Ty.fname = "code"; ftype = Ty.Scalar Ty.SInt };
                     { Ty.fname = "dept"; ftype = Ty.Ref "DEPT" };
                   ]);
              check_catalog db;
              Db.create_set db ~name ~elem_type:name ();
              ignore
                (Db.insert db ~set:name
                   [ vint a; Value.VRef fx.depts.(b mod Array.length fx.depts) ]);
              sources := name :: !sources
          | 1 | 2 -> (
              let set = List.nth !sources (a mod List.length !sources) in
              let tpl, strategy, collapse = templates.(b mod Array.length templates) in
              let path = Path.parse (set ^ "." ^ tpl) in
              let options = { Schema.default_options with Schema.collapse } in
              match Schema.find_replication (Db.schema db) path with
              | Some _ -> ()
              | None ->
                  if op = 1 then Db.replicate db ~options ~strategy path
                  else online (fun () -> Db.replicate db ~options ~strategy path))
          | 3 | 4 -> (
              match live_reps () with
              | [] -> ()
              | reps ->
                  let r = List.nth reps (a mod List.length reps) in
                  let drop () = Db.unreplicate db r.Schema.rpath in
                  if op = 3 then refusable drop else online drop;
                  (* drained: the teardown left no derived state behind *)
                  Db.check_integrity db)
          | _ -> (
              let set = List.nth !sources (a mod List.length !sources) in
              let field =
                match
                  List.filter
                    (fun (r : Schema.replication) ->
                      r.Schema.strategy = Schema.Inplace
                      && r.Schema.rpath.Path.source_set = set
                      && (not r.Schema.options.Schema.lazy_propagation)
                      && match r.Schema.rpath.Path.terminal with
                         | Path.Field _ -> true
                         | Path.All -> false)
                    (live_reps ())
                with
                | r :: _ when b mod 2 = 0 -> Path.to_string r.Schema.rpath
                | _ :: _ | [] -> if set = "Emp1" then "age" else "code"
              in
              incr next;
              match
                Db.build_index db ~name:(Printf.sprintf "i%d" !next) ~set ~field
                  ~clustered:false
              with
              | () -> ()
              | exception Invalid_argument _ -> ()));
          check_catalog db)
        ops;
      true)

(* Online replication of a path extending a prefix another declaration
   already built: the backfill registers every level the new declaration
   adds, not only the shared level 1. *)
let test_online_extends_built_prefix () =
  let fx = employee_db ~norgs:2 ~ndepts:3 ~nemps:6 () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.all");
  let tx = Db.begin_txn fx.db in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  Db.maint_drain fx.db;
  Db.commit fx.db tx;
  check_all fx;
  Db.update_field fx.db ~set:"Org" fx.orgs.(1) ~field:"name" (vstr "renamed");
  checkv "propagated through the new level" (vstr "renamed")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(1) "dept.org.name");
  check_all fx

(* A collapsed path shares its first step with an in-place one, but needs
   no level-1 link; dropping the in-place path tears that link down even
   though a live path still passes its node, so no object keeps a pair for
   it. *)
let test_unreplicate_beside_collapsed () =
  let fx = employee_db ~norgs:2 ~ndepts:3 ~nemps:6 () in
  let options = { Schema.default_options with Schema.collapse = true } in
  Db.replicate fx.db ~options ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.unreplicate fx.db (Path.parse "Emp1.dept.name");
  Db.maint_drain fx.db;
  check_all fx;
  Db.update_field fx.db ~set:"Org" fx.orgs.(1) ~field:"name" (vstr "renamed");
  checkv "collapsed path still propagates" (vstr "renamed")
    (Db.deref fx.db ~set:"Emp1" fx.emps.(1) "dept.org.name");
  check_all fx

(* Once compiled at a generation, what a write asks the catalog costs a
   lookup and allocates nothing. *)
let test_catalog_lookup_words () =
  let fx = employee_db () in
  let db = fx.db in
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.replicate db ~strategy:Schema.Separate (Path.parse "Emp1.dept.budget");
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.all");
  let s = Db.schema db in
  let reg = (Db.engine db).Engine.registry in
  let rep =
    match Schema.find_replication s (Path.parse "Emp1.dept.org.all") with
    | Some r -> r
    | None -> Alcotest.fail "declared path not found"
  in
  let rep_id = rep.Schema.rep_id and field = Some "budget" in
  let words =
    words_per_call (fun () ->
        ignore (Schema.replications_from s "Emp1");
        ignore (Schema.hidden_index s "Emp1" ~rep_id ~field);
        ignore (Schema.rep_state s rep_id);
        ignore (Schema.user_arity s "Emp1");
        ignore (Registry.chain reg rep);
        ignore (Registry.terminal_of reg rep))
  in
  checkb (Printf.sprintf "catalog lookups %.3f words <= 0.01" words) true (words <= 0.01)

(* ------------------------------------------------------------------ *)
(* Randomised soak: arbitrary mutation sequences keep every invariant  *)

let qcheck_tests =
  let open QCheck in
  let ops_gen = list_of_size Gen.(5 -- 60) (pair (int_range 0 5) (pair small_nat small_nat)) in
  [
    Test.make ~name:"mutation soup preserves invariants" ~count:25 ops_gen (fun ops ->
        let fx = employee_db ~norgs:3 ~ndepts:5 ~nemps:12 () in
        Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
        Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
        Db.replicate fx.db ~strategy:Schema.Separate (Path.parse "Emp1.dept.budget");
        let live = ref (Array.to_list fx.emps) in
        let counter = ref 0 in
        List.iter
          (fun (op, (a, b)) ->
            incr counter;
            let pick arr = arr.(a mod Array.length arr) in
            match op with
            | 0 ->
                let e =
                  Db.insert fx.db ~set:"Emp1"
                    [
                      vstr (Printf.sprintf "rnd-%d" !counter);
                      vint (20 + (b mod 40));
                      vint (10_000 + b);
                      (if b mod 5 = 0 then Value.VNull else Value.VRef (pick fx.depts));
                    ]
                in
                live := e :: !live
            | 1 -> (
                match !live with
                | e :: rest ->
                    Db.delete fx.db ~set:"Emp1" e;
                    live := rest
                | [] -> ())
            | 2 -> (
                match !live with
                | e :: _ ->
                    Db.update_field fx.db ~set:"Emp1" e ~field:"dept"
                      (if b mod 4 = 0 then Value.VNull else Value.VRef (pick fx.depts))
                | [] -> ())
            | 3 ->
                Db.update_field fx.db ~set:"Dept" (pick fx.depts) ~field:"name"
                  (vstr (Printf.sprintf "dept-r%d" !counter))
            | 4 ->
                Db.update_field fx.db ~set:"Dept" (pick fx.depts) ~field:"org"
                  (if b mod 4 = 0 then Value.VNull else Value.VRef (pick fx.orgs))
            | _ ->
                Db.update_field fx.db ~set:"Org" (pick fx.orgs) ~field:"name"
                  (vstr (Printf.sprintf "org-r%d" !counter)))
          ops;
        Db.check_integrity fx.db;
        true);
    Test.make ~name:"deref always equals actual walk" ~count:20
      (list_of_size Gen.(5 -- 30) (pair (int_range 0 2) small_nat))
      (fun ops ->
        let fx = employee_db ~norgs:2 ~ndepts:4 ~nemps:10 () in
        Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
        Db.replicate fx.db ~strategy:Schema.Separate (Path.parse "Emp1.dept.name");
        List.iter
          (fun (op, b) ->
            match op with
            | 0 ->
                Db.update_field fx.db ~set:"Org" fx.orgs.(b mod 2) ~field:"name"
                  (vstr (Printf.sprintf "o%d" b))
            | 1 ->
                Db.update_field fx.db ~set:"Dept" fx.depts.(b mod 4) ~field:"org"
                  (Value.VRef fx.orgs.(b mod 2))
            | _ ->
                Db.update_field fx.db ~set:"Emp1"
                  fx.emps.(b mod Array.length fx.emps)
                  ~field:"dept" (Value.VRef fx.depts.(b mod 4)))
          ops;
        (* The replicated answer must equal the manual functional join. *)
        Array.for_all
          (fun e ->
            let manual path =
              let r = Db.get fx.db ~set:"Emp1" e in
              match Db.field_value fx.db ~set:"Emp1" r "dept" with
              | Value.VRef d -> (
                  let dr = Db.get fx.db ~set:"Dept" d in
                  match path with
                  | `Dept_name -> Db.field_value fx.db ~set:"Dept" dr "name"
                  | `Org_name -> (
                      match Db.field_value fx.db ~set:"Dept" dr "org" with
                      | Value.VRef o ->
                          Db.field_value fx.db ~set:"Org" (Db.get fx.db ~set:"Org" o) "name"
                      | _ -> Value.VNull))
              | _ -> Value.VNull
            in
            Value.equal (Db.deref fx.db ~set:"Emp1" e "dept.name") (manual `Dept_name)
            && Value.equal (Db.deref fx.db ~set:"Emp1" e "dept.org.name") (manual `Org_name))
          fx.emps);
  ]

(* ------------------------------------------------------------------ *)
(* Space reuse                                                         *)

(* A rolling window over Emp1 with Emp1.dept.name replicated in place:
   each turnover deletes every employee, oldest first, inserting a new one
   after each delete.  Two employees per department, so link objects keep
   being dropped (small-link elimination) and recreated.  Freed space is
   reused, so neither the data file nor the link file grows past the
   second turnover. *)
let test_churn_plateau () =
  let fx = employee_db ~ndepts:60 ~nemps:120 () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  let store = (Db.engine fx.db).Engine.store in
  let link_pages () =
    let links, _ = Store.bindings store in
    List.sort_uniq compare (List.map snd links)
    |> List.map (fun file ->
           let id = fst (List.find (fun (_, f) -> f = file) links) in
           Heap_file.page_count (Store.link_file store id))
  in
  let rng = Splitmix.create 3 in
  let window = Queue.of_seq (Array.to_seq fx.emps) in
  let next = ref (Array.length fx.emps) in
  let pages () = (Db.set_pages fx.db "Emp1", link_pages ()) in
  let plateau = ref (0, []) in
  for turnover = 1 to 10 do
    for _ = 1 to Array.length fx.emps do
      Db.delete fx.db ~set:"Emp1" (Queue.pop window);
      incr next;
      Queue.push
        (Db.insert fx.db ~set:"Emp1"
           [
             vstr (Printf.sprintf "emp-%d" !next);
             vint (20 + (!next mod 40));
             vint (30_000 + !next);
             Value.VRef fx.depts.(Splitmix.int rng (Array.length fx.depts));
           ])
        window
    done;
    if turnover = 2 then plateau := pages ()
  done;
  checkb "link files exist" true (snd !plateau <> []);
  checki "Emp1 pages after turnover 10 = after turnover 2" (fst !plateau)
    (Db.set_pages fx.db "Emp1");
  Alcotest.(check (list int))
    "link pages after turnover 10 = after turnover 2" (snd !plateau) (link_pages ());
  check_all fx

(* ------------------------------------------------------------------ *)
(* Write path over bytes                                               *)

module Link_object = Fieldrep_replication.Link_object

(* Pool lookups (hits + physical reads) of [f ()]. *)
let lookups db f =
  let count () =
    let s = Db.stats db in
    s.Fieldrep_storage.Stats.buffer_hits + s.Fieldrep_storage.Stats.page_reads
  in
  let n0 = count () in
  f ();
  count () - n0

(* Emp1.dept.name in place: every department carries four employees, in a
   link object of its own. *)
let dept_fixture () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  let env = Db.engine fx.db in
  let node = List.hd (Registry.roots env.Engine.registry "Emp1") in
  (fx, env, Option.get node.Registry.link_id)

(* A detach, an attach and a fan-out of four pin each page once per
   step: the membership editor reads the target's pair under the
   target's one pin and edits the link object in its frame under that
   object's one pin.  The detach walk reads no final values, an employee
   with no links of its own is not re-read for them after the detach,
   and the attach writes no hidden copy: an insert stores its record
   complete. *)
let test_write_path_pins () =
  let fx, env, _ = dept_fixture () in
  let emp = fx.emps.(4) in
  let record = Db.get fx.db ~set:"Emp1" emp in
  let detach = Engine.prepare_detach env ~set:"Emp1" record in
  checki "detach: target, link object" 2
    (lookups fx.db (fun () -> Engine.on_delete env detach emp));
  let attach = Engine.prepare_attach env ~set:"Emp1" record in
  checki "attach: target, link object" 2
    (lookups fx.db (fun () -> Engine.on_insert env attach emp));
  let dept = Db.get fx.db ~set:"Dept" fx.depts.(0) in
  let fanout = Engine.prepare_scalar env dept ~field:"name" in
  checki "fan-out of four" 4 (List.length (Engine.fanout_touches fanout));
  checki "same-size fan-out: one pin per page" 1
    (lookups fx.db (fun () ->
         Engine.on_scalar_update env fanout ~field:"name" (vstr "dept-Z")));
  List.iter
    (fun e -> checkv "copy patched" (vstr "dept-Z") (Db.deref fx.db ~set:"Emp1" e "dept.name"))
    (Engine.fanout_touches fanout)

(* An autocommit insert under an in-place path writes the new object
   once, born complete with its hidden copy, and adds it to its
   department's link object under one pin of the department and one of
   the link object.  Writing the user record and then its copy, and
   reading the link object before updating it, would cost two lookups
   more.  The fixture's one Emp1 page is full, so the object opens a new
   page: one pin formats it and places the record. *)
let test_insert_pins () =
  let fx, _, _ = dept_fixture () in
  checki "in-place insert: pool lookups" 6
    (lookups fx.db (fun () ->
         ignore
           (Db.insert fx.db ~set:"Emp1"
              [ vstr "emp-new"; vint 30; vint 50_000; Value.VRef fx.depts.(1) ])));
  check_all fx

(* An edit inside an existing link object pins the target's page once,
   for its pair, and the link object's page once, to edit it in its
   frame: two lookups each way.  Reading the link object and then
   updating it would take one more. *)
let test_membership_edit_pins () =
  let fx, env, link_id = dept_fixture () in
  let member = { Oid.file = 0; page = 999; slot = 1 } in
  let target = fx.depts.(1) in
  checki "add: target, link object" 2
    (lookups fx.db (fun () ->
         ignore
           (Engine.modify_membership env ~link_id ~threshold:1 target
              (Engine.Add { Link_object.member; tag = Oid.nil }))));
  checki "remove: target, link object" 2
    (lookups fx.db (fun () ->
         ignore
           (Engine.modify_membership env ~link_id ~threshold:1 target
              (Engine.Remove member))));
  check_all fx

(* An insert whose set roots an in-place, a collapsed and a separate path
   stores its record once, complete, and no hidden copy of it is
   rewritten after the insert.  The objects written are the source once,
   the department's link object once (the in-place and separate paths
   share its level, and the second add finds the member already there),
   the organisation's tagged link object and the shared S' object's
   reference count; writing the copies after the insert, as a refresh,
   would write the source three times more. *)
let test_insert_born_complete () =
  let fx = employee_db () in
  Db.replicate fx.db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.replicate fx.db
    ~options:{ Schema.default_options with Schema.collapse = true }
    ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  Db.replicate fx.db ~strategy:Schema.Separate (Path.parse "Emp1.dept.budget");
  let written () = (Db.stats fx.db).Fieldrep_storage.Stats.objects_written in
  let w0 = written () in
  let emp =
    Db.insert fx.db ~set:"Emp1" [ vstr "emp-new"; vint 30; vint 50_000; Value.VRef fx.depts.(1) ]
  in
  checki "objects written: the source, two link objects and an S' claim" 4
    (written () - w0);
  checkv "in-place copy" (vstr "dept-1") (Db.deref fx.db ~set:"Emp1" emp "dept.name");
  checkv "collapsed copy" (vstr "org-1") (Db.deref fx.db ~set:"Emp1" emp "dept.org.name");
  checkv "separate copy" (vint 200) (Db.deref fx.db ~set:"Emp1" emp "dept.budget");
  check_all fx

(* EMP.manager names an EMP: the path can reach its own source.  A fresh
   insert through it is still born complete, since nothing names its new
   OID; a revived object whose manager is itself is walked once it is
   stored. *)
let test_self_referential_insert strategy () =
  let db = Db.create ~page_size:1024 ~frames:64 () in
  Db.define_type db
    (Ty.make ~name:"EMP"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "manager"; ftype = Ty.Ref "EMP" };
       ]);
  Db.create_set db ~name:"Emp1" ~elem_type:"EMP" ();
  Db.replicate db ~strategy (Path.parse "Emp1.manager.name");
  let env = Db.engine db in
  let rep = List.hd (Schema.replications (Db.schema db)) in
  checkb "reaches its source" true (Registry.reaches_source env.Engine.registry rep);
  let x = Db.insert db ~set:"Emp1" [ vstr "x"; Value.VNull ] in
  Db.update_field db ~set:"Emp1" x ~field:"manager" (Value.VRef x);
  let y = Db.insert db ~set:"Emp1" [ vstr "y"; Value.VRef x ] in
  let z = Db.insert db ~set:"Emp1" [ vstr "z"; Value.VRef y ] in
  checkv "y's copy" (vstr "x") (Db.deref db ~set:"Emp1" y "manager.name");
  checkv "z's copy" (vstr "y") (Db.deref db ~set:"Emp1" z "manager.name");
  Db.update_field db ~set:"Emp1" x ~field:"name" (vstr "x2");
  checkv "x's own copy follows" (vstr "x2") (Db.deref db ~set:"Emp1" x "manager.name");
  checkv "y's copy follows" (vstr "x2") (Db.deref db ~set:"Emp1" y "manager.name");
  Db.update_field db ~set:"Emp1" z ~field:"manager" (Value.VRef z);
  let tx = Db.begin_txn db in
  Db.delete ~txn:tx db ~set:"Emp1" z;
  Db.abort db tx;
  checkv "revived self copy" (vstr "z") (Db.deref db ~set:"Emp1" z "manager.name");
  Db.check_integrity db

(* Refreshing sources whose copies are current edits nothing, so the run
   leaves its pages clean and the next flush writes none of them. *)
let test_current_refresh_writes () =
  let fx, env, _ = dept_fixture () in
  let rep = List.hd (Schema.replications (Db.schema fx.db)) in
  let pager = Db.pager fx.db in
  Pager.flush pager;
  let writes () = (Db.stats fx.db).Fieldrep_storage.Stats.page_writes in
  let w0 = writes () in
  for i = 0 to 7 do
    Engine.refresh env rep fx.emps.(i)
  done;
  Pager.flush pager;
  checki "page writes" 0 (writes () - w0);
  check_all fx

(* An entry edit inside an existing link object allocates the target's
   pair OID, the update's length and the result pair. *)
let test_membership_edit_words () =
  let fx, env, link_id = dept_fixture () in
  let member = { Oid.file = 0; page = 999; slot = 1 } in
  let add = Engine.Add { Link_object.member; tag = Oid.nil } in
  let remove = Engine.Remove member in
  let target = fx.depts.(1) in
  let add_words =
    words_per_call (fun () ->
        ignore (Engine.modify_membership env ~link_id ~threshold:1 target add);
        ignore (Engine.modify_membership env ~link_id ~threshold:1 target remove))
    /. 2.
  in
  if add_words > 16. then
    Alcotest.failf "%.1f words per add or remove (at most 16)" add_words;
  check_all fx

(* A same-size fan-out of four patches the copies in their frames: what it
   allocates is the walk's bookkeeping, not a record per source. *)
let test_fanout_words () =
  let fx, env, _ = dept_fixture () in
  let dept = Db.get fx.db ~set:"Dept" fx.depts.(2) in
  let fanout = Engine.prepare_scalar env dept ~field:"name" in
  checki "fan-out of four" 4 (List.length (Engine.fanout_touches fanout));
  let flip = ref false in
  let words =
    words_per_call (fun () ->
        flip := not !flip;
        Engine.on_scalar_update env fanout ~field:"name"
          (vstr (if !flip then "dept-X" else "dept-Y")))
  in
  if words > 40. then Alcotest.failf "%.1f words per fan-out of four (at most 40)" words

(* An autocommit update of an unreplicated, unindexed scalar reads the
   object once and writes it once.  It allocates what decoding the record
   for the lock set and the undo image allocates, plus 15 words (option
   boxes, the callees' closures and the test's own value; [Db] builds no
   closure, and the field lookups none either): the value is spliced into the bytes it read, so no value
   array is copied and no payload is encoded.  A 400-byte field makes a
   fresh payload cost 50 words more. *)
let test_update_field_words () =
  let fx = employee_db ~nemps:4 () in
  let emp = fx.emps.(2) in
  Db.update_field fx.db ~set:"Emp1" emp ~field:"name" (vstr (String.make 400 'n'));
  let stored = Heap_file.read ((Db.engine fx.db).Engine.file_of_set "Emp1") emp in
  let salary = ref 0 in
  let update () =
    incr salary;
    Db.update_field fx.db ~set:"Emp1" emp ~field:"salary" (vint !salary)
  in
  checki "pool lookups: the read and the write" 2 (lookups fx.db update);
  let decode = words_per_call (fun () -> ignore (Record.decode stored)) in
  let words = words_per_call update in
  if words > decode +. 20. then
    Alcotest.failf "%.1f words per update (decoding the record: %.1f, at most 20 more)" words
      decode;
  checkv "last value stored" (vint !salary) (Record.field (Db.get fx.db ~set:"Emp1" emp) 2);
  check_all fx

(* A link object as the list of its entries, sorted by member: the model
   the byte editor is held to. *)
let rec model_add entries (e : Link_object.entry) =
  match entries with
  | [] -> [ e ]
  | (x : Link_object.entry) :: rest ->
      let c = Oid.compare e.member x.member in
      if c < 0 then e :: entries else if c = 0 then e :: rest else x :: model_add rest e

let model_remove entries member =
  List.filter (fun (e : Link_object.entry) -> not (Oid.equal e.member member)) entries

let untagged entries = List.for_all (fun (e : Link_object.entry) -> Oid.is_nil e.tag) entries

(* The model's bytes, laid out here rather than by [Link_object]:
   [count:u16][tagged:u8][member (+tag)...], tagged when any entry has a
   tag. *)
let model_encode entries =
  let w = if untagged entries then 8 else 16 in
  let buf = Bytes.create (3 + (List.length entries * w)) in
  Bytes.set_uint16_le buf 0 (List.length entries);
  Bytes.set_uint8 buf 2 (if w = 8 then 0 else 1);
  List.iteri
    (fun i (e : Link_object.entry) ->
      let at = 3 + (i * w) in
      ignore (Oid.encode buf at e.member);
      if w = 16 then ignore (Oid.encode buf (at + 8) e.tag))
    entries;
  buf

(* The byte editor against the list model: after every edit the target
   holds exactly the record whose sorted link section has the model's pair
   between the other links' pairs, and the link object exactly the model's
   bytes. *)
let prop_membership_editor =
  let member_pool = Array.init 9 (fun i -> { Oid.file = 0; page = 500 + (i mod 3); slot = i }) in
  let tag_pool = Array.init 3 (fun i -> { Oid.file = 0; page = 700; slot = i }) in
  QCheck.Test.make ~name:"membership byte editor matches the list model" ~count:60
    QCheck.(
      triple (int_range 0 2) (int_range 0 1)
        (list_of_size Gen.(1 -- 30) (triple (int_range 0 9) (int_range 0 8) (int_range 0 3))))
    (fun (tagging, threshold, ops) ->
      let fx = employee_db ~nemps:2 () in
      let env = Db.engine fx.db in
      let target = fx.depts.(3) in
      let hf = Engine.(env.file_of_oid) target in
      (* Pairs of other links on both sides of the edited one. *)
      let link_id = 5 and dept = Db.get fx.db ~set:"Dept" target in
      let with_pair pair =
        {
          dept with
          Record.links =
            ({ Record.link_oid = member_pool.(0); link_id = 3 }
            :: List.map (fun link_oid -> { Record.link_oid; link_id }) (Option.to_list pair))
            @ [ { Record.link_oid = member_pool.(1); link_id = 9 } ];
        }
      in
      Heap_file.update hf target (Record.encode (with_pair None));
      let tag_of i =
        match tagging with
        | 0 -> Oid.nil
        | 1 -> tag_pool.(i mod 3)
        | _ -> if i = 3 then Oid.nil else tag_pool.(i)
      in
      let lo = ref [] in
      List.for_all
        (fun (kind, m, t) ->
          let member = member_pool.(m) in
          let tag = tag_of t in
          let taken = ref [] in
          let edit, expect, moved =
            if kind <= 4 then
              (Engine.Add { Link_object.member; tag }, model_add !lo { member; tag }, [])
            else if kind <= 8 then (Engine.Remove member, model_remove !lo member, [])
            else
              let moved, kept =
                List.partition (fun (e : Link_object.entry) -> Oid.equal e.tag tag) !lo
              in
              (Engine.Take_tagged (tag, taken), kept, moved)
          in
          let was, now = Engine.modify_membership env ~link_id ~threshold fx.depts.(3) edit in
          let ok_flags = was = (!lo = []) && now = (expect = []) in
          let stored = Heap_file.read_with hf target Record.decode_at in
          let pair =
            List.find_opt (fun (l : Record.link) -> l.Record.link_id = link_id) stored.Record.links
          in
          let expected_pair, ok_link =
            match expect with
            | [] -> (None, true)
            | [ e ] when threshold >= 1 && untagged expect -> (Some e.member, true)
            | _ -> (
                match pair with
                | Some { Record.link_oid; _ } when Store.is_link_oid env.Engine.store link_oid ->
                    ( Some link_oid,
                      Bytes.equal
                        (Heap_file.read (Store.link_file env.Engine.store link_id) link_oid)
                        (model_encode expect) )
                | Some _ | None -> (None, false))
          in
          let expected_record = Record.encode (with_pair expected_pair) in
          lo := expect;
          ok_flags && ok_link
          && Bytes.equal (Record.encode stored) expected_record
          && Bytes.equal (Heap_file.read hf target) expected_record
          && !taken = moved)
        ops)

(* Removing the only tagged entry narrows a link object back to the
   untagged encoding, whether the entry goes by member or by tag: the
   stored bytes equal those of the untagged entries alone. *)
let test_membership_narrowing () =
  let fx = employee_db ~nemps:2 () in
  let env = Db.engine fx.db in
  let link_id = 5 and target = fx.depts.(3) in
  let member i = { Oid.file = 0; page = 500; slot = i } in
  let tag = { Oid.file = 0; page = 700; slot = 1 } in
  let plain = List.map (fun i -> { Link_object.member = member i; tag = Oid.nil }) [ 1; 3; 5 ] in
  let edit e = ignore (Engine.modify_membership env ~link_id ~threshold:0 target e) in
  let stored () =
    let hf = Engine.(env.file_of_oid) target in
    match
      List.find_opt
        (fun (l : Record.link) -> l.Record.link_id = link_id)
        (Heap_file.read_with hf target Record.decode_at).Record.links
    with
    | Some { Record.link_oid; _ } ->
        Heap_file.read (Store.link_file env.Engine.store link_id) link_oid
    | None -> Alcotest.fail "the target has no pair for the link"
  in
  let check what = checkb what true (Bytes.equal (stored ()) (model_encode plain)) in
  edit (Engine.Add_all plain);
  check "untagged entries";
  edit (Engine.Add { Link_object.member = member 4; tag });
  checkb "a tagged entry widens" false (Bytes.equal (stored ()) (model_encode plain));
  edit (Engine.Remove (member 4));
  check "removed by member: narrowed";
  edit (Engine.Add { Link_object.member = member 2; tag });
  edit (Engine.Take_tagged (tag, ref []));
  check "taken by tag: narrowed"

(* A truncated link object is a corrupt one: [fold_at] raises for every
   proper prefix of an encoding and folds the whole of it back to its
   entries, tagged or not. *)
let prop_link_object_prefix =
  QCheck.Test.make ~name:"link object: every proper prefix raises Corrupt" ~count:100
    QCheck.(pair bool (small_list (pair (int_range 0 40) (int_range 0 3))))
    (fun (tagged, raw) ->
      let entries =
        List.sort_uniq
          (fun (a : Link_object.entry) b -> Oid.compare a.member b.member)
          (List.map
             (fun (m, t) ->
               {
                 Link_object.member = { Oid.file = 0; page = 500 + (m / 8); slot = m };
                 tag = (if tagged && t > 0 then { Oid.file = 0; page = 700; slot = t } else Oid.nil);
               })
             raw)
      in
      let buf = ref Bytes.empty in
      let len = Link_object.entries_into buf entries in
      let fold len =
        List.rev
          (Link_object.fold_at
             (fun acc member tag -> { Link_object.member; tag } :: acc)
             [] !buf 0 len)
      in
      Bytes.equal (Bytes.sub !buf 0 len) (model_encode entries)
      && fold len = entries
      && List.for_all
           (fun len ->
             match fold len with _ -> false | exception Fieldrep_util.Wire.Corrupt _ -> true)
           (List.init len Fun.id))

let () =
  Alcotest.run "fieldrep_replication"
    [
      ( "registry",
        [
          QCheck_alcotest.to_alcotest ~long:false test_catalog_model;
          Alcotest.test_case "catalog lookups allocate nothing" `Quick
            test_catalog_lookup_words;
          Alcotest.test_case "unreplicate beside a collapsed path" `Quick
            test_unreplicate_beside_collapsed;
          Alcotest.test_case "online build extends a built prefix" `Quick
            test_online_extends_built_prefix;
          Alcotest.test_case "link sharing" `Quick test_registry_link_sharing;
          Alcotest.test_case "stable link ids" `Quick test_registry_stable_ids;
          Alcotest.test_case "collapse validation" `Quick test_registry_collapse_validation;
        ] );
      ( "inplace-1level",
        [
          Alcotest.test_case "deref without join" `Quick test_inplace_deref_no_join;
          Alcotest.test_case "scalar propagation" `Quick test_inplace_scalar_propagation;
          Alcotest.test_case "read allocates like a page lookup" `Quick
            test_inplace_read_allocation;
          Alcotest.test_case "reads decode in the frame" `Quick
            test_in_frame_read_words;
          Alcotest.test_case "unreferenced dept update free" `Quick
            test_inplace_update_to_unreferenced_dept_is_free;
          Alcotest.test_case "insert maintenance" `Quick test_inplace_insert_maintenance;
          Alcotest.test_case "delete maintenance" `Quick test_inplace_delete_maintenance;
          Alcotest.test_case "source ref update" `Quick test_inplace_ref_update_source;
          Alcotest.test_case "null and back" `Quick test_inplace_ref_update_to_null_and_back;
        ] );
      ( "inplace-2level",
        [
          Alcotest.test_case "propagation" `Quick test_two_level_propagation;
          Alcotest.test_case "intermediate ref update" `Quick
            test_two_level_intermediate_ref_update;
          Alcotest.test_case "source ref update" `Quick test_two_level_source_ref_update;
          Alcotest.test_case "shared prefixes" `Quick test_shared_prefix_paths;
          Alcotest.test_case "full object replication" `Quick test_full_object_replication;
        ] );
      ( "separate",
        [
          Alcotest.test_case "basic" `Quick test_separate_basic;
          Alcotest.test_case "shared update" `Quick test_separate_update_is_shared;
          Alcotest.test_case "S' sharing and refcounts" `Quick
            test_separate_sprime_sharing_and_refcounts;
          Alcotest.test_case "two level" `Quick test_separate_two_level;
          Alcotest.test_case "coexists with inplace" `Quick test_separate_and_inplace_coexist;
        ] );
      ( "optimizations",
        [
          Alcotest.test_case "small-link elimination" `Quick test_small_link_elimination;
          Alcotest.test_case "elimination disabled" `Quick test_elimination_disabled;
          Alcotest.test_case "collapsed path" `Quick test_collapsed_path;
          Alcotest.test_case "compiled expr matches deref" `Quick
            test_compiled_expr_matches_deref;
        ] );
      ( "deletion",
        [
          Alcotest.test_case "referenced dept rejected" `Quick
            test_delete_referenced_dept_rejected;
          Alcotest.test_case "unreferenced dept ok" `Quick test_delete_unreferenced_dept_ok;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "path index" `Quick test_path_index;
          Alcotest.test_case "user field index" `Quick test_user_field_index_maintained;
        ] );
      ( "inverse",
        [
          Alcotest.test_case "via links" `Quick test_referencers_via_links;
          Alcotest.test_case "via scan" `Quick test_referencers_via_scan;
          Alcotest.test_case "validates attribute" `Quick test_referencers_validates_attr;
        ] );
      ( "invariants",
        [ Alcotest.test_case "detects corruption" `Quick test_invariants_detect_corruption ] );
      ("space reuse", [ Alcotest.test_case "churn plateaus" `Quick test_churn_plateau ]);
      ( "write path",
        [
          Alcotest.test_case "pins as the decoding edit" `Quick test_write_path_pins;
          Alcotest.test_case "in-place insert pins" `Quick test_insert_pins;
          Alcotest.test_case "membership edit pins" `Quick test_membership_edit_pins;
          Alcotest.test_case "insert born complete" `Quick test_insert_born_complete;
          Alcotest.test_case "self-referential insert, in place" `Quick
            (test_self_referential_insert Schema.Inplace);
          Alcotest.test_case "self-referential insert, separate" `Quick
            (test_self_referential_insert Schema.Separate);
          Alcotest.test_case "current refresh writes no page" `Quick
            test_current_refresh_writes;
          Alcotest.test_case "membership edit words" `Quick test_membership_edit_words;
          Alcotest.test_case "same-size fan-out words" `Quick test_fanout_words;
          Alcotest.test_case "update splices the bytes it read" `Quick test_update_field_words;
          Alcotest.test_case "membership narrowing" `Quick test_membership_narrowing;
          QCheck_alcotest.to_alcotest ~long:false prop_membership_editor;
          QCheck_alcotest.to_alcotest ~long:false prop_link_object_prefix;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
