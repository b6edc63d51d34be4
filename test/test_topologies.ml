(* Replication over tricky reference topologies:
   - self-referential types (EMP.manager : ref EMP),
   - two reference attributes of one type pointing at the same target type,
   - diamonds (two paths reaching the same final set),
   - multiple source sets over shared intermediate objects.
   These stress the trie-based discovery in the engine (nodes are matched by
   target *type*, so unrelated attributes of the same type must not
   cross-contaminate). *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path

let checki = Alcotest.(check int)
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable
let vstr s = Value.VString s
let vint i = Value.VInt i

(* ------------------------------------------------------------------ *)
(* Self-reference: employees with managers                             *)

let manager_db () =
  let db = Db.create ~page_size:1024 ~frames:128 () in
  Db.define_type db
    (Ty.make ~name:"EMP"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "salary"; ftype = Ty.Scalar Ty.SInt };
         { Ty.fname = "manager"; ftype = Ty.Ref "EMP" };
       ]);
  Db.create_set db ~name:"Emp1" ~elem_type:"EMP" ();
  let boss = Db.insert db ~set:"Emp1" [ vstr "boss"; vint 200; Value.VNull ] in
  let mid = Db.insert db ~set:"Emp1" [ vstr "mid"; vint 150; Value.VRef boss ] in
  let workers =
    Array.init 6 (fun i ->
        Db.insert db ~set:"Emp1" [ vstr (Printf.sprintf "w%d" i); vint 100; Value.VRef mid ])
  in
  (db, boss, mid, workers)

let test_self_ref_one_level () =
  let db, boss, mid, workers = manager_db () in
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Emp1.manager.name");
  checkv "worker's manager" (vstr "mid") (Db.deref db ~set:"Emp1" workers.(0) "manager.name");
  checkv "mid's manager" (vstr "boss") (Db.deref db ~set:"Emp1" mid "manager.name");
  checkv "boss has none" Value.VNull (Db.deref db ~set:"Emp1" boss "manager.name");
  Db.check_integrity db;
  (* Renaming mid must reach the workers but not mid itself (whose hidden
     copy tracks boss). *)
  Db.update_field db ~set:"Emp1" mid ~field:"name" (vstr "middle");
  checkv "propagated to workers" (vstr "middle")
    (Db.deref db ~set:"Emp1" workers.(3) "manager.name");
  checkv "mid still tracks boss" (vstr "boss") (Db.deref db ~set:"Emp1" mid "manager.name");
  Db.check_integrity db

let test_self_ref_two_levels () =
  let db, _, mid, workers = manager_db () in
  (* manager.manager.name: the grand-manager, through the same type twice. *)
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Emp1.manager.manager.name");
  checkv "worker's grand-manager" (vstr "boss")
    (Db.deref db ~set:"Emp1" workers.(0) "manager.manager.name");
  checkv "mid has none" Value.VNull (Db.deref db ~set:"Emp1" mid "manager.manager.name");
  Db.check_integrity db;
  (* Reorganisation: worker 0 now reports to the boss directly. *)
  let boss = Value.as_ref (Db.field_value db ~set:"Emp1" (Db.get db ~set:"Emp1" mid) "manager") in
  ignore boss;
  Db.update_field db ~set:"Emp1" workers.(0) ~field:"manager"
    (Db.field_value db ~set:"Emp1" (Db.get db ~set:"Emp1" mid) "manager");
  checkv "no grand-manager anymore" Value.VNull
    (Db.deref db ~set:"Emp1" workers.(0) "manager.manager.name");
  Db.check_integrity db

(* A separate path from an object that manages itself: it is the source
   and the final of its own path, so the S' bookkeeping rewrites the link
   section of the record whose hidden reference is being written. *)
let test_self_ref_separate_own_manager () =
  let db, _, _, _ = manager_db () in
  let self = Db.insert db ~set:"Emp1" [ vstr "self"; vint 300; Value.VNull ] in
  Db.update_field db ~set:"Emp1" self ~field:"manager" (Value.VRef self);
  let path = Path.parse "Emp1.manager.name" in
  Db.replicate db ~strategy:Schema.Separate path;
  let step what expect =
    checkv what expect (Db.deref db ~set:"Emp1" self "manager.name");
    Db.check_integrity db
  in
  step "own manager" (vstr "self");
  Db.update_field db ~set:"Emp1" self ~field:"name" (vstr "renamed");
  step "renamed" (vstr "renamed");
  let worker = Db.insert db ~set:"Emp1" [ vstr "w"; vint 100; Value.VRef self ] in
  checkv "worker attached" (vstr "renamed") (Db.deref db ~set:"Emp1" worker "manager.name");
  step "worker attached" (vstr "renamed");
  Db.delete db ~set:"Emp1" worker;
  step "worker detached" (vstr "renamed");
  Db.update_field db ~set:"Emp1" self ~field:"manager" Value.VNull;
  step "manager cleared" Value.VNull;
  Db.update_field db ~set:"Emp1" self ~field:"manager" (Value.VRef self);
  step "own manager again" (vstr "renamed");
  Db.unreplicate db path;
  step "unreplicated" (vstr "renamed")

let test_self_ref_update_objects_own_field () =
  let db, _, _, workers = manager_db () in
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Emp1.manager.salary");
  (* Updating a worker's own salary must not disturb its hidden copy of the
     manager's salary (same type, different object). *)
  Db.update_field db ~set:"Emp1" workers.(0) ~field:"salary" (vint 999);
  checkv "own salary" (vint 999)
    (Db.field_value db ~set:"Emp1" (Db.get db ~set:"Emp1" workers.(0)) "salary");
  checkv "manager's salary copy intact" (vint 150)
    (Db.deref db ~set:"Emp1" workers.(0) "manager.salary");
  Db.check_integrity db

(* ------------------------------------------------------------------ *)
(* Two attributes of the same target type                              *)

let two_attr_db () =
  let db = Db.create ~page_size:1024 ~frames:128 () in
  Db.define_type db
    (Ty.make ~name:"CITY" [ { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString } ]);
  Db.define_type db
    (Ty.make ~name:"ROUTE"
       [
         { Ty.fname = "code"; ftype = Ty.Scalar Ty.SInt };
         { Ty.fname = "origin"; ftype = Ty.Ref "CITY" };
         { Ty.fname = "destination"; ftype = Ty.Ref "CITY" };
       ]);
  Db.create_set db ~name:"City" ~elem_type:"CITY" ();
  Db.create_set db ~name:"Route" ~elem_type:"ROUTE" ();
  let cities =
    Array.init 4 (fun i -> Db.insert db ~set:"City" [ vstr (Printf.sprintf "city-%d" i) ])
  in
  let routes =
    Array.init 6 (fun i ->
        Db.insert db ~set:"Route"
          [ vint i; Value.VRef cities.(i mod 4); Value.VRef cities.((i + 1) mod 4) ])
  in
  (db, cities, routes)

let test_two_attrs_are_distinct_paths () =
  let db, cities, routes = two_attr_db () in
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Route.origin.name");
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Route.destination.name");
  checkv "origin" (vstr "city-0") (Db.deref db ~set:"Route" routes.(0) "origin.name");
  checkv "destination" (vstr "city-1")
    (Db.deref db ~set:"Route" routes.(0) "destination.name");
  Db.check_integrity db;
  (* Renaming a city must update both hidden groups, each exactly where it
     applies. *)
  Db.update_field db ~set:"City" cities.(1) ~field:"name" (vstr "metropolis");
  checkv "as destination of route 0" (vstr "metropolis")
    (Db.deref db ~set:"Route" routes.(0) "destination.name");
  checkv "as origin of route 1" (vstr "metropolis")
    (Db.deref db ~set:"Route" routes.(1) "origin.name");
  checkv "route 0 origin untouched" (vstr "city-0")
    (Db.deref db ~set:"Route" routes.(0) "origin.name");
  Db.check_integrity db;
  (* Repointing one attribute must not affect the other. *)
  Db.update_field db ~set:"Route" routes.(0) ~field:"origin" (Value.VRef cities.(3));
  checkv "origin followed" (vstr "city-3") (Db.deref db ~set:"Route" routes.(0) "origin.name");
  checkv "destination unchanged" (vstr "metropolis")
    (Db.deref db ~set:"Route" routes.(0) "destination.name");
  Db.check_integrity db

let test_two_attrs_get_separate_links () =
  let db, cities, _ = two_attr_db () in
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Route.origin.name");
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Route.destination.name");
  (* A city is referenced through both attributes: it carries one link pair
     per attribute (no sharing across different steps). *)
  let record = Db.get db ~set:"City" cities.(1) in
  checki "two link pairs" 2 (List.length record.Fieldrep_model.Record.links)

(* ------------------------------------------------------------------ *)
(* Diamond: two 2-level paths converging on the same final set         *)

let test_diamond_paths () =
  let db = Db.create ~page_size:1024 ~frames:128 () in
  Db.define_type db
    (Ty.make ~name:"CO" [ { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString } ]);
  Db.define_type db
    (Ty.make ~name:"TEAM"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "co"; ftype = Ty.Ref "CO" };
       ]);
  Db.define_type db
    (Ty.make ~name:"PERSON"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "team"; ftype = Ty.Ref "TEAM" };
         { Ty.fname = "client"; ftype = Ty.Ref "CO" };
       ]);
  Db.create_set db ~name:"Co" ~elem_type:"CO" ();
  Db.create_set db ~name:"Team" ~elem_type:"TEAM" ();
  Db.create_set db ~name:"People" ~elem_type:"PERSON" ();
  let co_a = Db.insert db ~set:"Co" [ vstr "alpha" ] in
  let co_b = Db.insert db ~set:"Co" [ vstr "beta" ] in
  let team = Db.insert db ~set:"Team" [ vstr "core"; Value.VRef co_a ] in
  let p = Db.insert db ~set:"People" [ vstr "pat"; Value.VRef team; Value.VRef co_b ] in
  (* Two paths to CO: People.team.co.name (2-level) and People.client.name
     (1-level).  Same final type, different routes. *)
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "People.team.co.name");
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "People.client.name");
  checkv "employer" (vstr "alpha") (Db.deref db ~set:"People" p "team.co.name");
  checkv "client" (vstr "beta") (Db.deref db ~set:"People" p "client.name");
  Db.check_integrity db;
  (* Each rename must travel only its own path. *)
  Db.update_field db ~set:"Co" co_a ~field:"name" (vstr "alpha2");
  checkv "employer renamed" (vstr "alpha2") (Db.deref db ~set:"People" p "team.co.name");
  checkv "client untouched" (vstr "beta") (Db.deref db ~set:"People" p "client.name");
  Db.check_integrity db;
  (* Point both at the same company: updates now reach both hidden slots. *)
  Db.update_field db ~set:"People" p ~field:"client" (Value.VRef co_a);
  Db.update_field db ~set:"Co" co_a ~field:"name" (vstr "alpha3");
  checkv "both via team" (vstr "alpha3") (Db.deref db ~set:"People" p "team.co.name");
  checkv "both via client" (vstr "alpha3") (Db.deref db ~set:"People" p "client.name");
  Db.check_integrity db

(* ------------------------------------------------------------------ *)
(* Two source sets over the same intermediates, mixed strategies       *)

let test_two_source_sets_mixed_strategies () =
  let db = Db.create ~page_size:1024 ~frames:128 () in
  Db.define_type db
    (Ty.make ~name:"DEPT" [ { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString } ]);
  Db.define_type db
    (Ty.make ~name:"EMP"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "dept"; ftype = Ty.Ref "DEPT" };
       ]);
  Db.create_set db ~name:"Dept" ~elem_type:"DEPT" ();
  Db.create_set db ~name:"Emp1" ~elem_type:"EMP" ();
  Db.create_set db ~name:"Emp2" ~elem_type:"EMP" ();
  let d = Db.insert db ~set:"Dept" [ vstr "shared" ] in
  let e1 = Db.insert db ~set:"Emp1" [ vstr "a"; Value.VRef d ] in
  let e2 = Db.insert db ~set:"Emp2" [ vstr "b"; Value.VRef d ] in
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.replicate db ~strategy:Schema.Separate (Path.parse "Emp2.dept.name");
  Db.update_field db ~set:"Dept" d ~field:"name" (vstr "renamed");
  checkv "emp1 via in-place" (vstr "renamed") (Db.deref db ~set:"Emp1" e1 "dept.name");
  checkv "emp2 via separate" (vstr "renamed") (Db.deref db ~set:"Emp2" e2 "dept.name");
  Db.check_integrity db;
  (* The shared dept carries one path-link pair (Emp1) and one sref pair
     (Emp2) — separate link-ID spaces per source set. *)
  let record = Db.get db ~set:"Dept" d in
  checki "two pairs on the shared dept" 2
    (List.length record.Fieldrep_model.Record.links);
  (* Deleting one side's source releases only that side. *)
  Db.delete db ~set:"Emp2" e2;
  let record = Db.get db ~set:"Dept" d in
  checki "sref pair released" 1 (List.length record.Fieldrep_model.Record.links);
  Db.check_integrity db

let () =
  Alcotest.run "fieldrep_topologies"
    [
      ( "self-reference",
        [
          Alcotest.test_case "one level" `Quick test_self_ref_one_level;
          Alcotest.test_case "two levels" `Quick test_self_ref_two_levels;
          Alcotest.test_case "own field vs copy" `Quick test_self_ref_update_objects_own_field;
          Alcotest.test_case "separate, own manager" `Quick test_self_ref_separate_own_manager;
        ] );
      ( "parallel attributes",
        [
          Alcotest.test_case "distinct paths" `Quick test_two_attrs_are_distinct_paths;
          Alcotest.test_case "separate links" `Quick test_two_attrs_get_separate_links;
        ] );
      ("diamond", [ Alcotest.test_case "two routes to one set" `Quick test_diamond_paths ]);
      ( "multi-source",
        [ Alcotest.test_case "mixed strategies" `Quick test_two_source_sets_mixed_strategies ] );
    ]
