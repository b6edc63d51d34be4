(* Tests for the query layer: planning (index selection, replication-aware
   projection), execution (retrieve/replace, output files), and the
   EXTRA-style surface language. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ast = Fieldrep_query.Ast
module Exec = Fieldrep_query.Exec
module Lang = Fieldrep_query.Lang
module Wgen = Fieldrep_workload.Gen

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable

(* The paper's §3.1 example database, via the surface language. *)
let paper_db () =
  let db = Db.create ~page_size:2048 ~frames:128 () in
  List.iter
    (fun stmt -> ignore (Lang.exec db stmt))
    [
      "define type ORG (name: char[], budget: int)";
      "define type DEPT (name: char[], budget: int, org: ref ORG)";
      "define type EMP (name: char[], age: int, salary: int, dept: ref DEPT)";
      "create Org: {own ref ORG}";
      "create Dept: {own ref DEPT}";
      "create Emp1: {own ref EMP}";
    ];
  let org =
    Db.insert db ~set:"Org" [ Value.VString "acme"; Value.VInt 1_000_000 ]
  in
  let depts =
    Array.init 3 (fun i ->
        Db.insert db ~set:"Dept"
          [
            Value.VString (Printf.sprintf "dept-%d" i);
            Value.VInt (100 * (i + 1));
            Value.VRef org;
          ])
  in
  let emps =
    Array.init 12 (fun i ->
        Db.insert db ~set:"Emp1"
          [
            Value.VString (Printf.sprintf "emp-%d" i);
            Value.VInt (25 + i);
            Value.VInt (50_000 + (10_000 * i));
            Value.VRef depts.(i mod 3);
          ])
  in
  (db, org, depts, emps)

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let test_planner_picks_index () =
  let db, _, _, _ = paper_db () in
  let q =
    {
      Ast.from_set = "Emp1";
      projections = [ "name" ];
      where = Some (Ast.between "salary" (Value.VInt 0) (Value.VInt 60_000));
    }
  in
  (match (Exec.explain_retrieve db q).Exec.access with
  | Exec.File_scan -> ()
  | Exec.Index_scan _ -> Alcotest.fail "no index yet");
  ignore (Lang.exec db "build btree on Emp1.salary");
  match (Exec.explain_retrieve db q).Exec.access with
  | Exec.Index_scan name -> Alcotest.(check string) "index" "btree_Emp1_salary" name
  | Exec.File_scan -> Alcotest.fail "index not chosen"

let test_planner_join_counts_follow_replication () =
  let db, _, _, _ = paper_db () in
  let q =
    { Ast.from_set = "Emp1"; projections = [ "name"; "dept.name" ]; where = None }
  in
  let joins () = List.assoc "dept.name" (Exec.explain_retrieve db q).Exec.join_counts in
  checki "join before replication" 1 (joins ());
  ignore (Lang.exec db "replicate Emp1.dept.name");
  checki "no join after replication" 0 (joins ())

(* ------------------------------------------------------------------ *)
(* Retrieve                                                            *)

let test_retrieve_with_predicate () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "build btree on Emp1.salary");
  let rows =
    Exec.retrieve_values db
      {
        Ast.from_set = "Emp1";
        projections = [ "name"; "salary"; "dept.name" ];
        where = Some { Ast.pfield = "salary"; lo = Some (Value.VInt 100_000); hi = None };
      }
  in
  checki "rows" 7 (List.length rows);
  List.iter
    (fun row ->
      match row with
      | [ _; Value.VInt salary; Value.VString dept ] ->
          checkb "salary filter" true (salary >= 100_000);
          checkb "dept projected" true (String.length dept > 0)
      | _ -> Alcotest.fail "bad row shape")
    rows

let test_retrieve_full_scan () =
  let db, _, _, _ = paper_db () in
  let rows =
    Exec.retrieve_values db
      { Ast.from_set = "Emp1"; projections = [ "name" ]; where = None }
  in
  checki "all rows" 12 (List.length rows)

let test_retrieve_empty_result () =
  let db, _, _, _ = paper_db () in
  let rows =
    Exec.retrieve_values db
      {
        Ast.from_set = "Emp1";
        projections = [ "name" ];
        where = Some (Ast.eq "salary" (Value.VInt 1));
      }
  in
  checki "no rows" 0 (List.length rows)

let test_retrieve_output_file_counted () =
  let db, _, _, _ = paper_db () in
  let res =
    Exec.retrieve db { Ast.from_set = "Emp1"; projections = [ "name" ]; where = None }
  in
  checkb "output pages" true (res.Exec.output_pages >= 1);
  checki "rows" 12 res.Exec.rows;
  Exec.drop_output db res.Exec.output_file

let test_retrieve_same_result_with_and_without_replication () =
  let db, _, _, _ = paper_db () in
  let q =
    {
      Ast.from_set = "Emp1";
      projections = [ "name"; "dept.name"; "dept.org.name" ];
      where = None;
    }
  in
  let before = Exec.retrieve_values db q in
  ignore (Lang.exec db "replicate Emp1.dept.name");
  ignore (Lang.exec db "replicate Emp1.dept.org.name using separate");
  let after = Exec.retrieve_values db q in
  checkb "identical results" true
    (List.equal (List.equal Value.equal) before after)

(* ------------------------------------------------------------------ *)
(* Replace                                                             *)

let test_replace_updates_and_propagates () =
  let db, _, depts, emps = paper_db () in
  ignore depts;
  ignore (Lang.exec db "replicate Emp1.dept.budget");
  let n =
    Exec.replace db
      {
        Ast.target_set = "Dept";
        assignments = [ ("budget", Ast.Const (Value.VInt 777)) ];
        rwhere = Some (Ast.eq "name" (Value.VString "dept-0"));
      }
  in
  checki "one dept updated" 1 n;
  checkv "propagated to employees" (Value.VInt 777)
    (Db.deref db ~set:"Emp1" emps.(0) "dept.budget");
  Db.check_integrity db

let test_replace_computed_rhs () =
  let db, _, _, _ = paper_db () in
  let n =
    Exec.replace db
      {
        Ast.target_set = "Emp1";
        assignments =
          [ ("salary", Ast.Computed (fun oid -> Value.VInt (1000 + oid.Oid.slot))) ];
        rwhere = None;
      }
  in
  checki "all employees" 12 n;
  Db.check_integrity db

(* ------------------------------------------------------------------ *)
(* Surface language                                                    *)

let test_lang_retrieve_paper_example () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.name");
  match
    Lang.exec db
      "retrieve (Emp1.name, Emp1.salary, Emp1.dept.name) where Emp1.salary > 100000"
  with
  | Lang.Rows rows ->
      (* salaries 50k + 10k*i for i in 0..11: strictly above 100k are i = 6..11 *)
      checki "rows" 6 (List.length rows);
      List.iter
        (fun row -> checki "three columns" 3 (List.length row))
        rows
  | _ -> Alcotest.fail "expected rows"

let test_lang_replace () =
  let db, _, _, _ = paper_db () in
  (match Lang.exec db {|replace (Dept.budget = 5) where Dept.name = "dept-1"|} with
  | Lang.Updated 1 -> ()
  | _ -> Alcotest.fail "expected Updated 1");
  match Lang.exec db {|retrieve (Dept.budget) where Dept.name = "dept-1"|} with
  | Lang.Rows [ [ Value.VInt 5 ] ] -> ()
  | _ -> Alcotest.fail "update not visible"

let test_lang_between_and_comparisons () =
  let db, _, _, _ = paper_db () in
  let count stmt =
    match Lang.exec db stmt with
    | Lang.Rows rows -> List.length rows
    | _ -> Alcotest.fail "expected rows"
  in
  checki "between" 3 (count "retrieve (Emp1.name) where Emp1.age between 25 and 27");
  checki "lt" 2 (count "retrieve (Emp1.name) where Emp1.age < 27");
  checki "ge" 11 (count "retrieve (Emp1.name) where Emp1.age >= 26");
  checki "eq" 1 (count "retrieve (Emp1.name) where Emp1.age = 30")

let test_lang_replication_modifiers () =
  let db, _, _, emps = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.budget using separate");
  ignore (Lang.exec db "replicate Emp1.dept.org.name collapsed");
  ignore (Lang.exec db "replicate Emp1.dept.name threshold 0");
  checki "separate hop" 1 (Db.deref_would_join db ~set:"Emp1" "dept.budget");
  checki "collapsed covered" 0 (Db.deref_would_join db ~set:"Emp1" "dept.org.name");
  checkv "value intact" (Value.VString "dept-0") (Db.deref db ~set:"Emp1" emps.(0) "dept.name");
  Db.check_integrity db

let test_lang_script () =
  let db = Db.create () in
  let outcomes =
    Lang.exec_script db
      {|
      -- the paper's schema
      define type DEPT (name: char[], budget: int);
      define type EMP (name: char[], salary: int, dept: ref DEPT);
      create Dept: {own ref DEPT};
      create Emp1: {own ref EMP}
      |}
  in
  checki "four statements" 4 (List.length outcomes)

let test_lang_errors () =
  let db, _, _, _ = paper_db () in
  List.iter
    (fun stmt ->
      try
        ignore (Lang.exec db stmt);
        Alcotest.failf "accepted %S" stmt
      with Lang.Parse_error _ -> ())
    [
      "frobnicate Emp1";
      "retrieve ()";
      "retrieve (Emp1.name) where Emp1.name ~ 3";
      "define type X (a: blob)";
      {|retrieve (Emp1.name) where Emp1.name < "x"|};
      "retrieve (Emp1.name, Dept.name)";
    ]


(* ------------------------------------------------------------------ *)
(* Predicates on path expressions (§3.3.4 associative lookups)         *)

let test_path_predicate_file_scan () =
  let db, _, _, _ = paper_db () in
  (* No index, no replication: evaluated by scan + functional joins. *)
  let rows =
    Exec.retrieve_values db
      {
        Ast.from_set = "Emp1";
        projections = [ "name" ];
        where = Some (Ast.eq "dept.name" (Value.VString "dept-1"));
      }
  in
  checki "matching employees" 4 (List.length rows)

let test_path_predicate_uses_path_index () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.org.name");
  ignore (Lang.exec db "build btree on Emp1.dept.org.name");
  let q =
    {
      Ast.from_set = "Emp1";
      projections = [ "name" ];
      where = Some (Ast.eq "dept.org.name" (Value.VString "acme"));
    }
  in
  (match (Exec.explain_retrieve db q).Exec.access with
  | Exec.Index_scan name ->
      Alcotest.(check string) "path index chosen" "btree_Emp1_dept_org_name" name
  | Exec.File_scan -> Alcotest.fail "path index not chosen");
  checki "all employees of acme" 12 (List.length (Exec.retrieve_values db q));
  (* Same answer without the index. *)
  let db2, _, _, _ = paper_db () in
  checki "scan agrees" 12 (List.length (Exec.retrieve_values db2 q))

let test_lang_path_predicate () =
  let db, _, _, _ = paper_db () in
  match Lang.exec db {|retrieve (Emp1.name) where Emp1.dept.name = "dept-0"|} with
  | Lang.Rows rows -> checki "rows" 4 (List.length rows)
  | _ -> Alcotest.fail "expected rows"

(* ------------------------------------------------------------------ *)
(* Aggregates, ordering, limits                                        *)

let test_aggregates () =
  let db, _, _, _ = paper_db () in
  let vals =
    Exec.aggregate db ~set:"Emp1" ~where:None
      [
        (Exec.Count, "name");
        (Exec.Sum, "salary");
        (Exec.Avg, "salary");
        (Exec.Min, "salary");
        (Exec.Max, "salary");
      ]
  in
  (* salaries are 50k + 10k*i, i = 0..11 *)
  Alcotest.(check (list string))
    "aggregate values"
    [ "12"; string_of_int (12 * 50_000 + 10_000 * 66); "105000"; "50000"; "160000" ]
    (List.map Value.to_string vals)

let test_aggregate_with_predicate_and_path () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.name");
  let vals =
    Exec.aggregate db ~set:"Emp1"
      ~where:(Some { Ast.pfield = "salary"; lo = Some (Value.VInt 100_000); hi = None })
      [ (Exec.Count, "dept.name"); (Exec.Max, "dept.name") ]
  in
  checki "count over path" 7 (Value.as_int (List.nth vals 0));
  checkb "max over strings" true (match List.nth vals 1 with Value.VString _ -> true | _ -> false)

let test_aggregate_empty_selection () =
  let db, _, _, _ = paper_db () in
  let vals =
    Exec.aggregate db ~set:"Emp1"
      ~where:(Some (Ast.eq "salary" (Value.VInt 1)))
      [ (Exec.Count, "name"); (Exec.Sum, "salary"); (Exec.Min, "salary") ]
  in
  Alcotest.(check (list string)) "empty aggregates" [ "0"; "null"; "null" ]
    (List.map Value.to_string vals)

(* Every expression a query reads is compiled before its scan, so a bad one
   is rejected even when the predicate selects no rows. *)
let test_bad_expression_fails_before_scan () =
  let db, _, _, _ = paper_db () in
  let nothing = Some (Ast.eq "salary" (Value.VInt 1)) in
  let q projections = { Ast.from_set = "Emp1"; projections; where = nothing } in
  List.iter
    (fun (what, run) ->
      match run () with
      | () -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [
      ( "unknown projection",
        fun () -> ignore (Exec.retrieve_values db (q [ "name"; "nosuch" ])) );
      ( "non-reference step",
        fun () -> ignore (Exec.retrieve_values db (q [ "salary.x" ])) );
      ( "unknown order-by key",
        fun () ->
          ignore (Exec.retrieve_sorted db (q [ "name" ]) ~order_by:"nosuch" ())
      );
      ( "unknown aggregate argument",
        fun () ->
          ignore
            (Exec.aggregate db ~set:"Emp1" ~where:nothing
               [ (Exec.Count, "nosuch") ]) );
      ( "unknown group key",
        fun () ->
          ignore
            (Exec.group_by db ~set:"Emp1" ~where:nothing ~key:"nosuch"
               [ (Exec.Count, "name") ]) );
      ( "explain of an unknown plain field",
        fun () ->
          ignore
            (Exec.explain_retrieve db { (q [ "nosuch" ]) with Ast.where = None })
      );
    ]

let test_retrieve_sorted_and_limit () =
  let db, _, _, _ = paper_db () in
  let rows =
    Exec.retrieve_sorted db
      { Ast.from_set = "Emp1"; projections = [ "name" ]; where = None }
      ~order_by:"salary" ~descending:true ~limit:3 ()
  in
  Alcotest.(check (list (list string)))
    "top three earners"
    [ [ {|"emp-11"|} ]; [ {|"emp-10"|} ]; [ {|"emp-9"|} ] ]
    (List.map (List.map Value.to_string) rows)

let test_lang_aggregates () =
  let db, _, _, _ = paper_db () in
  (match Lang.exec db "retrieve (count(Emp1.name), avg(Emp1.salary)) where Emp1.salary >= 100000" with
  | Lang.Rows [ [ Value.VInt 7; Value.VInt 130000 ] ] -> ()
  | Lang.Rows rows ->
      Alcotest.failf "unexpected rows: %s"
        (String.concat ";"
           (List.map (fun r -> String.concat "," (List.map Value.to_string r)) rows))
  | _ -> Alcotest.fail "expected rows");
  match Lang.exec db "retrieve (Emp1.name) order by Emp1.salary desc limit 2" with
  | Lang.Rows [ [ Value.VString "emp-11" ]; [ Value.VString "emp-10" ] ] -> ()
  | _ -> Alcotest.fail "order by desc limit failed"

let test_lang_aggregate_mix_rejected () =
  let db, _, _, _ = paper_db () in
  try
    ignore (Lang.exec db "retrieve (Emp1.name, count(Emp1.name))");
    Alcotest.fail "mixed projections accepted"
  with Lang.Parse_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Group-by, insert/delete statements                                  *)

let test_group_by_api () =
  let db, _, _, _ = paper_db () in
  let groups =
    Exec.group_by db ~set:"Emp1" ~where:None ~key:"dept.name"
      [ (Exec.Count, "name"); (Exec.Max, "salary") ]
  in
  (* 12 employees round-robin over three departments. *)
  checki "three groups" 3 (List.length groups);
  List.iter
    (fun (_, vals) -> checki "four per group" 4 (Value.as_int (List.nth vals 0)))
    groups;
  (* Keys ascend. *)
  let keys = List.map fst groups in
  checkb "sorted keys" true (keys = List.sort Value.compare keys)

let test_group_by_replicated_path_no_joins () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.org.name");
  checki "grouping key fully covered" 0
    (Db.deref_would_join db ~set:"Emp1" "dept.org.name");
  match Lang.exec db "retrieve (count(Emp1.name)) group by Emp1.dept.org.name" with
  | Lang.Rows [ [ Value.VString "acme"; Value.VInt 12 ] ] -> ()
  | Lang.Rows rows ->
      Alcotest.failf "unexpected: %s"
        (String.concat ";"
           (List.map (fun r -> String.concat "," (List.map Value.to_string r)) rows))
  | _ -> Alcotest.fail "expected rows"

let test_lang_group_by_validation () =
  let db, _, _, _ = paper_db () in
  List.iter
    (fun stmt ->
      try
        ignore (Lang.exec db stmt);
        Alcotest.failf "accepted %S" stmt
      with Lang.Parse_error _ -> ())
    [
      "retrieve (Emp1.name) group by Emp1.dept.name";  (* no aggregate *)
      "retrieve (Emp1.age, count(Emp1.name)) group by Emp1.dept.name";  (* col <> key *)
      "retrieve (count(Emp1.name)) group by Emp1.dept.name limit 2";
    ]

let test_lang_insert_with_ref_lookup () =
  let db, _, _, _ = paper_db () in
  (match
     Lang.exec db {|insert into Emp1 values ("zoe", 28, 70000, ref(Dept.name = "dept-2"))|}
   with
  | Lang.Inserted _ -> ()
  | _ -> Alcotest.fail "expected Inserted");
  checki "13 employees now" 13 (Db.set_size db "Emp1");
  (match Lang.exec db {|retrieve (Emp1.dept.name) where Emp1.name = "zoe"|} with
  | Lang.Rows [ [ Value.VString "dept-2" ] ] -> ()
  | _ -> Alcotest.fail "reference not resolved");
  (* Ambiguous and empty lookups rejected. *)
  List.iter
    (fun stmt ->
      try
        ignore (Lang.exec db stmt);
        Alcotest.failf "accepted %S" stmt
      with Lang.Parse_error _ -> ())
    [
      {|insert into Emp1 values ("x", 1, 1, ref(Dept.name = "nope"))|};
      {|insert into Emp1 values ("x", 1, 1, ref(Dept.budget >= 0))|};
    ]

let test_lang_delete_from () =
  let db, _, _, _ = paper_db () in
  (match Lang.exec db "delete from Emp1 where Emp1.salary >= 120000" with
  | Lang.Deleted 5 -> ()
  | Lang.Deleted n -> Alcotest.failf "deleted %d" n
  | _ -> Alcotest.fail "expected Deleted");
  checki "7 left" 7 (Db.set_size db "Emp1");
  Db.check_integrity db;
  (match Lang.exec db "delete from Emp1" with
  | Lang.Deleted 7 -> ()
  | _ -> Alcotest.fail "unfiltered delete");
  checki "empty" 0 (Db.set_size db "Emp1")

let test_delete_from_respects_replication_protection () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.name");
  try
    ignore (Lang.exec db "delete from Dept");
    Alcotest.fail "deleted referenced departments"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

module Stats = Fieldrep_storage.Stats
module Pager = Fieldrep_storage.Pager
module Heap_file = Fieldrep_storage.Heap_file
module Record = Fieldrep_model.Record

let file_bytes db file =
  let pager = Db.pager db in
  Pager.flush pager;
  String.concat ""
    (List.init (Pager.page_count pager file) (fun page ->
         Bytes.to_string (Fieldrep_storage.Disk.dump_page (Pager.disk pager) ~file ~page)))

(* A retrieve's output against [Heap_file.insert] of each encoded row into
   the first output file of a twin database, on 256-byte pages.  Shape 0
   is a row that fills a fresh page exactly, 1 one byte too large for it
   (it chains), 2 one of 100-400 bytes (some chain), 3 a small one. *)
let output_matches_inserts shapes =
  let strings =
    let row len = Record.encoded_size (Record.make ~type_tag:0 [| Value.VString (String.make len 'x') |]) in
    let fill = 256 - 4 - 4 - 9 in
    let exact = fill - row 0 in
    assert (row exact = fill);
    List.mapi
      (fun i (shape, n) ->
        let len = match shape with 0 -> exact | 1 -> exact + 1 | 2 -> 100 + (n mod 301) | _ -> n mod 60 in
        String.init len (fun j -> Char.chr (97 + ((i + j) mod 26))))
      shapes
  in
  let twin () =
    let db = Db.create ~page_size:256 ~frames:64 () in
    ignore (Lang.exec db "define type T (s: char[])");
    ignore (Lang.exec db "create Ts: {own ref T}");
    List.iter (fun str -> ignore (Db.insert db ~set:"Ts" [ Value.VString str ])) strings;
    db
  in
  let db = twin () and reference = twin () in
  let q = { Ast.from_set = "Ts"; projections = [ "s" ]; where = None } in
  let res = Exec.retrieve db q in
  let out = Heap_file.create_output (Db.pager reference) in
  List.iter
    (fun str ->
      ignore (Heap_file.insert out (Record.encode (Record.make ~type_tag:0 [| Value.VString str |]))))
    strings;
  res.Exec.rows = List.length strings
  && res.Exec.output_file = Heap_file.file_id out
  && res.Exec.output_pages = Heap_file.page_count out
  && String.equal (file_bytes db res.Exec.output_file) (file_bytes reference res.Exec.output_file)
  && Exec.retrieve_values db q = List.map (fun str -> [ Value.VString str ]) strings

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"retrieve output lands as one-by-one inserts" ~count:60
      (list_of_size Gen.(0 -- 30) (pair (int_range 0 3) (int_range 0 400)))
      output_matches_inserts;
    Test.make ~name:"index scan equals file scan" ~count:20
      (pair (int_range 0 2000) (int_range 0 2000))
      (fun (a, b) ->
        let lo = min a b and hi = max a b in
        let built =
          Wgen.build { Wgen.default_spec with Wgen.s_count = 150; sharing = 2; seed = a + (b * 7) }
        in
        let db = built.Wgen.db in
        let q where =
          Exec.retrieve_values db
            {
              Ast.from_set = "R";
              projections = [ "field_r"; "sref.repfield" ];
              where;
            }
          |> List.sort compare
        in
        let with_index =
          q (Some (Ast.between "field_r" (Value.VInt lo) (Value.VInt hi)))
        in
        (* Force a file scan by filtering manually. *)
        let all = q None in
        let filtered =
          List.filter
            (fun row ->
              match row with
              | Value.VInt k :: _ -> k >= lo && k <= hi
              | _ -> false)
            all
        in
        with_index = filtered);
  ]

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

(* A retrieve row in the shape of the paper's read query under separate
   replication: an index hit on R, two plain projections and one S' hop,
   with the tuple encoded once into a buffer reused across rows and
   stored a page at a time, so no row builds an OID for its output.  The
   pool holds all the data, so only the row's own work is counted: 70
   words here, 76 when each row was inserted on its own. *)
let test_retrieve_row_words () =
  let built =
    Wgen.build
      {
        Wgen.default_spec with
        Wgen.s_count = 300;
        sharing = 2;
        strategy = Fieldrep_costmodel.Params.Separate;
        frames = 1024;
        backend = Some Db.Mem;
        seed = 11;
      }
  in
  let db = built.Wgen.db in
  let rows = 200 in
  let q =
    {
      Ast.from_set = "R";
      projections = [ "field_r"; "pad"; "sref.repfield" ];
      where = Some (Ast.between "field_r" (Value.VInt 100) (Value.VInt (100 + rows - 1)));
    }
  in
  let run () =
    let res = Exec.retrieve db q in
    Exec.drop_output db res.Exec.output_file;
    res.Exec.rows
  in
  checki "rows" rows (run ());
  let queries = 20 in
  let w0 = Gc.minor_words () in
  for _ = 1 to queries do
    ignore (run ())
  done;
  let per_row = (Gc.minor_words () -. w0) /. float_of_int (queries * rows) in
  if per_row > 75. then Alcotest.failf "%.1f words per retrieve row (at most 75)" per_row

(* ------------------------------------------------------------------ *)
(* Pool lookups                                                        *)

let lookups db f =
  let stats = Pager.stats (Db.pager db) in
  let count () = Stats.get stats Stats.Buffer_hits + Stats.get stats Stats.Page_reads in
  let before = count () in
  let result = f () in
  (count () - before, result)

let separate_db () =
  (Wgen.build
     {
       Wgen.default_spec with
       Wgen.s_count = 300;
       sharing = 2;
       strategy = Fieldrep_costmodel.Params.Separate;
       frames = 1024;
       backend = Some Db.Mem;
       seed = 11;
     })
    .Wgen.db

let r_range lo hi = Some (Ast.between "field_r" (Value.VInt lo) (Value.VInt hi))

let index_lookups db lo hi =
  fst
    (lookups db (fun () ->
         Db.index_range db ~index:Wgen.r_index ~lo:(Fieldrep_btree.Key.Int lo)
           ~hi:(Fieldrep_btree.Key.Int hi) ~init:[] ~f:(fun acc _ oid -> oid :: acc)))

(* A warm retrieve of n rows under separate replication reads each R
   object and each S' object once, walks the index, and pins each output
   page once: its rows are handed to the output file a page's worth at a
   time, not inserted one by one. *)
let test_retrieve_pins_per_output_page () =
  let db = separate_db () in
  let rows = 200 in
  let q = { Ast.from_set = "R"; projections = [ "field_r"; "pad"; "sref.repfield" ]; where = r_range 100 (100 + rows - 1) } in
  Exec.drop_output db (Exec.retrieve db q).Exec.output_file;
  let index = index_lookups db 100 (100 + rows - 1) in
  let pins, res = lookups db (fun () -> Exec.retrieve db q) in
  checki "rows" rows res.Exec.rows;
  checkb "several output pages" true (res.Exec.output_pages > 2);
  checki "R + S' + index + output pages" (rows + rows + index + res.Exec.output_pages) pins;
  Exec.drop_output db res.Exec.output_file

(* An index replace takes its targets from the index without reading
   them, so it costs the index walk plus what [Db.update_field] costs on
   the same OIDs in the same order; twin databases take the two. *)
let test_replace_reads_targets_once () =
  let lo = 40 and hi = 79 in
  let db = separate_db () and reference = separate_db () in
  let pins, n =
    lookups db (fun () ->
        Exec.replace db
          { Ast.target_set = "R"; assignments = [ ("pad", Ast.Const (Value.VString "p")) ]; rwhere = r_range lo hi })
  in
  checki "targets" (hi - lo + 1) n;
  let index = index_lookups reference lo hi in
  let oids =
    Db.index_range reference ~index:Wgen.r_index ~lo:(Fieldrep_btree.Key.Int lo)
      ~hi:(Fieldrep_btree.Key.Int hi) ~init:[] ~f:(fun acc _ oid -> oid :: acc)
  in
  let oids = if Db.batching reference then List.sort Oid.compare oids else List.rev oids in
  let updates, () =
    lookups reference (fun () ->
        List.iter (fun oid -> Db.update_field reference ~set:"R" oid ~field:"pad" (Value.VString "p")) oids)
  in
  checki "index walk + the updates" (index + updates) pins;
  Db.check_integrity db

let () =
  Alcotest.run "fieldrep_query"
    [
      ( "planner",
        [
          Alcotest.test_case "picks index" `Quick test_planner_picks_index;
          Alcotest.test_case "join counts follow replication" `Quick
            test_planner_join_counts_follow_replication;
        ] );
      ( "retrieve",
        [
          Alcotest.test_case "with predicate" `Quick test_retrieve_with_predicate;
          Alcotest.test_case "full scan" `Quick test_retrieve_full_scan;
          Alcotest.test_case "empty result" `Quick test_retrieve_empty_result;
          Alcotest.test_case "output file" `Quick test_retrieve_output_file_counted;
          Alcotest.test_case "replication transparent" `Quick
            test_retrieve_same_result_with_and_without_replication;
        ] );
      ( "allocation",
        [ Alcotest.test_case "retrieve row words" `Quick test_retrieve_row_words ] );
      ( "pool lookups",
        [
          Alcotest.test_case "retrieve pins per output page" `Quick
            test_retrieve_pins_per_output_page;
          Alcotest.test_case "replace reads each target once" `Quick
            test_replace_reads_targets_once;
        ] );
      ( "replace",
        [
          Alcotest.test_case "updates and propagates" `Quick test_replace_updates_and_propagates;
          Alcotest.test_case "computed rhs" `Quick test_replace_computed_rhs;
        ] );
      ( "path predicates",
        [
          Alcotest.test_case "file scan" `Quick test_path_predicate_file_scan;
          Alcotest.test_case "uses path index" `Quick test_path_predicate_uses_path_index;
          Alcotest.test_case "language" `Quick test_lang_path_predicate;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "basic aggregates" `Quick test_aggregates;
          Alcotest.test_case "predicate + path" `Quick test_aggregate_with_predicate_and_path;
          Alcotest.test_case "empty selection" `Quick test_aggregate_empty_selection;
          Alcotest.test_case "bad expression fails before the scan" `Quick
            test_bad_expression_fails_before_scan;
          Alcotest.test_case "sorted + limit" `Quick test_retrieve_sorted_and_limit;
          Alcotest.test_case "language aggregates" `Quick test_lang_aggregates;
          Alcotest.test_case "mixed projections rejected" `Quick
            test_lang_aggregate_mix_rejected;
        ] );
      ( "group-by and dml statements",
        [
          Alcotest.test_case "group_by api" `Quick test_group_by_api;
          Alcotest.test_case "group by replicated path" `Quick
            test_group_by_replicated_path_no_joins;
          Alcotest.test_case "group-by validation" `Quick test_lang_group_by_validation;
          Alcotest.test_case "insert with ref lookup" `Quick test_lang_insert_with_ref_lookup;
          Alcotest.test_case "delete from" `Quick test_lang_delete_from;
          Alcotest.test_case "delete respects protection" `Quick
            test_delete_from_respects_replication_protection;
        ] );
      ( "language",
        [
          Alcotest.test_case "paper retrieve" `Quick test_lang_retrieve_paper_example;
          Alcotest.test_case "replace" `Quick test_lang_replace;
          Alcotest.test_case "comparisons" `Quick test_lang_between_and_comparisons;
          Alcotest.test_case "replication modifiers" `Quick test_lang_replication_modifiers;
          Alcotest.test_case "script" `Quick test_lang_script;
          Alcotest.test_case "errors" `Quick test_lang_errors;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
