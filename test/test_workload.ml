(* Tests for the workload layer: the R/S database generator (layout
   properties the cost model assumes) and the measurement harness,
   culminating in model-vs-measured validation within tight tolerances —
   the experiment that closes the loop between the paper's analysis (§6)
   and this implementation. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Heap_file = Fieldrep_storage.Heap_file
module Pager = Fieldrep_storage.Pager
module Disk = Fieldrep_storage.Disk
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Params = Fieldrep_costmodel.Params
module Cost = Fieldrep_costmodel.Cost
module Gen = Fieldrep_workload.Gen
module Mix = Fieldrep_workload.Mix

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let small_spec =
  { Gen.default_spec with Gen.s_count = 400; sharing = 2; seed = 5 }

(* ------------------------------------------------------------------ *)
(* Generator layout properties                                         *)

let test_gen_counts () =
  let b = Gen.build small_spec in
  checki "|S|" 400 (Db.set_size b.Gen.db "S");
  checki "|R| = f|S|" 800 (Db.set_size b.Gen.db "R")

let test_gen_sharing_exact () =
  let b = Gen.build { small_spec with Gen.sharing = 3 } in
  (* Every S object must be referenced exactly f times. *)
  let counts = Oid.Table.create 512 in
  Db.scan b.Gen.db ~set:"R" (fun _ record ->
      match Db.field_value b.Gen.db ~set:"R" record "sref" with
      | Value.VRef s ->
          Oid.Table.replace counts s (1 + Option.value ~default:0 (Oid.Table.find_opt counts s))
      | _ -> Alcotest.fail "null sref");
  checki "all S referenced" 400 (Oid.Table.length counts);
  Oid.Table.iter (fun _ c -> checki "exactly f" 3 c) counts

let test_gen_keys_cover_range () =
  let b = Gen.build small_spec in
  let seen = Hashtbl.create 1024 in
  Db.scan b.Gen.db ~set:"R" (fun _ record ->
      match Db.field_value b.Gen.db ~set:"R" record "field_r" with
      | Value.VInt k ->
          checkb "in range" true (k >= 0 && k < 800);
          checkb "unique" false (Hashtbl.mem seen k);
          Hashtbl.add seen k ()
      | _ -> Alcotest.fail "bad key");
  checki "all keys" 800 (Hashtbl.length seen)

let test_gen_clustered_physical_order () =
  let b = Gen.build { small_spec with Gen.clustering = Params.Clustered } in
  let prev = ref (-1) in
  Db.scan b.Gen.db ~set:"R" (fun _ record ->
      match Db.field_value b.Gen.db ~set:"R" record "field_r" with
      | Value.VInt k ->
          checkb "ascending" true (k > !prev);
          prev := k
      | _ -> Alcotest.fail "bad key")

let test_gen_deterministic () =
  let b1 = Gen.build small_spec in
  let b2 = Gen.build small_spec in
  Alcotest.(check (array int)) "same keys" b1.Gen.r_keys b2.Gen.r_keys;
  checki "same pages" (Db.set_pages b1.Gen.db "R") (Db.set_pages b2.Gen.db "R")

let test_gen_no_fragmentation_after_replication () =
  (* The PCTFREE reserve must absorb the hidden-field growth: no object may
     spill into continuation segments when replication is built. *)
  List.iter
    (fun strategy ->
      let b = Gen.build { small_spec with Gen.strategy = strategy } in
      let eng = Db.engine b.Gen.db in
      let r_file = eng.Fieldrep_replication.Engine.file_of_set "R" in
      let s_file = eng.Fieldrep_replication.Engine.file_of_set "S" in
      checki "R unfragmented" 0 (Heap_file.chained_count r_file);
      checki "S unfragmented" 0 (Heap_file.chained_count s_file);
      Db.check_integrity b.Gen.db)
    [ Params.Inplace; Params.Separate ]

let test_gen_replication_consistent () =
  List.iter
    (fun strategy ->
      let b = Gen.build { small_spec with Gen.strategy = strategy; Gen.sharing = 4 } in
      Db.check_integrity b.Gen.db;
      (* Spot-check a few replicated values against the actual join. *)
      let n = ref 0 in
      let repfield = Db.expr b.Gen.db ~set:"R" "sref.repfield" in
      Db.scan b.Gen.db ~set:"R" (fun _ record ->
          incr n;
          if !n <= 25 then begin
            let replicated = Db.eval b.Gen.db repfield record in
            let manual =
              match Db.field_value b.Gen.db ~set:"R" record "sref" with
              | Value.VRef s ->
                  Db.field_value b.Gen.db ~set:"S" (Db.get b.Gen.db ~set:"S" s) "repfield"
              | _ -> Value.VNull
            in
            checkb "replicated equals joined" true (Value.equal replicated manual)
          end))
    [ Params.Inplace; Params.Separate ]

let test_employee_db () =
  let db = Gen.employee_db ~norgs:3 ~ndepts:10 ~nemps:100 () in
  checki "orgs" 3 (Db.set_size db "Org");
  checki "depts" 10 (Db.set_size db "Dept");
  checki "emps" 100 (Db.set_size db "Emp1");
  Db.check_integrity db

(* ------------------------------------------------------------------ *)
(* Measurement harness                                                 *)

let test_measure_deterministic () =
  (* Two identically-built databases measure identically.  (Measuring the
     same database twice would not: the second run's updates would write
     the values already present and decay into no-ops.) *)
  let m1 = Mix.measure (Gen.build small_spec) ~read_sel:0.005 ~update_sel:0.0025 ~queries:5 () in
  let m2 = Mix.measure (Gen.build small_spec) ~read_sel:0.005 ~update_sel:0.0025 ~queries:5 () in
  Alcotest.(check (float 1e-9)) "read io stable" m1.Mix.avg_read_io m2.Mix.avg_read_io;
  Alcotest.(check (float 1e-9)) "update io stable" m1.Mix.avg_update_io m2.Mix.avg_update_io

let test_mixed_cost () =
  let m =
    { Mix.read_queries = 1; update_queries = 1; avg_read_io = 10.0; avg_update_io = 30.0 }
  in
  Alcotest.(check (float 1e-9)) "pure read" 10.0 (Mix.mixed_cost m ~update_prob:0.0);
  Alcotest.(check (float 1e-9)) "pure update" 30.0 (Mix.mixed_cost m ~update_prob:1.0);
  Alcotest.(check (float 1e-9)) "mix" 20.0 (Mix.mixed_cost m ~update_prob:0.5)

(* ------------------------------------------------------------------ *)
(* Model-vs-measured validation                                        *)

let within_tolerance ~rel ~abs measured model =
  Float.abs (measured -. model) <= abs +. (rel *. Float.max measured model)

let validate_case ~sharing ~strategy ~clustering =
  let spec =
    { Gen.default_spec with Gen.s_count = 800; sharing; strategy; clustering; seed = 11 }
  in
  let c = Mix.validate spec ~read_sel:0.002 ~update_sel:0.00125 ~queries:8 () in
  checkb
    (Printf.sprintf "read io: measured %.1f vs model %.1f" c.Mix.measured_read c.Mix.model_read)
    true
    (within_tolerance ~rel:0.25 ~abs:3.0 c.Mix.measured_read c.Mix.model_read);
  checkb
    (Printf.sprintf "update io: measured %.1f vs model %.1f" c.Mix.measured_update
       c.Mix.model_update)
    true
    (within_tolerance ~rel:0.25 ~abs:3.0 c.Mix.measured_update c.Mix.model_update)

let test_validate_no_replication () =
  validate_case ~sharing:1 ~strategy:Params.No_replication ~clustering:Params.Unclustered;
  validate_case ~sharing:5 ~strategy:Params.No_replication ~clustering:Params.Unclustered

let test_validate_inplace () =
  validate_case ~sharing:1 ~strategy:Params.Inplace ~clustering:Params.Unclustered;
  validate_case ~sharing:5 ~strategy:Params.Inplace ~clustering:Params.Unclustered

let test_validate_separate () =
  validate_case ~sharing:1 ~strategy:Params.Separate ~clustering:Params.Unclustered;
  validate_case ~sharing:5 ~strategy:Params.Separate ~clustering:Params.Unclustered

let test_validate_clustered () =
  validate_case ~sharing:5 ~strategy:Params.No_replication ~clustering:Params.Clustered;
  validate_case ~sharing:5 ~strategy:Params.Inplace ~clustering:Params.Clustered;
  validate_case ~sharing:5 ~strategy:Params.Separate ~clustering:Params.Clustered

(* The paper's qualitative ordering holds on the real system, not just in
   the equations: at low update probability in-place wins reads decisively;
   separate keeps updates cheap as f grows. *)
let test_measured_strategy_ordering () =
  let measure strategy =
    let spec = { Gen.default_spec with Gen.s_count = 800; sharing = 8; strategy; seed = 3 } in
    let b = Gen.build spec in
    Mix.measure b ~read_sel:0.002 ~update_sel:0.00125 ~queries:6 ()
  in
  let none = measure Params.No_replication in
  let inplace = measure Params.Inplace in
  let separate = measure Params.Separate in
  checkb "in-place reads cheapest" true
    (inplace.Mix.avg_read_io < separate.Mix.avg_read_io
    && separate.Mix.avg_read_io < none.Mix.avg_read_io);
  checkb "no-replication updates cheapest" true
    (none.Mix.avg_update_io < separate.Mix.avg_update_io
    && separate.Mix.avg_update_io < inplace.Mix.avg_update_io)

(* A build has no deletes, so no page qualifies for reuse and every file —
   data sets, indexes, link and S' files — is laid down exactly as plain
   appending lays it (the layouts the cost-model validation measures).
   Pinned by a digest of every page. *)
let test_gen_layout_pinned () =
  List.iter
    (fun (strategy, pages, digest) ->
      let db =
        (Gen.build
           {
             Gen.default_spec with
             Gen.s_count = 200;
             sharing = 3;
             strategy;
             page_size = 1024;
             frames = 64;
             seed = 3;
           })
          .Gen.db
      in
      let pager = Db.pager db in
      Pager.flush pager;
      let disk = Pager.disk pager in
      let b = Buffer.create 65536 in
      List.iter
        (fun id ->
          for page = 0 to Disk.page_count disk id - 1 do
            Buffer.add_bytes b (Disk.dump_page disk ~file:id ~page)
          done)
        (List.sort compare (Disk.file_ids disk));
      checki "pages" pages (Disk.total_pages disk);
      Alcotest.(check string) "page digest" digest (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      (Params.No_replication, 126, "3acbf471f1fcabe1027a75310f9184c0");
      (Params.Inplace, 163, "15f7fa153f84ffe04b9f37e30c241389");
      (Params.Separate, 156, "b5741a7101ab67e09f1eeba6afdc222e");
    ]

let () =
  Alcotest.run "fieldrep_workload"
    [
      ( "generator",
        [
          Alcotest.test_case "counts" `Quick test_gen_counts;
          Alcotest.test_case "exact sharing" `Quick test_gen_sharing_exact;
          Alcotest.test_case "keys cover range" `Quick test_gen_keys_cover_range;
          Alcotest.test_case "clustered physical order" `Quick test_gen_clustered_physical_order;
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "no fragmentation" `Quick test_gen_no_fragmentation_after_replication;
          Alcotest.test_case "layout pinned" `Quick test_gen_layout_pinned;
          Alcotest.test_case "replication consistent" `Quick test_gen_replication_consistent;
          Alcotest.test_case "employee db" `Quick test_employee_db;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "mixed cost" `Quick test_mixed_cost;
        ] );
      ( "validation",
        [
          Alcotest.test_case "no replication" `Slow test_validate_no_replication;
          Alcotest.test_case "in-place" `Slow test_validate_inplace;
          Alcotest.test_case "separate" `Slow test_validate_separate;
          Alcotest.test_case "clustered" `Slow test_validate_clustered;
          Alcotest.test_case "strategy ordering" `Slow test_measured_strategy_ordering;
        ] );
    ]
