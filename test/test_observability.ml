(* Tests for observability (per-structure I/O attribution) and the
   referential-integrity audit. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Pager = Fieldrep_storage.Pager
module Stats = Fieldrep_storage.Stats
module Heap_file = Fieldrep_storage.Heap_file
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ast = Fieldrep_query.Ast
module Exec = Fieldrep_query.Exec
module Gen = Fieldrep_workload.Gen

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let vstr s = Value.VString s

let test_per_file_stats () =
  let stats = Stats.create () in
  Stats.record_read stats ~file:3;
  Stats.record_read stats ~file:3;
  Stats.record_write stats ~file:3;
  Stats.record_read stats ~file:7;
  Alcotest.(check (pair int int)) "file 3" (2, 1) (Stats.file_io stats ~file:3);
  Alcotest.(check (pair int int)) "file 7" (1, 0) (Stats.file_io stats ~file:7);
  Alcotest.(check (pair int int)) "untouched" (0, 0) (Stats.file_io stats ~file:9);
  checki "reads counted" 3 stats.Stats.page_reads;
  checki "writes counted" 1 stats.Stats.page_writes;
  Stats.reset stats;
  Alcotest.(check (pair int int)) "reset" (0, 0) (Stats.file_io stats ~file:3)

(* Every counter holds a different value: its rank in field order. *)
let distinct_block () =
  {
    Stats.page_reads = 1;
    page_writes = 2;
    buffer_hits = 3;
    pages_allocated = 4;
    objects_read = 5;
    objects_written = 6;
    wal_appends = 7;
    wal_bytes = 8;
    recovery_replays = 9;
    txn_commits = 10;
    txn_aborts = 11;
    lock_waits = 12;
    deadlocks = 13;
    undo_applied = 14;
    checksum_failures = 15;
    scrub_pages = 16;
    repairs = 17;
    degraded_reads = 18;
    read_retries = 19;
    failed_reads = 20;
    wal_flushes = 21;
    frames_shipped = 22;
    frames_applied = 23;
    acks_waited = 24;
    replica_lag_bytes = 25;
    maint_steps = 26;
    maint_pages_walked = 27;
    maint_lock_yields = 28;
    maint_backfill_pending = 29;
    peer_deaths = 30;
    ack_demotions = 31;
    heartbeats_missed = 32;
    failovers = 33;
    reconnects = 34;
    deadlock_upgrades = 35;
    by_file = Stats.File_table.create 1;
  }

(* The printed form is pinned: tools and logs parse it. *)
let test_pp_pinned () =
  Alcotest.(check string)
    "pp"
    "reads=1 writes=2 hits=3 allocated=4 obj_read=5 obj_written=6 \
     wal_appends=7 wal_bytes=8 wal_flushes=21 replays=9 commits=10 aborts=11 \
     lock_waits=12 deadlocks=13 undone=14 checksum_failures=15 scrub_pages=16 \
     repairs=17 degraded_reads=18 read_retries=19 failed_reads=20 \
     frames_shipped=22 frames_applied=23 acks_waited=24 replica_lag_bytes=25 \
     maint_steps=26 maint_pages_walked=27 maint_lock_yields=28 \
     maint_backfill_pending=29 peer_deaths=30 ack_demotions=31 \
     heartbeats_missed=32 failovers=33 reconnects=34 deadlock_upgrades=35"
    (Format.asprintf "%a" Stats.pp (distinct_block ()))

let test_table_covers_every_counter () =
  let s = distinct_block () in
  Alcotest.(check (list int))
    "each field read exactly once" (List.init 35 succ)
    (List.sort compare (List.map (fun (c, _, _) -> Stats.get s c) Stats.all));
  let names = List.map (fun (_, name, _) -> name) Stats.all in
  checki "names distinct" 35 (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string))
    "gauges"
    [ "replica_lag_bytes"; "maint_backfill_pending" ]
    (List.filter_map
       (fun (_, name, kind) -> if kind = Stats.Gauge then Some name else None)
       Stats.all)

let test_grand_sums_blocks () =
  let g0 = Stats.copy Stats.grand in
  let a = Stats.create () and b = Stats.create () in
  Stats.bump a Stats.Repairs;
  Stats.add b Stats.Repairs 2;
  Stats.bump b Stats.Wal_flushes;
  let d = Stats.diff Stats.grand g0 in
  checki "repairs of both blocks" 3 d.Stats.repairs;
  checki "flushes" 1 d.Stats.wal_flushes;
  checki "block a alone" 1 a.Stats.repairs

let test_diff_keeps_gauges () =
  let s = Stats.create () in
  Stats.add s Stats.Wal_bytes 10;
  Stats.set s Stats.Replica_lag_bytes 7;
  Stats.set s Stats.Maint_backfill_pending 5;
  let before = Stats.copy s in
  Stats.add s Stats.Wal_bytes 4;
  Stats.set s Stats.Replica_lag_bytes 9;
  let d = Stats.diff s before in
  checki "counter is a delta" 4 d.Stats.wal_bytes;
  checki "changed gauge is current" 9 d.Stats.replica_lag_bytes;
  checki "unchanged gauge is current" 5 d.Stats.maint_backfill_pending

let test_reset_spares_grand () =
  let s = Stats.create () in
  Stats.bump s Stats.Failovers;
  let g = Stats.copy Stats.grand in
  Stats.reset s;
  checki "block reset" 0 s.Stats.failovers;
  List.iter
    (fun (c, name, _) -> checki name (Stats.get g c) (Stats.get Stats.grand c))
    Stats.all

let test_io_breakdown_attributes_structures () =
  let built =
    Gen.build
      { Gen.default_spec with Gen.s_count = 400; sharing = 4; strategy = Fieldrep_costmodel.Params.Inplace }
  in
  let db = built.Gen.db in
  (* A cold update query touches the S index, S, the link file, and R (for
     propagation) — the breakdown must name each structure. *)
  Pager.run_cold (Db.pager db) (fun () ->
      ignore
        (Exec.replace db
           {
             Ast.target_set = "S";
             assignments = [ ("repfield", Ast.Const (vstr "xxxxxxxxxxxxxxxxxxxx")) ];
             rwhere = Some (Ast.eq "field_s" (Value.VInt 7));
           }));
  let breakdown = Db.io_breakdown db in
  let labels = List.map (fun (l, _, _) -> l) breakdown in
  let has prefix =
    List.exists (fun l -> String.length l >= String.length prefix
                          && String.sub l 0 (String.length prefix) = prefix) labels
  in
  checkb "touches S" true (has "set S");
  checkb "touches R (propagation)" true (has "set R");
  checkb "touches the S index" true (has ("index " ^ Gen.s_index));
  checkb "touches a link file" true (has "link file");
  (* The breakdown sums to the global counters. *)
  let stats = Db.stats db in
  let sum_r, sum_w =
    List.fold_left (fun (r, w) (_, r', w') -> (r + r', w + w')) (0, 0) breakdown
  in
  checki "reads add up" stats.Stats.page_reads sum_r;
  checki "writes add up" stats.Stats.page_writes sum_w

let test_breakdown_read_query_strategies () =
  (* A read query under in-place touches only R + index; under separate it
     also touches the S' file; with no replication it touches S. *)
  let probe strategy =
    let built =
      Gen.build { Gen.default_spec with Gen.s_count = 400; sharing = 4; strategy }
    in
    let db = built.Gen.db in
    Pager.run_cold (Db.pager db) (fun () ->
        let res =
          Exec.retrieve db
            {
              Ast.from_set = "R";
              projections = [ "field_r"; "sref.repfield" ];
              where = Some (Ast.between "field_r" (Value.VInt 10) (Value.VInt 29));
            }
        in
        Exec.drop_output db res.Exec.output_file);
    List.map (fun (l, _, _) -> l) (Db.io_breakdown db)
  in
  let mem prefix labels =
    List.exists
      (fun l -> String.length l >= String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
      labels
  in
  let none = probe Fieldrep_costmodel.Params.No_replication in
  checkb "none: reads S" true (mem "set S" none);
  let inplace = probe Fieldrep_costmodel.Params.Inplace in
  checkb "inplace: no S" false (mem "set S" inplace);
  checkb "inplace: no S'" false (mem "S' file" inplace);
  let separate = probe Fieldrep_costmodel.Params.Separate in
  checkb "separate: S' instead of S" true
    (mem "S' file" separate && not (mem "set S" separate))

let test_dangling_references () =
  let db = Db.create () in
  Db.define_type db
    (Ty.make ~name:"D" [ { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString } ]);
  Db.define_type db
    (Ty.make ~name:"E"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "d"; ftype = Ty.Ref "D" };
       ]);
  Db.create_set db ~name:"Ds" ~elem_type:"D" ();
  Db.create_set db ~name:"Es" ~elem_type:"E" ();
  let d = Db.insert db ~set:"Ds" [ vstr "d" ] in
  let e = Db.insert db ~set:"Es" [ vstr "e"; Value.VRef d ] in
  checki "clean database" 0 (List.length (Db.dangling_references db));
  (* Delete the target: no replication path protects it, so the reference
     dangles — exactly what the audit is for. *)
  Db.delete db ~set:"Ds" d;
  (match Db.dangling_references db with
  | [ ("Es", oid, "d") ] -> checkb "right object" true (Oid.equal oid e)
  | l -> Alcotest.failf "expected one dangling ref, got %d" (List.length l));
  (* Nulling the reference clears the audit. *)
  Db.update_field db ~set:"Es" e ~field:"d" Value.VNull;
  checki "clean again" 0 (List.length (Db.dangling_references db))

let () =
  Alcotest.run "fieldrep_observability"
    [
      ( "io attribution",
        [
          Alcotest.test_case "per-file stats" `Quick test_per_file_stats;
          Alcotest.test_case "pp pinned" `Quick test_pp_pinned;
          Alcotest.test_case "table covers every counter" `Quick
            test_table_covers_every_counter;
          Alcotest.test_case "grand sums blocks" `Quick test_grand_sums_blocks;
          Alcotest.test_case "diff keeps gauges" `Quick test_diff_keeps_gauges;
          Alcotest.test_case "reset spares grand" `Quick
            test_reset_spares_grand;
          Alcotest.test_case "update query breakdown" `Quick
            test_io_breakdown_attributes_structures;
          Alcotest.test_case "read query per strategy" `Quick
            test_breakdown_read_query_strategies;
        ] );
      ( "referential integrity",
        [ Alcotest.test_case "dangling references" `Quick test_dangling_references ] );
    ]
