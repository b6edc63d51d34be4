(* Transactions: strict two-phase locking, undo, deadlock detection —
   and the two acceptance tests of the transaction subsystem:

   - the randomized interleaved-client run is equivalent to the serial
     execution of its committed transactions in commit order, for all
     three replication strategies;
   - a crash in the middle of a multi-client run recovers to exactly the
     state produced by the transactions that committed before it. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Disk = Fieldrep_storage.Disk
module Pager = Fieldrep_storage.Pager
module Wal = Fieldrep_wal.Wal
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Ty = Fieldrep_model.Ty
module Path = Fieldrep_model.Path
module Schema = Fieldrep_model.Schema
module Key = Fieldrep_btree.Key
module Params = Fieldrep_costmodel.Params
module Lock = Fieldrep_txn.Lock
module Txn = Fieldrep_txn.Txn
module Gen = Fieldrep_workload.Gen
module Multi = Fieldrep_workload.Multi
module Splitmix = Fieldrep_util.Splitmix

(* CI runs the suite under several seeds; the lock-coverage property's
   database and operation stream shift with it. *)
let seed_base =
  match Sys.getenv_opt "FIELDREP_TEST_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checksl = Alcotest.(check (list string))
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable

let tmp name ext =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) ("fieldrep_txn_" ^ name ^ ext)
  in
  if Sys.file_exists path then Sys.remove path;
  path

let small_spec ?(frames = 64) ?(durable = false) strategy seed =
  {
    Gen.default_spec with
    Gen.s_count = 20;
    sharing = 3;
    strategy;
    page_size = 1024;
    frames;
    seed;
    durable;
  }

(* Resolve a generation key to its OID by scanning (keys are immutable
   identifiers of the generated objects; OIDs are run-specific). *)
let oid_of db ~set ~field key =
  let found = ref None in
  Db.scan db ~set (fun oid record ->
      match Db.field_value db ~set record field with
      | Value.VInt k when k = key -> found := Some oid
      | _ -> ());
  match !found with
  | Some oid -> oid
  | None -> Alcotest.failf "no %s object with %s = %d" set field key

let r_of db key = oid_of db ~set:"R" ~field:"field_r" key
let s_of db key = oid_of db ~set:"S" ~field:"field_s" key

let sref_of db r =
  match Db.field_value db ~set:"R" (Db.get db ~set:"R" r) "sref" with
  | Value.VRef s -> s
  | v -> Alcotest.failf "sref is not a reference: %s" (Value.to_string v)

(* ------------------------------------------------------------------ *)
(* Lock manager units                                                  *)

let test_lock_compat () =
  let l = Lock.create () in
  let t = Lock.Set "T" in
  Lock.acquire l ~txn:1 t Lock.IS;
  Lock.acquire l ~txn:2 t Lock.IX;
  (* already covered: re-acquiring a weaker mode is a no-op *)
  Lock.acquire l ~txn:2 t Lock.IS;
  checkb "IX retained" true (Lock.holds l ~txn:2 t Lock.IX);
  (match Lock.acquire l ~txn:3 t Lock.X with
  | () -> Alcotest.fail "X should block on IS+IX holders"
  | exception Lock.Would_block { txn; holders } ->
      checki "blocked txn is the requester" 3 txn;
      checki "both holders reported" 2 (List.length holders));
  Lock.release_all l ~txn:1;
  Lock.release_all l ~txn:2;
  Lock.acquire l ~txn:3 t Lock.X;
  checkb "X granted once holders release" true (Lock.holds l ~txn:3 t Lock.X);
  Lock.release_all l ~txn:3;
  checki "lock table drained" 0 (Lock.active_locks l)

let test_lock_upgrade () =
  let l = Lock.create () in
  let t = Lock.Set "T" in
  Lock.acquire l ~txn:1 t Lock.S;
  Lock.acquire l ~txn:1 t Lock.X;
  checkb "sole reader upgrades in place" true (Lock.holds l ~txn:1 t Lock.X);
  Lock.release_all l ~txn:1;
  Lock.acquire l ~txn:1 t Lock.S;
  Lock.acquire l ~txn:2 t Lock.S;
  match Lock.acquire l ~txn:1 t Lock.X with
  | () -> Alcotest.fail "upgrade should block on the second reader"
  | exception Lock.Would_block { holders; _ } ->
      checki "blocked only by the other reader" 1 (List.length holders);
      checki "the other reader" 2 (List.hd holders)

let test_lock_deadlock () =
  let stats = Stats.create () in
  let l = Lock.create ~stats () in
  let a = Lock.Set "A" and b = Lock.Set "B" in
  Lock.acquire l ~txn:1 a Lock.X;
  Lock.acquire l ~txn:2 b Lock.X;
  (try
     Lock.acquire l ~txn:1 b Lock.X;
     Alcotest.fail "t1 should block on t2"
   with Lock.Would_block _ -> ());
  (match Lock.acquire l ~txn:2 a Lock.X with
  | () -> Alcotest.fail "t2 closing the cycle should deadlock"
  | exception Lock.Deadlock { victim; cycle } ->
      checki "the requester is the victim" 2 victim;
      checkb "cycle names both parties" true (List.mem 1 cycle && List.mem 2 cycle));
  checki "deadlock counted" 1 stats.Stats.deadlocks;
  checki "both waits counted" 2 stats.Stats.lock_waits;
  (* the victim aborts; the survivor's blocked request now succeeds *)
  Lock.release_all l ~txn:2;
  Lock.acquire l ~txn:1 b Lock.X;
  checkb "survivor proceeds" true (Lock.holds l ~txn:1 b Lock.X)

(* The held list gains a resource on its first grant only: an upgrade or
   a repeated grant must neither duplicate it nor leak it at release. *)
let test_lock_held_once () =
  let l = Lock.create () in
  let o1 = Lock.Obj { Oid.file = 1; page = 0; slot = 0 } in
  let o2 = Lock.Obj { Oid.file = 1; page = 0; slot = 1 } in
  Lock.acquire l ~txn:1 o1 Lock.S;
  Lock.acquire l ~txn:1 o1 Lock.X;
  Lock.grant l ~txn:1 o2 Lock.S;
  Lock.grant l ~txn:1 o2 Lock.X;
  checki "two resources held" 2 (Lock.held_count l ~txn:1);
  checkb "upgrade kept" true (Lock.holds l ~txn:1 o1 Lock.X);
  checkb "re-grant upgraded" true (Lock.holds l ~txn:1 o2 Lock.X);
  Lock.release_all l ~txn:1;
  checki "nothing left locked" 0 (Lock.active_locks l);
  checki "nothing left held" 0 (Lock.held_count l ~txn:1)

(* ------------------------------------------------------------------ *)
(* Commit / abort semantics through Db                                 *)

let test_commit_applies () =
  let built = Gen.build (small_spec Params.Inplace 3) in
  let db = built.Gen.db in
  let r0 = r_of db 0 and s0 = s_of db 0 in
  let tx = Db.begin_txn db in
  checki "one active txn" 1 (Db.active_txn_count db);
  Db.update_field ~txn:tx db ~set:"S" s0 ~field:"repfield"
    (Value.VString "committed");
  Db.update_field ~txn:tx db ~set:"R" r0 ~field:"field_r" (Value.VInt 4242);
  let fresh =
    Db.insert ~txn:tx db ~set:"R"
      [ Value.VInt 777; Value.VString "new"; Value.VRef s0 ]
  in
  Db.commit db tx;
  checki "no active txn after commit" 0 (Db.active_txn_count db);
  checki "commit counted" 1 (Db.stats db).Stats.txn_commits;
  checki "all locks released" 0 (Lock.active_locks (Db.lock_manager db));
  checkv "scalar update durable" (Value.VString "committed")
    (Db.field_value db ~set:"S" (Db.get db ~set:"S" s0) "repfield");
  checkv "indexed field updated" (Value.VInt 4242)
    (Db.field_value db ~set:"R" (Db.get db ~set:"R" r0) "field_r");
  checki "index follows the update" 1
    (List.length (Db.index_lookup db ~index:Gen.r_index (Key.Int 4242)));
  checkv "insert visible through the replicated path" (Value.VString "committed")
    (Db.deref db ~set:"R" fresh "sref.repfield");
  Db.check_integrity db

let abort_restores strategy () =
  let built = Gen.build (small_spec strategy 7) in
  let db = built.Gen.db in
  let before = Multi.observe db in
  let r0 = r_of db 0 and r1 = r_of db 1 and r2 = r_of db 2 in
  let s0 = s_of db 0 and s1 = s_of db 1 in
  let retarget = if Oid.equal (sref_of db r1) s0 then s1 else s0 in
  let tx = Db.begin_txn db in
  Db.update_field ~txn:tx db ~set:"S" s0 ~field:"repfield"
    (Value.VString "doomed");
  Db.update_field ~txn:tx db ~set:"R" r0 ~field:"field_r" (Value.VInt 999_999);
  Db.update_field ~txn:tx db ~set:"R" r1 ~field:"sref" (Value.VRef retarget);
  let fresh =
    Db.insert ~txn:tx db ~set:"R"
      [ Value.VInt 888; Value.VString "x"; Value.VRef s1 ]
  in
  Db.delete ~txn:tx db ~set:"R" r2;
  (* the deleted slot is pinned until the transaction resolves: a later
     insert cannot recycle the OID *)
  let fresh2 =
    Db.insert ~txn:tx db ~set:"R"
      [ Value.VInt 889; Value.VString "y"; Value.VRef s1 ]
  in
  checkb "tombstone pins the slot" true (not (Oid.equal fresh2 r2));
  ignore fresh;
  let snap = Stats.copy (Db.stats db) in
  Db.abort db tx;
  let d = Stats.diff (Db.stats db) snap in
  checki "abort counted" 1 d.Stats.txn_aborts;
  checkb "before-images restored" true (d.Stats.undo_applied >= 4);
  checki "no active txn after abort" 0 (Db.active_txn_count db);
  checki "all locks released" 0 (Lock.active_locks (Db.lock_manager db));
  checksl "logical state restored exactly" before (Multi.observe db);
  checkb "revived object keeps its original OID" true
    (Oid.equal (r_of db 2) r2);
  checki "index entry for the old key restored" 1
    (List.length (Db.index_lookup db ~index:Gen.r_index (Key.Int 0)));
  checki "index entry for the aborted update gone" 0
    (List.length (Db.index_lookup db ~index:Gen.r_index (Key.Int 999_999)));
  Db.check_integrity db

(* EMP.manager may name the object itself.  Deleting such an object in a
   transaction succeeds (detaching empties its own membership); undoing
   the delete must re-create it before walking its path, which reaches
   the object itself. *)
let test_abort_self_loop strategy () =
  let db = Db.create ~page_size:1024 ~frames:128 () in
  Db.define_type db
    (Ty.make ~name:"EMP"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "manager"; ftype = Ty.Ref "EMP" };
       ]);
  Db.create_set db ~name:"Emp1" ~elem_type:"EMP" ();
  Db.replicate db ~strategy (Path.parse "Emp1.manager.name");
  let x = Db.insert db ~set:"Emp1" [ Value.VString "x"; Value.VNull ] in
  Db.update_field db ~set:"Emp1" x ~field:"manager" (Value.VRef x);
  checkv "self copy" (Value.VString "x") (Db.deref db ~set:"Emp1" x "manager.name");
  let tx = Db.begin_txn db in
  Db.delete ~txn:tx db ~set:"Emp1" x;
  Db.abort db tx;
  Db.check_integrity db;
  checkv "revived self copy" (Value.VString "x")
    (Db.deref db ~set:"Emp1" x "manager.name");
  (* leaving the loop releases the S' object x owns; dropping the path
     releases the one it owns again *)
  let y = Db.insert db ~set:"Emp1" [ Value.VString "y"; Value.VNull ] in
  Db.update_field db ~set:"Emp1" x ~field:"manager" (Value.VRef y);
  Db.check_integrity db;
  Db.update_field db ~set:"Emp1" x ~field:"manager" (Value.VRef x);
  Db.unreplicate db (Path.parse "Emp1.manager.name");
  Db.check_integrity db

let test_isolation_blocks () =
  let built = Gen.build (small_spec Params.Inplace 9) in
  let db = built.Gen.db in
  let s0 = s_of db 0 in
  (* a source reaching s0 (its hidden copy is part of the write's fan-out)
     and a bystander reaching some other S object *)
  let src = ref None and other = ref None in
  Db.scan db ~set:"R" (fun oid _ ->
      if Oid.equal (sref_of db oid) s0 then begin
        if !src = None then src := Some oid
      end
      else if !other = None then other := Some oid);
  let src = Option.get !src and other = Option.get !other in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  Db.update_field ~txn:t1 db ~set:"S" s0 ~field:"repfield"
    (Value.VString "uncommitted");
  (try
     ignore (Db.get ~txn:t2 db ~set:"S" s0);
     Alcotest.fail "reading an uncommitted write should block"
   with Lock.Would_block _ -> ());
  (try
     ignore (Db.deref ~txn:t2 db ~set:"R" src "sref.repfield");
     Alcotest.fail "reading an uncommitted hidden copy should block"
   with Lock.Would_block _ -> ());
  (* readers do not block readers *)
  ignore (Db.get ~txn:t2 db ~set:"R" other);
  ignore (Db.get ~txn:t1 db ~set:"R" other);
  checkb "waits were counted" true ((Db.stats db).Stats.lock_waits >= 2);
  Db.commit db t1;
  checkv "committed value now readable" (Value.VString "uncommitted")
    (Db.field_value db ~set:"S" (Db.get ~txn:t2 db ~set:"S" s0) "repfield");
  Db.commit db t2;
  checki "all locks released" 0 (Lock.active_locks (Db.lock_manager db))

let test_db_deadlock () =
  let built = Gen.build (small_spec Params.No_replication 11) in
  let db = built.Gen.db in
  let ra = r_of db 0 and rb = r_of db 1 in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  Db.update_field ~txn:t1 db ~set:"R" ra ~field:"field_r" (Value.VInt 100_000);
  Db.update_field ~txn:t2 db ~set:"R" rb ~field:"field_r" (Value.VInt 100_001);
  (try
     Db.update_field ~txn:t1 db ~set:"R" rb ~field:"field_r"
       (Value.VInt 100_002);
     Alcotest.fail "t1 should block on t2"
   with Lock.Would_block _ -> ());
  (match
     Db.update_field ~txn:t2 db ~set:"R" ra ~field:"field_r"
       (Value.VInt 100_003)
   with
  | () -> Alcotest.fail "t2 closing the cycle should deadlock"
  | exception Lock.Deadlock { victim; _ } ->
      checki "the requester is chosen as victim" (Txn.id t2) victim);
  checki "deadlock counted" 1 (Db.stats db).Stats.deadlocks;
  Db.abort db t2;
  (* the survivor's blocked update now goes through; strict 2PL made the
     victim's update vanish without a trace *)
  Db.update_field ~txn:t1 db ~set:"R" rb ~field:"field_r" (Value.VInt 100_002);
  Db.commit db t1;
  checkv "survivor's writes stand" (Value.VInt 100_002)
    (Db.field_value db ~set:"R" (Db.get db ~set:"R" rb) "field_r");
  Db.check_integrity db

(* Satellite: undo I/O is real I/O — counted in the global ledger and
   attributed to the aborting transaction (regression for the bug where
   rollback page writes escaped [grand_total_io]). *)
let test_abort_io_attribution () =
  let built = Gen.build (small_spec ~frames:4 Params.Inplace 13) in
  let db = built.Gen.db in
  let soids = Array.init 20 (fun k -> s_of db k) in
  let tx = Db.begin_txn db in
  Array.iteri
    (fun k s ->
      Db.update_field ~txn:tx db ~set:"S" s ~field:"repfield"
        (Value.VString (Printf.sprintf "doomed-%04d" k)))
    soids;
  let io_forward = Txn.io tx in
  checkb "forward work charged to the txn" true (io_forward > 0);
  let snap = Stats.copy (Db.stats db) in
  Db.abort db tx;
  let d = Stats.diff (Db.stats db) snap in
  checki "every image restored" 20 d.Stats.undo_applied;
  checkb "rollback performs physical I/O" true (Stats.total_io d > 0);
  checki "undo I/O attributed to the aborting txn"
    (io_forward + Stats.total_io d)
    (Txn.io tx);
  Db.check_integrity db

(* ------------------------------------------------------------------ *)
(* Randomized interleaved clients: the serializability acceptance test *)

let serializable ?(clients = 4) ?(mix = Multi.update_mix) strategy seed () =
  let spec =
    {
      Gen.default_spec with
      Gen.s_count = 40;
      sharing = 3;
      strategy;
      page_size = 1024;
      frames = 64;
      seed;
    }
  in
  let built = Gen.build spec in
  let res =
    Multi.run ~abort_prob:0.15 ~clients ~txns_per_client:6 ~ops_per_txn:5 ~mix
      ~seed:((seed * 17) + 1) built
  in
  checkb "run completed" true (not res.Multi.crashed);
  checkb "made progress" true (res.Multi.commits > 0);
  checki "every program resolved exactly once" (clients * 6)
    (res.Multi.commits + res.Multi.voluntary_aborts + res.Multi.discarded);
  checki "no transaction left active" 0 (Db.active_txn_count built.Gen.db);
  checki "no lock left behind" 0
    (Lock.active_locks (Db.lock_manager built.Gen.db));
  Db.check_integrity built.Gen.db;
  (* strict 2PL promises equivalence to the serial execution of the
     committed programs in commit order — run exactly that on a fresh
     identical database and compare the logical states *)
  let serial = Gen.build spec in
  Multi.replay_serial serial.Gen.db res.Multi.committed;
  Db.check_integrity serial.Gen.db;
  checksl "equivalent to serial commit order"
    (Multi.observe serial.Gen.db)
    (Multi.observe built.Gen.db)

(* ------------------------------------------------------------------ *)
(* Crash during a multi-client run: recovery keeps exactly the
   transactions that committed                                         *)

let test_crash_during_run () =
  let spec =
    {
      Gen.default_spec with
      Gen.s_count = 24;
      sharing = 2;
      strategy = Params.Inplace;
      page_size = 1024;
      frames = 12;
      seed = 21;
      durable = true;
    }
  in
  let built = Gen.build spec in
  let db = built.Gen.db in
  let img = tmp "crash_run" ".img" in
  Db.checkpoint db img;
  (* arm the failpoint just before the fifth commit: the crash lands
     inside or shortly after it, with other transactions in flight *)
  let res =
    Multi.run ~abort_prob:0.1 ~clients:3 ~txns_per_client:4 ~ops_per_txn:4
      ~mix:Multi.update_mix ~seed:99
      ~before_commit:(fun k ->
        if k = 4 then
          Disk.set_failpoint (Pager.disk (Db.pager db)) ~after_writes:3)
      built
  in
  checkb "the failpoint fired" true res.Multi.crashed;
  checkb "some transactions committed first" true (res.Multi.commits >= 4);
  Wal.close (Option.get (Db.wal db));
  let db2 = Db.recover ~frames:spec.Gen.frames img in
  checki "losers resolved at recovery" 0 (Db.active_txn_count db2);
  Db.check_integrity db2;
  (* reference: serial execution of exactly the committed programs *)
  let serial = Gen.build { spec with Gen.durable = false } in
  Multi.replay_serial serial.Gen.db res.Multi.committed;
  checksl "recovered state = committed transactions only"
    (Multi.observe serial.Gen.db)
    (Multi.observe db2);
  Wal.close (Option.get (Db.wal db2));
  Sys.remove img

(* ------------------------------------------------------------------ *)
(* Lock footprint = write footprint                                    *)

(* Src -> Mid -> Leaf, so one database can carry 1- and 2-level paths of
   every strategy. *)
let path_db decls seed =
  let db = Db.create ~page_size:1024 ~frames:64 () in
  let field fname ftype = { Ty.fname; ftype } in
  Db.define_type db
    (Ty.make ~name:"LEAF"
       [ field "name" (Ty.Scalar Ty.SString); field "val" (Ty.Scalar Ty.SInt) ]);
  Db.define_type db
    (Ty.make ~name:"MID"
       [ field "label" (Ty.Scalar Ty.SString); field "leaf" (Ty.Ref "LEAF") ]);
  Db.define_type db
    (Ty.make ~name:"SRC"
       [
         field "key" (Ty.Scalar Ty.SInt);
         field "mid" (Ty.Ref "MID");
         field "leaf" (Ty.Ref "LEAF");
       ]);
  List.iter
    (fun (name, elem_type) -> Db.create_set db ~name ~elem_type ())
    [ ("Leaf", "LEAF"); ("Mid", "MID"); ("Src", "SRC") ];
  let rng = Splitmix.create seed in
  let pick a = a.(Splitmix.int rng (Array.length a)) in
  let leaves =
    Array.init 12 (fun i ->
        Db.insert db ~set:"Leaf"
          [ Value.VString (Printf.sprintf "leaf-%d" i); Value.VInt i ])
  in
  let mids =
    Array.init 8 (fun i ->
        Db.insert db ~set:"Mid"
          [ Value.VString (Printf.sprintf "mid-%d" i); Value.VRef (pick leaves) ])
  in
  let srcs =
    List.init 40 (fun i ->
        Db.insert db ~set:"Src"
          [ Value.VInt i; Value.VRef (pick mids); Value.VRef (pick leaves) ])
  in
  List.iter
    (fun (path, strategy, collapse) ->
      Db.replicate db
        ~options:{ Schema.default_options with Schema.collapse }
        ~strategy (Path.parse path))
    decls;
  (db, leaves, mids, srcs)

let inplace_decl = ("Src.leaf.name", Schema.Inplace, false)
let separate_decl = ("Src.leaf.val", Schema.Separate, false)
let collapsed_decl = ("Src.mid.leaf.name", Schema.Inplace, true)
let two_level_decl = ("Src.mid.leaf.val", Schema.Inplace, false)

let snapshot db =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun set ->
      Db.scan db ~set (fun oid record ->
          Hashtbl.replace tbl (set, oid) (Record.encode record)))
    [ "Leaf"; "Mid"; "Src" ];
  tbl

(* Random inserts, deletes, scalar and reference updates inside
   transactions: after every operation, each data object it changed or
   removed must be X-locked by the transaction, or sit in a set the
   transaction X-locked (the reference-update escalation). *)
let test_lock_coverage () =
  let db, leaves, mids, srcs =
    path_db [ inplace_decl; separate_decl; collapsed_decl; two_level_decl ]
      (seed_base + 31)
  in
  let locks = Db.lock_manager db in
  let rng = Splitmix.create (seed_base + 37) in
  let pick a = a.(Splitmix.int rng (Array.length a)) in
  let ref_or_null a =
    if Splitmix.int rng 6 = 0 then Value.VNull else Value.VRef (pick a)
  in
  let live = ref srcs in
  let next_key = ref 1000 in
  for round = 1 to 4 do
    let tx = Db.begin_txn db in
    let txn = Txn.id tx in
    for step = 1 to 40 do
      let src () = List.nth !live (Splitmix.int rng (List.length !live)) in
      let before = snapshot db in
      (match Splitmix.int rng 8 with
      | 0 ->
          incr next_key;
          live :=
            Db.insert ~txn:tx db ~set:"Src"
              [ Value.VInt !next_key; ref_or_null mids; ref_or_null leaves ]
            :: !live
      | 1 when List.length !live > 4 ->
          let victim = src () in
          Db.delete ~txn:tx db ~set:"Src" victim;
          live := List.filter (fun o -> not (Oid.equal o victim)) !live
      | 2 ->
          Db.update_field ~txn:tx db ~set:"Leaf" (pick leaves) ~field:"name"
            (Value.VString (Printf.sprintf "n-%d-%d" round step))
      | 3 ->
          Db.update_field ~txn:tx db ~set:"Leaf" (pick leaves) ~field:"val"
            (Value.VInt ((100 * round) + step))
      | 4 ->
          Db.update_field ~txn:tx db ~set:"Mid" (pick mids) ~field:"label"
            (Value.VString (Printf.sprintf "m-%d-%d" round step))
      | 5 ->
          Db.update_field ~txn:tx db ~set:"Src" (src ()) ~field:"leaf"
            (ref_or_null leaves)
      | 6 ->
          Db.update_field ~txn:tx db ~set:"Src" (src ()) ~field:"mid"
            (ref_or_null mids)
      | _ ->
          (* never null: a collapsed path cannot yet find the sources
             behind an intermediate whose null reference is set *)
          Db.update_field ~txn:tx db ~set:"Mid" (pick mids) ~field:"leaf"
            (Value.VRef (pick leaves)));
      let after = snapshot db in
      Hashtbl.iter
        (fun (set, oid) bytes ->
          let changed =
            match Hashtbl.find_opt after (set, oid) with
            | Some bytes' -> not (Bytes.equal bytes bytes')
            | None -> true
          in
          if
            changed
            && not
                 (Lock.holds locks ~txn (Lock.Obj oid) Lock.X
                 || Lock.holds locks ~txn (Lock.Set set) Lock.X)
          then
            Alcotest.failf "round %d step %d wrote %s %s without an X lock"
              round step set (Oid.to_string oid))
        before
    done;
    Db.commit db tx
  done;
  Db.check_integrity db

(* The lock set is a by-product of the walk that applies the operation,
   so a transactional insert, delete or scalar update reads exactly the
   objects its autocommit twin reads. *)
let test_one_walk decl () =
  let ops =
    [
      ( "insert",
        fun ?txn db (leaves, mids, _) ->
          ignore
            (Db.insert ?txn db ~set:"Src"
               [ Value.VInt 999; Value.VRef mids.(1); Value.VRef leaves.(2) ]) );
      ( "delete",
        fun ?txn db (_, _, srcs) ->
          Db.delete ?txn db ~set:"Src" (List.nth srcs 3) );
      ( "scalar update",
        fun ?txn db (leaves, _, _) ->
          Db.update_field ?txn db ~set:"Leaf" leaves.(2) ~field:"name"
            (Value.VString "renamed") );
    ]
  in
  let reads ~in_txn (op : ?txn:Db.txn -> Db.t -> _ -> unit) =
    let db, leaves, mids, srcs = path_db [ decl ] 5 in
    let txn = if in_txn then Some (Db.begin_txn db) else None in
    let stats = Db.stats db in
    let r0 = stats.Stats.objects_read in
    op ?txn db (leaves, mids, srcs);
    let n = stats.Stats.objects_read - r0 in
    Option.iter (Db.commit db) txn;
    Db.check_integrity db;
    n
  in
  List.iter
    (fun (what, op) ->
      checki what (reads ~in_txn:false op) (reads ~in_txn:true op))
    ops

(* An autocommit update that changes nothing reads the object and walks
   no fan-out (here, the Mid objects of a 2-level inverted path). *)
let test_unchanged_update () =
  let db, _, mids, _ = path_db [ two_level_decl ] 5 in
  let get set oid field = Db.field_value db ~set (Db.get db ~set oid) field in
  let leaf = Value.as_ref (get "Mid" mids.(0) "leaf") in
  let v = get "Leaf" leaf "val" in
  let r0 = (Db.stats db).Stats.objects_read in
  Db.update_field db ~set:"Leaf" leaf ~field:"val" v;
  checki "objects read" 1 ((Db.stats db).Stats.objects_read - r0);
  let tx = Db.begin_txn db in
  Db.update_field ~txn:tx db ~set:"Leaf" leaf ~field:"val" v;
  Db.commit db tx;
  Db.check_integrity db

let () =
  Alcotest.run "fieldrep_txn"
    [
      ( "lock manager",
        [
          Alcotest.test_case "granularity compatibility" `Quick test_lock_compat;
          Alcotest.test_case "upgrade" `Quick test_lock_upgrade;
          Alcotest.test_case "deadlock detection" `Quick test_lock_deadlock;
          Alcotest.test_case "held once per resource" `Quick test_lock_held_once;
        ] );
      ( "lock footprint",
        [
          Alcotest.test_case "writes are X-locked" `Quick test_lock_coverage;
          Alcotest.test_case "one walk, in-place" `Quick
            (test_one_walk inplace_decl);
          Alcotest.test_case "one walk, separate" `Quick
            (test_one_walk ("Src.leaf.name", Schema.Separate, false));
          Alcotest.test_case "one walk, collapsed" `Quick
            (test_one_walk collapsed_decl);
          Alcotest.test_case "unchanged update walks nothing" `Quick
            test_unchanged_update;
        ] );
      ( "commit/abort",
        [
          Alcotest.test_case "commit applies" `Quick test_commit_applies;
          Alcotest.test_case "abort restores (no replication)" `Quick
            (abort_restores Params.No_replication);
          Alcotest.test_case "abort restores (in-place)" `Quick
            (abort_restores Params.Inplace);
          Alcotest.test_case "abort restores (separate)" `Quick
            (abort_restores Params.Separate);
          Alcotest.test_case "abort revives self-managed (in-place)" `Quick
            (test_abort_self_loop Schema.Inplace);
          Alcotest.test_case "abort revives self-managed (separate)" `Quick
            (test_abort_self_loop Schema.Separate);
          Alcotest.test_case "isolation blocks readers" `Quick
            test_isolation_blocks;
          Alcotest.test_case "deadlock through the engine" `Quick
            test_db_deadlock;
          Alcotest.test_case "abort I/O attribution" `Quick
            test_abort_io_attribution;
        ] );
      ( "interleaved serializability",
        [
          Alcotest.test_case "no replication, seed 1" `Slow
            (serializable Params.No_replication 1);
          Alcotest.test_case "no replication, seed 2" `Slow
            (serializable Params.No_replication 2);
          Alcotest.test_case "in-place, seed 1" `Slow
            (serializable Params.Inplace 1);
          Alcotest.test_case "in-place, seed 2" `Slow
            (serializable Params.Inplace 2);
          Alcotest.test_case "separate, seed 1" `Slow
            (serializable Params.Separate 1);
          Alcotest.test_case "separate, seed 2" `Slow
            (serializable Params.Separate 2);
          Alcotest.test_case "read mix, 6 clients" `Slow
            (serializable ~clients:6 ~mix:Multi.read_mix Params.Inplace 5);
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "crash during multi-client run" `Slow
            test_crash_during_run;
        ] );
    ]
