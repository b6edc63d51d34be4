(* Page checksums, read-path fault injection, online scrubbing and
   self-repair.

   The matrix is the centrepiece: for every replication strategy, corruption
   is injected into every kind of derived page — inverted-path link pages,
   S' pages, and the hidden/replicated values themselves — and scrub must
   detect it, repair it, and leave the invariant checker happy.  Source
   fields are the counter-case: they are not derivable, so scrub must report
   them and leave them alone. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Disk = Fieldrep_storage.Disk
module Pager = Fieldrep_storage.Pager
module Heap_file = Fieldrep_storage.Heap_file
module Checksum = Fieldrep_storage.Checksum
module Wal = Fieldrep_wal.Wal
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Record = Fieldrep_model.Record
module Engine = Fieldrep_replication.Engine
module Store = Fieldrep_replication.Store
module Link_object = Fieldrep_replication.Link_object
module Invariants = Fieldrep_replication.Invariants
module Scrub = Fieldrep_scrub.Scrub
module Gen = Fieldrep_workload.Gen
module Params = Fieldrep_costmodel.Params

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable

(* CI runs the suite under several seeds; corruption targets and database
   contents shift with it. *)
let seed_base =
  match Sys.getenv_opt "FIELDREP_TEST_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

let tmp name ext =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      ("fieldrep_scrub_" ^ name ^ ext)
  in
  if Sys.file_exists path then Sys.remove path;
  path

(* ------------------------------------------------------------------ *)
(* Detection: the checksum layer                                       *)

let test_checksum_detects_bit_rot () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:128 stats in
  let f = Disk.create_file disk in
  let p = Disk.allocate_page disk f in
  Disk.write_page disk ~file:f ~page:p (Bytes.make 128 'd');
  let buf = Bytes.create 128 in
  Disk.read_page disk ~file:f ~page:p buf;
  checki "clean read passes" 0 stats.Stats.checksum_failures;
  Disk.corrupt_page disk ~file:f ~page:p [ 64 ];
  checkb "verify sees the rot" false (Disk.verify_page disk ~file:f ~page:p);
  (try
     Disk.read_page disk ~file:f ~page:p buf;
     Alcotest.fail "expected Corrupt_page"
   with Disk.Corrupt_page { file; page } ->
     checki "file identified" f file;
     checki "page identified" p page);
  checki "failure counted" 1 stats.Stats.checksum_failures;
  checkb "page quarantined" true (Disk.quarantined disk ~file:f ~page:p);
  (* Quarantine is sticky even though the bytes happen to verify again. *)
  Disk.corrupt_page disk ~file:f ~page:p [ 64 ];
  (try
     Disk.read_page disk ~file:f ~page:p buf;
     Alcotest.fail "expected Corrupt_page from quarantine"
   with Disk.Corrupt_page _ -> ());
  (* Rewriting with fresh content is the repair: it lifts the quarantine. *)
  Disk.write_page disk ~file:f ~page:p (Bytes.make 128 'r');
  Disk.read_page disk ~file:f ~page:p buf;
  checkb "healed" true (Bytes.get buf 0 = 'r')

let test_checksum_detects_torn_page () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:128 stats in
  let f = Disk.create_file disk in
  let p = Disk.allocate_page disk f in
  Disk.write_page disk ~file:f ~page:p (Bytes.make 128 'x');
  Disk.tear_page disk ~file:f ~page:p;
  checkb "torn page fails verification" false (Disk.verify_page disk ~file:f ~page:p);
  let buf = Bytes.create 128 in
  (try
     Disk.read_page disk ~file:f ~page:p buf;
     Alcotest.fail "expected Corrupt_page"
   with Disk.Corrupt_page _ -> ());
  checki "failure counted" 1 stats.Stats.checksum_failures

(* Reference values, cross-checked against an independent implementation
   of the same four-lane hash: short inputs exercise the tail word, 43
   bytes one full 32-byte round plus one word and a tail, and the pages
   the whole-round loop. *)
let test_sum32_known_values () =
  let sum s = Checksum.sum32 (Bytes.of_string s) 0 (String.length s) in
  checki "empty" 0x1d40a304 (sum "");
  checki "a" 0xe6e96ef8 (sum "a");
  checki "abc" 0xb9d5bf0e (sum "abc");
  checki "one word" 0xd3909bf4 (sum "abcdefgh");
  checki "fox" 0x6d2c8028 (sum "The quick brown fox jumps over the lazy dog");
  checki "zero page" 0x611dc8b1 (Checksum.sum32 (Bytes.make 4096 '\000') 0 4096);
  checki "ramp page" 0x2dfb0371
    (Checksum.sum32 (Bytes.init 4096 (fun i -> Char.chr (i land 0xff))) 0 4096)

let random_page seed =
  let rng = Random.State.make [| seed |] in
  Bytes.init 4096 (fun _ -> Char.chr (Random.State.int rng 256))

(* Every one of a 4 KB page's 32 768 single-bit flips changes its sum. *)
let test_sum32_bit_flips () =
  List.iter
    (fun (name, page) ->
      let sum0 = Checksum.sum32 page 0 4096 in
      let missed = ref 0 in
      for bit = 0 to (4096 * 8) - 1 do
        let i = bit / 8 and m = 1 lsl (bit land 7) in
        let flip () = Bytes.set page i (Char.chr (Char.code (Bytes.get page i) lxor m)) in
        flip ();
        if Checksum.sum32 page 0 4096 = sum0 then incr missed;
        flip ()
      done;
      checki (name ^ ": undetected flips") 0 !missed)
    [ ("zero page", Bytes.make 4096 '\000'); ("random page", random_page 7) ]

(* A torn write lands one half of the new image over the old page. *)
let test_sum32_torn_half () =
  let old_page = random_page 11 and new_page = random_page 12 in
  let sum = Checksum.sum32 new_page 0 4096 in
  let zeroed = Bytes.copy new_page in
  Bytes.fill zeroed 2048 2048 '\000';
  checkb "second half zeroed" true (Checksum.sum32 zeroed 0 4096 <> sum);
  let torn = Bytes.copy old_page in
  Bytes.blit new_page 0 torn 0 2048;
  checkb "first half new, second half old" true (Checksum.sum32 torn 0 4096 <> sum);
  checkb "... nor the old page's sum" true
    (Checksum.sum32 torn 0 4096 <> Checksum.sum32 old_page 0 4096)

(* A slice hashes as its own copy would, at every alignment; a slice that
   leaves the buffer is refused. *)
let test_sum32_slices () =
  let buf = random_page 13 in
  List.iter
    (fun (off, len) ->
      checki
        (Printf.sprintf "slice %d+%d" off len)
        (Checksum.sum32 (Bytes.sub buf off len) 0 len)
        (Checksum.sum32 buf off len))
    [ (0, 0); (5, 0); (1, 1); (3, 7); (7, 8); (1, 31); (9, 33); (17, 100); (4095, 1); (1, 4095) ];
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "slice %d+%d" off len)
        (Invalid_argument "Checksum.sum32: slice out of bounds")
        (fun () -> ignore (Checksum.sum32 buf off len)))
    [ (-1, 4); (0, 4097); (4096, 1); (10, -1); (max_int, 2) ]

(* ------------------------------------------------------------------ *)
(* Fault injection: armed failpoints                                   *)

let test_write_failpoint_count () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let f = Disk.create_file disk in
  let p = Disk.allocate_page disk f in
  let buf = Bytes.make 64 'w' in
  (* Persistent arming: the failpoint fires on two consecutive writes
     before disarming, unlike the default one-shot. *)
  Disk.set_failpoint ~count:2 disk ~after_writes:0;
  (try
     Disk.write_page disk ~file:f ~page:p buf;
     Alcotest.fail "expected first Crash"
   with Disk.Crash _ -> ());
  (try
     Disk.write_page disk ~file:f ~page:p buf;
     Alcotest.fail "expected second Crash"
   with Disk.Crash _ -> ());
  checkb "disarmed after both fires" true (Disk.writes_until_crash disk = None);
  Disk.write_page disk ~file:f ~page:p buf;
  checki "third write landed" 1 stats.Stats.page_writes

let test_read_failpoint_retry () =
  let pager = Pager.create ~page_size:256 ~frames:4 () in
  let disk = Pager.disk pager in
  let file = Pager.create_file pager in
  let p = Pager.new_page pager ~file in
  Pager.with_page_write pager ~file ~page:p (fun buf -> Bytes.set buf 0 'a');
  (* Transient: two injected errors, absorbed by the pool's bounded retry. *)
  Pager.run_cold pager (fun () -> ());
  Disk.set_read_failpoint ~count:2 disk ~after_reads:0;
  let c = Pager.with_page_read pager ~file ~page:p (fun buf -> Bytes.get buf 0) in
  checkb "read succeeded through retries" true (c = 'a');
  checki "both retries counted" 2 (Pager.stats pager).Stats.read_retries;
  (* Persistent: more errors than the retry budget — the error surfaces. *)
  Pager.run_cold pager (fun () -> ());
  Disk.set_read_failpoint ~count:5 disk ~after_reads:0;
  (try
     ignore (Pager.with_page_read pager ~file ~page:p (fun buf -> Bytes.get buf 0));
     Alcotest.fail "expected Read_error"
   with Disk.Read_error _ -> ());
  checki "budget exhausted after two retries" 2
    (Pager.stats pager).Stats.read_retries;
  Disk.clear_read_failpoint disk;
  let c = Pager.with_page_read pager ~file ~page:p (fun buf -> Bytes.get buf 0) in
  checkb "cleared failpoint reads fine" true (c = 'a')

let test_read_failpoint_intermittent () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let f = Disk.create_file disk in
  let p = Disk.allocate_page disk f in
  Disk.write_page disk ~file:f ~page:p (Bytes.make 64 'i');
  let buf = Bytes.create 64 in
  (* every:2 — every second read attempt fails, twice in total. *)
  Disk.set_read_failpoint ~count:2 ~every:2 disk ~after_reads:0;
  let outcomes =
    List.init 5 (fun _ ->
        try
          Disk.read_page disk ~file:f ~page:p buf;
          `Ok
        with Disk.Read_error _ -> `Err)
  in
  checkb "alternating failures then disarmed" true
    (outcomes = [ `Ok; `Err; `Ok; `Err; `Ok ])

(* ------------------------------------------------------------------ *)
(* WAL: the Scrub_repair record                                        *)

let test_wal_scrub_repair_roundtrip () =
  let path = tmp "wal" ".wal" in
  let w = Wal.open_ path in
  let r =
    Wal.Scrub_repair { rep_id = 3; source = { Oid.file = 4; page = 7; slot = 2 } }
  in
  ignore (Wal.append w r);
  Wal.close w;
  let w2 = Wal.open_ path in
  (match Wal.records w2 with
  | [ (_, r') ] -> checkb "record survives the codec" true (r = r')
  | l -> Alcotest.failf "expected one record, got %d" (List.length l));
  Wal.close w2;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* The corruption matrix                                               *)

type strat = S_inplace | S_separate | S_collapsed

let strat_name = function
  | S_inplace -> "in-place"
  | S_separate -> "separate"
  | S_collapsed -> "collapsed"

(* The paper's employee database with Emp1.dept.org.name replicated under
   the given strategy: a level-2 path, so it exercises link files at both
   levels (or a tagged collapsed link, or a level-1 link plus an S'
   file). *)
let build_employee strat =
  let db = Gen.employee_db ~seed:(7 + seed_base) () in
  (match strat with
  | S_inplace ->
      Db.replicate db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name")
  | S_separate ->
      Db.replicate db ~strategy:Schema.Separate (Path.parse "Emp1.dept.org.name")
  | S_collapsed ->
      Db.replicate db
        ~options:{ Schema.default_options with Schema.collapse = true }
        ~strategy:Schema.Inplace
        (Path.parse "Emp1.dept.org.name"));
  Db.check_integrity db;
  db

(* Snapshot of every replicated read, for before/after comparison. *)
let snapshot db =
  let acc = ref [] in
  Db.scan db ~set:"Emp1" (fun oid _ ->
      acc := (oid, Db.deref db ~set:"Emp1" oid "dept.org.name") :: !acc);
  List.rev !acc

let assert_snapshot db expected =
  List.iter
    (fun (oid, v) -> checkv "replicated read intact" v (Db.deref db ~set:"Emp1" oid "dept.org.name"))
    expected

let scrub_and_verify db expected =
  let r = Db.scrub db in
  checkb "corruption detected" true (r.Scrub.checksum_failures >= 1);
  checkb "repairs performed" true (r.Scrub.repairs >= 1);
  checkb "nothing left quarantined" true (r.Scrub.quarantined = []);
  Db.check_integrity db;
  assert_snapshot db expected;
  (* A second scrub over the repaired database finds nothing to do, and
     the deep invariant check still passes after it ran. *)
  let r2 = Db.scrub db in
  checki "second scrub is clean" 0 r2.Scrub.checksum_failures;
  checki "second scrub repairs nothing" 0 r2.Scrub.repairs;
  Db.check_integrity db;
  assert_snapshot db expected

let corrupt_first_page db files =
  (* Flush and empty the pool first: cached frames would either mask the
     rot or overwrite it at the next flush. *)
  Pager.run_cold (Db.pager db) (fun () -> ());
  let disk = Pager.disk (Db.pager db) in
  let ps = Disk.page_size disk in
  List.iter
    (fun fid ->
      checkb "target file has pages" true (Disk.page_count disk fid > 0);
      Disk.corrupt_page disk ~file:fid ~page:0 [ ps / 64; ps / 2; ps - 7 ])
    files

let test_matrix_link_page strat () =
  let db = build_employee strat in
  let expected = snapshot db in
  let link_bindings, _ = Store.bindings (Db.engine db).Engine.store in
  checkb "strategy maintains link files" true (link_bindings <> []);
  let files = List.sort_uniq compare (List.map snd link_bindings) in
  corrupt_first_page db files;
  scrub_and_verify db expected

(* Scrub blanks corrupt link pages behind the heap file's back; the
   recount that follows rebuilds the file's free-space map with its object
   count.  Deletes and inserts, which drop and recreate link objects and
   reuse the space they free, run before the corruption (so a blanked page
   was a reuse candidate) and after the repair. *)
let test_blanked_link_page_then_churn () =
  let db = build_employee S_inplace in
  let store = (Db.engine db).Engine.store in
  let link_bindings, _ = Store.bindings store in
  let check_link_files () =
    List.iter (fun (id, _) -> Heap_file.check (Store.link_file store id)) link_bindings
  in
  let oids set =
    let acc = ref [] in
    Db.scan db ~set (fun oid _ -> acc := oid :: !acc);
    Array.of_list (List.rev !acc)
  in
  let depts = oids "Dept" in
  let churn round =
    let emps = oids "Emp1" in
    Array.iteri
      (fun i emp ->
        if i mod 2 = round then begin
          Db.delete db ~set:"Emp1" emp;
          ignore
            (Db.insert db ~set:"Emp1"
               [
                 Value.VString (Printf.sprintf "new-%d-%d" round i);
                 Value.VInt 30;
                 Value.VInt 50_000;
                 Value.VRef depts.(((i * 7) + round) mod Array.length depts);
               ])
        end)
      emps;
    check_link_files ();
    Db.check_integrity db;
    checki "Emp1 size" (Array.length emps) (Db.set_size db "Emp1")
  in
  churn 0;
  Pager.run_cold (Db.pager db) (fun () -> ());
  let disk = Pager.disk (Db.pager db) in
  List.iter
    (fun fid ->
      for page = 0 to Disk.page_count disk fid - 1 do
        Disk.corrupt_page disk ~file:fid ~page [ 17 ]
      done)
    (List.sort_uniq compare (List.map snd link_bindings));
  scrub_and_verify db (snapshot db);
  check_link_files ();
  churn 1

let test_matrix_sprime_page () =
  let db = build_employee S_separate in
  let expected = snapshot db in
  let _, sprime_bindings = Store.bindings (Db.engine db).Engine.store in
  checkb "separate strategy maintains an S' file" true (sprime_bindings <> []);
  corrupt_first_page db (List.map snd sprime_bindings);
  scrub_and_verify db expected

(* [r] with [values.(i)] replaced. *)
let with_value (r : Record.t) i v =
  { r with Record.values = Array.mapi (fun j x -> if j = i then v else x) r.Record.values }

(* Logical corruption: the page checksums are fine, the derived values are
   wrong.  Scrub's recompute pass must still catch and repair it. *)
let overwrite_derived db strat =
  let env = Db.engine db in
  let schema = Db.schema db in
  let rep = List.hd (Schema.replications schema) in
  match strat with
  | S_inplace | S_collapsed ->
      let hf = env.Engine.file_of_set "Emp1" in
      let idx =
        Schema.hidden_index schema "Emp1" ~rep_id:rep.Schema.rep_id
          ~field:(Some "name")
      in
      let victim = ref Oid.nil in
      Heap_file.iter_oids hf (fun o -> if Oid.is_nil !victim then victim := o);
      let r = Record.decode (Heap_file.read hf !victim) in
      Heap_file.update hf !victim
        (Record.encode (with_value r idx (Value.VString "__rotten__")))
  | S_separate ->
      let sp_file =
        Option.get (Store.sprime_file_opt env.Engine.store rep.Schema.rep_id)
      in
      let victim = ref Oid.nil in
      Heap_file.iter_oids sp_file (fun o -> if Oid.is_nil !victim then victim := o);
      let r = Record.decode (Heap_file.read sp_file !victim) in
      let r = with_value r Engine.sprime_field_offset (Value.VString "__rotten__") in
      (* Also break the reference count, so the audit half is exercised. *)
      let r = with_value r 0 (Value.VInt 99) in
      Heap_file.update sp_file !victim (Record.encode r)

(* The divergence matrix: one row per kind of divergence the audit finds,
   each made by editing one object behind the engine's back.  Every row
   must be visible to the invariant checker, repaired by one scrub, pass
   the deep check afterwards, and leave a second scrub nothing to do. *)

let all_strats = [ S_inplace; S_separate; S_collapsed ]

let rewrite hf oid f =
  Heap_file.update hf oid (Record.encode (f (Record.decode (Heap_file.read hf oid))))

let without_pair (r : Record.t) link_id =
  {
    r with
    Record.links =
      List.filter (fun (l : Record.link) -> l.Record.link_id <> link_id) r.Record.links;
  }

let set_file db set = (Db.engine db).Engine.file_of_set set

let store db = (Db.engine db).Engine.store

let first_emp db =
  let first = ref Oid.nil in
  Heap_file.iter_oids (set_file db "Emp1") (fun o -> if Oid.is_nil !first then first := o);
  !first

(* The first target whose pair names a link object (not a direct pair):
   its set, OID and that pair. *)
let linked_target db =
  let found = ref None in
  List.iter
    (fun set ->
      Heap_file.iter (set_file db set) Bytes.sub (fun oid bytes ->
          List.iter
            (fun (pair : Record.link) ->
              if !found = None && Store.is_link_oid (store db) pair.Record.link_oid then
                found := Some (set, oid, pair))
            (Record.decode bytes).Record.links))
    [ "Dept"; "Org" ];
  match !found with
  | Some t -> t
  | None -> Alcotest.fail "no target holds a link object"

let link_file_of db (pair : Record.link) =
  Option.get (Store.file_of_oid (store db) pair.Record.link_oid)

let sprime_file db =
  let rep = List.hd (Schema.replications (Db.schema db)) in
  Option.get (Store.sprime_file_opt (store db) rep.Schema.rep_id)

let sprime_oids db =
  let acc = ref [] in
  Heap_file.iter_oids (sprime_file db) (fun o -> acc := o :: !acc);
  List.rev !acc

let sprime_owner db sp =
  Value.as_ref (Record.field (Record.decode (Heap_file.read (sprime_file db) sp)) 1)

let stray_link_pair db =
  let _, _, pair = linked_target db in
  let emp = first_emp db in
  rewrite (set_file db "Emp1") emp (fun r ->
      {
        r with
        Record.links =
          List.sort
            (fun (a : Record.link) b -> Int.compare a.Record.link_id b.Record.link_id)
            ({ Record.link_oid = emp; link_id = pair.Record.link_id } :: r.Record.links);
      })

let wrong_link_member db =
  let _, _, pair = linked_target db in
  let lf = link_file_of db pair in
  let buf = ref (Heap_file.read lf pair.Record.link_oid) in
  let len = Bytes.length !buf in
  let entries =
    List.rev
      (Link_object.fold_at
         (fun acc member tag -> { Link_object.member; tag } :: acc)
         [] !buf 0 len)
  in
  let victim = List.hd entries in
  let outsider = ref Oid.nil in
  Heap_file.iter_oids (set_file db "Emp1") (fun o ->
      if
        Oid.is_nil !outsider
        && not (List.exists (fun (e : Link_object.entry) -> Oid.equal e.member o) entries)
      then outsider := o);
  let len = Link_object.remove_at buf len victim.Link_object.member in
  let len = Link_object.add_at buf len { victim with Link_object.member = !outsider } in
  Heap_file.update ~len lf pair.Record.link_oid !buf

let missing_membership db =
  let set, target, pair = linked_target db in
  rewrite (set_file db set) target (fun r -> without_pair r pair.Record.link_id)

let orphan_link_object db =
  let _, _, pair = linked_target db in
  let buf = ref Bytes.empty in
  let len =
    Link_object.entries_into buf [ { Link_object.member = first_emp db; tag = Oid.nil } ]
  in
  ignore (Heap_file.insert ~len (link_file_of db pair) !buf)

let sprime_wrong_owner db =
  match sprime_oids db with
  | sp1 :: sp2 :: _ ->
      let other = sprime_owner db sp2 in
      rewrite (sprime_file db) sp1 (fun r -> with_value r 1 (Value.VRef other))
  | _ -> Alcotest.fail "need two S' records"

let missing_sref_pair db =
  let sp = List.hd (sprime_oids db) in
  let owner = sprime_owner db sp in
  let hf = set_file db "Org" in
  rewrite hf owner (fun r ->
      match
        List.find_opt
          (fun (p : Record.link) -> Oid.equal p.Record.link_oid sp)
          r.Record.links
      with
      | Some p -> without_pair r p.Record.link_id
      | None -> Alcotest.fail "owner holds no sref pair")

let divergences =
  [
    ("derived values", all_strats, fun db strat -> overwrite_derived db strat);
    ("stray link pair", all_strats, fun db _ -> stray_link_pair db);
    ("wrong link member", all_strats, fun db _ -> wrong_link_member db);
    ("missing membership", all_strats, fun db _ -> missing_membership db);
    ("orphan link object", all_strats, fun db _ -> orphan_link_object db);
    ("S' wrong owner", [ S_separate ], fun db _ -> sprime_wrong_owner db);
    ("missing sref pair", [ S_separate ], fun db _ -> missing_sref_pair db);
  ]

let test_divergence corrupt strat () =
  let db = build_employee strat in
  let expected = snapshot db in
  corrupt db strat;
  checkb "corruption visible to the invariant checker" true
    (Invariants.errors (Db.engine db) <> []);
  let r = Db.scrub db in
  checkb "logical repairs performed" true (r.Scrub.repairs >= 1);
  Db.check_integrity db;
  assert_snapshot db expected;
  checki "second scrub repairs nothing" 0 (Db.scrub db).Scrub.repairs

(* ------------------------------------------------------------------ *)
(* Source fields are not derivable                                     *)

let find_sub hay needle =
  let n = Bytes.length hay and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.equal (Bytes.sub_string hay i m) needle then Some i
    else go (i + 1)
  in
  go 0

let test_source_field_unrepairable () =
  let db = build_employee S_inplace in
  let env = Db.engine db in
  (* Give one Org a unique name so its bytes can be located on disk, and
     let the update propagate to every hidden copy. *)
  let org = ref Oid.nil in
  Db.scan db ~set:"Org" (fun oid _ -> if Oid.is_nil !org then org := oid);
  let org = !org in
  Db.update_field db ~set:"Org" org ~field:"name" (Value.VString "XMARKSTHESPOT");
  Db.check_integrity db;
  Pager.run_cold (Db.pager db) (fun () -> ());
  let disk = Pager.disk (Db.pager db) in
  let fid = Heap_file.file_id (env.Engine.file_of_set "Org") in
  let dump = Disk.dump_page disk ~file:fid ~page:org.Oid.page in
  let off =
    match find_sub dump "XMARKSTHESPOT" with
    | Some o -> o
    | None -> Alcotest.fail "marker string not found on the org page"
  in
  (* Flip one content byte: the record still decodes, but the stored name
     is now silently wrong — and there is no second copy to prove it. *)
  Disk.corrupt_page disk ~file:fid ~page:org.Oid.page [ off + 1 ];
  let r = Db.scrub db in
  checki "rot detected" 1 r.Scrub.checksum_failures;
  checkb "page salvaged, not quarantined" true (r.Scrub.quarantined = []);
  checkb "source corruption reported as unrepairable" true
    (List.exists
       (fun s ->
         let has sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has "source fields" || has "unrepairable")
       r.Scrub.unrepairable);
  (* The value was NOT silently "fixed": the flipped byte is still there,
     and the hidden copies follow the (authoritative, now corrupt) source. *)
  let name = List.hd (Db.user_values db ~set:"Org" (Db.get db ~set:"Org" org)) in
  checkb "corrupt source value left in place" true
    (not (Value.equal name (Value.VString "XMARKSTHESPOT")));
  Db.check_integrity db;
  let rs, _ = Db.referencers db ~source_set:"Dept" ~attr:"org" org in
  checkb "org still referenced" true (rs <> [])

let test_undecodable_data_page_stays_quarantined () =
  let db = build_employee S_inplace in
  let env = Db.engine db in
  Pager.run_cold (Db.pager db) (fun () -> ());
  let disk = Pager.disk (Db.pager db) in
  let fid = Heap_file.file_id (env.Engine.file_of_set "Emp1") in
  (* Shred the page header: the slot directory itself is garbage, no
     record can be trusted, the page must stay fenced off. *)
  Disk.corrupt_page disk ~file:fid ~page:0 [ 0; 1; 2; 3; 4; 5 ];
  let r = Db.scrub db in
  checki "rot detected" 1 r.Scrub.checksum_failures;
  checkb "page stays quarantined" true (List.mem (fid, 0) r.Scrub.quarantined);
  checkb "reported unrepairable" true (r.Scrub.unrepairable <> []);
  (try
     ignore
       (Pager.with_page_read (Db.pager db) ~file:fid ~page:0 (fun b ->
            Bytes.get b 0));
     Alcotest.fail "expected Corrupt_page"
   with Disk.Corrupt_page _ -> ())

(* ------------------------------------------------------------------ *)
(* End to end: degrade, scrub, repair, crash, recover                  *)

let test_end_to_end_degraded_then_repaired () =
  let img = tmp "e2e" ".img" in
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 30;
        sharing = 2;
        strategy = Params.Separate;
        page_size = 1024;
        frames = 32;
        seed = 13 + seed_base;
        durable = true;
      }
  in
  let db = built.Gen.db in
  Db.checkpoint db img;
  let r_oids = ref [] in
  Db.scan db ~set:"R" (fun oid _ -> r_oids := oid :: !r_oids);
  let r_oids = List.rev !r_oids in
  let expected =
    List.map (fun r -> (r, Db.deref db ~set:"R" r "sref.repfield")) r_oids
  in
  checkb "reads are replica-served before corruption" true
    (Db.deref_would_join db ~set:"R" "sref.repfield" = 1);
  (* Bit-rot on every S' page, with the buffer pool emptied so the next
     read really hits the disk. *)
  Pager.run_cold (Db.pager db) (fun () -> ());
  let disk = Pager.disk (Db.pager db) in
  let _, sprime_bindings = Store.bindings (Db.engine db).Engine.store in
  let sp_fid = snd (List.hd sprime_bindings) in
  let sp_pages = Disk.page_count disk sp_fid in
  for page = 0 to sp_pages - 1 do
    Disk.corrupt_page disk ~file:sp_fid ~page [ 11; 19 ]
  done;
  (* Degraded reads: every query still answers, via the functional join
     over the authoritative source objects. *)
  let degraded_before = (Db.stats db).Stats.degraded_reads in
  List.iter
    (fun (r, v) -> checkv "degraded read still correct" v (Db.deref db ~set:"R" r "sref.repfield"))
    expected;
  checkb "fallback counted" true ((Db.stats db).Stats.degraded_reads > degraded_before);
  (* Scrub: detect, rebuild the S' file, re-verify. *)
  let report = Db.scrub db in
  checkb "all S' pages failed their checksums" true
    (report.Scrub.checksum_failures >= sp_pages);
  checkb "repairs performed" true (report.Scrub.repairs >= 1);
  checkb "nothing quarantined" true (report.Scrub.quarantined = []);
  Db.check_integrity db;
  let degraded_after_scrub = (Db.stats db).Stats.degraded_reads in
  List.iter
    (fun (r, v) -> checkv "replica-served read restored" v (Db.deref db ~set:"R" r "sref.repfield"))
    expected;
  checki "no more degraded reads" degraded_after_scrub
    (Db.stats db).Stats.degraded_reads;
  (* The repairs were WAL-logged: crash now and recover from the
     checkpoint — replay must converge back to a clean, repaired state. *)
  Wal.close (Option.get (Db.wal db));
  let db2 = Db.recover img in
  Db.check_integrity db2;
  List.iter
    (fun (r, v) -> checkv "repair survives recovery" v (Db.deref db2 ~set:"R" r "sref.repfield"))
    expected;
  Sys.remove img

(* A scrub on a durable database logs Scrub_repair records. *)
let test_scrub_repairs_are_logged () =
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 20;
        sharing = 2;
        strategy = Params.Inplace;
        page_size = 1024;
        frames = 32;
        seed = 29 + seed_base;
        durable = true;
      }
  in
  let db = built.Gen.db in
  let link_bindings, _ = Store.bindings (Db.engine db).Engine.store in
  corrupt_first_page db (List.sort_uniq compare (List.map snd link_bindings));
  let before = Wal.appended (Option.get (Db.wal db)) in
  let r = Db.scrub db in
  checkb "repairs performed" true (r.Scrub.repairs >= 1);
  checkb "each repair hit the log" true
    (Wal.appended (Option.get (Db.wal db)) > before);
  Db.check_integrity db

let () =
  Alcotest.run "fieldrep_scrub"
    [
      ( "detection",
        [
          Alcotest.test_case "bit rot" `Quick test_checksum_detects_bit_rot;
          Alcotest.test_case "torn page" `Quick test_checksum_detects_torn_page;
          Alcotest.test_case "sum32 vectors" `Quick test_sum32_known_values;
          Alcotest.test_case "sum32 single-bit flips" `Quick test_sum32_bit_flips;
          Alcotest.test_case "sum32 torn half page" `Quick test_sum32_torn_half;
          Alcotest.test_case "sum32 slices" `Quick test_sum32_slices;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "write failpoint count" `Quick test_write_failpoint_count;
          Alcotest.test_case "read retry" `Quick test_read_failpoint_retry;
          Alcotest.test_case "intermittent reads" `Quick test_read_failpoint_intermittent;
        ] );
      ( "wal",
        [
          Alcotest.test_case "scrub_repair codec" `Quick test_wal_scrub_repair_roundtrip;
        ] );
      ( "scrub matrix",
        List.map
          (fun strat ->
            Alcotest.test_case
              (strat_name strat ^ ": link page rot")
              `Quick (test_matrix_link_page strat))
          all_strats
        @ List.concat_map
            (fun (name, strats, corrupt) ->
              List.map
                (fun strat ->
                  Alcotest.test_case
                    (strat_name strat ^ ": " ^ name)
                    `Quick (test_divergence corrupt strat))
                strats)
            divergences
        @ [
            Alcotest.test_case "separate: S' page rot" `Quick test_matrix_sprime_page;
            Alcotest.test_case "in-place: blanked link page, then churn" `Quick
              test_blanked_link_page_then_churn;
          ]
      );
      ( "unrepairable",
        [
          Alcotest.test_case "source field reported, not fixed" `Quick
            test_source_field_unrepairable;
          Alcotest.test_case "undecodable page quarantined" `Quick
            test_undecodable_data_page_stays_quarantined;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "degrade, scrub, recover" `Quick
            test_end_to_end_degraded_then_repaired;
          Alcotest.test_case "repairs are logged" `Quick test_scrub_repairs_are_logged;
        ] );
    ]
