(* Tests for database images (Db.save / Db.load): a full round-trip must
   preserve the catalog, all data, indexes, replication structures and the
   engine's ability to keep propagating afterwards. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Key = Fieldrep_btree.Key
module Ast = Fieldrep_query.Ast
module Exec = Fieldrep_query.Exec
module Lang = Fieldrep_query.Lang
module Gen = Fieldrep_workload.Gen
module Engine = Fieldrep_replication.Engine
module Pager = Fieldrep_storage.Pager
module Disk = Fieldrep_storage.Disk
module Transport = Fieldrep_repl.Transport
module Repl = Fieldrep_repl.Repl
module Wal = Fieldrep_wal.Wal

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable
let vstr s = Value.VString s

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("fieldrep_" ^ name ^ ".img")

let rich_db () =
  let db = Gen.employee_db ~norgs:3 ~ndepts:10 ~nemps:120 ~seed:19 () in
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
  Db.replicate db ~strategy:Schema.Separate (Path.parse "Emp1.dept.org.name");
  Db.build_index db ~name:"by_salary" ~set:"Emp1" ~field:"salary" ~clustered:false;
  Db.build_index db ~name:"by_deptname" ~set:"Emp1" ~field:"Emp1.dept.name" ~clustered:false;
  db

let dump_rows db =
  Exec.retrieve_values db
    {
      Ast.from_set = "Emp1";
      projections = [ "name"; "salary"; "dept.name"; "dept.org.name" ];
      where = None;
    }

let test_roundtrip_preserves_everything () =
  let db = rich_db () in
  let before = dump_rows db in
  let path = tmp "roundtrip" in
  Db.save db path;
  let db2 = Db.load path in
  (* Catalog. *)
  checki "types" 3 (List.length (Schema.types (Db.schema db2)));
  checki "sets" 3 (List.length (Schema.sets (Db.schema db2)));
  checki "replications" 2 (List.length (Schema.replications (Db.schema db2)));
  checki "indexes" 2 (List.length (Schema.indexes (Db.schema db2)));
  (* Data. *)
  checki "employees" 120 (Db.set_size db2 "Emp1");
  let after = dump_rows db2 in
  checkb "identical query results" true
    (List.equal (List.equal Value.equal) before after);
  (* Planner still avoids the joins. *)
  checki "inplace covered" 0 (Db.deref_would_join db2 ~set:"Emp1" "dept.name");
  checki "separate covered" 1 (Db.deref_would_join db2 ~set:"Emp1" "dept.org.name");
  Db.check_integrity db2;
  Sys.remove path

let test_mutations_after_load () =
  let db = rich_db () in
  let path = tmp "mutate" in
  Db.save db path;
  let db2 = Db.load path in
  (* Propagation machinery still works on the reopened database. *)
  let dept = List.hd (Exec.matching_oids db2 ~set:"Dept" None) in
  Db.update_field db2 ~set:"Dept" dept ~field:"name" (vstr "post-load");
  let emps, how = Db.referencers db2 ~source_set:"Emp1" ~attr:"dept" dept in
  checkb "inverse via links after load" true (how = Db.Via_links);
  List.iter
    (fun e -> checkv "propagated" (vstr "post-load") (Db.deref db2 ~set:"Emp1" e "dept.name"))
    emps;
  (* Index on the replicated path was maintained. *)
  checki "path index tracks rename" (List.length emps)
    (List.length (Db.index_lookup db2 ~index:"by_deptname" (Key.String "post-load")));
  (* Inserts and deletes still work. *)
  let e =
    Db.insert db2 ~set:"Emp1"
      [ vstr "fresh"; Value.VInt 30; Value.VInt 1; Value.VRef dept ]
  in
  checkv "new object attached" (vstr "post-load") (Db.deref db2 ~set:"Emp1" e "dept.name");
  Db.delete db2 ~set:"Emp1" e;
  Db.check_integrity db2;
  Sys.remove path

let test_index_survives () =
  let db = rich_db () in
  let hits_before = Db.index_range db ~index:"by_salary" ~lo:(Key.Int 0) ~hi:(Key.Int max_int) ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  let path = tmp "index" in
  Db.save db path;
  let db2 = Db.load path in
  let hits_after = Db.index_range db2 ~index:"by_salary" ~lo:(Key.Int 0) ~hi:(Key.Int max_int) ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  checki "index entries" hits_before hits_after;
  let st = Db.index_stats db2 ~index:"by_salary" in
  checki "entry count" 120 st.Db.entries;
  Sys.remove path

let test_lazy_flushed_on_save () =
  let db = Db.create () in
  ignore
    (Lang.exec_script db
       {|
       define type D (name: char[]);
       define type E (name: char[], d: ref D);
       create Ds: {own ref D};
       create Es: {own ref E}
       |});
  let d = Db.insert db ~set:"Ds" [ vstr "d0" ] in
  let e = Db.insert db ~set:"Es" [ vstr "e0"; Value.VRef d ] in
  ignore (Lang.exec db "replicate Es.d.name lazy");
  Db.update_field db ~set:"Ds" d ~field:"name" (vstr "later");
  checkb "pending before save" true (Engine.pending_count (Db.engine db) > 0);
  let path = tmp "lazy" in
  Db.save db path;
  checki "flushed by save" 0 (Engine.pending_count (Db.engine db));
  let db2 = Db.load path in
  checkv "image fully propagated" (vstr "later") (Db.deref db2 ~set:"Es" e "d.name");
  Db.check_integrity db2;
  Sys.remove path

let test_options_roundtrip () =
  let db = Db.create () in
  ignore
    (Lang.exec_script db
       {|
       define type O (name: char[]);
       define type D (name: char[], org: ref O);
       define type E (name: char[], d: ref D);
       create Os: {own ref O};
       create Ds: {own ref D};
       create Es: {own ref E}
       |});
  let o = Db.insert db ~set:"Os" [ vstr "o" ] in
  let d = Db.insert db ~set:"Ds" [ vstr "d"; Value.VRef o ] in
  ignore (Db.insert db ~set:"Es" [ vstr "e"; Value.VRef d ]);
  ignore (Lang.exec db "replicate Es.d.org.name collapsed");
  ignore (Lang.exec db "replicate Es.d.name threshold 0");
  let path = tmp "options" in
  Db.save db path;
  let db2 = Db.load path in
  let r1 =
    Option.get (Schema.find_replication (Db.schema db2) (Path.parse "Es.d.org.name"))
  in
  let r2 = Option.get (Schema.find_replication (Db.schema db2) (Path.parse "Es.d.name")) in
  checkb "collapse preserved" true r1.Schema.options.Schema.collapse;
  checki "threshold preserved" 0 r2.Schema.options.Schema.small_link_threshold;
  Db.check_integrity db2;
  Sys.remove path

let test_pending_lazy_with_mixed_indexes () =
  (* The hardest image case: clustered AND unclustered indexes present and
     lazy propagations still pending at save time.  Save must flush the
     pending work, and the reloaded database must satisfy every replication
     and index invariant. *)
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 200;
        sharing = 4;
        strategy = Fieldrep_costmodel.Params.No_replication;
        clustering = Fieldrep_costmodel.Params.Clustered;
        seed = 29;
      }
  in
  let db = built.Gen.db in
  (* Gen built clustered indexes on field_r / field_s; add an unclustered
     one over the same set. *)
  Db.build_index db ~name:"r_by_pad" ~set:"R" ~field:"pad" ~clustered:false;
  let options = { Schema.default_options with Schema.lazy_propagation = true } in
  Db.replicate db ~options ~strategy:Schema.Inplace (Path.parse "R.sref.repfield");
  (* Touch several S objects so invalidations are pending when we save. *)
  let dirty = [ 0; 7; 42; 199 ] in
  List.iter
    (fun key ->
      let s = List.hd (Db.index_lookup db ~index:Gen.s_index (Key.Int key)) in
      Db.update_field db ~set:"S" s ~field:"repfield"
        (vstr (Printf.sprintf "%020d" key)))
    dirty;
  checkb "pending before save" true (Engine.pending_count (Db.engine db) > 0);
  let path = tmp "pending_mixed" in
  Db.save db path;
  let db2 = Db.load path in
  checki "nothing pending after load" 0 (Engine.pending_count (Db.engine db2));
  (* The flushed hidden copies are visible through every R referencing a
     dirty S object. *)
  List.iter
    (fun key ->
      let s = List.hd (Db.index_lookup db2 ~index:Gen.s_index (Key.Int key)) in
      let rs, _ = Db.referencers db2 ~source_set:"R" ~attr:"sref" s in
      checki "sharing preserved" 4 (List.length rs);
      List.iter
        (fun r ->
          checkv "lazy update propagated into image"
            (vstr (Printf.sprintf "%020d" key))
            (Db.deref db2 ~set:"R" r "sref.repfield"))
        rs)
    dirty;
  (* All three indexes — two clustered, one unclustered — and the
     replication structures are consistent. *)
  Fieldrep_replication.Invariants.check (Db.engine db2);
  Db.check_integrity db2;
  Sys.remove path

let test_load_rejects_garbage () =
  let path = tmp "garbage" in
  let oc = open_out_bin path in
  output_string oc "this is not a database image at all";
  close_out oc;
  (try
     ignore (Db.load path);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Sys.remove path

(* A cut image fails with one message wherever the cut falls: inside the
   magic, the header, the schema, or the pages. *)
let test_load_rejects_truncated () =
  let db = rich_db () in
  let path = tmp "whole" in
  Db.save db path;
  let image = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (* magic (8), page size (4), checkpoint LSN (8), WAL path (2 + 0 bytes:
     no WAL), file-id watermark (4); the catalog follows *)
  let header_end = 8 + 4 + 8 + 2 + 4 in
  List.iter
    (fun cut ->
      let short = tmp "truncated" in
      Out_channel.with_open_bin short (fun oc ->
          output_string oc (String.sub image 0 cut));
      (match Db.load short with
      | _ -> Alcotest.failf "image cut at byte %d loaded" cut
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            (Printf.sprintf "cut at byte %d" cut)
            "Db.load: truncated or corrupt image" msg);
      Sys.remove short)
    [ 3; 14; header_end + 20; String.length image - 100 ]

(* An image of [image] with the byte at [off] flipped, through a file. *)
let load_flipped image off =
  let path = tmp "flipped" in
  let b = Bytes.of_string image in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Db.load path)

(* The seal covers every byte: a flip anywhere is refused, whichever
   region it lands in. *)
let test_load_rejects_flipped_byte () =
  let db = rich_db () in
  let image = Db.image db in
  let n = String.length image in
  (* The 26-byte header (see the truncated test), the file count, each
     file as [id | page count | pages], then the catalog's entry count; its
     first frame is [len:u32 | crc:u32 | payload], and the type tag the
     frame does not carry follows it.  The link and S' bindings end the
     image, before the 4-byte seal. *)
  let u32 off = Int32.to_int (String.get_int32_le image off) in
  let page_size = u32 8 in
  let rec skip off files =
    if files = 0 then off else skip (off + 8 + (u32 (off + 4) * page_size)) (files - 1)
  in
  let catalog = skip 30 (u32 26) in
  let frame = catalog + 2 in
  let frame_end = frame + 8 + u32 frame in
  (match Wal.decode_frame (Bytes.of_string (String.sub image frame (frame_end - frame))) with
  | _, Wal.Define_type _ -> ()
  | _ -> Alcotest.fail "the catalog does not open with a type");
  let regions =
    [
      ("page size", 9);
      ("watermark", 24);
      ("file count", 26);
      ("first page", 38 + 100);
      ("last page", catalog - 1);
      ("entry count", catalog);
      ("frame length", frame);
      ("frame payload", frame_end - 1);
      ("type tag binding", frame_end);
      ("S' bindings", n - 5);
      ("seal", n - 1);
    ]
  in
  let sweep = List.init ((n - 8) / 1009) (fun i -> ("sweep", 8 + (i * 1009))) in
  List.iter
    (fun (region, off) ->
      match load_flipped image off with
      | _ -> Alcotest.failf "%s: image with byte %d flipped loaded" region off
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            (Printf.sprintf "%s (byte %d)" region off)
            "Db.load: truncated or corrupt image" msg)
    (regions @ sweep);
  (* An image of the previous format is refused by its magic. *)
  let old = "FREPIMG3" ^ String.sub image 8 (n - 8) in
  match Db.open_replica old with
  | _ -> Alcotest.fail "an FREPIMG3 image loaded"
  | exception Invalid_argument _ -> ()

(* A page that fails its checksum is never copied into an image, where the
   load would re-seal it: the save, and a snapshot, refuse it and
   quarantine it, leaving the caller to scrub. *)
let test_save_refuses_rotten_page () =
  let db = rich_db () in
  let pager = Db.pager db in
  Pager.flush pager;
  let disk = Pager.disk pager in
  Disk.corrupt_page disk ~file:0 ~page:0 [ 100 ];
  let path = tmp "rotten" in
  if Sys.file_exists path then Sys.remove path;
  (match Db.save db path with
  | () -> Alcotest.fail "an image copied a rotten page"
  | exception Disk.Corrupt_page { file = 0; page = 0 } -> ());
  checkb "no image written" false (Sys.file_exists path);
  checkb "page quarantined" true (Disk.quarantined_pages disk = [ (0, 0) ]);
  match Db.image db with
  | _ -> Alcotest.fail "a snapshot copied a rotten page"
  | exception Disk.Corrupt_page _ -> ()

let test_rs_database_roundtrip () =
  (* The full workload database with clustered indexes. *)
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 300;
        sharing = 3;
        strategy = Fieldrep_costmodel.Params.Inplace;
        clustering = Fieldrep_costmodel.Params.Clustered;
      }
  in
  let path = tmp "rs" in
  Db.save built.Gen.db path;
  let db2 = Db.load path in
  checki "R preserved" 900 (Db.set_size db2 "R");
  (* A range query through the clustered index returns the same rows. *)
  let q =
    {
      Ast.from_set = "R";
      projections = [ "field_r"; "sref.repfield" ];
      where = Some (Ast.between "field_r" (Value.VInt 100) (Value.VInt 120));
    }
  in
  checkb "query identical" true
    (List.equal (List.equal Value.equal)
       (Exec.retrieve_values built.Gen.db q)
       (Exec.retrieve_values db2 q));
  Db.check_integrity db2;
  Sys.remove path

(* An R/S database on small pages, then deletes of most of R: the R index
   merges leaves and frees their pages. *)
let churned_db ~durable =
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 100;
        sharing = 4;
        strategy = Fieldrep_costmodel.Params.Inplace;
        page_size = 512;
        durable;
      }
  in
  let db = built.Gen.db in
  let r_oids = ref [] in
  Db.scan db ~set:"R" (fun oid _ -> r_oids := oid :: !r_oids);
  List.iteri
    (fun i oid -> if i mod 4 <> 0 then Db.delete db ~set:"R" oid)
    !r_oids;
  db

let insert_r db ~from n =
  let s = List.hd (Db.index_lookup db ~index:Gen.s_index (Key.Int 0)) in
  for k = from to from + n - 1 do
    ignore
      (Db.insert db ~set:"R" [ Value.VInt k; vstr "pad"; Value.VRef s ])
  done

let index_pages db = (Db.index_stats db ~index:Gen.r_index).Db.pages

let test_free_pages_survive_load () =
  let db = churned_db ~durable:false in
  let path = tmp "free_pages" in
  Db.save db path;
  let twin = Db.load path in
  Sys.remove path;
  checki "same index pages after load" (index_pages db) (index_pages twin);
  (* Both trees must reuse the pages the deletes freed, in the same order. *)
  insert_r db ~from:10_000 300;
  insert_r twin ~from:10_000 300;
  checki "same index pages after inserts" (index_pages db) (index_pages twin);
  Db.check_integrity twin

(* Digest of every page of every disk file. *)
let disk_digest db =
  Pager.flush (Db.pager db);
  let disk = Pager.disk (Db.pager db) in
  List.map
    (fun id ->
      ( id,
        List.init (Disk.page_count disk id) (fun page ->
            Digest.bytes (Disk.dump_page disk ~file:id ~page)) ))
    (List.sort compare (Disk.file_ids disk))

let test_snapshot_replica_matches_pages () =
  let db = churned_db ~durable:true in
  let m = Repl.Master.create db in
  let ma, rb, _, _ = Transport.loopback () in
  let r = Repl.Replica.connect rb in
  let pump () = ignore (Repl.Replica.drain r) in
  ignore (Repl.Master.attach ~pump m ma);
  ignore (Repl.Replica.drain r);
  insert_r db ~from:10_000 300;
  Repl.Master.pump m;
  ignore (Repl.Replica.drain r);
  let rdb = Repl.Replica.db r in
  checki "same index pages" (index_pages db) (index_pages rdb);
  checkb "pages byte-identical" true (disk_digest db = disk_digest rdb)

let () =
  Alcotest.run "fieldrep_image"
    [
      ( "images",
        [
          Alcotest.test_case "roundtrip preserves everything" `Quick
            test_roundtrip_preserves_everything;
          Alcotest.test_case "mutations after load" `Quick test_mutations_after_load;
          Alcotest.test_case "index survives" `Quick test_index_survives;
          Alcotest.test_case "lazy flushed on save" `Quick test_lazy_flushed_on_save;
          Alcotest.test_case "options roundtrip" `Quick test_options_roundtrip;
          Alcotest.test_case "pending lazy + mixed indexes" `Quick
            test_pending_lazy_with_mixed_indexes;
          Alcotest.test_case "garbage rejected" `Quick test_load_rejects_garbage;
          Alcotest.test_case "truncated image rejected" `Quick test_load_rejects_truncated;
          Alcotest.test_case "flipped byte rejected" `Quick test_load_rejects_flipped_byte;
          Alcotest.test_case "rotten page refused" `Quick test_save_refuses_rotten_page;
          Alcotest.test_case "R/S database roundtrip" `Quick test_rs_database_roundtrip;
          Alcotest.test_case "index free pages survive load" `Quick
            test_free_pages_survive_load;
          Alcotest.test_case "snapshot replica pages match master" `Quick
            test_snapshot_replica_matches_pages;
        ] );
    ]
