(* Tests for the storage manager: OIDs, slotted pages, the simulated disk,
   the buffer pool, and heap files (including chained oversize objects). *)

module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Page = Fieldrep_storage.Page
module Disk = Fieldrep_storage.Disk
module Buffer_pool = Fieldrep_storage.Buffer_pool
module Pager = Fieldrep_storage.Pager
module Heap_file = Fieldrep_storage.Heap_file
module Splitmix = Fieldrep_util.Splitmix

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Oid                                                                 *)

let test_oid_roundtrip () =
  List.iter
    (fun oid ->
      let buf = Bytes.create Oid.encoded_size in
      ignore (Oid.encode buf 0 oid);
      let decoded = Oid.decode buf 0 in
      checkb "equal" true (Oid.equal oid decoded);
      checkb "nil in place" (Oid.is_nil oid) (Oid.is_nil_at buf 0);
      checkb "int64 roundtrip" true (Oid.equal oid (Oid.of_int64 (Oid.to_int64 oid))))
    [
      { Oid.file = 0; page = 0; slot = 0 };
      { Oid.file = 5; page = 12345; slot = 77 };
      { Oid.file = 65534; page = 0xFFFF_FFFE; slot = 65534 };
      Oid.nil;
    ]

let test_oid_order_is_physical () =
  let a = { Oid.file = 1; page = 5; slot = 9 } in
  let b = { Oid.file = 1; page = 6; slot = 0 } in
  let c = { Oid.file = 2; page = 0; slot = 0 } in
  checkb "page order" true (Oid.compare a b < 0);
  checkb "file order" true (Oid.compare b c < 0);
  checkb "reflexive" true (Oid.compare a a = 0)

let test_oid_nil () =
  checkb "nil is nil" true (Oid.is_nil Oid.nil);
  checkb "ordinary oid" false (Oid.is_nil { Oid.file = 0; page = 0; slot = 0 })

let test_oid_containers () =
  let oids = List.init 100 (fun i -> { Oid.file = i mod 3; page = i; slot = i * 7 mod 11 }) in
  let set = Oid.Set.of_list oids in
  checki "set size" 100 (Oid.Set.cardinal set);
  let tbl = Oid.Table.create 16 in
  List.iteri (fun i oid -> Oid.Table.replace tbl oid i) oids;
  checki "table size" 100 (Oid.Table.length tbl)

(* ------------------------------------------------------------------ *)
(* Page                                                                *)

let fresh_page ?(size = 512) () =
  let page = Bytes.create size in
  Page.init page;
  page

let payload n c = Bytes.make n c

(* [Page.insert] that must find room. *)
let insert page data =
  let slot = Page.insert page data (Bytes.length data) in
  if slot < 0 then Alcotest.fail "no room on the page";
  slot

let test_page_insert_read () =
  let page = fresh_page () in
  let s1 = insert page (payload 10 'a') in
  let s2 = insert page (payload 20 'b') in
  checki "distinct slots" 1 (s2 - s1);
  Alcotest.(check bytes) "read back a" (payload 10 'a') (Page.read page s1);
  Alcotest.(check bytes) "read back b" (payload 20 'b') (Page.read page s2);
  checki "live" 2 (Page.live_count page)

let test_page_delete_and_reuse () =
  let page = fresh_page () in
  let s1 = insert page (payload 10 'a') in
  let _s2 = insert page (payload 10 'b') in
  Page.delete page s1;
  checkb "dead" false (Page.is_live page s1);
  checki "live" 1 (Page.live_count page);
  (* The freed directory entry is reused. *)
  let s3 = insert page (payload 5 'c') in
  checki "slot reused" s1 s3

let test_page_fill_to_capacity () =
  let page = fresh_page ~size:256 () in
  let inserted = ref 0 in
  (try
     while true do
       match Page.insert page (payload 16 'x') 16 with
       | -1 -> raise Exit
       | _ -> incr inserted
     done
   with Exit -> ());
  (* 256 - 4 header; each record costs 16 + 4 directory = 20. *)
  checki "capacity" 12 !inserted;
  checkb "page full" false (Page.fits page 16)

let test_page_compaction_recovers_space () =
  let page = fresh_page ~size:256 () in
  let slots = List.init 12 (fun _ -> insert page (payload 16 'x')) in
  (* Free alternating slots, then a 32-byte record must fit via compaction. *)
  List.iteri (fun i s -> if i mod 2 = 0 then Page.delete page s) slots;
  (match Page.insert page (payload 32 'y') 32 with
  | -1 -> Alcotest.fail "compaction failed to recover space"
  | s -> Alcotest.(check bytes) "read" (payload 32 'y') (Page.read page s))

let test_page_write_in_place_and_grow () =
  let page = fresh_page () in
  let s = insert page (payload 50 'a') in
  checkb "shrink" true (Page.write page s (payload 10 'b') 10);
  Alcotest.(check bytes) "shrunk" (payload 10 'b') (Page.read page s);
  checkb "grow" true (Page.write page s (payload 100 'c') 100);
  Alcotest.(check bytes) "grown" (payload 100 'c') (Page.read page s)

let test_page_write_too_big_fails_cleanly () =
  let page = fresh_page ~size:128 () in
  let s = insert page (payload 40 'a') in
  checkb "rejected" false (Page.write page s (payload 1000 'b') 1000);
  Alcotest.(check bytes) "old intact" (payload 40 'a') (Page.read page s)

let test_page_iter_order () =
  let page = fresh_page () in
  let s0 = insert page (payload 4 '0') in
  let s1 = insert page (payload 4 '1') in
  let s2 = insert page (payload 4 '2') in
  Page.delete page s1;
  let visited = Page.fold (fun acc s _ -> s :: acc) [] page in
  Alcotest.(check (list int)) "slot order" [ s0; s2 ] (List.rev visited)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let test_page_compact_allocation_free () =
  let page = fresh_page ~size:4096 () in
  (* Fill the page, then free every other record just placed. *)
  let holes () =
    let slots = ref [] in
    while Page.fits page 60 do
      slots := insert page (payload 60 'x') :: !slots
    done;
    List.iteri (fun i s -> if i mod 2 = 0 then Page.delete page s) !slots
  in
  holes ();
  (* Warm-up: the domain's scratch copy grows to the page size. *)
  Page.compact page;
  checki "compact allocates nothing" 0 (minor_words (fun () -> Page.compact page));
  holes ();
  let big = payload 100 'y' in
  let slot = ref (-1) in
  checki "insert that compacts allocates nothing" 0
    (minor_words (fun () -> slot := Page.insert page big (Bytes.length big)));
  Alcotest.(check bytes) "inserted" big (Page.read page !slot)

(* A write stages its segment in the domain's scratch buffer: updating an
   object in place, or inserting one that fits the tail page, allocates
   no more than the OID an insert returns. *)
let test_heap_write_words () =
  let pager = Pager.create ~page_size:4096 ~frames:16 () in
  let hf = Heap_file.create pager in
  let payload = Bytes.make 40 'p' in
  let oid = Heap_file.insert hf payload in
  Heap_file.update hf oid payload;
  let n = 50 in
  let update =
    minor_words (fun () ->
        for _ = 1 to n do
          Heap_file.update hf oid payload
        done)
  in
  if update > 6 * n then Alcotest.failf "update: %d words for %d calls (at most 6 each)" update n;
  let oid_words = Obj.reachable_words (Obj.repr oid) in
  let insert =
    minor_words (fun () ->
        for _ = 1 to n do
          ignore (Heap_file.insert hf payload)
        done)
  in
  checki "all on the first page" 1 (Heap_file.page_count hf);
  if insert > (6 + oid_words) * n then
    Alcotest.failf "insert: %d words for %d calls (at most 6 + the %d-word OID each)" insert
      n oid_words

let test_page_dead_slot_raises () =
  let page = fresh_page () in
  let s = insert page (payload 4 'a') in
  Page.delete page s;
  (try
     ignore (Page.read page s);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (try
     Page.delete page s;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Disk                                                                *)

let test_disk_io_counting () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:128 stats in
  let f = Disk.create_file disk in
  let p = Disk.allocate_page disk f in
  checki "no reads yet" 0 stats.Stats.page_reads;
  checki "allocation tracked" 1 stats.Stats.pages_allocated;
  let buf = Bytes.make 128 'z' in
  Disk.write_page disk ~file:f ~page:p buf;
  checki "one write" 1 stats.Stats.page_writes;
  let out = Bytes.create 128 in
  Disk.read_page disk ~file:f ~page:p out;
  checki "one read" 1 stats.Stats.page_reads;
  Alcotest.(check bytes) "data" buf out

let test_disk_many_pages () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let f = Disk.create_file disk in
  for i = 0 to 99 do
    let p = Disk.allocate_page disk f in
    checki "sequential page numbers" i p
  done;
  checki "page count" 100 (Disk.page_count disk f)

let test_disk_bad_page_rejected () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let f = Disk.create_file disk in
  (try
     Disk.read_page disk ~file:f ~page:0 (Bytes.create 64);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Buffer pool                                                         *)

let test_pool_hit_avoids_io () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let pool = Buffer_pool.create disk ~frames:4 in
  let f = Disk.create_file disk in
  let p = Buffer_pool.new_page pool ~file:f in
  checki "no read on new page" 0 stats.Stats.page_reads;
  Buffer_pool.with_page_write pool ~file:f ~page:p (fun buf -> Bytes.fill buf 0 8 'q');
  Buffer_pool.with_page_read pool ~file:f ~page:p (fun buf ->
      Alcotest.(check char) "resident data" 'q' (Bytes.get buf 0));
  checki "still no physical read" 0 stats.Stats.page_reads;
  checki "hits recorded" 2 stats.Stats.buffer_hits

let test_pool_eviction_writes_dirty () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let pool = Buffer_pool.create disk ~frames:2 in
  let f = Disk.create_file disk in
  let pages = List.init 4 (fun _ -> Buffer_pool.new_page pool ~file:f) in
  List.iteri
    (fun i p ->
      Buffer_pool.with_page_write pool ~file:f ~page:p (fun buf ->
          Bytes.fill buf 0 8 (Char.chr (Char.code 'a' + i))))
    pages;
  (* Pool holds 2 frames; 4 dirty pages forced at least 2 evictions. *)
  checkb "evictions wrote" true (stats.Stats.page_writes >= 2);
  (* All data must survive eviction. *)
  List.iteri
    (fun i p ->
      Buffer_pool.with_page_read pool ~file:f ~page:p (fun buf ->
          Alcotest.(check char) "survives" (Char.chr (Char.code 'a' + i)) (Bytes.get buf 0)))
    pages

(* After [clear], a sequential scan makes exactly one physical read per
   page and no buffer hits. *)
let test_pool_clear_forces_cold_reads () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let pool = Buffer_pool.create disk ~frames:8 in
  let f = Disk.create_file disk in
  let pages = List.init 6 (fun _ -> Buffer_pool.new_page pool ~file:f) in
  List.iter
    (fun p ->
      Buffer_pool.with_page_write pool ~file:f ~page:p (fun buf ->
          Bytes.fill buf 0 4 'k'))
    pages;
  Buffer_pool.clear pool;
  let reads = stats.Stats.page_reads and hits = stats.Stats.buffer_hits in
  List.iter
    (fun p ->
      Buffer_pool.with_page_read pool ~file:f ~page:p (fun buf ->
          Alcotest.(check char) "data flushed" 'k' (Bytes.get buf 0)))
    pages;
  checki "one cold read per page" (reads + 6) stats.Stats.page_reads;
  checki "no hits on a cold scan" hits stats.Stats.buffer_hits

(* Regression: Pager.delete_file used to clear the WHOLE pool, evicting
   every other file's frames; it must only drop the deleted file's. *)
let test_delete_file_keeps_other_files_resident () =
  let pager = Pager.create ~page_size:64 ~frames:8 () in
  let stats = Pager.stats pager in
  let keep = Pager.create_file pager in
  let doomed = Pager.create_file pager in
  let kp = Pager.new_page pager ~file:keep in
  Pager.with_page_write pager ~file:keep ~page:kp (fun buf -> Bytes.fill buf 0 4 'k');
  let dp = Pager.new_page pager ~file:doomed in
  Pager.with_page_write pager ~file:doomed ~page:dp (fun buf -> Bytes.fill buf 0 4 'd');
  Pager.delete_file pager doomed;
  let before = stats.Stats.page_reads in
  Pager.with_page_read pager ~file:keep ~page:kp (fun buf ->
      Alcotest.(check char) "data intact" 'k' (Bytes.get buf 0));
  checki "still resident: no physical read" before stats.Stats.page_reads

let test_drop_file_discards_without_writeback () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let pool = Buffer_pool.create disk ~frames:4 in
  let f = Disk.create_file disk in
  let p = Buffer_pool.new_page pool ~file:f in
  Buffer_pool.with_page_write pool ~file:f ~page:p (fun buf -> Bytes.fill buf 0 4 'x');
  let writes = stats.Stats.page_writes in
  Buffer_pool.drop_file pool ~file:f;
  checki "dirty frame dropped, not written" writes stats.Stats.page_writes;
  (* The frame really is gone: re-reading goes to the disk. *)
  let reads = stats.Stats.page_reads in
  Buffer_pool.with_page_read pool ~file:f ~page:p (fun _ -> ());
  checki "cold read after drop" (reads + 1) stats.Stats.page_reads

let test_pool_exhaustion () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let pool = Buffer_pool.create disk ~frames:1 in
  let f = Disk.create_file disk in
  let p0 = Buffer_pool.new_page pool ~file:f in
  let p1 = Buffer_pool.new_page pool ~file:f in
  (try
     Buffer_pool.with_page_read pool ~file:f ~page:p0 (fun _ ->
         Buffer_pool.with_page_read pool ~file:f ~page:p1 (fun _ -> ()));
     Alcotest.fail "expected Exhausted"
   with Buffer_pool.Exhausted -> ())

let test_pool_pin_released_on_exception () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let pool = Buffer_pool.create disk ~frames:1 in
  let f = Disk.create_file disk in
  let p0 = Buffer_pool.new_page pool ~file:f in
  (try
     Buffer_pool.with_page_read pool ~file:f ~page:p0 (fun _ -> failwith "boom")
   with Failure _ -> ());
  (* The pin must have been dropped: a different page can now evict p0. *)
  let p1 = Buffer_pool.new_page pool ~file:f in
  Buffer_pool.with_page_read pool ~file:f ~page:p1 (fun _ -> ())

(* Regression: new_page used to call Disk.allocate_page before claiming a
   victim frame, so an exhausted pool leaked the freshly allocated disk
   page (there is no Disk.free_page to return it). *)
let test_new_page_no_leak_when_exhausted () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let pool = Buffer_pool.create disk ~frames:2 in
  let f = Disk.create_file disk in
  let p0 = Buffer_pool.new_page pool ~file:f in
  let p1 = Buffer_pool.new_page pool ~file:f in
  checki "two pages allocated" 2 (Disk.page_count disk f);
  (* Fill the pool with pinned frames, then ask for a third page. *)
  (try
     Buffer_pool.with_page_read pool ~file:f ~page:p0 (fun _ ->
         Buffer_pool.with_page_read pool ~file:f ~page:p1 (fun _ ->
             ignore (Buffer_pool.new_page pool ~file:f);
             Alcotest.fail "expected Exhausted"))
   with Buffer_pool.Exhausted -> ());
  checki "no disk page leaked" 2 (Disk.page_count disk f);
  (* Once unpinned, allocation proceeds and lands on the next page. *)
  checki "next allocation contiguous" 2 (Buffer_pool.new_page pool ~file:f)

(* Regression: drop_file / clear raised on a pinned frame mid-sweep,
   leaving some of the file's pages unmapped and others resident.  They
   must refuse before mutating anything. *)
let test_delete_file_with_pinned_page_is_atomic () =
  let pager = Pager.create ~page_size:64 ~frames:8 () in
  let stats = Pager.stats pager in
  let f = Pager.create_file pager in
  let p0 = Pager.new_page pager ~file:f in
  let p1 = Pager.new_page pager ~file:f in
  Pager.with_page_write pager ~file:f ~page:p0 (fun buf -> Bytes.fill buf 0 4 'a');
  Pager.with_page_write pager ~file:f ~page:p1 (fun buf -> Bytes.fill buf 0 4 'b');
  (try
     Pager.with_page_read pager ~file:f ~page:p0 (fun _ ->
         Pager.delete_file pager f;
         Alcotest.fail "expected Invalid_argument")
   with Invalid_argument _ -> ());
  (* Nothing was unmapped and the disk file survived: both pages are still
     served from the pool without physical reads. *)
  checkb "file still exists" true (Disk.file_exists (Pager.disk pager) f);
  let reads = stats.Stats.page_reads in
  Pager.with_page_read pager ~file:f ~page:p0 (fun buf ->
      Alcotest.(check char) "p0 intact" 'a' (Bytes.get buf 0));
  Pager.with_page_read pager ~file:f ~page:p1 (fun buf ->
      Alcotest.(check char) "p1 intact" 'b' (Bytes.get buf 0));
  checki "both pages stayed resident" reads stats.Stats.page_reads;
  (* With the pin gone the delete goes through. *)
  Pager.delete_file pager f;
  checkb "file deleted" false (Disk.file_exists (Pager.disk pager) f)

let test_clear_with_pinned_page_is_atomic () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let pool = Buffer_pool.create disk ~frames:4 in
  let f = Disk.create_file disk in
  let p0 = Buffer_pool.new_page pool ~file:f in
  let p1 = Buffer_pool.new_page pool ~file:f in
  Buffer_pool.flush pool;
  (try
     Buffer_pool.with_page_read pool ~file:f ~page:p0 (fun _ ->
         Buffer_pool.clear pool;
         Alcotest.fail "expected Invalid_argument")
   with Invalid_argument _ -> ());
  let reads = stats.Stats.page_reads in
  Buffer_pool.with_page_read pool ~file:f ~page:p0 (fun _ -> ());
  Buffer_pool.with_page_read pool ~file:f ~page:p1 (fun _ -> ());
  checki "no frame was dropped" reads stats.Stats.page_reads

(* Regression: install evicted the victim before attempting the physical
   read, so a read that failed after retries silently dropped a clean
   cached page.  The failure must leave the pool untouched and be counted
   in [failed_reads], keeping hits + reads + failed_reads consistent. *)
let test_install_read_failure_keeps_victim () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let pool = Buffer_pool.create disk ~frames:1 in
  let f = Disk.create_file disk in
  let p0 = Buffer_pool.new_page pool ~file:f in
  let p1 = Buffer_pool.new_page pool ~file:f in
  Buffer_pool.with_page_write pool ~file:f ~page:p0 (fun buf ->
      Bytes.fill buf 0 4 'v');
  Buffer_pool.flush pool;
  (* p0 is the sole resident (clean) frame.  Make every read of p1 fail,
     past the retry budget. *)
  Disk.set_read_failpoint ~count:10 disk ~after_reads:0;
  (try
     Buffer_pool.with_page_read pool ~file:f ~page:p1 (fun _ -> ());
     Alcotest.fail "expected Read_error"
   with Disk.Read_error _ -> ());
  Disk.clear_read_failpoint disk;
  checki "failure counted" 1 stats.Stats.failed_reads;
  checki "all attempts retried" 2 stats.Stats.read_retries;
  (* The clean victim survived: p0 is served without a physical read. *)
  let reads = stats.Stats.page_reads in
  Buffer_pool.with_page_read pool ~file:f ~page:p0 (fun buf ->
      Alcotest.(check char) "victim intact" 'v' (Bytes.get buf 0));
  checki "victim still resident" reads stats.Stats.page_reads;
  (* And the faulty page remains fetchable once the fault clears. *)
  Buffer_pool.with_page_read pool ~file:f ~page:p1 (fun _ -> ())

(* ------------------------------------------------------------------ *)
(* Heap file                                                           *)

let mk_pager ?(page_size = 512) ?(frames = 32) () = Pager.create ~page_size ~frames ()

let test_heap_insert_read () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  let data = List.init 50 (fun i -> Bytes.of_string (Printf.sprintf "object-%04d" i)) in
  let oids = List.map (Heap_file.insert hf) data in
  checki "count" 50 (Heap_file.object_count hf);
  List.iter2
    (fun oid d -> Alcotest.(check bytes) "payload" d (Heap_file.read hf oid))
    oids data

let test_heap_physical_order () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  let oids = List.init 100 (fun i -> Heap_file.insert hf (Bytes.make 20 (Char.chr (i mod 256)))) in
  (* Home slots must be non-decreasing in physical order. *)
  List.iteri
    (fun i oid ->
      if i > 0 then
        checkb "insertion order is physical order" true
          (Oid.compare (List.nth oids (i - 1)) oid < 0))
    oids;
  (* iter yields the same order. *)
  let visited = ref [] in
  Heap_file.iter hf Bytes.sub (fun oid _ -> visited := oid :: !visited);
  Alcotest.(check (list string))
    "iter order" (List.map Oid.to_string oids)
    (List.rev_map Oid.to_string !visited |> List.rev |> List.rev)

let test_heap_update_same_size () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  let oid = Heap_file.insert hf (Bytes.make 30 'a') in
  Heap_file.update hf oid (Bytes.make 30 'b');
  Alcotest.(check bytes) "updated" (Bytes.make 30 'b') (Heap_file.read hf oid)

let test_heap_update_grow_within_page () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  let oid = Heap_file.insert hf (Bytes.make 10 'a') in
  Heap_file.update hf oid (Bytes.make 200 'b');
  Alcotest.(check bytes) "grown" (Bytes.make 200 'b') (Heap_file.read hf oid)

let test_heap_update_grow_spills () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  (* Fill a page almost completely so in-place growth is impossible. *)
  let oid = Heap_file.insert hf (Bytes.make 100 'a') in
  let _fill = List.init 3 (fun _ -> Heap_file.insert hf (Bytes.make 110 'f')) in
  Heap_file.update hf oid (Bytes.make 400 'g');
  Alcotest.(check bytes) "spilled object readable" (Bytes.make 400 'g') (Heap_file.read hf oid);
  (* The OID is stable: still the same home slot. *)
  checkb "oid still live" true (Heap_file.exists hf oid)

let test_heap_object_larger_than_page () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  let big = Bytes.init 2500 (fun i -> Char.chr (i mod 251)) in
  let oid = Heap_file.insert hf big in
  Alcotest.(check bytes) "multi-page object" big (Heap_file.read hf oid);
  Heap_file.delete hf oid;
  checkb "gone" false (Heap_file.exists hf oid);
  checki "count" 0 (Heap_file.object_count hf)

(* A record of four segments, alone in its file: every segment but the last
   fills its own page, so the file's page count is the segment count.  The
   read pins each segment's page once, and every page is resident. *)
let test_heap_chain_one_pin_per_segment () =
  let pager = mk_pager ~page_size:256 () in
  let hf = Heap_file.create pager in
  let big = Bytes.init 800 (fun i -> Char.chr (i * 7 mod 256)) in
  let oid = Heap_file.insert hf big in
  let segments = Heap_file.page_count hf in
  checkb "at least three segments" true (segments >= 3);
  let stats = Pager.stats pager in
  let hits0 = Stats.get stats Stats.Buffer_hits in
  let reads0 = Stats.get stats Stats.Page_reads in
  Alcotest.(check bytes) "byte-identical" big (Heap_file.read hf oid);
  checki "one hit per segment" segments (Stats.get stats Stats.Buffer_hits - hits0);
  checki "no physical reads" 0 (Stats.get stats Stats.Page_reads - reads0)

(* [read_with] on a record of three segments touches the pool three
   times, cold (three reads) or warm (three hits): the head's pin hands its
   chunk over instead of being taken again. *)
let test_heap_read_with_three_touches () =
  let pager = mk_pager ~page_size:256 () in
  let hf = Heap_file.create pager in
  let big = Bytes.init 600 (fun i -> Char.chr (i * 13 mod 256)) in
  let oid = Heap_file.insert hf big in
  checki "three segments" 3 (Heap_file.page_count hf);
  let stats = Pager.stats pager in
  let touches () = Stats.get stats Stats.Buffer_hits + Stats.get stats Stats.Page_reads in
  let read () = Heap_file.read_with hf oid Bytes.sub in
  let cold =
    Pager.run_cold pager (fun () ->
        let payload = read () in
        (payload, touches ()))
  in
  Alcotest.(check bytes) "cold payload" big (fst cold);
  checki "cold: three touches" 3 (snd cold);
  checki "cold: all reads" 3 (Stats.get stats Stats.Page_reads);
  let t0 = touches () in
  Alcotest.(check bytes) "warm payload" big (read ());
  checki "warm: three touches" 3 (touches () - t0)

let test_heap_shrink_frees_chain () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  let big = Bytes.make 2000 'x' in
  let oid = Heap_file.insert hf big in
  Heap_file.update hf oid (Bytes.make 8 'y');
  Alcotest.(check bytes) "shrunk" (Bytes.make 8 'y') (Heap_file.read hf oid);
  (* Chain segments freed: a same-size reinsert should not grow the file. *)
  let pages_before = Heap_file.page_count hf in
  let _ = Heap_file.insert hf (Bytes.make 400 'z') in
  checkb "space reused" true (Heap_file.page_count hf <= pages_before + 1)

let test_heap_delete_then_scan () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  let oids = Array.init 30 (fun i -> Heap_file.insert hf (Bytes.make 25 (Char.chr (65 + (i mod 26))))) in
  Array.iteri (fun i oid -> if i mod 3 = 0 then Heap_file.delete hf oid) oids;
  checki "count after deletes" 20 (Heap_file.object_count hf);
  let seen = ref 0 in
  Heap_file.iter hf Bytes.sub (fun _ _ -> incr seen);
  checki "scan count" 20 !seen

let test_heap_attach_recovers () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  let _ = List.init 40 (fun i -> Heap_file.insert hf (Bytes.make 25 (Char.chr (65 + (i mod 26))))) in
  let hf2 = Heap_file.attach pager ~file:(Heap_file.file_id hf) in
  checki "recovered count" 40 (Heap_file.object_count hf2)

let test_heap_dead_oid_raises () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  let oid = Heap_file.insert hf (Bytes.make 10 'a') in
  Heap_file.delete hf oid;
  (try
     ignore (Heap_file.read hf oid);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* Live records, heads and segments alike, on the file's pages. *)
let live_records pager hf =
  let n = ref 0 in
  for page = 0 to Heap_file.page_count hf - 1 do
    n := !n + Pager.with_page_read pager ~file:(Heap_file.file_id hf) ~page Page.live_count
  done;
  !n

(* Every heap-file mutation of a record that stays on its page pins that
   page once: the header check and the write share the pin.  A refused
   call leaves the page clean, and a chained head still frees each of its
   segments. *)
let test_heap_one_pin_per_mutation () =
  let pager = mk_pager () in
  let hf = Heap_file.create pager in
  let stats = Pager.stats pager in
  let one_pin what f =
    let touches () = Stats.get stats Stats.Buffer_hits + Stats.get stats Stats.Page_reads in
    let t0 = touches () in
    let r = f () in
    checki (what ^ ": one pool lookup") 1 (touches () - t0);
    r
  in
  let a = Heap_file.insert hf (Bytes.make 30 'a') in
  let b = Heap_file.insert hf (Bytes.make 30 'b') in
  let c = Heap_file.insert hf (Bytes.make 30 'c') in
  one_pin "in-place update" (fun () -> Heap_file.update hf a (Bytes.make 30 'A'));
  Alcotest.(check bytes) "updated" (Bytes.make 30 'A') (Heap_file.read hf a);
  one_pin "delete" (fun () -> Heap_file.delete hf a);
  one_pin "delete_pinned" (fun () -> Heap_file.delete_pinned hf b);
  one_pin "delete_pinned" (fun () -> Heap_file.delete_pinned hf c);
  checkb "freed" true (one_pin "free_tombstone" (fun () -> Heap_file.free_tombstone hf b));
  one_pin "insert_at" (fun () -> Heap_file.insert_at hf c (Bytes.make 20 'C'));
  Alcotest.(check bytes) "revived" (Bytes.make 20 'C') (Heap_file.read hf c);
  checkb "a revived slot stays" false
    (one_pin "free_tombstone" (fun () -> Heap_file.free_tombstone hf c));
  checkb "a dead slot stays dead" false (Heap_file.free_tombstone hf a);
  checki "count" 1 (Heap_file.object_count hf);
  Heap_file.delete_pinned hf c;
  Pager.flush pager;
  let writes0 = Stats.get stats Stats.Page_writes in
  (try
     Heap_file.delete hf c;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Pager.flush pager;
  checki "a refused delete writes no page" 0 (Stats.get stats Stats.Page_writes - writes0);
  checkb "still a tombstone" true (Heap_file.free_tombstone hf c);
  (* Chained heads: an update that shrinks one and a delete. *)
  let big = Bytes.make 1500 'x' in
  let d = Heap_file.insert hf big in
  let e = Heap_file.insert hf big in
  checki "two chains" 2 (Heap_file.chained_count hf);
  Heap_file.update hf d (Bytes.make 10 'd');
  Heap_file.delete hf e;
  checki "no chains" 0 (Heap_file.chained_count hf);
  checki "every segment freed" 1 (live_records pager hf);
  Alcotest.(check bytes) "shrunk" (Bytes.make 10 'd') (Heap_file.read hf d);
  Heap_file.check hf

(* ------------------------------------------------------------------ *)
(* Space reuse                                                         *)

(* A rolling window over [live] objects: each turnover deletes the oldest
   object and inserts a new one, [live] times; [after k] runs after
   turnover [k]. *)
let rolling_window hf ~live ~turnovers after =
  let payload i = Bytes.make (20 + (i * 37 mod 41)) (Char.chr (65 + (i mod 26))) in
  let window = Queue.create () in
  for i = 0 to live - 1 do
    Queue.push (Heap_file.insert hf (payload i)) window
  done;
  for k = 1 to turnovers do
    for j = 0 to live - 1 do
      Heap_file.delete hf (Queue.pop window);
      Queue.push (Heap_file.insert hf (payload ((k * live) + j))) window
    done;
    after k
  done

let test_heap_churn_plateau () =
  let pager = mk_pager ~page_size:512 ~frames:64 () in
  let hf = Heap_file.create ~reserve:48 pager in
  let plateau = ref 0 in
  rolling_window hf ~live:80 ~turnovers:10 (fun k ->
      Heap_file.check hf;
      if k = 2 then plateau := Heap_file.page_count hf);
  checki "pages after turnover 10 = after turnover 2" !plateau (Heap_file.page_count hf);
  checki "live objects" 80 (Heap_file.object_count hf);
  (* A reopened handle rebuilds the same map from the pages. *)
  Heap_file.check (Heap_file.attach ~reserve:48 pager ~file:(Heap_file.file_id hf))

(* A delete-free load reuses nothing: OIDs ascend and the pages are the
   ones plain appending lays down, pinned by digest. *)
let test_heap_bulk_layout_pinned () =
  let pager = mk_pager ~page_size:512 ~frames:8 () in
  let hf = Heap_file.create ~reserve:32 pager in
  let rng = Splitmix.create 42 in
  let oids =
    List.init 300 (fun i ->
        let len = 1 + Splitmix.int rng (if i mod 50 = 7 then 1500 else 120) in
        Heap_file.insert hf (Bytes.make len (Char.chr (i mod 256))))
  in
  let rec ascending = function
    | a :: (b :: _ as rest) -> Oid.compare a b < 0 && ascending rest
    | [ _ ] | [] -> true
  in
  checkb "OIDs ascend" true (ascending oids);
  Pager.flush pager;
  let disk = Pager.disk pager in
  let pages = Buffer.create 65536 in
  for page = 0 to Heap_file.page_count hf - 1 do
    Buffer.add_bytes pages (Disk.dump_page disk ~file:(Heap_file.file_id hf) ~page)
  done;
  checki "pages" 61 (Heap_file.page_count hf);
  Alcotest.(check string)
    "page digest" "f7967697e98d35c3e2f8bf72f488b187"
    (Digest.to_hex (Digest.string (Buffer.contents pages)))

(* ------------------------------------------------------------------ *)
(* run_cold                                                            *)

let test_run_cold_measures_distinct_pages () =
  let pager = mk_pager ~page_size:512 ~frames:64 () in
  let hf = Heap_file.create pager in
  let oids = Array.init 200 (fun _ -> Heap_file.insert hf (Bytes.make 40 'd')) in
  let npages = Heap_file.page_count hf in
  Pager.run_cold pager (fun () ->
      (* Read every object twice; each page must be read exactly once. *)
      Array.iter (fun oid -> ignore (Heap_file.read hf oid)) oids;
      Array.iter (fun oid -> ignore (Heap_file.read hf oid)) oids);
  checki "reads = distinct pages" npages (Pager.stats pager).Stats.page_reads;
  checki "no writes for read-only work" 0 (Pager.stats pager).Stats.page_writes

(* ------------------------------------------------------------------ *)
(* Backend conformance                                                 *)

(* The same scenario battery runs against every backend: the in-memory
   arrays and the real-file store must be observationally identical
   through the Disk API — checksums, quarantine, fault injection and
   image support included.  [File None] backs each disk with a fresh
   temp directory that [Disk.close] removes. *)

let psize = 256

let with_disk kind f =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:psize ~backend:kind stats in
  Fun.protect ~finally:(fun () -> Disk.close disk) (fun () -> f disk)

let page_of i c =
  Bytes.init psize (fun j -> Char.chr ((Char.code c + i + j) mod 256))

let conf_roundtrip kind () =
  with_disk kind (fun disk ->
      let f1 = Disk.create_file disk in
      let f2 = Disk.create_file disk in
      let pages =
        List.init 10 (fun i ->
            let p = Disk.allocate_page disk f1 in
            let buf = page_of i 'a' in
            Disk.write_page disk ~file:f1 ~page:p buf;
            (p, buf))
      in
      ignore (Disk.allocate_page disk f2);
      checki "page count" 10 (Disk.page_count disk f1);
      checki "total pages" 11 (Disk.total_pages disk);
      Alcotest.(check (list int))
        "file ids" [ f1; f2 ]
        (List.sort compare (Disk.file_ids disk));
      let out = Bytes.create psize in
      List.iter
        (fun (p, buf) ->
          Disk.read_page disk ~file:f1 ~page:p out;
          Alcotest.(check bytes) "data" buf out)
        pages;
      (* A fresh allocation reads back zeroed (and checksum-valid). *)
      let p = Disk.allocate_page disk f2 in
      Disk.read_page disk ~file:f2 ~page:p out;
      Alcotest.(check bytes) "zeroed" (Bytes.make psize '\000') out;
      checkb "exists" true (Disk.file_exists disk f1);
      Disk.delete_file disk f1;
      checkb "deleted" false (Disk.file_exists disk f1);
      checki "remaining pages" 2 (Disk.total_pages disk))

let conf_quarantine_heal kind () =
  with_disk kind (fun disk ->
      let f = Disk.create_file disk in
      let p = Disk.allocate_page disk f in
      let buf = page_of 0 'q' in
      Disk.write_page disk ~file:f ~page:p buf;
      Disk.corrupt_page disk ~file:f ~page:p [ 3; 17 ];
      let out = Bytes.make psize 'Z' in
      (try
         Disk.read_page disk ~file:f ~page:p out;
         Alcotest.fail "expected Corrupt_page"
       with Disk.Corrupt_page { file; page } ->
         checki "names the file" f file;
         checki "names the page" p page);
      let stored = Bytes.copy buf in
      List.iter
        (fun off ->
          Bytes.set stored off (Char.chr (Char.code (Bytes.get stored off) lxor 0xff)))
        [ 3; 17 ];
      Alcotest.(check bytes) "caller buffer holds the stored bytes" stored out;
      checkb "quarantined" true (Disk.quarantined disk ~file:f ~page:p);
      checki "failure counted" 1 (Disk.stats disk).Stats.checksum_failures;
      (* Re-reads keep failing from the quarantine entry. *)
      (try
         Disk.read_page disk ~file:f ~page:p out;
         Alcotest.fail "still corrupt"
       with Disk.Corrupt_page _ -> ());
      (* Rewriting fresh content heals. *)
      Disk.write_page disk ~file:f ~page:p buf;
      checkb "healed" false (Disk.quarantined disk ~file:f ~page:p);
      Disk.read_page disk ~file:f ~page:p out;
      Alcotest.(check bytes) "healed data" buf out)

let conf_torn_write kind () =
  with_disk kind (fun disk ->
      let f = Disk.create_file disk in
      let p = Disk.allocate_page disk f in
      let old_page = page_of 1 'o' in
      Disk.write_page disk ~file:f ~page:p old_page;
      let torn = page_of 64 'n' in
      Disk.set_failpoint ~torn:true disk ~after_writes:0;
      (try
         Disk.write_page disk ~file:f ~page:p torn;
         Alcotest.fail "expected Crash"
       with Disk.Crash _ -> ());
      Disk.clear_failpoint disk;
      (* Exactly the first half landed; the stored checksum is stale. *)
      let half = psize / 2 in
      let raw = Disk.raw_page disk ~file:f ~page:p in
      Alcotest.(check bytes)
        "first half is the new write" (Bytes.sub torn 0 half) (Bytes.sub raw 0 half);
      Alcotest.(check bytes)
        "second half is the old page"
        (Bytes.sub old_page half (psize - half))
        (Bytes.sub raw half (psize - half));
      checkb "verify fails" false (Disk.verify_page disk ~file:f ~page:p);
      try
        Disk.read_page disk ~file:f ~page:p (Bytes.create psize);
        Alcotest.fail "expected Corrupt_page"
      with Disk.Corrupt_page _ -> ())

let conf_failpoint_crash kind () =
  with_disk kind (fun disk ->
      let f = Disk.create_file disk in
      let pages = Array.init 6 (fun _ -> Disk.allocate_page disk f) in
      Disk.set_failpoint disk ~after_writes:3;
      let wrote = ref 0 in
      (try
         Array.iteri
           (fun i p ->
             Disk.write_page disk ~file:f ~page:p (page_of i 'w');
             incr wrote)
           pages;
         Alcotest.fail "expected Crash"
       with Disk.Crash _ -> ());
      checki "crash after three writes" 3 !wrote;
      Disk.clear_failpoint disk;
      let out = Bytes.create psize in
      (* The completed writes are intact and still checksum-valid... *)
      for i = 0 to 2 do
        Disk.read_page disk ~file:f ~page:pages.(i) out;
        Alcotest.(check bytes) "survived the crash" (page_of i 'w') out
      done;
      (* ...and the crashed (non-torn) write never touched its page. *)
      Disk.read_page disk ~file:f ~page:pages.(3) out;
      Alcotest.(check bytes) "crashed write absent" (Bytes.make psize '\000') out)

let conf_tear_page kind () =
  with_disk kind (fun disk ->
      let f = Disk.create_file disk in
      let p = Disk.allocate_page disk f in
      let buf = page_of 4 't' in
      Disk.write_page disk ~file:f ~page:p buf;
      Disk.tear_page disk ~file:f ~page:p;
      checkb "verify fails" false (Disk.verify_page disk ~file:f ~page:p);
      let half = psize / 2 in
      let raw = Disk.raw_page disk ~file:f ~page:p in
      Alcotest.(check bytes)
        "second half zeroed"
        (Bytes.make (psize - half) '\000')
        (Bytes.sub raw half (psize - half));
      Disk.write_page disk ~file:f ~page:p buf;
      checkb "heals on rewrite" true (Disk.verify_page disk ~file:f ~page:p))

let conf_read_failpoint kind () =
  with_disk kind (fun disk ->
      let f = Disk.create_file disk in
      let p = Disk.allocate_page disk f in
      let buf = page_of 0 'r' in
      Disk.write_page disk ~file:f ~page:p buf;
      Disk.set_read_failpoint ~count:2 disk ~after_reads:0;
      let out = Bytes.create psize in
      for _ = 1 to 2 do
        try
          Disk.read_page disk ~file:f ~page:p out;
          Alcotest.fail "expected Read_error"
        with Disk.Read_error _ -> ()
      done;
      (* Transient: the stored page was never damaged. *)
      Disk.read_page disk ~file:f ~page:p out;
      Alcotest.(check bytes) "fault cleared" buf out)

let conf_restore_file kind () =
  with_disk kind (fun disk ->
      let f = Disk.create_file disk in
      let p0 = Disk.allocate_page disk f in
      Disk.write_page disk ~file:f ~page:p0 (page_of 0 'i');
      ignore (Disk.allocate_page disk f);
      let img =
        Array.init (Disk.page_count disk f) (fun p ->
            Disk.dump_page disk ~file:f ~page:p)
      in
      (* Restore into a fresh disk at a never-allocated file id. *)
      with_disk kind (fun disk2 ->
          let id = 7 in
          Disk.restore_file disk2 ~id img;
          checki "pages restored" (Array.length img) (Disk.page_count disk2 id);
          let out = Bytes.create psize in
          (* Verified read: restore recomputed the checksums. *)
          Disk.read_page disk2 ~file:id ~page:0 out;
          Alcotest.(check bytes) "restored bytes" img.(0) out;
          checkb "id allocator bumped past the image" true
            (Disk.create_file disk2 > id)))

(* Satellite of the backend work: unknown files fail with a named error
   from every entry point — no bare [Not_found] escapes the layer. *)
let conf_unknown_file kind () =
  with_disk kind (fun disk ->
      Alcotest.check_raises "page_count names itself"
        (Invalid_argument "Disk.page_count: unknown file 42")
        (fun () -> ignore (Disk.page_count disk 42));
      Alcotest.check_raises "read_page names itself"
        (Invalid_argument "Disk.read_page: unknown file 42")
        (fun () -> Disk.read_page disk ~file:42 ~page:0 (Bytes.create psize));
      Alcotest.check_raises "allocate_page names itself"
        (Invalid_argument "Disk.allocate_page: unknown file 42")
        (fun () -> ignore (Disk.allocate_page disk 42)))

(* Persistent ids count up, query output ids count down from the top, and
   neither range may pass the other or the 16 bits an OID holds. *)
let conf_file_id_ranges kind () =
  with_disk kind (fun disk ->
      let top = Oid.max_file - 1 in
      let o1 = Disk.create_output_file disk in
      let o2 = Disk.create_output_file disk in
      checki "first output at the top" top o1;
      checki "next output below it" (top - 1) o2;
      checkb "marked as output" true (Disk.is_output_file disk o1);
      checki "persistent ids unmoved" 0 (Disk.create_file disk);
      checkb "persistent is not output" false (Disk.is_output_file disk 0);
      Disk.delete_file disk o1;
      checkb "dropped output unmarked" false (Disk.is_output_file disk o1);
      checki "dropped output id reused" top (Disk.create_output_file disk);
      (* The ranges meet: the next persistent id is an output's. *)
      Disk.reserve_file_ids disk (top - 1);
      let exhausted what f =
        match f () with
        | (_ : int) -> Alcotest.failf "%s: expected Invalid_argument" what
        | exception Invalid_argument msg ->
            let prefix = "Disk." ^ what ^ ": file ids exhausted" in
            checks (what ^ " named error") prefix
              (String.sub msg 0 (min (String.length msg) (String.length prefix)))
      in
      exhausted "create_file" (fun () -> Disk.create_file disk);
      exhausted "create_output_file" (fun () -> Disk.create_output_file disk);
      Disk.delete_file disk o2;
      checki "freed id goes to the persistent range" (top - 1) (Disk.create_file disk);
      exhausted "create_file" (fun () -> Disk.create_file disk));
  with_disk kind (fun disk ->
      (* Without outputs the last persistent id is [Oid.max_file - 1]: the
         nil OID's file is never handed out. *)
      Disk.reserve_file_ids disk (Oid.max_file - 1);
      let id = Disk.create_file disk in
      checki "last id" (Oid.max_file - 1) id;
      let oid = { Oid.file = id; page = 3; slot = 4 } in
      checkb "its OIDs encode" true (Oid.equal oid (Oid.of_int64 (Oid.to_int64 oid)));
      (match Disk.create_file disk with
      | id -> Alcotest.failf "create_file handed out %d" id
      | exception Invalid_argument msg ->
          checks "named error"
            (Printf.sprintf "Disk.create_file: file ids exhausted (next id %d)" Oid.max_file)
            msg);
      Alcotest.check_raises "reserve past the id space"
        (Invalid_argument
           (Printf.sprintf "Disk.reserve_file_ids: %d is past the id space"
              (Oid.max_file + 1)))
        (fun () -> Disk.reserve_file_ids disk (Oid.max_file + 1)))

let conformance kind =
  [
    Alcotest.test_case "roundtrip" `Quick (conf_roundtrip kind);
    Alcotest.test_case "quarantine and heal" `Quick (conf_quarantine_heal kind);
    Alcotest.test_case "torn write detected" `Quick (conf_torn_write kind);
    Alcotest.test_case "write failpoint crash" `Quick (conf_failpoint_crash kind);
    Alcotest.test_case "tear_page" `Quick (conf_tear_page kind);
    Alcotest.test_case "transient read faults" `Quick (conf_read_failpoint kind);
    Alcotest.test_case "restore_file" `Quick (conf_restore_file kind);
    Alcotest.test_case "unknown file named errors" `Quick (conf_unknown_file kind);
    Alcotest.test_case "file id ranges" `Quick (conf_file_id_ranges kind);
  ]

(* ------------------------------------------------------------------ *)
(* Allocation on the miss path                                         *)

module Checksum = Fieldrep_storage.Checksum
module Lockdep = Fieldrep_util.Lockdep

(* Run [f] with the runtime lock-order recorder off: CI arms it for this
   suite, and it allocates on every pin. *)
let without_lockdep f =
  let recording = Lockdep.enabled () in
  Lockdep.set_enabled false;
  Fun.protect ~finally:(fun () -> Lockdep.set_enabled recording) f

let test_checksum_words () =
  let page = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let acc = ref 0 in
  let words =
    minor_words (fun () ->
        for i = 0 to 999 do
          acc := !acc lxor Checksum.sum32 page (i land 7) (4096 - 8)
        done)
  in
  checki "words per 1000 sums" 0 words

(* Once a file's descriptor is cached, a verified read and a sealed write
   allocate nothing: no path string, no tuple key, no [Some], no per-file
   pair in the stats. *)
let test_disk_io_words kind () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:4096 ~backend:kind stats in
  Fun.protect ~finally:(fun () -> Disk.close disk) @@ fun () ->
  let f = Disk.create_file disk in
  for _ = 1 to 8 do
    ignore (Disk.allocate_page disk f)
  done;
  let buf = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  for p = 0 to 7 do
    Disk.write_page disk ~file:f ~page:p buf;
    Disk.read_page disk ~file:f ~page:p buf
  done;
  checki "reads" 0
    (minor_words (fun () ->
         for i = 0 to 999 do
           Disk.read_page disk ~file:f ~page:(i land 7) buf
         done));
  checki "writes" 0
    (minor_words (fun () ->
         for i = 0 to 999 do
           Disk.write_page disk ~file:f ~page:(i land 7) buf
         done));
  checki "all counted" 1008 stats.Stats.page_reads;
  checki "all verified" 0 stats.Stats.checksum_failures

(* A pool of 4 frames over a 64-page file: every access misses.  A clean
   miss reads a page; a dirty one writes its victim back first.  Each may
   allocate the frame table's bucket for the new key, and nothing else. *)
let test_pool_miss_words kind () =
  without_lockdep @@ fun () ->
  let pager = Pager.create ~page_size:4096 ~frames:4 ~backend:kind () in
  Fun.protect ~finally:(fun () -> Pager.close pager) @@ fun () ->
  let f = Pager.create_file pager in
  for _ = 1 to 64 do
    ignore (Pager.new_page pager ~file:f)
  done;
  Pager.flush pager;
  let read i = Pager.with_page_read pager ~file:f ~page:(i land 63) Bytes.length in
  let write i =
    Pager.with_page_write pager ~file:f ~page:(i land 63) (fun b ->
        Bytes.set b 0 'w')
  in
  let per_miss name step =
    for i = 0 to 127 do
      step i
    done;
    let n = 2048 in
    let reads0 = (Pager.stats pager).Stats.page_reads in
    let words = minor_words (fun () -> for i = 0 to n - 1 do step i done) in
    checki (name ^ ": every access misses") n
      ((Pager.stats pager).Stats.page_reads - reads0);
    let per = float_of_int words /. float_of_int n in
    if per > 8. then Alcotest.failf "%s: %.1f words per miss (at most 8)" name per
  in
  per_miss "clean miss" (fun i -> ignore (read i));
  let writes0 = (Pager.stats pager).Stats.page_writes in
  per_miss "dirty eviction" write;
  checkb "victims written back" true
    ((Pager.stats pager).Stats.page_writes - writes0 >= 2048)

(* File-backend specifics: descriptor caching and directory handling. *)

let test_file_fd_cache_eviction () =
  with_disk (Disk.File None) (fun disk ->
      (* Far more files than the descriptor cache holds: every file keeps
         working as its descriptor is evicted and reopened on demand. *)
      let files = Array.init 100 (fun _ -> Disk.create_file disk) in
      Array.iteri
        (fun i f ->
          let p = Disk.allocate_page disk f in
          Disk.write_page disk ~file:f ~page:p (page_of i 'f'))
        files;
      let out = Bytes.create psize in
      Array.iteri
        (fun i f ->
          Disk.read_page disk ~file:f ~page:0 out;
          Alcotest.(check bytes) "survives fd eviction" (page_of i 'f') out)
        files)

let test_file_explicit_dir () =
  let dir = Filename.temp_file "fieldrep-test" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let stats = Stats.create () in
      let disk = Disk.create ~page_size:psize ~backend:(Disk.File (Some dir)) stats in
      Alcotest.(check string) "backend name" "file" (Disk.backend_name disk);
      let f = Disk.create_file disk in
      let p = Disk.allocate_page disk f in
      Disk.write_page disk ~file:f ~page:p (page_of 0 'd');
      let backing = Filename.concat dir (Printf.sprintf "%06d.fdb" f) in
      checkb "backing file exists on disk" true (Sys.file_exists backing);
      (* One slot = page + 8-byte checksum trailer. *)
      checki "slot bytes on disk" (psize + 8)
        (let ic = open_in_bin backing in
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> in_channel_length ic));
      Disk.delete_file disk f;
      checkb "backing file removed" false (Sys.file_exists backing);
      (* Close is idempotent and leaves the caller-owned directory alone. *)
      Disk.close disk;
      Disk.close disk;
      checkb "caller-owned dir survives close" true (Sys.file_exists dir))

let test_backend_of_env () =
  let original = Sys.getenv_opt "FIELDREP_BACKEND" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "FIELDREP_BACKEND" (Option.value original ~default:""))
    (fun () ->
      Unix.putenv "FIELDREP_BACKEND" "";
      checkb "unset means mem" true (Disk.backend_of_env () = Disk.Mem);
      Unix.putenv "FIELDREP_BACKEND" "mem";
      checkb "mem" true (Disk.backend_of_env () = Disk.Mem);
      Unix.putenv "FIELDREP_BACKEND" "file";
      checkb "file" true (Disk.backend_of_env () = Disk.File None);
      Unix.putenv "FIELDREP_BACKEND" "bogus";
      try
        ignore (Disk.backend_of_env ());
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)

(* The pages of a heap file, flushed, end to end. *)
let file_bytes pager hf =
  Pager.flush pager;
  let pages = Buffer.create 4096 in
  for page = 0 to Heap_file.page_count hf - 1 do
    Buffer.add_bytes pages
      (Disk.dump_page (Pager.disk pager) ~file:(Heap_file.file_id hf) ~page)
  done;
  Buffer.contents pages

(* A run against [insert] one record at a time, on twin 256-byte-page
   files.  Both first take the same [prefix] of inserts and delete every
   other one, so reuse candidates can take run records.  Shape 0 is a
   record that fills a fresh page exactly, 1 one byte too large for it,
   2 one of 100-400 bytes, 3 a small one, and 4 hands the records staged
   so far over, with [~all] or not; whatever a run leaves is handed over
   again with the next. *)
let run_matches_inserts (prefix, rows, reserve) =
  let fill = 256 - Page.header_size - Page.dir_entry_size - (1 + Oid.encoded_size) in
  let twin () =
    let pager = Pager.create ~page_size:256 ~frames:8 () in
    let hf = Heap_file.create ~reserve:(if reserve then 24 else 0) pager in
    let oids = List.mapi (fun i n -> Heap_file.insert hf (Bytes.make n (Char.chr i))) prefix in
    List.iteri (fun i oid -> if i mod 2 = 0 then Heap_file.delete hf oid) oids;
    (pager, hf)
  in
  let pager_a, a = twin () and pager_b, b = twin () in
  let payload i (shape, n) =
    let len = match shape with 0 -> fill | 1 -> fill + 1 | 2 -> 100 + (n mod 301) | _ -> n mod 60 in
    Bytes.init len (fun j -> Char.chr ((i + j) land 255))
  in
  let pending = ref [] in
  let hand_over ~all =
    let rows = List.rev !pending in
    let n = List.length rows in
    let bounds = Array.make (n + 1) 0 in
    List.iteri (fun i p -> bounds.(i + 1) <- bounds.(i) + Bytes.length p) rows;
    let placed = Heap_file.insert_run a ~all (Bytes.concat Bytes.empty rows) bounds n in
    pending := List.rev (List.filteri (fun i _ -> i >= placed) rows);
    (not all) || placed = n
  in
  let oids = ref [] and ok = ref true in
  List.iteri
    (fun i (shape, n) ->
      if shape = 4 then ok := hand_over ~all:(n mod 2 = 0) && !ok
      else begin
        let p = payload i (shape, n) in
        oids := (Heap_file.insert b p, p) :: !oids;
        pending := p :: !pending
      end)
    rows;
  ok := hand_over ~all:true && !ok;
  Heap_file.check a;
  !ok
  && Heap_file.object_count a = Heap_file.object_count b
  && Stats.get (Pager.stats pager_a) Stats.Objects_written
     = Stats.get (Pager.stats pager_b) Stats.Objects_written
  && List.for_all (fun (oid, p) -> Bytes.equal (Heap_file.read a oid) p) !oids
  && String.equal (file_bytes pager_a a) (file_bytes pager_b b)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"a run lands where one-by-one inserts do" ~count:300
      (triple
         (list_of_size Gen.(0 -- 16) (int_range 0 300))
         (list_of_size Gen.(0 -- 40) (pair (int_range 0 4) (int_range 0 400)))
         bool)
      run_matches_inserts;
    Test.make ~name:"heap model conformance" ~count:60
      (list_of_size Gen.(1 -- 120) (pair (int_range 0 3) (int_range 1 600)))
      (fun ops ->
        (* Model: a growable list of live payloads, mirrored against the
           heap file through insert / update / delete / read, randomised by
           the op stream. *)
        let pager = Pager.create ~page_size:256 ~frames:16 () in
        let hf = Heap_file.create pager in
        let live = ref [] in
        let counter = ref 0 in
        let ok = ref true in
        List.iter
          (fun (op, size) ->
            match op with
            | 0 ->
                incr counter;
                let payload = Bytes.make size (Char.chr (!counter mod 256)) in
                let oid = Heap_file.insert hf payload in
                live := (oid, payload) :: !live
            | 1 -> (
                match !live with
                | [] -> ()
                | (oid, _) :: rest ->
                    incr counter;
                    let payload = Bytes.make size (Char.chr (!counter mod 256)) in
                    Heap_file.update hf oid payload;
                    live := (oid, payload) :: rest)
            | 2 -> (
                match !live with
                | [] -> ()
                | (oid, _) :: rest ->
                    Heap_file.delete hf oid;
                    live := rest)
            | _ ->
                List.iter
                  (fun (oid, payload) ->
                    if not (Bytes.equal (Heap_file.read hf oid) payload) then ok := false)
                  !live)
          ops;
        List.iter
          (fun (oid, payload) ->
            if not (Bytes.equal (Heap_file.read hf oid) payload) then ok := false)
          !live;
        Heap_file.check hf;
        !ok && Heap_file.object_count hf = List.length !live);
    Test.make ~name:"page compact keeps slots, bytes and free space" ~count:200
      (list_of_size Gen.(1 -- 80) (triple (int_range 0 3) (int_range 1 90) small_nat))
      (fun ops ->
        (* Model: slot -> bytes of every live record. *)
        let page = Bytes.create 512 in
        Page.init page;
        let model = Hashtbl.create 16 in
        let stamp = ref 0 in
        let data size =
          incr stamp;
          Bytes.make size (Char.chr (!stamp mod 256))
        in
        let pick n =
          match List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) model []) with
          | [] -> None
          | live -> Some (List.nth live (n mod List.length live))
        in
        let agrees () =
          Page.live_count page = Hashtbl.length model
          && Hashtbl.fold
               (fun s d acc -> acc && Page.is_live page s && Bytes.equal (Page.read page s) d)
               model true
        in
        List.for_all
          (fun (op, size, n) ->
            match op with
            | 0 ->
                let d = data size in
                (match Page.insert page d (Bytes.length d) with
                | -1 -> ()
                | s -> Hashtbl.replace model s d);
                agrees ()
            | 1 ->
                Option.iter
                  (fun s ->
                    Page.delete page s;
                    Hashtbl.remove model s)
                  (pick n);
                agrees ()
            | 2 ->
                Option.iter
                  (fun s ->
                    let d = data size in
                    if Page.write page s d (Bytes.length d) then Hashtbl.replace model s d)
                  (pick n);
                agrees ()
            | _ ->
                let free = Page.free_space page in
                Page.compact page;
                agrees () && Page.free_space page = free)
          ops);
    Test.make ~name:"page never corrupts neighbours" ~count:100
      (list_of_size Gen.(1 -- 40) (int_range 1 60))
      (fun sizes ->
        let page = Bytes.create 512 in
        Page.init page;
        let stored = Hashtbl.create 16 in
        List.iteri
          (fun i size ->
            let data = Bytes.make size (Char.chr (i mod 256)) in
            match Page.insert page data (Bytes.length data) with
            | -1 -> ()
            | slot -> Hashtbl.replace stored slot data)
          sizes;
        Hashtbl.fold
          (fun slot data acc -> acc && Bytes.equal (Page.read page slot) data)
          stored true);
  ]

let () =
  Alcotest.run "fieldrep_storage"
    [
      ( "oid",
        [
          Alcotest.test_case "roundtrip" `Quick test_oid_roundtrip;
          Alcotest.test_case "physical order" `Quick test_oid_order_is_physical;
          Alcotest.test_case "nil" `Quick test_oid_nil;
          Alcotest.test_case "containers" `Quick test_oid_containers;
        ] );
      ( "page",
        [
          Alcotest.test_case "insert/read" `Quick test_page_insert_read;
          Alcotest.test_case "delete and slot reuse" `Quick test_page_delete_and_reuse;
          Alcotest.test_case "fill to capacity" `Quick test_page_fill_to_capacity;
          Alcotest.test_case "compaction" `Quick test_page_compaction_recovers_space;
          Alcotest.test_case "write in place / grow" `Quick test_page_write_in_place_and_grow;
          Alcotest.test_case "oversized write rejected" `Quick test_page_write_too_big_fails_cleanly;
          Alcotest.test_case "iter order" `Quick test_page_iter_order;
          Alcotest.test_case "dead slot raises" `Quick test_page_dead_slot_raises;
          Alcotest.test_case "compact allocates nothing" `Quick
            test_page_compact_allocation_free;
        ] );
      ( "disk",
        [
          Alcotest.test_case "io counting" `Quick test_disk_io_counting;
          Alcotest.test_case "many pages" `Quick test_disk_many_pages;
          Alcotest.test_case "bad page rejected" `Quick test_disk_bad_page_rejected;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "hits avoid io" `Quick test_pool_hit_avoids_io;
          Alcotest.test_case "eviction writes dirty pages" `Quick test_pool_eviction_writes_dirty;
          Alcotest.test_case "clear forces cold reads" `Quick test_pool_clear_forces_cold_reads;
          Alcotest.test_case "delete_file keeps other files resident" `Quick
            test_delete_file_keeps_other_files_resident;
          Alcotest.test_case "drop_file discards without writeback" `Quick
            test_drop_file_discards_without_writeback;
          Alcotest.test_case "exhaustion raises" `Quick test_pool_exhaustion;
          Alcotest.test_case "pin released on exception" `Quick test_pool_pin_released_on_exception;
          Alcotest.test_case "new_page leaks nothing when exhausted" `Quick
            test_new_page_no_leak_when_exhausted;
          Alcotest.test_case "delete_file with pinned page is atomic" `Quick
            test_delete_file_with_pinned_page_is_atomic;
          Alcotest.test_case "clear with pinned page is atomic" `Quick
            test_clear_with_pinned_page_is_atomic;
          Alcotest.test_case "install read failure keeps victim" `Quick
            test_install_read_failure_keeps_victim;
        ] );
      ( "heap_file",
        [
          Alcotest.test_case "insert/read" `Quick test_heap_insert_read;
          Alcotest.test_case "physical order" `Quick test_heap_physical_order;
          Alcotest.test_case "update same size" `Quick test_heap_update_same_size;
          Alcotest.test_case "update grows in page" `Quick test_heap_update_grow_within_page;
          Alcotest.test_case "update spills to chain" `Quick test_heap_update_grow_spills;
          Alcotest.test_case "object larger than page" `Quick test_heap_object_larger_than_page;
          Alcotest.test_case "chain read pins each segment once" `Quick
            test_heap_chain_one_pin_per_segment;
          Alcotest.test_case "three-segment read_with: three touches" `Quick
            test_heap_read_with_three_touches;
          Alcotest.test_case "shrink frees chain" `Quick test_heap_shrink_frees_chain;
          Alcotest.test_case "delete then scan" `Quick test_heap_delete_then_scan;
          Alcotest.test_case "attach recovers" `Quick test_heap_attach_recovers;
          Alcotest.test_case "dead oid raises" `Quick test_heap_dead_oid_raises;
          Alcotest.test_case "one pin per heap mutation" `Quick test_heap_one_pin_per_mutation;
          Alcotest.test_case "churn plateaus" `Quick test_heap_churn_plateau;
          Alcotest.test_case "bulk layout pinned" `Quick test_heap_bulk_layout_pinned;
        ] );
      ( "cold runs",
        [ Alcotest.test_case "distinct pages counted once" `Quick test_run_cold_measures_distinct_pages ] );
      ("backend conformance: mem", conformance Disk.Mem);
      ("backend conformance: file", conformance (Disk.File None));
      ( "file backend",
        [
          Alcotest.test_case "fd cache eviction" `Quick test_file_fd_cache_eviction;
          Alcotest.test_case "explicit directory" `Quick test_file_explicit_dir;
          Alcotest.test_case "FIELDREP_BACKEND selection" `Quick test_backend_of_env;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "checksum allocates nothing" `Quick test_checksum_words;
          Alcotest.test_case "heap update and insert stage in scratch" `Quick
            test_heap_write_words;
          Alcotest.test_case "mem: disk read/write allocate nothing" `Quick
            (test_disk_io_words Disk.Mem);
          Alcotest.test_case "file: disk read/write allocate nothing" `Quick
            (test_disk_io_words (Disk.File None));
          Alcotest.test_case "mem: pool miss at most 8 words" `Quick
            (test_pool_miss_words Disk.Mem);
          Alcotest.test_case "file: pool miss at most 8 words" `Quick
            (test_pool_miss_words (Disk.File None));
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
