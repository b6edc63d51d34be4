(* The layer probe: ns and allocated minor words per call of each layer's
   public entry point, with inputs drawn from the workload's own database,
   so it prices the pages that workload touches.  It runs after the timed
   phase and its checks; the write probes change the database. *)

module Db = Fieldrep.Db
module Pager = Fieldrep_storage.Pager
module Heap_file = Fieldrep_storage.Heap_file
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Key = Fieldrep_btree.Key
module Btree = Fieldrep_btree.Btree
module Lock = Fieldrep_txn.Lock
module Wal = Fieldrep_wal.Wal
module Splitmix = Fieldrep_util.Splitmix
module Gen = Fieldrep_workload.Gen
module Mix = Fieldrep_workload.Mix
module Exec = Fieldrep_query.Exec

let now = Trace.now

(* ns and words per call of [f i], over [iters] calls. *)
let cost ~iters f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  for i = 0 to iters - 1 do
    f i
  done;
  let t1 = now () in
  let w1 = Gc.minor_words () in
  let n = float_of_int iters in
  (float_of_int (t1 - t0) /. n, (w1 -. w0) /. n)

(* ns per call when each call needs untimed preparation ([prep i]). *)
let timed_each ~iters ~prep f =
  let total = ref 0 in
  for i = 0 to iters - 1 do
    prep i;
    let t0 = now () in
    f i;
    total := !total + (now () - t0)
  done;
  float_of_int !total /. float_of_int iters

let run ~seed (built : Gen.built) =
  let db = built.Gen.db in
  let pager = Db.pager db in
  let rng = Splitmix.create ((seed * 7919) + 11) in
  let r_file = (Db.engine db).Fieldrep_replication.Engine.file_of_set "R" in
  let file = Heap_file.file_id r_file in
  let r = Workloads.objects db ~set:"R" ~field:"field_r" in
  let s_oids = Array.map fst (Workloads.objects db ~set:"S" ~field:"field_s") in
  let sample =
    Array.init 1024 (fun _ -> r.(Splitmix.int rng (Array.length r)))
  in
  let oids = Array.map fst sample in
  let oid i = oids.(i land 1023) in
  let s_oid i = s_oids.(i mod Array.length s_oids) in
  let key i = Key.Int (snd sample.(i land 1023)) in
  let out = ref [] in
  let emit name unit v = out := (name, v, unit) :: !out in
  let emit_cost name (ns, words) =
    emit (name ^ "_ns") "ns" ns;
    emit (name ^ "_words") "words" words
  in
  (* storage: buffer-pool hits on resident pages, then forced misses *)
  let pages = Array.init 64 (fun i -> i * Heap_file.page_count r_file / 64) in
  let page i = pages.(i land 63) in
  let read_page i =
    Pager.with_page_read pager ~file ~page:(page i) (fun b ->
        ignore (Bytes.length b))
  in
  for i = 0 to 63 do
    read_page i
  done;
  emit_cost "buffer_pool.hit" (cost ~iters:200_000 read_page);
  Pager.flush pager;
  emit "buffer_pool.miss_ns" "ns"
    (timed_each ~iters:4000
       ~prep:(fun i -> Pager.invalidate pager ~file ~page:(page i))
       read_page);
  emit_cost "heap_file.read"
    (cost ~iters:100_000 (fun i -> ignore (Heap_file.read r_file (oid i))));
  let images = Array.map (Heap_file.read r_file) oids in
  emit_cost "record.decode"
    (cost ~iters:200_000 (fun i ->
         ignore (Record.decode images.(i land 1023))));
  (* btree: a tree with the R index's entries, built in the same pager *)
  let entries =
    Db.index_range db ~index:Gen.r_index ~lo:Key.min_int_key
      ~hi:(Key.Int max_int) ~init:[] ~f:(fun acc k o -> (k, o) :: acc)
    |> List.rev
    |> Array.of_list
  in
  let tree = Btree.create pager in
  Btree.bulk_load tree entries;
  emit_cost "btree.find"
    (cost ~iters:100_000 (fun i -> ignore (Btree.find tree (key i))));
  emit_cost "btree.insert_delete"
    (cost ~iters:2000 (fun i ->
         ignore (Btree.delete tree (key i) (oid i));
         Btree.insert tree (key i) (oid i)));
  emit "btree.height" "levels"
    (float_of_int (Db.index_stats db ~index:Gen.r_index).Db.height);
  (* lock manager: one object's IX + X and the release, per transaction *)
  let locks = Lock.create () in
  emit_cost "lock.acquire_release"
    (cost ~iters:200_000 (fun i ->
         Lock.acquire locks ~txn:i (Lock.Set "R") Lock.IX;
         Lock.acquire locks ~txn:i (Lock.Obj (oid i)) Lock.X;
         Lock.release_all locks ~txn:i));
  (* wal: a probe log of its own, holding the update records churn writes *)
  let wal_path = Filename.temp_file "perfbench" ".wal" in
  let wal = Wal.open_ ~fsync:false wal_path in
  let append i =
    ignore
      (Wal.append wal
         (Wal.Update
            {
              set = "R";
              oid = oid i;
              field = "pad";
              value = Value.VString "probe-pad-value";
            }))
  in
  emit_cost "wal.append" (cost ~iters:100_000 append);
  Wal.sync wal;
  emit "wal.sync_ns" "ns"
    (timed_each ~iters:2000 ~prep:append (fun _ -> Wal.sync wal));
  Wal.close wal;
  Sys.remove wal_path;
  (* db reads *)
  emit_cost "db.deref"
    (cost ~iters:100_000 (fun i ->
         ignore (Db.deref db ~set:"R" (oid i) "sref.repfield")));
  emit_cost "db.get"
    (cost ~iters:100_000 (fun i -> ignore (Db.get db ~set:"R" (oid i))));
  emit_cost "db.index_lookup"
    (cost ~iters:20_000 (fun i ->
         ignore (Db.index_lookup db ~index:Gen.r_index (key i))));
  (* query layer *)
  let reads =
    Array.init 256 (fun _ ->
        Mix.read_query built rng ~read_sel:Workloads.read_sel)
  in
  emit "exec.retrieve_ns" "ns"
    (fst
       (cost ~iters:256 (fun i ->
            let res = Exec.retrieve db reads.(i) in
            Exec.drop_output db res.Exec.output_file)));
  let replaces =
    Array.init 64 (fun _ ->
        Mix.update_query built rng ~update_sel:Workloads.update_sel)
  in
  emit "exec.replace_ns" "ns"
    (fst (cost ~iters:64 (fun i -> ignore (Exec.replace db replaces.(i)))));
  (* db writes: autocommitted, so a durable database logs and ships each.
     Every write stores a new value: an unchanged one may cost nothing. *)
  let pads =
    Array.init 4000 (fun i ->
        Value.VString
          (Printf.sprintf "%0*d" Gen.default_spec.Gen.r_pad_bytes i))
  in
  emit_cost "db.update_field_unindexed"
    (cost ~iters:2000 (fun i ->
         Db.update_field db ~set:"R" (oid i) ~field:"pad" pads.(i)));
  emit_cost "db.update_field_replicated"
    (cost ~iters:1000 (fun i ->
         Db.update_field db ~set:"S" (s_oid i) ~field:"repfield"
           (Value.VString (Printf.sprintf "%020d" i))));
  emit_cost "db.update_field_indexed"
    (cost ~iters:300 (fun i ->
         Db.update_field db ~set:"R" (oid i) ~field:"field_r"
           (Value.VInt (50_000_000 + i))));
  let fresh = Array.make 1000 oids.(0) in
  emit "db.insert_ns" "ns"
    (fst
       (cost ~iters:1000 (fun i ->
            fresh.(i) <-
              Db.insert db ~set:"R"
                [
                  Value.VInt (60_000_000 + i);
                  pads.(i);
                  Value.VRef (s_oid i);
                ])));
  emit "db.delete_ns" "ns"
    (fst (cost ~iters:1000 (fun i -> Db.delete db ~set:"R" fresh.(i))));
  let txn = ref None in
  emit "db.commit_ns" "ns"
    (timed_each ~iters:1000
       ~prep:(fun i ->
         let tx = Db.begin_txn db in
         Db.update_field ~txn:tx db ~set:"R" (oid i) ~field:"pad"
           pads.(2000 + i);
         txn := Some tx)
       (fun _ -> Option.iter (Db.commit db) !txn));
  List.rev !out
