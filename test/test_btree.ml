(* Tests for the page-based B+-tree: ordering, duplicates, splits, deletes
   with rebalancing, range scans, bulk load, and model-based properties. *)

module Oid = Fieldrep_storage.Oid
module Pager = Fieldrep_storage.Pager
module Btree = Fieldrep_btree.Btree
module Key = Fieldrep_btree.Key
module Splitmix = Fieldrep_util.Splitmix

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let oid i = { Oid.file = 1; page = i / 100; slot = i mod 100 }
let mk_pager ?(page_size = 512) () = Pager.create ~page_size ~frames:64 ()

let mk_tree ?page_size () = Btree.create (mk_pager ?page_size ())

(* ------------------------------------------------------------------ *)
(* Key                                                                 *)

let test_key_roundtrip () =
  List.iter
    (fun k ->
      let buf = Bytes.create (Key.encoded_size k) in
      ignore (Key.encode buf 0 k);
      let k', off = Key.decode buf 0 in
      checkb "equal" true (Key.equal k k');
      checki "size" (Key.encoded_size k) off)
    [ Key.Int 0; Key.Int (-5); Key.Int max_int; Key.String ""; Key.String "salary" ]

let test_key_order () =
  checkb "int order" true (Key.compare (Key.Int 1) (Key.Int 2) < 0);
  checkb "string order" true (Key.compare (Key.String "a") (Key.String "b") < 0);
  checkb "same variant check" true (Key.same_variant (Key.Int 1) (Key.Int 9));
  checkb "cross variant check" false (Key.same_variant (Key.Int 1) (Key.String "x"))

let test_key_compare_encoded () =
  let keys =
    [
      Key.Int min_int; Key.Int (-5); Key.Int 0; Key.Int 7; Key.Int max_int; Key.String "";
      Key.String "a"; Key.String "a\000"; Key.String "ab"; Key.String "b"; Key.String "\255";
    ]
  in
  let sign c = Int.compare c 0 in
  List.iter
    (fun k' ->
      let buf = Bytes.create (3 + Key.encoded_size k') in
      ignore (Key.encode buf 3 k');
      checki "size read in place" (Key.encoded_size k') (Key.encoded_size_at buf 3);
      List.iter
        (fun k ->
          checki
            (Printf.sprintf "%s vs %s" (Key.to_string k) (Key.to_string k'))
            (sign (Key.compare k k'))
            (sign (Key.compare_encoded k buf 3)))
        keys;
      Bytes.set buf 3 '\007';
      (try
         ignore (Key.compare_encoded (Key.Int 0) buf 3);
         Alcotest.fail "expected Wire.Corrupt"
       with Fieldrep_util.Wire.Corrupt _ -> ()))
    keys

(* ------------------------------------------------------------------ *)
(* Basic operations                                                    *)

let test_insert_find () =
  let t = mk_tree () in
  for i = 0 to 99 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  checki "count" 100 (Btree.entry_count t);
  for i = 0 to 99 do
    match Btree.find_first t (Key.Int i) with
    | Some o -> checkb "found right oid" true (Oid.equal o (oid i))
    | None -> Alcotest.failf "missing key %d" i
  done;
  checkb "absent key" true (Btree.find_first t (Key.Int 1000) = None);
  Btree.check_invariants t

let test_duplicate_keys () =
  let t = mk_tree () in
  for i = 0 to 9 do
    Btree.insert t (Key.Int 5) (oid i)
  done;
  let oids = Btree.find t (Key.Int 5) in
  checki "all duplicates found" 10 (List.length oids);
  (* Returned in OID order. *)
  let sorted = List.sort Oid.compare oids in
  checkb "oid order" true (List.equal Oid.equal oids sorted);
  Btree.check_invariants t

(* Entries compared in place must follow [Oid.compare]: file, then page,
   then slot, all unsigned, [Oid.nil]'s top file bit included. *)
let test_oid_order_in_place () =
  let t = mk_tree ~page_size:128 () in
  let oids =
    [
      Oid.nil;
      { Oid.file = 0; page = 0; slot = 0 };
      { Oid.file = 0x8000; page = 1; slot = 2 };
      { Oid.file = 0x7fff; page = 0xffff_ffff; slot = 0xffff };
      { Oid.file = 1; page = 0x8000_0000; slot = 1 };
      { Oid.file = 1; page = 0x7fff_ffff; slot = 9 };
      { Oid.file = 1; page = 3; slot = 0x8000 };
      { Oid.file = 1; page = 3; slot = 4 };
    ]
  in
  List.iter
    (fun o ->
      Btree.insert t (Key.Int 5) o;
      Btree.insert t (Key.Int 6) o)
    oids;
  Btree.check_invariants t;
  let sorted = List.sort Oid.compare oids in
  checkb "find in Oid.compare order" true (List.equal Oid.equal sorted (Btree.find t (Key.Int 5)));
  List.iter (fun o -> checkb "deleted" true (Btree.delete t (Key.Int 5) o)) (List.rev oids);
  checkb "other key intact" true (List.equal Oid.equal sorted (Btree.find t (Key.Int 6)));
  Btree.check_invariants t

let test_duplicate_entry_rejected () =
  let t = mk_tree () in
  Btree.insert t (Key.Int 1) (oid 1);
  try
    Btree.insert t (Key.Int 1) (oid 1);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_mixed_variants_rejected () =
  let t = mk_tree () in
  Btree.insert t (Key.Int 1) (oid 1);
  try
    Btree.insert t (Key.String "x") (oid 2);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_string_keys () =
  let t = mk_tree () in
  let words = [ "zeta"; "alpha"; "mu"; "beta"; "omega"; "gamma" ] in
  List.iteri (fun i w -> Btree.insert t (Key.String w) (oid i)) words;
  let collected = ref [] in
  Btree.iter_all t (fun k _ -> collected := k :: !collected);
  let got = List.rev_map (function Key.String s -> s | Key.Int _ -> "?") !collected in
  Alcotest.(check (list string)) "sorted" (List.sort String.compare words) got;
  Btree.check_invariants t

(* ------------------------------------------------------------------ *)
(* Splits / height growth                                              *)

let test_split_growth () =
  let t = mk_tree ~page_size:256 () in
  checki "initial height" 1 (Btree.height t);
  for i = 0 to 499 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  checkb "grew" true (Btree.height t >= 3);
  Btree.check_invariants t;
  for i = 0 to 499 do
    checkb "all present" true (Btree.find_first t (Key.Int i) <> None)
  done

let test_capped_fanout () =
  (* A 128-byte page holds at most 7 Int entries per leaf and 6 children
     per internal node, so 64 entries need at least 3 levels. *)
  let t = mk_tree ~page_size:128 () in
  for i = 0 to 63 do
    Btree.insert t (Key.Int i) (oid i);
    Btree.check_invariants t
  done;
  checkb "height reflects the page's fanout" true (Btree.height t >= 3)

let test_reverse_and_random_insert_orders () =
  List.iter
    (fun order ->
      let t = mk_tree ~page_size:256 () in
      Array.iter (fun i -> Btree.insert t (Key.Int i) (oid i)) order;
      Btree.check_invariants t;
      let prev = ref min_int in
      Btree.iter_all t (fun k _ ->
          match k with
          | Key.Int v ->
              checkb "ascending" true (v > !prev);
              prev := v
          | Key.String _ -> Alcotest.fail "unexpected"))
    [
      Array.init 300 (fun i -> 299 - i);
      Splitmix.permutation (Splitmix.create 5) 300;
    ]

(* ------------------------------------------------------------------ *)
(* Range scans                                                         *)

let test_range_scan () =
  let t = mk_tree ~page_size:256 () in
  for i = 0 to 199 do
    Btree.insert t (Key.Int (2 * i)) (oid i)
  done;
  let seen =
    Btree.fold_range t ~lo:(Key.Int 100) ~hi:(Key.Int 120) ~init:[] ~f:(fun acc k _ ->
        k :: acc)
  in
  let expected = List.init 11 (fun i -> Key.Int (100 + (2 * i))) in
  Alcotest.(check (list string))
    "inclusive range"
    (List.map Key.to_string expected)
    (List.rev_map Key.to_string seen)

let test_range_scan_empty_and_degenerate () =
  let t = mk_tree () in
  Btree.iter_range t ~lo:(Key.Int 0) ~hi:(Key.Int 100) (fun _ _ ->
      Alcotest.fail "empty tree yields nothing");
  Btree.insert t (Key.Int 5) (oid 1);
  Btree.iter_range t ~lo:(Key.Int 10) ~hi:(Key.Int 0) (fun _ _ ->
      Alcotest.fail "inverted range yields nothing");
  let hits = ref 0 in
  Btree.iter_range t ~lo:(Key.Int 5) ~hi:(Key.Int 5) (fun _ _ -> incr hits);
  checki "point range" 1 !hits

let test_range_scan_spans_leaves () =
  let t = mk_tree ~page_size:128 () in
  for i = 0 to 99 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  checkb "at most 7 entries per leaf" true (Btree.leaf_count t >= 15);
  let seen = ref [] in
  Btree.iter_range t ~lo:(Key.Int 10) ~hi:(Key.Int 89) (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list string))
    "spans many leaves, in order"
    (List.init 80 (fun i -> string_of_int (10 + i)))
    (List.rev_map Key.to_string !seen)

(* ------------------------------------------------------------------ *)
(* Deletes                                                             *)

let test_delete_basic () =
  let t = mk_tree () in
  for i = 0 to 49 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  checkb "delete present" true (Btree.delete t (Key.Int 25) (oid 25));
  checkb "delete absent" false (Btree.delete t (Key.Int 25) (oid 25));
  checkb "gone" true (Btree.find_first t (Key.Int 25) = None);
  checki "count" 49 (Btree.entry_count t);
  Btree.check_invariants t

let test_delete_one_duplicate () =
  let t = mk_tree () in
  for i = 0 to 5 do
    Btree.insert t (Key.Int 7) (oid i)
  done;
  checkb "deleted" true (Btree.delete t (Key.Int 7) (oid 3));
  let remaining = Btree.find t (Key.Int 7) in
  checki "five left" 5 (List.length remaining);
  checkb "right one removed" false (List.exists (Oid.equal (oid 3)) remaining)

let test_delete_everything () =
  let t = mk_tree ~page_size:256 () in
  let n = 400 in
  for i = 0 to n - 1 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  let order = Splitmix.permutation (Splitmix.create 9) n in
  Array.iter (fun i -> checkb "deleted" true (Btree.delete t (Key.Int i) (oid i))) order;
  checki "empty" 0 (Btree.entry_count t);
  checki "height collapsed" 1 (Btree.height t);
  Btree.check_invariants t;
  (* Tree is reusable after being emptied. *)
  Btree.insert t (Key.Int 1) (oid 1);
  checkb "reusable" true (Btree.find_first t (Key.Int 1) <> None)

let test_delete_interleaved_with_insert () =
  let t = mk_tree ~page_size:256 () in
  let rng = Splitmix.create 21 in
  let model = Hashtbl.create 64 in
  for round = 0 to 1500 do
    let k = Splitmix.int rng 200 in
    if Splitmix.bool rng then begin
      if not (Hashtbl.mem model k) then begin
        Btree.insert t (Key.Int k) (oid k);
        Hashtbl.add model k ()
      end
    end
    else begin
      let present = Hashtbl.mem model k in
      let deleted = Btree.delete t (Key.Int k) (oid k) in
      checkb "delete agrees with model" present deleted;
      if present then Hashtbl.remove model k
    end;
    if round mod 300 = 0 then Btree.check_invariants t
  done;
  Btree.check_invariants t;
  checki "final count" (Hashtbl.length model) (Btree.entry_count t)

(* Grow a tree on 128-byte pages to height 4 with an insert-heavy half,
   then shrink it with a delete-heavy half, so merges and rotations pull
   separators down between internal nodes.  Every separator must stay its
   right subtree's exact minimum after every op. *)
let test_delete_heavy_separators () =
  for seed = 1 to 300 do
    let rng = Splitmix.create seed in
    let t = mk_tree ~page_size:128 () in
    let model = Hashtbl.create 512 in
    for step = 1 to 600 do
      let k = Splitmix.int rng 80 and o = Splitmix.int rng 5 in
      let present = Hashtbl.mem model (k, o) in
      let insert_pct = if step <= 300 then 80 else 30 in
      if Splitmix.int rng 100 < insert_pct then begin
        if not present then begin
          Btree.insert t (Key.Int k) (oid o);
          Hashtbl.replace model (k, o) ()
        end
      end
      else begin
        checkb "delete agrees with model" present (Btree.delete t (Key.Int k) (oid o));
        Hashtbl.remove model (k, o)
      end;
      try Btree.check_invariants t
      with Failure msg -> Alcotest.failf "seed %d, op %d: %s" seed step msg
    done;
    let expected =
      Hashtbl.fold (fun (k, o) () acc -> (k, o) :: acc) model []
      |> List.sort compare
      |> List.map (fun (k, o) -> (string_of_int k, Oid.to_string (oid o)))
    in
    let got = ref [] in
    Btree.iter_all t (fun k o -> got := (Key.to_string k, Oid.to_string o) :: !got);
    Alcotest.(check (list (pair string string))) "matches the model" expected (List.rev !got)
  done

(* 75-byte string keys on 256-byte pages: a leaf holds one or two
   entries and an internal node one or two separators, so deletes empty
   leaves anywhere in the tree and splits and rotations work on three
   separators.  A bulk-loaded tail leaf of one entry empties too. *)
let test_delete_empties_leaves () =
  let t = mk_tree () in
  Btree.bulk_load t (Array.init 30 (fun i -> (Key.Int i, oid i)));
  checki "two leaves, the tail holding one entry" 2 (Btree.leaf_count t);
  checkb "tail emptied" true (Btree.delete t (Key.Int 29) (oid 29));
  Btree.check_invariants t;
  checki "collapsed to one leaf" 1 (Btree.height t);
  let key i = Key.String (String.make 70 'k' ^ Printf.sprintf "%05d" i) in
  for seed = 1 to 40 do
    let rng = Splitmix.create seed in
    let t = mk_tree ~page_size:256 () in
    let model = Hashtbl.create 64 in
    for step = 1 to 400 do
      let i = Splitmix.int rng 60 in
      let present = Hashtbl.mem model i in
      if Splitmix.int rng 100 < if step <= 200 then 75 else 35 then begin
        if not present then begin
          Btree.insert t (key i) (oid i);
          Hashtbl.replace model i ()
        end
      end
      else begin
        checkb "delete agrees with model" present (Btree.delete t (key i) (oid i));
        Hashtbl.remove model i
      end;
      try Btree.check_invariants t
      with Failure msg -> Alcotest.failf "seed %d, op %d: %s" seed step msg
    done;
    Hashtbl.iter (fun i () -> checkb "present" true (Btree.find t (key i) = [ oid i ])) model
  done

(* ------------------------------------------------------------------ *)
(* Bulk load                                                           *)

let test_bulk_load_matches_inserts () =
  let entries = Array.init 1000 (fun i -> (Key.Int (i * 3), oid i)) in
  let t = mk_tree ~page_size:256 () in
  (* Bulk load from a shuffled copy; internal sort must fix the order. *)
  let shuffled = Array.copy entries in
  Splitmix.shuffle (Splitmix.create 31) shuffled;
  Btree.bulk_load t shuffled;
  checki "count" 1000 (Btree.entry_count t);
  Btree.check_invariants t;
  Array.iter
    (fun (k, o) ->
      match Btree.find_first t k with
      | Some found -> checkb "present" true (Oid.equal found o)
      | None -> Alcotest.failf "missing %s" (Key.to_string k))
    entries

let test_bulk_load_empty_and_single () =
  let t = mk_tree () in
  Btree.bulk_load t [||];
  checki "empty" 0 (Btree.entry_count t);
  let t2 = mk_tree () in
  Btree.bulk_load t2 [| (Key.Int 9, oid 9) |];
  checki "single" 1 (Btree.entry_count t2);
  Btree.check_invariants t2

let test_bulk_load_rejects_nonempty () =
  let t = mk_tree () in
  Btree.insert t (Key.Int 1) (oid 1);
  try
    Btree.bulk_load t [| (Key.Int 2, oid 2) |];
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_bulk_load_then_mutate () =
  let t = mk_tree ~page_size:256 () in
  Btree.bulk_load t (Array.init 500 (fun i -> (Key.Int i, oid i)));
  for i = 500 to 599 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  for i = 0 to 99 do
    checkb "deleted" true (Btree.delete t (Key.Int i) (oid i))
  done;
  Btree.check_invariants t;
  checki "count" 500 (Btree.entry_count t)

(* ------------------------------------------------------------------ *)
(* I/O behaviour                                                       *)

let test_lookup_io_is_height_bound () =
  let pager = Pager.create ~page_size:512 ~frames:128 () in
  let t = Btree.create pager in
  for i = 0 to 4999 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  let h = Btree.height t in
  Pager.run_cold pager (fun () -> ignore (Btree.find_first t (Key.Int 2500)));
  let reads = (Pager.stats pager).Fieldrep_storage.Stats.page_reads in
  checkb "descent reads <= height + 1" true (reads <= h + 1)

(* 40 000 Int entries on 4096-byte pages: 240 entries per leaf under a
   single internal root. *)
let big_tree () =
  let pager = Pager.create ~page_size:4096 ~frames:512 () in
  let t = Btree.create pager in
  Btree.bulk_load t (Array.init 40_000 (fun i -> (Key.Int i, oid i)));
  (pager, t)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let pool_lookups pager =
  let s = Pager.stats pager in
  s.Fieldrep_storage.Stats.buffer_hits + s.Fieldrep_storage.Stats.page_reads

let test_lookup_is_height_pool_lookups () =
  let pager, t = big_tree () in
  checki "height" 2 (Btree.height t);
  let lookups k =
    let before = pool_lookups pager in
    ignore (Btree.find t (Key.Int k));
    pool_lookups pager - before
  in
  (* Keys inside a leaf, at a leaf's end (the separator after it bounds
     the scan), at either end of the tree, and past it. *)
  List.iter
    (fun k -> checki (Printf.sprintf "lookups for %d" k) (Btree.height t) (lookups k))
    [ 20_011; 11_999; 0; 39_999; 40_500 ];
  (* The descent probes (key, smallest oid), so a key heading a leaf
     scans the end of the leaf before it too. *)
  checki "lookups for a leaf's first key" (Btree.height t + 1) (lookups 12_000);
  ignore (Btree.delete t (Key.Int 5_000) (oid 5_000));
  let before = pool_lookups pager in
  checkb "absent" true (Btree.find t (Key.Int 5_000) = []);
  checki "lookups for an absent key" (Btree.height t) (pool_lookups pager - before)

(* A one-hit lookup allocates its result (the OID and one list cell) and
   the list it reverses, nothing per level or per page. *)
let test_find_allocation () =
  let _, t = big_tree () in
  ignore (Btree.find t (Key.Int 17_001));
  let words = minor_words (fun () -> ignore (Btree.find t (Key.Int 20_011))) in
  checkb (Printf.sprintf "find allocates %d <= 30 words" words) true (words <= 30)

let test_delete_insert_allocation () =
  let _, t = big_tree () in
  let k = Key.Int 20_011 and o = oid 20_011 in
  let words =
    minor_words (fun () ->
        ignore (Btree.delete t k o);
        Btree.insert t k o)
  in
  checkb (Printf.sprintf "delete + insert allocate %d <= 2000 words" words) true (words <= 2000);
  Btree.check_invariants t

(* The root's tag (0 leaf, 1 internal) and entry count, read from its
   page. *)
let root_header pager t =
  Pager.with_page_read pager ~file:(Btree.file_id t) ~page:(Btree.root t) (fun b ->
      (Bytes.get_uint8 b 0, Bytes.get_uint16_le b 1))

(* big_tree's root is internal and small, so always underfull: a delete
   that changes no node's shape must still decode none to see that the
   root keeps its separators. *)
let test_delete_decodes_nothing () =
  let pager, t = big_tree () in
  ignore (Btree.delete t (Key.Int 20_013) (oid 20_013));
  let k = Key.Int 20_011 and o = oid 20_011 in
  let words = minor_words (fun () -> ignore (Btree.delete t k o)) in
  checki "a delete inside a leaf allocates nothing" 0 words;
  let words = minor_words (fun () -> Btree.insert t k o) in
  checki "an insert that fits allocates nothing" 0 words;
  let tag, count = root_header pager t in
  checkb "the root stays internal, with separators" true (tag = 1 && count > 1);
  checki "height" 2 (Btree.height t);
  Btree.check_invariants t

(* The root collapses exactly when its last separator goes: at every
   step an internal root has a separator, and the height drops by one at
   the delete that took the root's last. *)
let test_root_collapse () =
  let pager = mk_pager ~page_size:256 () in
  let t = Btree.create pager in
  let n = 60 in
  for i = 0 to n - 1 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  checkb "grown past one level" true (Btree.height t >= 2);
  let collapses = ref 0 in
  for i = 0 to n - 1 do
    let before = Btree.height t in
    let tag_before, count_before = root_header pager t in
    checkb "deleted" true (Btree.delete t (Key.Int i) (oid i));
    let tag, count = root_header pager t in
    if tag = 1 then checkb "an internal root keeps a separator" true (count >= 1);
    checki "a leaf root iff height 1" (if Btree.height t = 1 then 0 else 1) tag;
    if Btree.height t < before then begin
      incr collapses;
      checki "collapsed by one level" (before - 1) (Btree.height t);
      checkb "only when the root had one separator left" true
        (tag_before = 1 && count_before = 1)
    end;
    Btree.check_invariants t
  done;
  checkb "the root collapsed" true (!collapses >= 1);
  checki "empty" 0 (Btree.entry_count t);
  checki "a lone leaf" 1 (Btree.height t)

(* A delete that leaves an internal root with separators pins each level
   once: the descent reads the root's count, so nothing pins the root
   again to look for a lone child, not even when the root is underfull
   (two and three levels, the roots' few separators well under a quarter
   page). *)
let test_delete_is_height_lookups () =
  List.iter
    (fun (page_size, n, height, keys) ->
      let pager = Pager.create ~page_size ~frames:512 () in
      let t = Btree.create pager in
      Btree.bulk_load t (Array.init n (fun i -> (Key.Int i, oid i)));
      checki "height" height (Btree.height t);
      List.iter
        (fun k ->
          let before = pool_lookups pager in
          checkb "deleted" true (Btree.delete t (Key.Int k) (oid k));
          checki
            (Printf.sprintf "lookups to delete %d" k)
            height
            (pool_lookups pager - before))
        keys;
      let tag, count = root_header pager t in
      checkb "the root stays internal, with separators" true (tag = 1 && count >= 1);
      Btree.check_invariants t)
    [ (4096, 1_000, 2, [ 501; 503; 250; 5 ]); (256, 300, 3, [ 151; 153; 5 ]) ]

(* Pages written back by [f], with the pool flushed before and after. *)
let pages_written pager f =
  Pager.flush pager;
  let before = (Pager.stats pager).Fieldrep_storage.Stats.page_writes in
  f ();
  Pager.flush pager;
  (Pager.stats pager).Fieldrep_storage.Stats.page_writes - before

let test_delete_writes_only_what_changed () =
  let pager, t = big_tree () in
  checki "a delete inside a leaf writes only the leaf" 1
    (pages_written pager (fun () -> ignore (Btree.delete t (Key.Int 20_011) (oid 20_011))));
  checki "an insert that fits writes only the leaf" 1
    (pages_written pager (fun () -> Btree.insert t (Key.Int 20_011) (oid 20_011)));
  (* 12 000 heads the 51st leaf: the root's separator into it changes. *)
  checki "deleting a leaf's first entry writes the leaf and the root" 2
    (pages_written pager (fun () -> ignore (Btree.delete t (Key.Int 12_000) (oid 12_000))));
  Btree.check_invariants t

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"deleting a tall tree to empty keeps every invariant" ~count:10
      (pair (int_range 1 1_000_000) (int_range 400 900))
      (fun (seed, n) ->
        let pager = mk_pager ~page_size:256 () in
        let t = Btree.create pager in
        let rng = Splitmix.create seed in
        let keys = Array.init n (fun i -> i) in
        for i = n - 1 downto 1 do
          let j = Splitmix.int rng (i + 1) in
          let x = keys.(i) in
          keys.(i) <- keys.(j);
          keys.(j) <- x
        done;
        Array.iter (fun k -> Btree.insert t (Key.Int k) (oid k)) keys;
        if Btree.height t < 3 then Test.fail_reportf "height %d < 3" (Btree.height t);
        for i = n - 1 downto 1 do
          let j = Splitmix.int rng (i + 1) in
          let x = keys.(i) in
          keys.(i) <- keys.(j);
          keys.(j) <- x
        done;
        Array.iteri
          (fun i k ->
            let before = Btree.height t in
            if not (Btree.delete t (Key.Int k) (oid k)) then
              Test.fail_reportf "key %d missing" k;
            Btree.check_invariants t;
            let h = Btree.height t in
            if h > before || h < before - 1 then
              Test.fail_reportf "height %d -> %d" before h;
            let tag, count =
              Pager.with_page_read pager ~file:(Btree.file_id t) ~page:(Btree.root t)
                (fun b -> (Bytes.get_uint8 b 0, Bytes.get_uint16_le b 1))
            in
            if tag = 1 && count = 0 then Test.fail_report "internal root without separators";
            if Btree.entry_count t <> n - i - 1 then Test.fail_report "count")
          keys;
        Btree.height t = 1 && Btree.entry_count t = 0);
    Test.make ~name:"btree matches sorted-assoc model" ~count:40
      (list_of_size Gen.(1 -- 300) (pair (int_range 0 100) bool))
      (fun ops ->
        let t = mk_tree ~page_size:256 () in
        let model = Hashtbl.create 64 in
        List.iter
          (fun (k, ins) ->
            if ins then begin
              if not (Hashtbl.mem model k) then begin
                Btree.insert t (Key.Int k) (oid k);
                Hashtbl.add model k ()
              end
            end
            else begin
              ignore (Btree.delete t (Key.Int k) (oid k));
              Hashtbl.remove model k
            end)
          ops;
        Btree.check_invariants t;
        let expected = Hashtbl.fold (fun k () acc -> k :: acc) model [] in
        let expected = List.sort Int.compare expected in
        let got = ref [] in
        Btree.iter_all t (fun k _ ->
            match k with Key.Int v -> got := v :: !got | Key.String _ -> ());
        List.rev !got = expected);
    Test.make ~name:"range scan agrees with filter" ~count:40
      (triple (list_of_size Gen.(0 -- 150) (int_range 0 500)) (int_range 0 500) (int_range 0 500))
      (fun (keys, a, b) ->
        let lo = min a b and hi = max a b in
        let keys = List.sort_uniq Int.compare keys in
        let t = mk_tree ~page_size:256 () in
        List.iter (fun k -> Btree.insert t (Key.Int k) (oid k)) keys;
        let expected = List.filter (fun k -> k >= lo && k <= hi) keys in
        let got =
          Btree.fold_range t ~lo:(Key.Int lo) ~hi:(Key.Int hi) ~init:[] ~f:(fun acc k _ ->
              match k with Key.Int v -> v :: acc | Key.String _ -> acc)
        in
        List.rev got = expected);
    Test.make ~name:"bulk load equals incremental build" ~count:25
      (list_of_size Gen.(0 -- 400) (int_range 0 1000))
      (fun keys ->
        let keys = List.sort_uniq Int.compare keys in
        let incremental = mk_tree ~page_size:256 () in
        List.iter (fun k -> Btree.insert incremental (Key.Int k) (oid k)) keys;
        let bulk = mk_tree ~page_size:256 () in
        Btree.bulk_load bulk (Array.of_list (List.map (fun k -> (Key.Int k, oid k)) keys));
        Btree.check_invariants bulk;
        let dump t =
          let acc = ref [] in
          Btree.iter_all t (fun k o -> acc := (Key.to_string k, Oid.to_string o) :: !acc);
          List.rev !acc
        in
        dump incremental = dump bulk);
  ]

let () =
  Alcotest.run "fieldrep_btree"
    [
      ( "key",
        [
          Alcotest.test_case "roundtrip" `Quick test_key_roundtrip;
          Alcotest.test_case "order" `Quick test_key_order;
          Alcotest.test_case "compare in place" `Quick test_key_compare_encoded;
        ] );
      ( "basic",
        [
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "duplicate keys" `Quick test_duplicate_keys;
          Alcotest.test_case "oid order in place" `Quick test_oid_order_in_place;
          Alcotest.test_case "duplicate entries rejected" `Quick test_duplicate_entry_rejected;
          Alcotest.test_case "mixed variants rejected" `Quick test_mixed_variants_rejected;
          Alcotest.test_case "string keys" `Quick test_string_keys;
        ] );
      ( "splits",
        [
          Alcotest.test_case "height growth" `Quick test_split_growth;
          Alcotest.test_case "capped fanout" `Quick test_capped_fanout;
          Alcotest.test_case "insert orders" `Quick test_reverse_and_random_insert_orders;
        ] );
      ( "range",
        [
          Alcotest.test_case "inclusive scan" `Quick test_range_scan;
          Alcotest.test_case "empty/degenerate" `Quick test_range_scan_empty_and_degenerate;
          Alcotest.test_case "spans leaves" `Quick test_range_scan_spans_leaves;
        ] );
      ( "delete",
        [
          Alcotest.test_case "basic" `Quick test_delete_basic;
          Alcotest.test_case "one duplicate" `Quick test_delete_one_duplicate;
          Alcotest.test_case "delete everything" `Quick test_delete_everything;
          Alcotest.test_case "interleaved" `Quick test_delete_interleaved_with_insert;
          Alcotest.test_case "delete-heavy separators" `Quick test_delete_heavy_separators;
          Alcotest.test_case "deletes empty leaves" `Quick test_delete_empties_leaves;
        ] );
      ( "bulk_load",
        [
          Alcotest.test_case "matches inserts" `Quick test_bulk_load_matches_inserts;
          Alcotest.test_case "empty and single" `Quick test_bulk_load_empty_and_single;
          Alcotest.test_case "rejects non-empty" `Quick test_bulk_load_rejects_nonempty;
          Alcotest.test_case "mutate after load" `Quick test_bulk_load_then_mutate;
        ] );
      ( "io",
        [
          Alcotest.test_case "lookup bounded by height" `Quick test_lookup_io_is_height_bound;
          Alcotest.test_case "lookup is height pool lookups" `Quick
            test_lookup_is_height_pool_lookups;
          Alcotest.test_case "find allocation" `Quick test_find_allocation;
          Alcotest.test_case "delete + insert allocation" `Quick test_delete_insert_allocation;
          Alcotest.test_case "delete writes only what changed" `Quick
            test_delete_writes_only_what_changed;
          Alcotest.test_case "delete decodes no node" `Quick test_delete_decodes_nothing;
          Alcotest.test_case "root collapses with its last separator" `Quick
            test_root_collapse;
          Alcotest.test_case "delete is height lookups" `Quick test_delete_is_height_lookups;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
