module Wire = Fieldrep_util.Wire
module Listx = Fieldrep_util.Listx
module Oid = Fieldrep_storage.Oid
module Pager = Fieldrep_storage.Pager

type entry = Key.t * Oid.t

(* A decoded node.  Searches and single-entry edits work on the page bytes
   in place; a node is decoded only when its structure changes (split,
   merge, rotation, separator update) and by [check_invariants]. *)
type node =
  | Leaf of { entries : entry array; next : int (* page, -1 = none *) }
  | Internal of { children : int array; seps : entry array }
      (* Array.length children = Array.length seps + 1; seps.(i) is exactly
         the minimum entry of the subtree under children.(i + 1). *)

type t = {
  pager : Pager.t;
  file : int;
  mutable root : int;
  mutable height : int;  (* levels; 1 = the root is a leaf *)
  mutable count : int;
  mutable free_pages : int list;
  mutable key_witness : Key.t option;
  (* Scratch of the in-page steps, which run under a pin as top-level
     functions of the tree ([Pager.with_pin_arg]) so that searches and
     single-entry edits allocate nothing.  Each is set and read within one
     operation, and no step runs user code in between. *)
  mutable probe_key : Key.t;  (* the (key, oid) a step seeks *)
  mutable probe_oid : Oid.t;
  mutable hi : Key.t;  (* a scan's upper bound *)
  mutable seek_idx : int;  (* internal: separators <= probe; leaf: entries < probe *)
  mutable seek_off : int;  (* the offset of entry [seek_idx] *)
  mutable used : int;  (* an internal node's bytes, for the underfull test *)
  mutable bounded : bool;  (* the scan ends within the leaf the descent reaches *)
  mutable next : int;  (* the leaf a scan continues at, -1 when it ends *)
  mutable hits : Oid.t list;  (* a lookup's OIDs, newest first *)
  mutable scan_keys : Key.t array;  (* one leaf's scan hits *)
  mutable scan_oids : Oid.t array;
  mutable underfull : bool;  (* the node a delete step just left *)
  mutable min_buf : Bytes.t;  (* a leaf's new first entry, as encoded *)
}

let min_oid = { Oid.file = 0; page = 0; slot = 0 }

let compare_entry (k1, o1) (k2, o2) =
  match Key.compare k1 k2 with 0 -> Oid.compare o1 o2 | c -> c

(* ------------------------------------------------------------------ *)
(* Node (de)serialization                                              *)

(* A node page is tag u8 | count u16 | link u32 | entries.  The link is
   the next leaf (leaf) or child 0 (internal).  A leaf entry is key | oid;
   an internal entry is separator key | oid | child u32. *)
let tag_leaf = 0
let tag_internal = 1
let none_page = 0xffff_ffff
let header = 1 + 2 + 4

let entry_size (k, _) = Key.encoded_size k + Oid.encoded_size

let node_bytes = function
  | Leaf { entries; _ } ->
      Array.fold_left (fun acc e -> acc + entry_size e) header entries
  | Internal { seps; _ } ->
      Array.fold_left (fun acc e -> acc + entry_size e + 4) header seps

let write_entry buf off (k, o) =
  let off = Key.encode buf off k in
  Oid.encode buf off o

let read_entry buf off =
  let k, off = Key.decode buf off in
  ((k, Oid.decode buf off), off + Oid.encoded_size)

let serialize node buf =
  match node with
  | Leaf { entries; next } ->
      let off = Wire.put_u8 buf 0 tag_leaf in
      let off = Wire.put_u16 buf off (Array.length entries) in
      let off = Wire.put_u32 buf off (if next < 0 then none_page else next) in
      ignore (Array.fold_left (fun off e -> write_entry buf off e) off entries)
  | Internal { children; seps } ->
      let off = Wire.put_u8 buf 0 tag_internal in
      let off = Wire.put_u16 buf off (Array.length seps) in
      let off = Wire.put_u32 buf off children.(0) in
      let off = ref off in
      Array.iteri
        (fun i sep ->
          off := write_entry buf !off sep;
          off := Wire.put_u32 buf !off children.(i + 1))
        seps;
      ignore !off

(* The decoding reference: whole nodes through the Key/Oid codecs. *)
let deserialize buf =
  let tag, off = Wire.get_u8 buf 0 in
  if tag = tag_leaf then begin
    let n, off = Wire.get_u16 buf off in
    let next, off = Wire.get_u32 buf off in
    let next = if next = none_page then -1 else next in
    let cursor = ref off in
    let entries =
      Array.init n (fun _ ->
          let e, off = read_entry buf !cursor in
          cursor := off;
          e)
    in
    Leaf { entries; next }
  end
  else if tag = tag_internal then begin
    let n, off = Wire.get_u16 buf off in
    let child0, off = Wire.get_u32 buf off in
    let cursor = ref off in
    let seps = Array.make n (Key.Int 0, min_oid) in
    let children = Array.make (n + 1) child0 in
    for i = 0 to n - 1 do
      let sep, off = read_entry buf !cursor in
      let child, off = Wire.get_u32 buf off in
      seps.(i) <- sep;
      children.(i + 1) <- child;
      cursor := off
    done;
    Internal { children; seps }
  end
  else raise (Wire.Corrupt (Printf.sprintf "Btree: bad node tag %d" tag))

let read_node t page =
  Pager.with_page_read t.pager ~file:t.file ~page deserialize

let write_node t page node =
  Pager.with_page_write t.pager ~file:t.file ~page (fun buf -> serialize node buf)

let alloc_page t =
  match t.free_pages with
  | page :: rest ->
      t.free_pages <- rest;
      page
  | [] -> Pager.new_page t.pager ~file:t.file

let free_page t page = t.free_pages <- page :: t.free_pages

(* ------------------------------------------------------------------ *)
(* In-place access to a node page                                      *)

let is_leaf buf =
  let tag = Bytes.get_uint8 buf 0 in
  if tag = tag_leaf then true
  else if tag = tag_internal then false
  else raise (Wire.Corrupt (Printf.sprintf "Btree: bad node tag %d" tag))

let expect_leaf buf leaf =
  if is_leaf buf <> leaf then raise (Wire.Corrupt "Btree: node at the wrong depth")

let count_at buf = Bytes.get_uint16_le buf 1
let set_count buf n = Bytes.set_uint16_le buf 1 n
let u32_at buf off =
  Bytes.get_uint16_le buf off lor (Bytes.get_uint16_le buf (off + 2) lsl 16)

let next_leaf buf =
  match u32_at buf 3 with next when next = none_page -> -1 | next -> next

let entry_size_at buf off = Key.encoded_size_at buf off + Oid.encoded_size

(* [compare_entry (key, oid) e] for the entry e encoded at [off]. *)
let compare_entry_at key oid buf off =
  match Key.compare_encoded key buf off with
  | 0 -> Oid.compare_at oid buf (off + Key.encoded_size_at buf off)
  | c -> c

let entry_at buf off =
  let e, _ = read_entry buf off in
  e

let oid_after_key buf off = Oid.decode buf (off + Key.encoded_size_at buf off)

(* Offset just past [n] entries starting at [off]; [extra] is 4 for the
   child pointer after each internal entry. *)
let rec skip_entries buf off n ~extra =
  if n = 0 then off
  else skip_entries buf (off + entry_size_at buf off + extra) (n - 1) ~extra

(* The first leaf entry >= the probe, from entry [i] at [off] on: its
   offset, with its index (n when there is none) in [seek_idx]. *)
let rec seek_leaf_from t buf n off i =
  if i < n && compare_entry_at t.probe_key t.probe_oid buf off > 0 then
    seek_leaf_from t buf n (off + entry_size_at buf off) (i + 1)
  else begin
    t.seek_idx <- i;
    off
  end

let seek_leaf t buf = seek_leaf_from t buf (count_at buf) header 0

(* The child that can hold the probe, from separator [i] at [off] on:
   children.(idx), where [seek_idx] = idx is the number of separators <=
   the probe and [seek_off] the offset of separator idx (the end of the
   entries when idx = count). *)
let rec seek_child_from t buf n off i child =
  if i < n && compare_entry_at t.probe_key t.probe_oid buf off >= 0 then
    let ptr = off + entry_size_at buf off in
    seek_child_from t buf n (ptr + 4) (i + 1) (u32_at buf ptr)
  else begin
    t.seek_idx <- i;
    t.seek_off <- off;
    child
  end

let seek_child t buf = seek_child_from t buf (count_at buf) header 0 (u32_at buf 3)

(* The in-page descent step of an edit: the child for the probe. *)
let child_step t buf =
  expect_leaf buf false;
  seek_child t buf

let descend t page = Pager.with_pin_arg t.pager ~file:t.file ~page ~dirty:false child_step t

(* ------------------------------------------------------------------ *)
(* Capacity policy                                                     *)

let overfull t node = node_bytes node > Pager.page_size t.pager
let underfull t node = 4 * node_bytes node < Pager.page_size t.pager

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make pager ~file ~root ~count ~free_pages =
  {
    pager;
    file;
    root;
    height = 1;
    count;
    free_pages;
    key_witness = None;
    probe_key = Key.min_int_key;
    probe_oid = min_oid;
    hi = Key.min_int_key;
    seek_idx = 0;
    seek_off = 0;
    used = 0;
    bounded = false;
    next = -1;
    hits = [];
    scan_keys = [||];
    scan_oids = [||];
    underfull = false;
    min_buf = Bytes.empty;
  }

let create pager =
  let file = Pager.create_file pager in
  let t = make pager ~file ~root:0 ~count:0 ~free_pages:[] in
  t.root <- alloc_page t;
  write_node t t.root (Leaf { entries = [||]; next = -1 });
  t

let file_id t = t.file
let root t = t.root
let entry_count t = t.count
let free_pages t = t.free_pages

let attach pager ~file ~root ~count ~free_pages =
  let t = make pager ~file ~root ~count ~free_pages in
  (* One walk down the left spine finds the height and recovers the key
     variant from any entry. *)
  let rec spine page depth =
    t.height <- depth;
    match read_node t page with
    | Leaf { entries; _ } ->
        if Array.length entries > 0 then t.key_witness <- Some (fst entries.(0))
    | Internal { children; _ } -> spine children.(0) (depth + 1)
  in
  (try spine root 1
   (* Decode failures just end the walk; storage faults (Corrupt_page,
      Read_error) must keep propagating to the scrub machinery. *)
   with Invalid_argument _ | Failure _ | Wire.Corrupt _ -> ());
  t
let page_count t = Pager.page_count t.pager t.file

let leaf_count t =
  let rec leftmost page =
    match read_node t page with
    | Leaf _ -> page
    | Internal { children; _ } -> leftmost children.(0)
  in
  let rec walk page acc =
    if page < 0 then acc
    else
      match read_node t page with
      | Leaf { next; _ } -> walk next (acc + 1)
      | Internal _ -> raise (Wire.Corrupt "Btree: leaf chain hits internal node")
  in
  walk (leftmost t.root) 0

let height t = t.height

let check_key t key =
  match t.key_witness with
  | None -> t.key_witness <- Some key
  | Some witness ->
      if not (Key.same_variant witness key) then
        invalid_arg "Btree: mixed key variants in one tree"

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

(* The descent step of a scan for [lo] = the probe, up to [hi]: the child
   to descend into, noting in [bounded] whether the separator just right
   of the descent path already exceeds [hi], so the range ends within the
   leaf the descent reaches. *)
let scan_child t buf =
  let child = seek_child t buf in
  if t.seek_idx < count_at buf then
    t.bounded <- Key.compare_encoded t.hi buf t.seek_off < 0;
  child

(* From a leaf at its first entry >= the probe when [seek] (the leaf the
   descent reached), else from its first entry: the offset of the first
   hit, with the hit count in [seek_idx] and the leaf to continue at in
   [next]. *)
let rec count_hits t buf n off i ~start =
  if i >= n then begin
    t.next <- (if t.bounded then -1 else next_leaf buf);
    t.seek_idx <- i - start
  end
  else if Key.compare_encoded t.hi buf off < 0 then begin
    t.next <- -1;
    t.seek_idx <- i - start
  end
  else count_hits t buf n (off + entry_size_at buf off) (i + 1) ~start

let scan_start t buf ~seek =
  if not (is_leaf buf) then raise (Wire.Corrupt "Btree: leaf chain hits internal node");
  let n = count_at buf in
  let off = if seek then seek_leaf t buf else (t.seek_idx <- 0; header) in
  count_hits t buf n off t.seek_idx ~start:t.seek_idx;
  off

(* A lookup's leaf step: the hits' OIDs onto [hits]. *)
let rec push_oids t buf off k =
  if k > 0 then begin
    t.hits <- oid_after_key buf off :: t.hits;
    push_oids t buf (off + entry_size_at buf off) (k - 1)
  end

let lookup_step seek t buf =
  let off = scan_start t buf ~seek in
  push_oids t buf off t.seek_idx

let lookup_chain t buf = lookup_step false t buf

(* Descent steps: the child to descend into, or -1 once the leaf reached
   has been scanned under the same pin. *)
let lookup_descend t buf =
  if is_leaf buf then begin
    lookup_step true t buf;
    -1
  end
  else scan_child t buf

(* A range scan's leaf step: the hits decoded into [scan_keys] and
   [scan_oids], to be handed out once the leaf is unpinned. *)
let range_step seek t buf =
  let off = scan_start t buf ~seek in
  let k = t.seek_idx in
  let keys = Array.make k Key.min_int_key in
  let oids = Array.make k min_oid in
  let off = ref off in
  for i = 0 to k - 1 do
    keys.(i) <- Key.decode_at buf !off;
    oids.(i) <- oid_after_key buf !off;
    off := !off + entry_size_at buf !off
  done;
  t.scan_keys <- keys;
  t.scan_oids <- oids

let range_chain t buf = range_step false t buf

let range_descend t buf =
  if is_leaf buf then begin
    range_step true t buf;
    -1
  end
  else scan_child t buf

let rec descend_scan t page step =
  let child = Pager.with_pin_arg t.pager ~file:t.file ~page ~dirty:false step t in
  if child >= 0 then descend_scan t child step

let start_scan t ~lo ~hi =
  t.probe_key <- lo;
  t.probe_oid <- min_oid;
  t.hi <- hi;
  t.bounded <- false

(* Entries in [lo, hi], from the leaf holding the first entry >= lo along
   the chain.  Each page is searched and scanned under one pin, and only
   the hits are decoded; [f] runs after the leaf is unpinned, so it may
   use the tree. *)
let iter_range t ~lo ~hi f =
  if Key.compare lo hi <= 0 then begin
    start_scan t ~lo ~hi;
    descend_scan t t.root range_descend;
    let rec hand_out () =
      let keys = t.scan_keys and oids = t.scan_oids and next = t.next in
      t.scan_keys <- [||];
      t.scan_oids <- [||];
      Array.iteri (fun i k -> f k oids.(i)) keys;
      if next >= 0 then begin
        t.hi <- hi;
        t.bounded <- false;
        Pager.with_pin_arg t.pager ~file:t.file ~page:next ~dirty:false range_chain t;
        hand_out ()
      end
    in
    hand_out ()
  end

(* The OIDs under [key], newest first. *)
let lookup t key =
  start_scan t ~lo:key ~hi:key;
  t.hits <- [];
  descend_scan t t.root lookup_descend;
  while t.next >= 0 do
    Pager.with_pin_arg t.pager ~file:t.file ~page:t.next ~dirty:false lookup_chain t
  done;
  let hits = t.hits in
  t.hits <- [];
  hits

let fold_range t ~lo ~hi ~init ~f =
  let acc = ref init in
  iter_range t ~lo ~hi (fun k o -> acc := f !acc k o);
  !acc

let find t key = List.rev (lookup t key)
let find_first t key = match find t key with o :: _ -> Some o | [] -> None

let iter_all t f =
  (* Left-most leaf, then the chain. *)
  let rec leftmost page =
    match read_node t page with
    | Leaf _ -> page
    | Internal { children; _ } -> leftmost children.(0)
  in
  let rec walk page =
    if page >= 0 then
      match read_node t page with
      | Leaf { entries; next } ->
          Array.iter (fun (k, o) -> f k o) entries;
          walk next
      | Internal _ -> raise (Wire.Corrupt "Btree: leaf chain hits internal node")
  in
  walk (leftmost t.root)

(* ------------------------------------------------------------------ *)
(* Insert                                                              *)

let array_insert arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j -> if j < i then arr.(j) else if j = i then x else arr.(j - 1))

let array_remove arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

(* Split index that balances the serialized byte size. *)
let split_point entries extra_per_entry =
  let total =
    Array.fold_left (fun acc e -> acc + entry_size e + extra_per_entry) 0 entries
  in
  let n = Array.length entries in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc + entry_size entries.(i) + extra_per_entry in
      if 2 * acc >= total then i + 1 else scan (i + 1) acc
  in
  max 1 (min (n - 1) (scan 0 0))

(* Where an internal node's separators split around the one promoted (or
   rotated) up: with three or more, each half keeps at least one, so
   neither is left a lone child pointer when separators are large. *)
let promote_point seps = max 1 (min (split_point seps 4) (Array.length seps - 2))

(* Insert the probe into the leaf in place when it fits: shift the tail
   right and write the entry into the frame.  Otherwise returns the
   entry's index, for [split_leaf]. *)
let insert_step t buf =
  expect_leaf buf true;
  let off = seek_leaf t buf in
  let i = t.seek_idx and n = count_at buf in
  if i < n && compare_entry_at t.probe_key t.probe_oid buf off = 0 then
    invalid_arg "Btree.insert: duplicate (key, oid) entry";
  let stop = skip_entries buf off (n - i) ~extra:0 in
  let size = Key.encoded_size t.probe_key + Oid.encoded_size in
  if stop + size > Bytes.length buf then i
  else begin
    Bytes.blit buf off buf (off + size) (stop - off);
    ignore (Oid.encode buf (Key.encode buf off t.probe_key) t.probe_oid);
    set_count buf (n + 1);
    -1
  end

(* Returns the separator and right page of the split. *)
let split_leaf t page i entry =
  match read_node t page with
  | Leaf { entries; next } ->
      let entries = array_insert entries i entry in
      let split = split_point entries 0 in
      let left = Array.sub entries 0 split in
      let right = Array.sub entries split (Array.length entries - split) in
      let right_page = alloc_page t in
      write_node t right_page (Leaf { entries = right; next });
      write_node t page (Leaf { entries = left; next = right_page });
      (right.(0), right_page)
  | Internal _ -> raise (Wire.Corrupt "Btree: node at the wrong depth")

(* [level] counts down to 1 at the leaves.  Returns [Some (sep,
   right_page)] when the node split. *)
let rec insert_rec t page level key oid =
  if level = 1 then
    match Pager.with_pin_arg t.pager ~file:t.file ~page ~dirty:true insert_step t with
    | -1 -> None
    | i -> Some (split_leaf t page i (key, oid))
  else begin
    let child = descend t page in
    let idx = t.seek_idx in
    match insert_rec t child (level - 1) key oid with
    | None -> None
    | Some (sep, new_child) -> (
        match read_node t page with
        | Leaf _ -> raise (Wire.Corrupt "Btree: node at the wrong depth")
        | Internal { children; seps } ->
            let seps = array_insert seps idx sep in
            let children = array_insert children (idx + 1) new_child in
            let node = Internal { children; seps } in
            if not (overfull t node) then begin
              write_node t page node;
              None
            end
            else begin
              (* Promote the separator at the split point ("move up"). *)
              let split = promote_point seps in
              let promoted = seps.(split) in
              let left_seps = Array.sub seps 0 split in
              let right_seps = Array.sub seps (split + 1) (Array.length seps - split - 1) in
              let left_children = Array.sub children 0 (split + 1) in
              let right_children =
                Array.sub children (split + 1) (Array.length children - split - 1)
              in
              let right_page = alloc_page t in
              write_node t right_page (Internal { children = right_children; seps = right_seps });
              write_node t page (Internal { children = left_children; seps = left_seps });
              Some (promoted, right_page)
            end)
  end

let insert t key oid =
  check_key t key;
  t.probe_key <- key;
  t.probe_oid <- oid;
  (match insert_rec t t.root t.height key oid with
  | None -> ()
  | Some (sep, right_page) ->
      (* Root split: move the left half to a fresh page and make the root
         an internal node over it and the new right page, so t.root stays
         stable. *)
      let moved = alloc_page t in
      write_node t moved (read_node t t.root);
      write_node t t.root (Internal { children = [| moved; right_page |]; seps = [| sep |] });
      t.height <- t.height + 1);
  t.count <- t.count + 1

(* ------------------------------------------------------------------ *)
(* Delete                                                              *)

(* How a delete changed a subtree's minimum: it did not, it is the leaf's
   new first entry (copied to [min_buf] as encoded, and decoded only when
   a separator takes it), it is [e], or the subtree is empty. *)
type min_change = Same | Leaf_min | Now of entry | Emptied

exception Absent

(* Remove the probe from the leaf in place: one blit shifts the tail
   left.  Sets [underfull] for the leaf. *)
let delete_step t buf =
  expect_leaf buf true;
  let off = seek_leaf t buf in
  let i = t.seek_idx and n = count_at buf in
  if i >= n || compare_entry_at t.probe_key t.probe_oid buf off <> 0 then
    raise_notrace Absent;
  let size = entry_size_at buf off in
  let stop = skip_entries buf (off + size) (n - i - 1) ~extra:0 in
  Bytes.blit buf (off + size) buf off (stop - off - size);
  set_count buf (n - 1);
  t.underfull <- 4 * (stop - size) < Bytes.length buf;
  if i > 0 then Same
  else if n = 1 then Emptied
  else begin
    let first = entry_size_at buf header in
    if Bytes.length t.min_buf < first then t.min_buf <- Bytes.create (2 * first);
    Bytes.blit buf header t.min_buf 0 first;
    Leaf_min
  end

(* The descent step of a delete: also the node's bytes, in [used]. *)
let delete_child_step t buf =
  let child = child_step t buf in
  t.used <- skip_entries buf t.seek_off (count_at buf - t.seek_idx) ~extra:4;
  child

(* Rebalance the underfull children.(idx) with a sibling: merge the two
   when the result fits, otherwise redistribute their content evenly by
   serialized size.  Both rely on seps being exact subtree minima, since
   merges and rotations pull the parent separator down into the child.
   Returns the parent's new content. *)
let rebalance_child t children seps idx =
  let parent = Internal { children; seps } in
  (* Prefer the right sibling; fall back to the left one. *)
  let sib_idx = if idx < Array.length seps then idx + 1 else idx - 1 in
  if sib_idx < 0 then parent
  else begin
    let left_idx = min idx sib_idx in
    let right_idx = max idx sib_idx in
    let left_page = children.(left_idx) in
    let right_page = children.(right_idx) in
    let left = read_node t left_page in
    let right = read_node t right_page in
    let merged =
      match (left, right) with
      | Leaf a, Leaf b ->
          Some (Leaf { entries = Array.append a.entries b.entries; next = b.next })
      | Internal a, Internal b ->
          Some
            (Internal
               {
                 children = Array.append a.children b.children;
                 seps = Array.concat [ a.seps; [| seps.(left_idx) |]; b.seps ];
               })
      | Leaf _, Internal _ | Internal _, Leaf _ -> None
    in
    match merged with
    | Some m when not (overfull t m) ->
        write_node t left_page m;
        free_page t right_page;
        Internal
          { children = array_remove children right_idx; seps = array_remove seps left_idx }
    | Some _ | None -> (
        (* Merge impossible: redistribute the combined content evenly by
           serialized size, which lifts the underfull side above threshold
           in one step. *)
        match (left, right) with
        | Leaf a, Leaf b ->
            let combined = Array.append a.entries b.entries in
            if Array.length combined < 2 then parent
            else begin
              let split = split_point combined 0 in
              let l = Array.sub combined 0 split in
              let r = Array.sub combined split (Array.length combined - split) in
              write_node t left_page (Leaf { entries = l; next = a.next });
              write_node t right_page (Leaf { entries = r; next = b.next });
              seps.(left_idx) <- r.(0);
              parent
            end
        | Internal a, Internal b ->
            (* Rotate through the parent separator: combined separator list
               is a.seps ++ [parent sep] ++ b.seps. *)
            let all_children = Array.append a.children b.children in
            let all_seps = Array.concat [ a.seps; [| seps.(left_idx) |]; b.seps ] in
            if Array.length all_seps < 2 then parent
            else begin
              let split = promote_point all_seps in
              write_node t left_page
                (Internal
                   {
                     children = Array.sub all_children 0 (split + 1);
                     seps = Array.sub all_seps 0 split;
                   });
              write_node t right_page
                (Internal
                   {
                     children =
                       Array.sub all_children (split + 1) (Array.length all_children - split - 1);
                     seps = Array.sub all_seps (split + 1) (Array.length all_seps - split - 1);
                   });
              seps.(left_idx) <- all_seps.(split);
              parent
            end
        | Leaf _, Internal _ | Internal _, Leaf _ ->
            raise (Wire.Corrupt "Btree: siblings at different depths"))
  end

(* A delete can stale only seps.(idx - 1), the separator into the child
   whose minimum it removed; that one is set before any rebalance pulls
   it down.  An internal node is decoded and rewritten only then or when
   its child underflowed.  Sets [underfull] for the node at [page]; for an
   internal root, whether it is left with a lone child to collapse into. *)
let rec delete_rec t page level =
  if level = 1 then
    Pager.with_pin_arg t.pager ~file:t.file ~page ~dirty:true delete_step t
  else begin
    let child =
      Pager.with_pin_arg t.pager ~file:t.file ~page ~dirty:false delete_child_step t
    in
    let idx = t.seek_idx and used = t.used in
    let min = delete_rec t child (level - 1) in
    let child_underfull = t.underfull in
    let unchanged =
      (not child_underfull)
      && match min with Same -> true | Leaf_min | Now _ -> idx = 0 | Emptied -> false
    in
    if unchanged then begin
      t.underfull <-
        (if level = t.height then used = header else 4 * used < Pager.page_size t.pager);
      min
    end
    else
        match read_node t page with
        | Leaf _ -> raise (Wire.Corrupt "Btree: node at the wrong depth")
        | Internal { children; seps } ->
            let nseps = Array.length seps in
            let min =
              match min with Leaf_min -> Now (entry_at t.min_buf 0) | m -> m
            in
            (if idx > 0 then
               match min with
               | Now e -> seps.(idx - 1) <- e
               (* An emptied child is merged with its right sibling,
                  whose minimum then heads the merged node. *)
               | Emptied -> if idx < nseps then seps.(idx - 1) <- seps.(idx)
               | Same | Leaf_min -> ());
            let min =
              match min with
              | _ when idx > 0 -> Same
              | Emptied when nseps > 0 -> Now seps.(0)
              | Same | Leaf_min | Now _ | Emptied -> min
            in
            let node =
              if child_underfull then rebalance_child t children seps idx
              else Internal { children; seps }
            in
            write_node t page node;
            t.underfull <-
              (if level < t.height then underfull t node
               else
                 match node with
                 | Internal { seps = [||]; _ } -> true
                 | Internal _ | Leaf _ -> false);
            min
  end

(* The only child of an internal root without separators, else -1. *)
let lone_child buf =
  if (not (is_leaf buf)) && count_at buf = 0 then u32_at buf 3 else -1

(* Collapse a root left with a lone child, and again while the new root
   has one: the test reads the root's tag and count in place. *)
let rec collapse t =
  match Pager.with_page_read t.pager ~file:t.file ~page:t.root lone_child with
  | -1 -> ()
  | child ->
      write_node t t.root (read_node t child);
      free_page t child;
      t.height <- t.height - 1;
      collapse t

let delete t key oid =
  t.probe_key <- key;
  t.probe_oid <- oid;
  match delete_rec t t.root t.height with
  | exception Absent -> false
  | (_ : min_change) ->
      t.count <- t.count - 1;
      if t.height > 1 && t.underfull then collapse t;
      true

(* ------------------------------------------------------------------ *)
(* Bulk load                                                           *)

let bulk_load t entries =
  if t.count <> 0 then invalid_arg "Btree.bulk_load: tree not empty";
  let entries = Array.copy entries in
  Array.sort compare_entry entries;
  Array.iter (fun (k, _) -> check_key t k) entries;
  (match
     Array.exists
       (fun i -> compare_entry entries.(i) entries.(i + 1) = 0)
       (Array.init (max 0 (Array.length entries - 1)) (fun i -> i))
   with
  | true -> invalid_arg "Btree.bulk_load: duplicate (key, oid) entry"
  | false -> ());
  let n = Array.length entries in
  if n = 0 then ()
  else begin
    let page_budget = Pager.page_size t.pager - header in
    (* Chunk into leaves under the byte budget. *)
    let leaves = ref [] in
    let start = ref 0 in
    while !start < n do
      let bytes = ref 0 in
      let stop = ref !start in
      while !stop < n && !bytes + entry_size entries.(!stop) <= page_budget do
        bytes := !bytes + entry_size entries.(!stop);
        incr stop
      done;
      assert (!stop > !start);
      leaves := (Array.sub entries !start (!stop - !start)) :: !leaves;
      start := !stop
    done;
    let leaves = Array.of_list (List.rev !leaves) in
    let nleaves = Array.length leaves in
    (* First leaf must live in t.root if it is the only node; otherwise
       leaves get their own pages and the root becomes internal. *)
    if nleaves = 1 then begin
      write_node t t.root (Leaf { entries = leaves.(0); next = -1 });
      t.count <- n
    end
    else begin
      let leaf_pages = Array.map (fun _ -> alloc_page t) leaves in
      Array.iteri
        (fun i chunk ->
          let next = if i + 1 < nleaves then leaf_pages.(i + 1) else -1 in
          write_node t leaf_pages.(i) (Leaf { entries = chunk; next }))
        leaves;
      (* Build internal levels bottom-up. *)
      let rec build (pages : int array) (firsts : entry array) height =
        if Array.length pages = 1 then (pages.(0), height)
        else begin
          let groups = ref [] in
          let start = ref 0 in
          let m = Array.length pages in
          while !start < m do
            let bytes = ref 0 in
            let stop = ref !start in
            while
              !stop < m
              && (!stop = !start
                 || !bytes + entry_size firsts.(!stop) + 4 <= page_budget - 4)
            do
              if !stop > !start then
                bytes := !bytes + entry_size firsts.(!stop) + 4;
              incr stop
            done;
            (* Never leave a singleton tail: steal one from this group. *)
            if !stop < m && m - !stop = 1 && !stop - !start > 1 then decr stop;
            groups := (!start, !stop) :: !groups;
            start := !stop
          done;
          let groups = List.rev !groups in
          let parent_pages =
            List.map
              (fun (a, b) ->
                let children = Array.sub pages a (b - a) in
                let seps = Array.sub firsts (a + 1) (b - a - 1) in
                let page = alloc_page t in
                write_node t page (Internal { children; seps });
                page)
              groups
          in
          let parent_firsts = List.map (fun (a, _) -> firsts.(a)) groups in
          build (Array.of_list parent_pages) (Array.of_list parent_firsts) (height + 1)
        end
      in
      let firsts = Array.map (fun chunk -> chunk.(0)) leaves in
      let top, height = build leaf_pages firsts 1 in
      let top_node = read_node t top in
      write_node t t.root top_node;
      free_page t top;
      t.height <- height;
      t.count <- n
    end
  end

(* ------------------------------------------------------------------ *)
(* Invariant checking                                                  *)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let leaf_chain = ref [] in
  (* [rightmost] nodes (the right spine) may be underfull: bulk loading
     leaves a short tail there, which is standard for B+-trees. *)
  let rec check page ~is_root ~rightmost =
    match read_node t page with
    | Leaf { entries; _ } ->
        let n = Array.length entries in
        for i = 0 to n - 2 do
          if compare_entry entries.(i) entries.(i + 1) >= 0 then
            fail "leaf %d: entries out of order at %d" page i
        done;
        if (not is_root) && (not rightmost) && underfull t (Leaf { entries; next = -1 })
        then fail "leaf %d: underfull (%d entries)" page n;
        if node_bytes (Leaf { entries; next = -1 }) > Pager.page_size t.pager then
          fail "leaf %d: overfull" page;
        leaf_chain := page :: !leaf_chain;
        (1, (if n = 0 then None else Some (entries.(0), entries.(n - 1))), n)
    | Internal { children; seps } as node ->
        if Array.length children <> Array.length seps + 1 then
          fail "internal %d: child/separator arity mismatch" page;
        if (not is_root) && (not rightmost) && underfull t node then
          fail "internal %d: underfull" page;
        if node_bytes node > Pager.page_size t.pager then fail "internal %d: overfull" page;
        let last = Array.length children - 1 in
        let results =
          Array.mapi
            (fun i c -> check c ~is_root:false ~rightmost:(rightmost && i = last))
            children
        in
        let depth0, _, _ = results.(0) in
        Array.iteri
          (fun i (d, _, _) ->
            if d <> depth0 then fail "internal %d: uneven depth at child %d" page i)
          results;
        Array.iteri
          (fun i sep ->
            let _, bounds, _ = results.(i + 1) in
            (match bounds with
            | Some (lo, _) ->
                if compare_entry sep lo <> 0 then
                  fail "internal %d: separator %d does not match subtree minimum" page i
            | None -> ());
            let _, left_bounds, _ = results.(i) in
            match left_bounds with
            | Some (_, hi) ->
                if compare_entry hi sep >= 0 then
                  fail "internal %d: left subtree exceeds separator %d" page i
            | None -> ())
          seps;
        let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 results in
        let bounds =
          let lows = Array.to_list results |> List.filter_map (fun (_, b, _) -> b) in
          match lows with
          | [] -> None
          | (lo, _) :: _ ->
              let _, hi = Listx.last_exn ~what:"Btree: empty bounds" lows in
              Some (lo, hi)
        in
        (depth0 + 1, bounds, total)
  in
  let depth, _, total = check t.root ~is_root:true ~rightmost:true in
  if total <> t.count then
    fail "entry count mismatch: counted %d, cached %d" total t.count;
  if depth <> t.height then fail "height mismatch: counted %d, cached %d" depth t.height;
  (* The left-to-right leaf order discovered by the recursion must agree
     with the next-pointer chain. *)
  let in_order = List.rev !leaf_chain in
  let rec chain page acc =
    if page < 0 then List.rev acc
    else
      match read_node t page with
      | Leaf { next; _ } -> chain next (page :: acc)
      | Internal _ -> fail "leaf chain reaches internal node %d" page
  in
  match in_order with
  | [] -> ()
  | first :: _ ->
      let chained = chain first [] in
      if chained <> in_order then fail "leaf chain disagrees with tree order"
