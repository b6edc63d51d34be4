module Wire = Fieldrep_util.Wire
module Listx = Fieldrep_util.Listx
module Oid = Fieldrep_storage.Oid
module Pager = Fieldrep_storage.Pager

type entry = Key.t * Oid.t

type node =
  | Leaf of { entries : entry array; next : int (* page, -1 = none *) }
  | Internal of { children : int array; seps : entry array }
      (* Array.length children = Array.length seps + 1; seps.(i) is the
         first entry of the subtree under children.(i + 1). *)

type t = {
  pager : Pager.t;
  file : int;
  mutable root : int;
  mutable count : int;
  mutable free_pages : int list;
  mutable key_witness : Key.t option;
  max_leaf : int;
  max_internal : int;
}

let min_oid = { Oid.file = 0; page = 0; slot = 0 }

let compare_entry (k1, o1) (k2, o2) =
  match Key.compare k1 k2 with 0 -> Oid.compare o1 o2 | c -> c

(* ------------------------------------------------------------------ *)
(* Node (de)serialization                                              *)

let tag_leaf = 0
let tag_internal = 1
let none_page = 0xffff_ffff

let entry_size (k, _) = Key.encoded_size k + Oid.encoded_size

let node_bytes = function
  | Leaf { entries; _ } ->
      Array.fold_left (fun acc e -> acc + entry_size e) (1 + 2 + 4) entries
  | Internal { children; seps } ->
      ignore children;
      Array.fold_left (fun acc e -> acc + entry_size e + 4) (1 + 2 + 4) seps

let write_entry buf off (k, o) =
  let off = Key.encode buf off k in
  Oid.encode buf off o

let read_entry buf off =
  let k, off = Key.decode buf off in
  let o, off = Oid.decode buf off in
  ((k, o), off)

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
(* Capacity policy                                                     *)

let max_entries t = function
  | Leaf _ -> t.max_leaf
  | Internal _ -> t.max_internal

let entry_count_of = function
  | Leaf { entries; _ } -> Array.length entries
  | Internal { seps; _ } -> Array.length seps

let overfull t node =
  node_bytes node > Pager.page_size t.pager
  || entry_count_of node > max_entries t node

let underfull t node =
  let cap = max_entries t node in
  if cap < max_int then entry_count_of node < (cap + 1) / 2
  else 4 * node_bytes node < Pager.page_size t.pager

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(max_leaf_entries = max_int) ?(max_internal_entries = max_int) pager =
  if max_leaf_entries < 2 || max_internal_entries < 2 then
    invalid_arg "Btree.create: entry caps must be >= 2";
  let file = Pager.create_file pager in
  let t =
    {
      pager;
      file;
      root = 0;
      count = 0;
      free_pages = [];
      key_witness = None;
      max_leaf = max_leaf_entries;
      max_internal = max_internal_entries;
    }
  in
  t.root <- alloc_page t;
  write_node t t.root (Leaf { entries = [||]; next = -1 });
  t

let file_id t = t.file
let root t = t.root
let entry_count t = t.count
let free_pages t = t.free_pages

let attach ?(max_leaf_entries = max_int) ?(max_internal_entries = max_int) pager
    ~file ~root ~count ~free_pages =
  let t =
    {
      pager;
      file;
      root;
      count;
      free_pages;
      key_witness = None;
      max_leaf = max_leaf_entries;
      max_internal = max_internal_entries;
    }
  in
  (* Recover the key variant from any entry. *)
  (try
     let rec first page =
       match read_node t page with
       | Leaf { entries; _ } ->
           if Array.length entries > 0 then t.key_witness <- Some (fst entries.(0))
       | Internal { children; _ } -> first children.(0)
     in
     first root
   (* Decode failures just mean no witness; storage faults (Corrupt_page,
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

let height t =
  let rec depth page =
    match read_node t page with
    | Leaf _ -> 1
    | Internal { children; _ } -> 1 + depth children.(0)
  in
  depth t.root

let check_key t key =
  match t.key_witness with
  | None -> t.key_witness <- Some key
  | Some witness ->
      if not (Key.same_variant witness key) then
        invalid_arg "Btree: mixed key variants in one tree"

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

(* Index of the child to descend into for [probe]: the last child whose
   separated range can contain it. *)
let child_index seps probe =
  (* first separator strictly greater than probe *)
  let n = Array.length seps in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_entry seps.(mid) probe <= 0 then bsearch (mid + 1) hi
      else bsearch lo mid
  in
  bsearch 0 n

(* Position of the first entry >= probe within a sorted entry array. *)
let lower_bound entries probe =
  let n = Array.length entries in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_entry entries.(mid) probe < 0 then bsearch (mid + 1) hi
      else bsearch lo mid
  in
  bsearch 0 n

let rec leaf_for t page probe =
  match read_node t page with
  | Leaf { entries; next } -> (entries, next)
  | Internal { children; seps } ->
      leaf_for t children.(child_index seps probe) probe

(* Walk entries in [lo, hi] starting from the leaf containing lo. *)
let iter_range t ~lo ~hi f =
  if Key.compare lo hi <= 0 then begin
    let probe = (lo, min_oid) in
    let entries0, next0 = leaf_for t t.root probe in
    let rec walk entries next start =
      let n = Array.length entries in
      let rec scan i =
        if i >= n then
          if next >= 0 then begin
            match read_node t next with
            | Leaf l2 -> walk l2.entries l2.next 0
            | Internal _ -> raise (Wire.Corrupt "Btree: leaf chain hits internal node")
          end
          else ()
        else begin
          let k, o = entries.(i) in
          if Key.compare k hi > 0 then ()
          else begin
            f k o;
            scan (i + 1)
          end
        end
      in
      scan start
    in
    walk entries0 next0 (lower_bound entries0 probe)
  end

let fold_range t ~lo ~hi ~init ~f =
  let acc = ref init in
  iter_range t ~lo ~hi (fun k o -> acc := f !acc k o);
  !acc

let find t key =
  let acc = ref [] in
  iter_range t ~lo:key ~hi:key (fun _ o -> acc := o :: !acc);
  List.rev !acc

let find_first t key =
  let exception Found of Oid.t in
  try
    iter_range t ~lo:key ~hi:key (fun _ o -> raise (Found o));
    None
  with Found o -> Some o

let mem t key = Option.is_some (find_first t key)

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

(* Returns [Some (sep, right_page)] when the node split. *)
let rec insert_rec t page entry =
  match read_node t page with
  | Leaf { entries; next } ->
      let i = lower_bound entries entry in
      if i < Array.length entries && compare_entry entries.(i) entry = 0 then
        invalid_arg "Btree.insert: duplicate (key, oid) entry";
      let entries = array_insert entries i entry in
      let node = Leaf { entries; next } in
      if not (overfull t node) then begin
        write_node t page node;
        None
      end
      else begin
        let split = split_point entries 0 in
        let left = Array.sub entries 0 split in
        let right = Array.sub entries split (Array.length entries - split) in
        let right_page = alloc_page t in
        write_node t right_page (Leaf { entries = right; next });
        write_node t page (Leaf { entries = left; next = right_page });
        Some (right.(0), right_page)
      end
  | Internal { children; seps } -> (
      let idx = child_index seps entry in
      match insert_rec t children.(idx) entry with
      | None -> None
      | Some (sep, new_child) ->
          let seps = array_insert seps idx sep in
          let children = array_insert children (idx + 1) new_child in
          let node = Internal { children; seps } in
          if not (overfull t node) then begin
            write_node t page node;
            None
          end
          else begin
            (* Promote the separator at the split point ("move up"). *)
            let split = split_point seps 4 in
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

let insert t key oid =
  check_key t key;
  (match insert_rec t t.root (key, oid) with
  | None -> ()
  | Some (sep, right_page) ->
      (* Root split: move the old root to a fresh page and make the root an
         internal node, so t.root stays stable. *)
      let old_root = read_node t t.root in
      let moved = alloc_page t in
      write_node t moved old_root;
      (* The right sibling produced by the split still references the root
         page via nothing (internals hold child pages; the split wrote left
         into t.root).  Re-point: left child is [moved]. *)
      (match old_root with
      | Leaf _ | Internal _ -> ());
      write_node t t.root (Internal { children = [| moved; right_page |]; seps = [| sep |] }));
  t.count <- t.count + 1

(* ------------------------------------------------------------------ *)
(* Delete                                                              *)

let first_entry t page =
  let rec go page =
    match read_node t page with
    | Leaf { entries; _ } ->
        if Array.length entries = 0 then None else Some entries.(0)
    | Internal { children; _ } -> go children.(0)
  in
  go page

(* Rebalance children.(idx) of the internal node at [page] if underfull.
   Returns the (possibly rewritten) parent node. *)
let rebalance_child t (node : node) idx =
  match node with
  | Leaf _ -> node
  | Internal { children; seps } -> (
      let child_page = children.(idx) in
      let child = read_node t child_page in
      if not (underfull t child) then node
      else begin
        (* Prefer the right sibling; fall back to the left one. *)
        let sib_idx = if idx + 1 <= Array.length seps then idx + 1 else idx - 1 in
        if sib_idx < 0 || sib_idx > Array.length seps then node
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
                       seps =
                         Array.concat [ a.seps; [| seps.(left_idx) |]; b.seps ];
                     })
            | Leaf _, Internal _ | Internal _, Leaf _ -> None
          in
          match merged with
          | Some m when not (overfull t m) ->
              write_node t left_page m;
              free_page t right_page;
              Internal
                {
                  children = array_remove children right_idx;
                  seps = array_remove seps left_idx;
                }
          | Some _ | None -> (
              (* Merge impossible: redistribute the combined content evenly
                 by serialized size, which lifts the underfull side above
                 threshold in one step. *)
              match (left, right) with
              | Leaf a, Leaf b ->
                  let combined = Array.append a.entries b.entries in
                  if Array.length combined < 2 then node
                  else begin
                    let split = split_point combined 0 in
                    let l = Array.sub combined 0 split in
                    let r = Array.sub combined split (Array.length combined - split) in
                    write_node t left_page (Leaf { entries = l; next = a.next });
                    write_node t right_page (Leaf { entries = r; next = b.next });
                    let seps = Array.copy seps in
                    seps.(left_idx) <- r.(0);
                    Internal { children; seps }
                  end
              | Internal a, Internal b ->
                  (* Rotate through the parent separator: combined separator
                     list is a.seps ++ [parent sep] ++ b.seps. *)
                  let all_children = Array.append a.children b.children in
                  let all_seps = Array.concat [ a.seps; [| seps.(left_idx) |]; b.seps ] in
                  if Array.length all_seps < 2 then node
                  else begin
                    let split = split_point all_seps 4 in
                    let promoted = all_seps.(split) in
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
                             Array.sub all_children (split + 1)
                               (Array.length all_children - split - 1);
                           seps =
                             Array.sub all_seps (split + 1)
                               (Array.length all_seps - split - 1);
                         });
                    let seps = Array.copy seps in
                    seps.(left_idx) <- promoted;
                    Internal { children; seps }
                  end
              | Leaf _, Internal _ | Internal _, Leaf _ ->
                  raise (Wire.Corrupt "Btree: siblings at different depths"))
        end
      end)

let rec delete_rec t page entry =
  match read_node t page with
  | Leaf { entries; next } ->
      let i = lower_bound entries entry in
      if i < Array.length entries && compare_entry entries.(i) entry = 0 then begin
        write_node t page (Leaf { entries = array_remove entries i; next });
        true
      end
      else false
  | Internal { children; seps } ->
      let idx = child_index seps entry in
      let found = delete_rec t children.(idx) entry in
      if found then begin
        let node = rebalance_child t (Internal { children; seps }) idx in
        (* Deleting the first entry of a subtree can stale the separator
           guiding into it; refresh from the actual subtree minimum. *)
        let node =
          match node with
          | Internal { children; seps } ->
              let seps = Array.copy seps in
              Array.iteri
                (fun i _ ->
                  match first_entry t children.(i + 1) with
                  | Some e -> seps.(i) <- e
                  | None -> ())
                seps;
              Internal { children; seps }
          | Leaf _ as l -> l
        in
        write_node t page node
      end;
      found

let delete t key oid =
  let found = delete_rec t t.root (key, oid) in
  if found then begin
    t.count <- t.count - 1;
    (* Collapse a root with a single child. *)
    let rec collapse () =
      match read_node t t.root with
      | Internal { children; seps } when Array.length seps = 0 ->
          let child = read_node t children.(0) in
          write_node t t.root child;
          free_page t children.(0);
          collapse ()
      | Internal _ | Leaf _ -> ()
    in
    collapse ()
  end;
  found

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
    let page_budget = Pager.page_size t.pager - (1 + 2 + 4) in
    (* Chunk into leaves under both the byte and entry-count budgets. *)
    let leaves = ref [] in
    let start = ref 0 in
    while !start < n do
      let bytes = ref 0 in
      let stop = ref !start in
      while
        !stop < n
        && !stop - !start < t.max_leaf
        && !bytes + entry_size entries.(!stop) <= page_budget
      do
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
      let rec build (pages : int array) (firsts : entry array) =
        if Array.length pages = 1 then pages.(0)
        else begin
          let groups = ref [] in
          let start = ref 0 in
          let m = Array.length pages in
          while !start < m do
            let bytes = ref 0 in
            let stop = ref !start in
            while
              !stop < m
              && !stop - !start <= t.max_internal
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
          build (Array.of_list parent_pages) (Array.of_list parent_firsts)
        end
      in
      let firsts = Array.map (fun chunk -> chunk.(0)) leaves in
      let top = build leaf_pages firsts in
      let top_node = read_node t top in
      write_node t t.root top_node;
      free_page t top;
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
  let _, _, total = check t.root ~is_root:true ~rightmost:true in
  if total <> t.count then
    fail "entry count mismatch: counted %d, cached %d" total t.count;
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
