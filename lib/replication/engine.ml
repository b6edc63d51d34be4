module Oid = Fieldrep_storage.Oid
module Heap_file = Fieldrep_storage.Heap_file
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record

type env = {
  schema : Schema.t;
  mutable registry : Registry.t;
  store : Store.t;
  file_of_set : string -> Heap_file.t;
  file_of_oid : Oid.t -> Heap_file.t;
  mutable on_hidden_update :
    string -> Oid.t -> before:Record.t -> after:Record.t -> unit;
  mutable batching : bool;
      (* group propagation fan-outs by page and rewrite each page under one
         pin; off = the per-object reference path (kept for comparison) *)
  pending : (int * int64, unit) Hashtbl.t;
      (* (rep_id, source oid) pairs whose hidden copies are stale under
         lazy propagation; the in-memory invalidation table *)
}

let make_env ~schema ~store ~file_of_set ~file_of_oid
    ?(on_hidden_update = fun _ _ ~before:_ ~after:_ -> ()) () =
  {
    schema;
    registry = Registry.compile schema;
    store;
    file_of_set;
    file_of_oid;
    on_hidden_update;
    batching = true;
    pending = Hashtbl.create 64;
  }

let recompile env = env.registry <- Registry.compile env.schema

(* ------------------------------------------------------------------ *)
(* Declaration life-cycle (online reconfiguration)                     *)

(* A *live* declaration still accumulates derived state: writers add
   memberships and refresh copies for it.  [Building] is live — that is the
   catch-up trigger of online replication: mutations behind the backfill
   watermark propagate through whatever links exist, mutations ahead of it
   are picked up when the backfill walk reaches them.  [Dropping] is not:
   writers only *remove* stale memberships (else the teardown job would
   race a writer re-creating what it just erased). *)
let rep_live env (rep : Schema.replication) =
  match Schema.rep_state env.schema rep.Schema.rep_id with
  | Schema.Building | Schema.Active -> true
  | Schema.Dropping | Schema.Dropped -> false

let rep_active env (rep : Schema.replication) =
  Schema.rep_state env.schema rep.Schema.rep_id = Schema.Active

(* Is the link's derived state complete and maintained — i.e. safe for the
   invariant checker to audit and for the scrubber to "repair" against?
   Only when some [Active] declaration owns/maintains it; a [Building]
   link is legitimately partial, a [Dropping] link legitimately stale. *)
let link_active env link_id =
  match Registry.link_kind env.registry link_id with
  | None -> false
  | Some (Registry.L_path node_id) ->
      List.exists (rep_active env)
        (Registry.node env.registry node_id).Registry.linked
  | Some (Registry.L_sref node_id) | Some (Registry.L_collapsed node_id) ->
      List.exists
        (fun (term : Registry.terminal) ->
          (match term.Registry.kind with
          | Registry.K_separate id | Registry.K_collapsed id -> id = link_id
          | Registry.K_inplace -> false)
          && rep_active env term.Registry.rep)
        (Registry.node env.registry node_id).Registry.terminals

let rep_of_id env rep_id =
  List.find_opt
    (fun (r : Schema.replication) -> r.Schema.rep_id = rep_id)
    (Schema.replications env.schema)

(* After a teardown completes, the dropped declaration's link and S' files
   are empty but still bound — and a later re-replication of the same path
   reuses the same link IDs (the registry replays dropped declarations for
   allocation stability), so [build] would mistake the stale empty file for
   already-built state.  Dead = no surviving declaration reaches it. *)
let gc_dead_derived env =
  Store.gc env.store
    ~live_link:(fun id -> Registry.link_kind env.registry id <> None)
    ~live_sprime:(fun rep_id -> rep_of_id env rep_id <> None)

(* ------------------------------------------------------------------ *)
(* Lazy-propagation invalidation table                                 *)

let pending_key (rep : Schema.replication) oid = (rep.Schema.rep_id, Oid.to_int64 oid)
let is_pending env rep oid = Hashtbl.mem env.pending (pending_key rep oid)
let mark_pending env rep oid = Hashtbl.replace env.pending (pending_key rep oid) ()

(* Every write clears its sources' entries; with no lazy declaration the
   table is empty and no key is built. *)
let clear_pending env rep oid =
  if Hashtbl.length env.pending > 0 then
    Hashtbl.remove env.pending (pending_key rep oid)

let pending_count env = Hashtbl.length env.pending
let pending_keys env = Hashtbl.fold (fun k () acc -> k :: acc) env.pending []

(* ------------------------------------------------------------------ *)
(* Record access                                                       *)

let data_file env (oid : Oid.t) =
  match Store.file_of_oid env.store oid with
  | Some hf -> hf
  | None -> env.file_of_oid oid

let read_record env oid = Heap_file.read_with (data_file env oid) oid Record.decode_at

let write_record env oid record =
  Heap_file.update (data_file env oid) oid (Record.encode record)

(* Hidden slots may postdate an object: reads beyond the stored width are
   null, writes extend the array (the subtyping of paper §4 realised lazily). *)
let value_or_null (record : Record.t) idx =
  if idx < Array.length record.Record.values then record.Record.values.(idx)
  else Value.VNull

let set_value_extending (record : Record.t) idx v =
  let n = Array.length record.Record.values in
  if idx < n then Record.set_field record idx v
  else begin
    let values =
      Array.init (idx + 1) (fun i ->
          if i < n then record.Record.values.(i) else Value.VNull)
    in
    values.(idx) <- v;
    { record with Record.values }
  end

(* The object a node's step points at, or None when the reference is
   null. *)
let deref (node : Registry.node) record =
  match value_or_null record node.Registry.step_index with
  | Value.VRef oid -> Some oid
  | Value.VNull -> None
  | (Value.VInt _ | Value.VString _) as v ->
      invalid_arg
        (Printf.sprintf "Engine: step %s holds non-reference %s" node.Registry.step
           (Value.to_string v))

let as_ref_opt = function
  | Value.VRef oid -> Some oid
  | Value.VNull | Value.VInt _ | Value.VString _ -> None

(* ------------------------------------------------------------------ *)
(* Memberships                                                         *)

(* Small-link elimination applies to a link only if every declaration using
   it opts in (conservative join of the per-path options). *)
let node_threshold (node : Registry.node) =
  List.fold_left
    (fun acc (rep : Schema.replication) ->
      min acc rep.Schema.options.Schema.small_link_threshold)
    max_int node.Registry.passing

let untagged lo =
  List.for_all (fun (e : Link_object.entry) -> Oid.is_nil e.Link_object.tag)
    (Link_object.entries lo)

(* Current membership of [target] under link [link_id]. *)
let read_membership env ~link_id (target_rec : Record.t) =
  match Record.find_link target_rec link_id with
  | None -> (Link_object.empty, `None)
  | Some pair ->
      let loid = pair.Record.link_oid in
      if Store.is_link_oid env.store loid then
        let hf = Store.link_file env.store link_id in
        (Heap_file.read_with hf loid Link_object.decode_at, `Object loid)
      else
        ( Link_object.of_entries [ { Link_object.member = loid; tag = Oid.nil } ],
          `Direct )

(* Apply [f] to the membership of [target] under [node]'s link; persists the
   result choosing between direct storage, a link object, or nothing.
   Returns [(was_empty, now_empty)]. *)
let modify_membership env (node : Registry.node) ~link_id ~threshold target_oid f =
  let target_rec = read_record env target_oid in
  ignore node;
  let lo, state = read_membership env ~link_id target_rec in
  let lo' = f lo in
  let was_empty = Link_object.is_empty lo in
  let now_empty = Link_object.is_empty lo' in
  let hf = Store.link_file env.store link_id in
  let delete_old () =
    match state with `Object loid -> Heap_file.delete hf loid | `Direct | `None -> ()
  in
  if now_empty then begin
    delete_old ();
    if state <> `None then write_record env target_oid (Record.remove_link target_rec link_id)
  end
  else begin
    let as_direct =
      threshold >= 1 && Link_object.cardinal lo' <= 1 && untagged lo'
    in
    if as_direct then begin
      let member =
        match Link_object.members lo' with [ m ] -> m | _ -> assert false
      in
      delete_old ();
      write_record env target_oid
        (Record.add_link target_rec { Record.link_oid = member; link_id })
    end
    else begin
      match state with
      | `Object loid ->
          if lo' != lo then Heap_file.update hf loid (Link_object.encode lo')
      | `Direct | `None ->
          let loid = Heap_file.insert hf (Link_object.encode lo') in
          write_record env target_oid
            (Record.add_link target_rec { Record.link_oid = loid; link_id })
    end
  end;
  (was_empty, now_empty)

let add_member env node target_oid entry =
  match node.Registry.link_id with
  | None -> (false, false)
  | Some link_id ->
      modify_membership env node ~link_id ~threshold:(node_threshold node)
        target_oid (fun lo -> Link_object.add lo entry)

let remove_member env node target_oid member =
  match node.Registry.link_id with
  | None -> (false, false)
  | Some link_id ->
      modify_membership env node ~link_id ~threshold:(node_threshold node)
        target_oid (fun lo -> Link_object.remove lo member)

let plain_entry member = { Link_object.member; tag = Oid.nil }

(* Registry.compile assigns a link id to every node the build/propagation
   paths reach; a [None] here is a compiler bug, not a data condition. *)
let require_link (node : Registry.node) =
  match node.Registry.link_id with
  | Some link_id -> link_id
  | None -> invalid_arg "Engine: node unexpectedly has no link id"

(* ------------------------------------------------------------------ *)
(* On-path transitions                                                 *)

(* [x] just came on-path at [node]; register it one level deeper on every
   branch, recursing where the deeper target was off-path too. *)
let rec ensure_deeper env (node : Registry.node) x_oid =
  List.iter
    (fun (child : Registry.node) ->
      match child.Registry.link_id with
      | None -> ()
      | Some _ when not (List.exists (rep_live env) child.Registry.linked) ->
          (* Every path through this level is being torn down: adding here
             would race the teardown cursor. *)
          ()
      | Some _ -> (
          match deref child (read_record env x_oid) with
          | None -> ()
          | Some y ->
              let was_empty, now_empty = add_member env child y (plain_entry x_oid) in
              if was_empty && not now_empty then ensure_deeper env child y))
    (Registry.children env.registry node)

(* [x] just went off-path at [node]; retract it one level deeper on every
   branch, cascading further where targets empty out. *)
let rec cascade_off env (node : Registry.node) x_oid =
  List.iter
    (fun (child : Registry.node) ->
      match child.Registry.link_id with
      | None -> ()
      | Some _ -> (
          match deref child (read_record env x_oid) with
          | None -> ()
          | Some y ->
              let _, now_empty = remove_member env child y x_oid in
              if now_empty then cascade_off env child y))
    (Registry.children env.registry node)

(* ------------------------------------------------------------------ *)
(* Inverted traversal                                                  *)

let membership_of env (node : Registry.node) x_rec =
  match node.Registry.link_id with
  | None -> Link_object.empty
  | Some link_id -> fst (read_membership env ~link_id x_rec)

(* Sources reaching the object [x_rec] through [node]'s inverted sub-path. *)
let sources_under env node x_rec =
  let rec collect (node : Registry.node) x_rec =
    let members = Link_object.members (membership_of env node x_rec) in
    match Registry.parent env.registry node with
    | None -> members
    | Some parent ->
        List.concat_map (fun m -> collect parent (read_record env m)) members
  in
  List.sort_uniq Oid.compare (collect node x_rec)

let sources_of env node target_oid =
  sources_under env node (read_record env target_oid)

(* ------------------------------------------------------------------ *)
(* Forward walks and terminal maintenance                              *)

(* One source's forward path under [rep], walked once and shared by the
   lock set and the apply that follows: the objects on the path (stopping
   at the first null reference), the final object when the path is
   complete, the final's replicated values for in-place and collapsed
   terminals (null when the path is broken), and the S' object a separate
   terminal's hidden reference names.  OIDs and user-field values only:
   apply re-reads any object before it rewrites it. *)
type path = {
  rep : Schema.replication;
  chain : (Registry.node * Oid.t) list;
  final : Oid.t option;
  values : Value.t list;
  sprime : Oid.t option;
}

(* The final's replicated values, in [term.fields] order. *)
let final_values (term : Registry.terminal) final_rec =
  Array.fold_right
    (fun idx acc -> value_or_null final_rec idx :: acc)
    term.Registry.field_indexes []

(* Read-only.  A separate terminal's final is named but not read. *)
let walk_path env (rep : Schema.replication) source_rec =
  let _, term = Registry.terminal_of env.registry rep in
  let rec go chain record = function
    | [] -> invalid_arg "Engine.walk_path: empty chain"
    | (node : Registry.node) :: rest -> (
        match deref node record with
        | None -> (chain, None, List.map (fun _ -> Value.VNull) term.Registry.fields)
        | Some oid when rest = [] ->
            let values =
              match term.Registry.kind with
              | Registry.K_separate _ -> []
              | Registry.K_inplace | Registry.K_collapsed _ ->
                  final_values term (read_record env oid)
            in
            ((node, oid) :: chain, Some oid, values)
        | Some oid -> go ((node, oid) :: chain) (read_record env oid) rest)
  in
  let chain, final, values =
    go [] source_rec (Registry.chain env.registry rep)
  in
  let sprime =
    match term.Registry.kind with
    | Registry.K_separate _ ->
        as_ref_opt (value_or_null source_rec term.Registry.slots.(0))
    | Registry.K_inplace | Registry.K_collapsed _ -> None
  in
  { rep; chain = List.rev chain; final; values; sprime }

let sprime_field_offset = 2

(* Fetch or create the S' object of a final object for a separate path.
   The final is read here, not taken from a walk: an earlier write of the
   same operation may have rewritten its link section.  Fresh S' objects
   start with refcount 0; callers bump it. *)
let sprime_for env ((final_node : Registry.node), (term : Registry.terminal))
    ~sref_link final_oid =
  let final_rec = read_record env final_oid in
  match Record.find_link final_rec sref_link with
  | Some pair -> pair.Record.link_oid
  | None ->
      let values =
        Array.of_list
          (Value.VInt 0 :: Value.VRef final_oid :: final_values term final_rec)
      in
      let tag = Schema.type_tag env.schema final_node.Registry.to_type in
      let hf = Store.sprime_file env.store term.Registry.rep.Schema.rep_id in
      let sp_oid = Heap_file.insert hf (Record.encode (Record.make ~type_tag:tag values)) in
      write_record env final_oid
        (Record.add_link final_rec { Record.link_oid = sp_oid; link_id = sref_link });
      sp_oid

let sprime_refcount_add env ~sref_link sp_oid delta =
  let hf = data_file env sp_oid in
  let r = Heap_file.read_with hf sp_oid Record.decode_at in
  let count = Value.as_int (Record.field r 0) + delta in
  assert (count >= 0);
  if count = 0 then begin
    let owner = Value.as_ref (Record.field r 1) in
    Heap_file.delete hf sp_oid;
    let owner_rec = read_record env owner in
    write_record env owner (Record.remove_link owner_rec sref_link)
  end
  else Heap_file.update hf sp_oid (Record.encode (Record.set_field r 0 (Value.VInt count)))

(* ------------------------------------------------------------------ *)
(* Page-batched fan-out                                                 *)

(* Runs of OIDs sharing one (file, page), in ascending physical order. *)
let group_by_page oids =
  let close acc = function
    | None -> acc
    | Some (key, xs) -> (key, List.rev xs) :: acc
  in
  let rec go acc current = function
    | [] -> List.rev (close acc current)
    | (oid : Oid.t) :: rest -> (
        let key = (oid.Oid.file, oid.Oid.page) in
        match current with
        | Some (key', xs) when key' = key -> go acc (Some (key, oid :: xs)) rest
        | (Some _ | None) as prev -> go (close acc prev) (Some (key, [ oid ])) rest)
  in
  go [] None oids

(* Apply [transform] to every object in [oids] (all of [set]), visiting
   pages in ascending (file, page) order.  With batching on, each page is
   read under one pin and rewritten under one pin — the paper's reason for
   keeping inverted structures in the referenced set's physical order —
   instead of one pin pair per object.  [transform] must only *read* other
   objects (it runs between the page's read and write pins, unpinned); it
   returns [Some updated] to rewrite the object or [None] to leave it.
   Change callbacks fire per object after the page's write completes. *)
let batched_rewrite env ~set oids ~transform =
  let sorted = List.sort_uniq Oid.compare oids in
  if not env.batching then
    List.iter
      (fun oid ->
        let r = read_record env oid in
        match transform oid r with
        | Some r' ->
            write_record env oid r';
            env.on_hidden_update set oid ~before:r ~after:r'
        | None -> ())
      sorted
  else
    List.iter
      (fun ((_file, page), oids) ->
        match oids with
        | [] -> ()
        | first :: _ ->
            let hf = data_file env first in
            let slots = List.map (fun (o : Oid.t) -> o.Oid.slot) oids in
            let changes = ref [] in
            (* One pin covers the head reads and the in-place rewrites;
               [transform] runs under it but only reads (chained objects
               re-pin their own pages, including this one, re-entrantly). *)
            Heap_file.modify_batch hf ~page slots ~decode:Record.decode_at
              ~f:(fun decoded ->
                (* [None] marks a chained object: fetch it normally. *)
                let records =
                  List.map2
                    (fun oid record ->
                      match record with
                      | Some r -> (oid, r)
                      | None -> (oid, read_record env oid))
                    oids decoded
                in
                changes :=
                  List.filter_map
                    (fun (oid, r) ->
                      match transform oid r with
                      | Some r' -> Some (oid, r, r')
                      | None -> None)
                    records;
                List.map
                  (fun ((oid : Oid.t), _, r') -> (oid.Oid.slot, Record.encode r'))
                  !changes);
        List.iter
          (fun (oid, r, r') -> env.on_hidden_update set oid ~before:r ~after:r')
          !changes)
      (group_by_page sorted)

(* [record] with hidden slots [slots.(i)], [slots.(i + 1)], ... set to
   [values]; [record] itself when they already hold them. *)
let rec set_slots (slots : int array) i values record =
  match values with
  | [] -> record
  | desired :: rest ->
      let idx = slots.(i) in
      let record =
        if Value.equal (value_or_null record idx) desired then record
        else set_value_extending record idx desired
      in
      set_slots slots (i + 1) rest record

(* The in-place or collapsed hidden copies of [source_rec] set to [values]
   (one per terminal field); [None] when the stored copies already match. *)
let copies_transform (term : Registry.terminal) values source_rec =
  let updated = set_slots term.Registry.slots 0 values source_rec in
  if updated == source_rec then None else Some updated

(* A source that is also a final of its declaration (a self-referential
   path) has its link section rewritten by the S' bookkeeping: re-read it. *)
let reread_owner env final sref_link source_oid source_rec =
  if Option.equal Oid.equal final (Some source_oid)
     || Record.find_link source_rec sref_link <> None
  then read_record env source_oid
  else source_rec

(* Bring one source object's hidden fields in line with its walked path
   (both strategies).  [source_rec] must be the stored record: it is the
   base of the rewrite. *)
let refresh_path env (p : path) source_oid source_rec =
  let rep = p.rep in
  let set = rep.Schema.rpath.Path.source_set in
  let ((_, term) as ends) = Registry.terminal_of env.registry rep in
  let updated =
    match term.Registry.kind with
    | Registry.K_inplace | Registry.K_collapsed _ ->
        copies_transform term p.values source_rec
    | Registry.K_separate sref_link ->
        let idx = term.Registry.slots.(0) in
        let desired =
          match p.final with
          | Some final_oid -> Value.VRef (sprime_for env ends ~sref_link final_oid)
          | None -> Value.VNull
        in
        let current = value_or_null source_rec idx in
        if Value.equal current desired then None
        else begin
          Option.iter
            (fun sp -> sprime_refcount_add env ~sref_link sp (-1))
            (as_ref_opt current);
          Option.iter
            (fun sp -> sprime_refcount_add env ~sref_link sp 1)
            (as_ref_opt desired);
          let base = reread_owner env p.final sref_link source_oid source_rec in
          Some (set_value_extending base idx desired)
        end
  in
  Option.iter
    (fun updated ->
      write_record env source_oid updated;
      env.on_hidden_update set source_oid ~before:source_rec ~after:updated)
    updated;
  clear_pending env rep source_oid

(* Recompute the hidden fields of one source object from the current state
   of the forward path. *)
let refresh_terminal env rep source_oid =
  let source_rec = read_record env source_oid in
  refresh_path env (walk_path env rep source_rec) source_oid source_rec

(* Refresh many sources of one declaration, page-batched where the terminal
   allows it.  Separate terminals stay per-object — [sprime_for] /
   [sprime_refcount_add] rewrite final and S' objects as they go, which the
   read-then-write page batch must not interleave with — but still run in
   ascending physical order. *)
let refresh_batch env (rep : Schema.replication) oids =
  let _, term = Registry.terminal_of env.registry rep in
  match term.Registry.kind with
  | Registry.K_separate _ ->
      List.iter (refresh_terminal env rep) (List.sort_uniq Oid.compare oids)
  | Registry.K_inplace | Registry.K_collapsed _ ->
      batched_rewrite env ~set:rep.Schema.rpath.Path.source_set oids
        ~transform:(fun oid source_rec ->
          clear_pending env rep oid;
          copies_transform term (walk_path env rep source_rec).values source_rec)

(* ------------------------------------------------------------------ *)
(* Prepared mutations: one walk for the lock set and the apply        *)

(* A source object's paths under every declaration rooted at its set.
   [touches] is every data object the apply below may write besides the
   source itself — the objects on the paths, plus (for a detach) the
   owners of the S' objects it releases, which the walk may no longer
   reach.  Link and S' objects are not data objects: the lock on the data
   object that owns them guards them. *)
type walk = { paths : path list; touches : Oid.t list }

let touches w = w.touches

let alive env oid = Heap_file.exists (data_file env oid) oid

let prepare env ~set record ~owners =
  let paths =
    List.map (fun rep -> walk_path env rep record)
      (Schema.replications_from env.schema set)
  in
  let sprime_owner (p : path) =
    match p.sprime with
    | Some sp when owners && alive env sp ->
        as_ref_opt (Record.field (read_record env sp) 1)
    | Some _ | None -> None
  in
  let on_paths = List.concat_map (fun p -> List.map snd p.chain) paths in
  {
    paths;
    touches =
      List.sort_uniq Oid.compare
        (on_paths @ List.filter_map sprime_owner paths);
  }

let prepare_attach env ~set record = prepare env ~set record ~owners:false
let prepare_detach env ~set record = prepare env ~set record ~owners:true

let path_of w (rep : Schema.replication) =
  match
    List.find_opt (fun p -> p.rep.Schema.rep_id = rep.Schema.rep_id) w.paths
  with
  | Some p -> p
  | None -> invalid_arg "Engine: declaration is not rooted at the walked set"

(* ------------------------------------------------------------------ *)
(* Source attach / detach                                              *)

let collapsed_link_id (term : Registry.terminal) =
  match term.Registry.kind with
  | Registry.K_collapsed id -> Some id
  | Registry.K_inplace | Registry.K_separate _ -> None

(* Membership bookkeeping for one source object joining its walked path. *)
let attach_source env (p : path) source_oid =
  let final_node, term = Registry.terminal_of env.registry p.rep in
  (match (collapsed_link_id term, p.chain) with
  | Some link_id, [ (_, x1); (_, x2) ] ->
      (* Collapsed 2-level path: a single tagged link at the final node. *)
      ignore
        (modify_membership env final_node ~link_id ~threshold:0 x2 (fun lo ->
             Link_object.add lo { Link_object.member = source_oid; tag = x1 }))
  | None, (node1, x1) :: _ ->
      let was_empty, now_empty = add_member env node1 x1 (plain_entry source_oid) in
      if was_empty && not now_empty then ensure_deeper env node1 x1
  | Some _, _ | None, [] ->
      () (* path broken by a null reference: nothing to register *));
  refresh_path env p source_oid (read_record env source_oid)

let detach_source env (p : path) source_oid =
  clear_pending env p.rep source_oid;
  let final_node, term = Registry.terminal_of env.registry p.rep in
  (match (collapsed_link_id term, p.chain) with
  | Some link_id, [ _; (_, x2) ] ->
      ignore
        (modify_membership env final_node ~link_id ~threshold:0 x2 (fun lo ->
             Link_object.remove lo source_oid))
  | None, (node1, x1) :: _ ->
      let _, now_empty = remove_member env node1 x1 source_oid in
      if now_empty then cascade_off env node1 x1
  | Some _, _ | None, [] -> ());
  (* Separate paths: drop this source's claim on its S' object. *)
  match (term.Registry.kind, p.sprime) with
  | Registry.K_separate sref_link, Some sp ->
      sprime_refcount_add env ~sref_link sp (-1)
  | (Registry.K_separate _ | Registry.K_inplace | Registry.K_collapsed _), _ ->
      ()

(* Tear down one source object's contribution to a [Dropping] declaration.
   Unlike [detach_source] (object deletion), the source object stays: only
   memberships no *live* path shares are removed, the S' claim is released,
   and the declaration's hidden slots are nulled.  Idempotent — a second
   visit finds no memberships, a null slot, and no S' reference. *)
let teardown_source env rep w source_oid =
  let p = path_of w rep in
  clear_pending env rep source_oid;
  let set = rep.Schema.rpath.Path.source_set in
  let final_node, term = Registry.terminal_of env.registry rep in
  (match (collapsed_link_id term, p.chain) with
  | Some link_id, [ _; (_, x2) ] ->
      (* The tagged link is exclusively this declaration's: always remove. *)
      ignore
        (modify_membership env final_node ~link_id ~threshold:0 x2 (fun lo ->
             Link_object.remove lo source_oid))
  | Some _, _ -> ()
  | None, chain ->
      (* At each level whose link no live path needs, retract the previous
         object's membership.  Removals at deeper levels are shared across
         the sources reaching through one intermediate —
         [Link_object.remove] of an absent member no-ops, so whichever
         source's teardown quantum gets there first wins. *)
      ignore
        (List.fold_left
           (fun member ((node : Registry.node), x_oid) ->
             if
               node.Registry.link_id <> None
               && not (List.exists (rep_live env) node.Registry.linked)
             then ignore (remove_member env node x_oid member);
             x_oid)
           source_oid chain));
  (* Null the declaration's hidden slots, releasing the S' claim first.
     The source is read only now: the membership pass may have rewritten
     its link section along a self-referential chain. *)
  let source_rec = read_record env source_oid in
  let changed = ref false in
  let updated =
    match term.Registry.kind with
    | Registry.K_separate sref_link -> (
        let idx = term.Registry.slots.(0) in
        match value_or_null source_rec idx with
        | Value.VRef sp ->
            sprime_refcount_add env ~sref_link sp (-1);
            changed := true;
            let base = reread_owner env None sref_link source_oid source_rec in
            set_value_extending base idx Value.VNull
        | Value.VNull | Value.VInt _ | Value.VString _ -> source_rec)
    | Registry.K_inplace | Registry.K_collapsed _ ->
        let updated =
          set_slots term.Registry.slots 0
            (List.map (fun _ -> Value.VNull) term.Registry.fields)
            source_rec
        in
        if updated != source_rec then changed := true;
        updated
  in
  if !changed then begin
    write_record env source_oid updated;
    env.on_hidden_update set source_oid ~before:source_rec ~after:updated
  end

let on_insert env w oid =
  List.iter (fun p -> if rep_live env p.rep then attach_source env p oid) w.paths

let on_delete env w oid =
  List.iter (fun p -> detach_source env p oid) w.paths;
  (* Detaching may clear the object's own memberships (a self-referential
     path); any left make it an intermediate or final object. *)
  if Heap_file.read_with (data_file env oid) oid Record.link_count_at > 0 then
    invalid_arg
      (Printf.sprintf
         "Engine: object %s is still referenced along a replication path"
         (Oid.to_string oid))

(* Backfill one source object of a [Building] declaration.  Exactly
   [attach_source], which is idempotent — link membership adds dedupe by
   member, [refresh_path] compares before writing and balances S'
   refcounts — so a source already attached by the catch-up trigger (an
   insert or reference update that ran while the backfill cursor was
   behind it) converges instead of double-registering. *)
let backfill_source env rep w oid =
  let p = path_of w rep in
  attach_source env p oid;
  (* A prefix the declaration shares with a built one is on-path already,
     so [attach_source]'s level-1 add never reaches the levels this
     declaration adds: register the source's chain at the first of them,
     whose deeper levels [ensure_deeper] then fills as usual. *)
  let building (node : Registry.node) =
    List.for_all
      (fun (r : Schema.replication) ->
        Schema.rep_state env.schema r.Schema.rep_id = Schema.Building)
      node.Registry.linked
  in
  let rec first_new member = function
    | [] -> ()
    | ((node : Registry.node), x) :: rest ->
        if not (building node) then first_new x rest
        else if node.Registry.level > 1 then begin
          let was_empty, now_empty = add_member env node x (plain_entry member) in
          if was_empty && not now_empty then ensure_deeper env node x
        end
  in
  first_new oid p.chain

(* What a scalar update of one object rewrites, one entry per interested
   terminal, in link-section order: a shared S' slot, or the hidden copies
   of the sources an inverted path or collapsed link names (the terminals
   are filtered for liveness at apply, so the lock set covers them all). *)
type fanout_entry =
  | Sprime of Schema.replication * Oid.t * int
  | Copies of string * Registry.terminal list * Oid.t list

type fanout = fanout_entry list

let prepare_scalar env (record : Record.t) ~field =
  List.concat_map
    (fun (pair : Record.link) ->
      let link_id = pair.Record.link_id in
      let terminals node_id =
        (Registry.node env.registry node_id).Registry.terminals
      in
      match Registry.link_kind env.registry link_id with
      | None -> []
      | Some (Registry.L_sref node_id) ->
          List.filter_map
            (fun (term : Registry.terminal) ->
              match
                ( term.Registry.kind,
                  List.find_index (fun (f, _) -> f = field) term.Registry.fields )
              with
              | Registry.K_separate sid, Some i when sid = link_id ->
                  let slot = sprime_field_offset + i in
                  Some (Sprime (term.Registry.rep, pair.Record.link_oid, slot))
              | (Registry.K_separate _ | Registry.K_inplace | Registry.K_collapsed _), _
                -> None)
            (terminals node_id)
      | Some (Registry.L_collapsed node_id) ->
          List.filter_map
            (fun (term : Registry.terminal) ->
              match term.Registry.kind with
              | Registry.K_collapsed cid
                when cid = link_id && List.mem_assoc field term.Registry.fields ->
                  let lo, _ = read_membership env ~link_id record in
                  Some
                    (Copies
                       ( term.Registry.rep.Schema.rpath.Path.source_set,
                         [ term ],
                         Link_object.members lo ))
              | Registry.K_collapsed _ | Registry.K_inplace | Registry.K_separate _ ->
                  None)
            (terminals node_id)
      | Some (Registry.L_path node_id) -> (
          let node = Registry.node env.registry node_id in
          match
            List.filter
              (fun (term : Registry.terminal) ->
                term.Registry.kind = Registry.K_inplace
                && List.mem_assoc field term.Registry.fields)
              node.Registry.terminals
          with
          | [] -> []
          | terms ->
              [ Copies (node.Registry.source_set, terms, sources_under env node record) ]))
    record.Record.links

(* The hidden slot of a copy of [field] under an in-place or collapsed
   terminal. *)
let field_slot (term : Registry.terminal) field =
  match List.find_index (fun (f, _) -> f = field) term.Registry.fields with
  | Some i -> term.Registry.slots.(i)
  | None -> invalid_arg ("Engine: terminal does not replicate " ^ field)

let fanout_touches fanout =
  List.concat_map
    (function Sprime _ -> [] | Copies (_, _, sources) -> sources)
    fanout
  |> List.sort_uniq Oid.compare

(* Lazy terminals only invalidate: the write to each source is deferred
   until its hidden copy is next read. *)
let on_scalar_update env fanout ~field value =
  List.iter
    (function
      | Sprime (rep, sp, slot) ->
          if rep_live env rep then
            write_record env sp (Record.set_field (read_record env sp) slot value)
      | Copies (set, terms, sources) ->
          let eager, lazy_ =
            List.partition
              (fun (term : Registry.terminal) ->
                not term.Registry.rep.Schema.options.Schema.lazy_propagation)
              (List.filter
                 (fun (term : Registry.terminal) -> rep_live env term.Registry.rep)
                 terms)
          in
          List.iter
            (fun (term : Registry.terminal) ->
              List.iter (mark_pending env term.Registry.rep) sources)
            lazy_;
          if eager <> [] then
            let slots = List.map (fun term -> field_slot term field) eager in
            batched_rewrite env ~set sources ~transform:(fun _ r0 ->
                Some
                  (List.fold_left
                     (fun r idx -> set_value_extending r idx value)
                     r0 slots)))
    fanout

(* ------------------------------------------------------------------ *)
(* Reference updates                                                   *)

(* The changed object is a source-set member: move its level-1 membership
   and refresh every terminal rooted under the changed step. *)
let ref_update_source env ~set source_oid ~field ~old_target ~new_target =
  List.iter
    (fun (node1 : Registry.node) ->
      if node1.Registry.step = field then begin
        (match node1.Registry.link_id with
        | Some _ ->
            (match old_target with
            | Some o ->
                let _, now_empty = remove_member env node1 o source_oid in
                if now_empty then cascade_off env node1 o
            | None -> ());
            (match new_target with
            | Some nw when List.exists (rep_live env) node1.Registry.linked ->
                let was_empty, now_empty =
                  add_member env node1 nw (plain_entry source_oid)
                in
                if was_empty && not now_empty then ensure_deeper env node1 nw
            | Some _ | None -> ())
        | None -> ());
        List.iter
          (fun (rep : Schema.replication) ->
            let final_node, term = Registry.terminal_of env.registry rep in
            (match collapsed_link_id term with
            | Some link_id ->
                (* Move the collapsed entry between final link objects. *)
                (match old_target with
                | Some old_x1 -> (
                    match deref final_node (read_record env old_x1) with
                    | Some old_final ->
                        ignore
                          (modify_membership env final_node ~link_id ~threshold:0
                             old_final (fun lo -> Link_object.remove lo source_oid))
                    | None -> ())
                | None -> ());
                (match new_target with
                | Some new_x1 when rep_live env rep -> (
                    match deref final_node (read_record env new_x1) with
                    | Some new_final ->
                        ignore
                          (modify_membership env final_node ~link_id ~threshold:0
                             new_final (fun lo ->
                               Link_object.add lo
                                 { Link_object.member = source_oid; tag = new_x1 }))
                    | None -> ())
                | Some _ | None -> ())
            | None -> ());
            if rep_live env rep then refresh_terminal env rep source_oid)
          node1.Registry.passing
      end)
    (Registry.roots env.registry set)

(* The changed object sits at level >= 1 of some path: restructure the next
   level's link and recompute every source it carries. *)
let ref_update_intermediate env ~elem_type x_oid ~field ~old_target ~new_target =
  List.iter
    (fun (node : Registry.node) ->
      if node.Registry.to_type = elem_type then
        List.iter
          (fun (child : Registry.node) ->
            if child.Registry.step = field then begin
              (* Collapsed terminals at [child]: move the entries tagged with
                 this intermediate. *)
              List.iter
                (fun (term : Registry.terminal) ->
                  match collapsed_link_id term with
                  | Some link_id ->
                      let moved = ref [] in
                      (match old_target with
                      | Some o ->
                          ignore
                            (modify_membership env child ~link_id ~threshold:0 o
                               (fun lo ->
                                 moved := Link_object.entries_tagged lo x_oid;
                                 Link_object.remove_tagged lo x_oid))
                      | None -> ());
                      (match new_target with
                      | Some nw
                        when !moved <> [] && rep_live env term.Registry.rep ->
                          ignore
                            (modify_membership env child ~link_id ~threshold:0 nw
                               (fun lo ->
                                 List.fold_left Link_object.add lo !moved))
                      | Some _ | None -> ());
                      if rep_live env term.Registry.rep then
                        List.iter
                          (fun (e : Link_object.entry) ->
                            refresh_terminal env term.Registry.rep
                              e.Link_object.member)
                          !moved
                  | None -> ())
                child.Registry.terminals;
              (* Ordinary inverted links at [child]. *)
              match node.Registry.link_id with
              | None -> ()
              | Some _ ->
                  let on_path =
                    not
                      (Link_object.is_empty
                         (membership_of env node (read_record env x_oid)))
                  in
                  if on_path then begin
                    let sources = sources_of env node x_oid in
                    (match child.Registry.link_id with
                    | Some _ ->
                        (match old_target with
                        | Some o ->
                            let _, now_empty = remove_member env child o x_oid in
                            if now_empty then cascade_off env child o
                        | None -> ());
                        (match new_target with
                        | Some nw
                          when List.exists (rep_live env) child.Registry.linked
                          ->
                            let was_empty, now_empty =
                              add_member env child nw (plain_entry x_oid)
                            in
                            if was_empty && not now_empty then
                              ensure_deeper env child nw
                        | Some _ | None -> ())
                    | None -> ());
                    (* Refresh every source under this intermediate for every
                       path continuing through [child]. *)
                    List.iter
                      (fun (rep : Schema.replication) ->
                        if rep_live env rep then
                          List.iter
                            (fun s -> refresh_terminal env rep s)
                            sources)
                      child.Registry.passing
                  end
            end)
          (Registry.children env.registry node))
    (Registry.nodes env.registry)

let on_ref_update env ~set oid ~field ~old_value ~new_value =
  let old_target = as_ref_opt old_value in
  let new_target = as_ref_opt new_value in
  if not (Option.equal Oid.equal old_target new_target) then begin
    ref_update_source env ~set oid ~field ~old_target ~new_target;
    let elem_type = (Schema.set_type env.schema set).Ty.tname in
    ref_update_intermediate env ~elem_type oid ~field ~old_target ~new_target
  end

(* ------------------------------------------------------------------ *)
(* Bulk build                                                          *)

let build env (rep : Schema.replication) =
  let set = rep.Schema.rpath.Path.source_set in
  let nodes = Registry.chain env.registry rep in
  let final_node, term = Registry.terminal_of env.registry rep in
  let src_file = env.file_of_set set in
  match collapsed_link_id term with
  | Some link_id ->
      (* Gather (source, x1, final) triples, then lay the tagged link
         objects down in final-set physical order. *)
      let per_final = Oid.Table.create 64 in
      Heap_file.iter src_file Record.decode_at (fun source_oid record ->
          match (walk_path env rep record).chain with
          | [ (_, x1); (_, x2) ] ->
              let prev = Option.value ~default:[] (Oid.Table.find_opt per_final x2) in
              Oid.Table.replace per_final x2
                ({ Link_object.member = source_oid; tag = x1 } :: prev)
          | _ -> ());
      let finals =
        Oid.Table.fold (fun oid _ acc -> oid :: acc) per_final []
        |> List.sort Oid.compare
      in
      List.iter
        (fun final_oid ->
          let entries = Oid.Table.find per_final final_oid in
          ignore
            (modify_membership env final_node ~link_id ~threshold:0 final_oid
               (fun lo -> List.fold_left Link_object.add lo entries)))
        finals;
      let sources = ref [] in
      Heap_file.iter_oids src_file (fun o -> sources := o :: !sources);
      refresh_batch env rep (List.rev !sources)
  | None ->
      (* Memberships per level, accumulated in memory, then laid down in
         target physical order — only for links not built by an earlier
         declaration sharing the prefix. *)
      let with_links =
        List.filter (fun (n : Registry.node) -> n.Registry.link_id <> None) nodes
      in
      let fresh_links =
        List.filter
          (fun (n : Registry.node) ->
            match n.Registry.link_id with
            | Some id -> Store.link_file_opt env.store id = None
            | None -> false)
          with_links
      in
      let tables =
        List.map (fun (n : Registry.node) -> (n.Registry.node_id, Oid.Table.create 256)) with_links
      in
      let table_for (n : Registry.node) = List.assoc n.Registry.node_id tables in
      Heap_file.iter src_file Record.decode_at (fun source_oid record ->
          let targets = (walk_path env rep record).chain in
          ignore
            (List.fold_left
               (fun member ((node : Registry.node), x_oid) ->
                 (match node.Registry.link_id with
                 | Some _ ->
                     let tbl = table_for node in
                     let prev = Option.value ~default:Oid.Set.empty (Oid.Table.find_opt tbl x_oid) in
                     Oid.Table.replace tbl x_oid (Oid.Set.add member prev)
                 | None -> ());
                 x_oid)
               source_oid targets));
      let build_node_target (node : Registry.node) target =
        let link_id = require_link node in
        let threshold = node_threshold node in
        let members = Oid.Table.find (table_for node) target in
        ignore
          (modify_membership env node ~link_id ~threshold target (fun lo ->
               Oid.Set.fold (fun m lo -> Link_object.add lo (plain_entry m)) members lo))
      in
      if rep.Schema.options.Schema.cluster_links && fresh_links <> [] then begin
        (* §4.3.2: all fresh levels share one file, and a target's link
           object is placed immediately before the link objects of the
           intermediates it fans out to, so multi-level propagation reads
           adjacent pages. *)
        ignore
          (Store.alias_links env.store
             (List.filter_map (fun (n : Registry.node) -> n.Registry.link_id) fresh_links));
        let is_fresh (n : Registry.node) =
          List.exists (fun (f : Registry.node) -> f.Registry.node_id = n.Registry.node_id) fresh_links
        in
        let rec place (node : Registry.node) target =
          if is_fresh node then begin
            build_node_target node target;
            match Registry.parent env.registry node with
            | Some parent when parent.Registry.link_id <> None ->
                let members = Oid.Table.find (table_for node) target in
                Oid.Set.iter
                  (fun m -> if Oid.Table.mem (table_for parent) m then place parent m)
                  members
            | Some _ | None -> ()
          end
        in
        (match List.rev with_links with
        | [] -> ()
        | deepest :: _ ->
            let targets =
              Oid.Table.fold (fun oid _ acc -> oid :: acc) (table_for deepest) []
              |> List.sort Oid.compare
            in
            List.iter (fun target -> place deepest target) targets;
            (* Any fresh node not reachable from the deepest level (e.g. the
               deepest itself was not fresh) is built level by level. *)
            List.iter
              (fun (node : Registry.node) ->
                let tbl = table_for node in
                Oid.Table.iter
                  (fun target _ ->
                    let target_rec = read_record env target in
                    match Record.find_link target_rec (require_link node) with
                    | Some _ -> ()
                    | None -> build_node_target node target)
                  tbl)
              fresh_links)
      end
      else
        List.iter
          (fun (node : Registry.node) ->
            (* Force creation so a later build treats this link as existing
               even if it stays empty. *)
            ignore (Store.link_file env.store (require_link node));
            let tbl = table_for node in
            let targets =
              Oid.Table.fold (fun oid _ acc -> oid :: acc) tbl []
              |> List.sort Oid.compare
            in
            List.iter (fun target -> build_node_target node target) targets)
          fresh_links;
      (* Terminals: hidden copies or S' objects (built in final physical
         order with refcounts set directly). *)
      (match term.Registry.kind with
      | Registry.K_inplace | Registry.K_collapsed _ ->
          let sources = ref [] in
          Heap_file.iter_oids src_file (fun o -> sources := o :: !sources);
          refresh_batch env rep (List.rev !sources)
      | Registry.K_separate sref_link ->
          let counts = Oid.Table.create 256 in
          let final_for = Oid.Table.create 256 in
          Heap_file.iter src_file Record.decode_at (fun source_oid record ->
              match (walk_path env rep record).final with
              | Some final_oid ->
                  Oid.Table.replace final_for source_oid final_oid;
                  Oid.Table.replace counts final_oid
                    (1 + Option.value ~default:0 (Oid.Table.find_opt counts final_oid))
              | None -> ());
          let finals =
            Oid.Table.fold (fun oid _ acc -> oid :: acc) counts []
            |> List.sort Oid.compare
          in
          let sp_of = Oid.Table.create 256 in
          List.iter
            (fun final_oid ->
              let sp = sprime_for env (final_node, term) ~sref_link final_oid in
              sprime_refcount_add env ~sref_link sp (Oid.Table.find counts final_oid);
              Oid.Table.replace sp_of final_oid sp)
            finals;
          let idx = term.Registry.slots.(0) in
          let sources = ref [] in
          Heap_file.iter_oids src_file (fun o -> sources := o :: !sources);
          (* The S' objects and refcounts are already in place, so the final
             hidden-reference writes are a pure per-source rewrite: batch
             them page by page. *)
          batched_rewrite env ~set (List.rev !sources)
            ~transform:(fun source_oid r ->
              let desired =
                match Oid.Table.find_opt final_for source_oid with
                | Some final_oid -> Value.VRef (Oid.Table.find sp_of final_oid)
                | None -> Value.VNull
              in
              if Value.equal (value_or_null r idx) desired then None
              else Some (set_value_extending r idx desired)))

(* Objects of [source_set] whose [attr] currently references [target],
   answered from a level-1 inverted link when one exists. *)
let referencers_via_links env ~source_set ~attr target_oid =
  let node =
    List.find_opt
      (fun (n : Registry.node) ->
        n.Registry.step = attr
        && n.Registry.link_id <> None
        (* A link only answers inverse-reference queries when some Active
           path maintains it: a Building link is still partial, a Dropping
           one no longer maintained. *)
        && List.exists (rep_active env) n.Registry.linked)
      (Registry.roots env.registry source_set)
  in
  Option.map
    (fun node ->
      Link_object.members (membership_of env node (read_record env target_oid)))
    node

let repair env (rep : Schema.replication) source_oid =
  if is_pending env rep source_oid then refresh_terminal env rep source_oid

let refresh = refresh_terminal

(* Settle invalidation entries grouped by declaration, so each drain walks
   its sources in one physically ordered, page-batched pass rather than
   hashtable order. *)
let drain_keys env keys =
  let by_rep = Hashtbl.create 8 in
  List.iter
    (fun (rep_id, oid64) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_rep rep_id) in
      Hashtbl.replace by_rep rep_id (Oid.of_int64 oid64 :: prev))
    keys;
  Hashtbl.iter
    (fun rep_id oids ->
      match rep_of_id env rep_id with
      | Some rep when rep_live env rep -> refresh_batch env rep oids
      | Some _ | None ->
          List.iter
            (fun oid -> Hashtbl.remove env.pending (rep_id, Oid.to_int64 oid))
            oids)
    by_rep

let flush_pending env =
  drain_keys env (Hashtbl.fold (fun k () acc -> k :: acc) env.pending [])

(* Repair exactly the given invalidation keys (if still pending) — used by
   transaction abort to settle only the repair debt that transaction
   created, leaving other transactions' entries lazy. *)
let flush_keys env keys =
  drain_keys env (List.filter (fun key -> Hashtbl.mem env.pending key) keys)

(* ------------------------------------------------------------------ *)
(* Reference-update lock scope                                         *)

(* Source sets of every declaration whose path uses [set].[field] as a
   step.  A reference update restructures inverted paths, touching an
   unbounded subset of those sources — the caller escalates to set-level
   exclusive locks instead of enumerating them. *)
let ref_update_scope env ~set ~field =
  let elem_type = (Schema.set_type env.schema set).Ty.tname in
  List.filter_map
    (fun (node : Registry.node) ->
      if node.Registry.step = field && node.Registry.from_type = elem_type then
        Some node.Registry.source_set
      else None)
    (Registry.nodes env.registry)
  |> List.sort_uniq compare

(* The target of a moved reference plus everything reachable from it along
   the registry subtree rooted at the step — the objects
   [ensure_deeper]/[cascade_off] may rewrite. *)
let downstream env (node : Registry.node) target_oid =
  let rec walk (node : Registry.node) oid acc =
    if not (alive env oid) then acc
    else
      let acc = oid :: acc in
      let r = read_record env oid in
      List.fold_left
        (fun acc (child : Registry.node) ->
          match deref child r with
          | Some next -> walk child next acc
          | None -> acc)
        acc
        (Registry.children env.registry node)
  in
  walk node target_oid []

let write_set_ref_targets env ~set ~field targets =
  let elem_type = (Schema.set_type env.schema set).Ty.tname in
  List.concat_map
    (fun (node : Registry.node) ->
      if node.Registry.step = field && node.Registry.from_type = elem_type then
        List.concat_map (fun t -> downstream env node t) targets
      else [])
    (Registry.nodes env.registry)
  |> List.sort_uniq Oid.compare
