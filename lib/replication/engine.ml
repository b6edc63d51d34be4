module Wire = Fieldrep_util.Wire
module Oid = Fieldrep_storage.Oid
module Heap_file = Fieldrep_storage.Heap_file
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record

(* One change to a membership, made on the link object's bytes. *)
type member_edit =
  | Add of Link_object.entry
  | Add_all of Link_object.entry list
  | Remove of Oid.t
  | Take_tagged of Oid.t * Link_object.entry list ref
      (* remove the entries with this tag, handing them over *)

(* The membership editor's state: the edit, set before its run, and what
   the run found, read after it.  Its two steps (under the target's pin
   and under the link object's) are built once, with the state, so an
   edit builds no closure. *)
type editor = {
  links : Store.t;
  mutable link_id : int;
  mutable threshold : int;
  mutable edit : member_edit;
  mutable was_empty : bool;
  mutable now_empty : bool;
  mutable target_step : Oid.t -> Bytes.t -> int -> int -> Heap_file.edit;
  mutable link_step : Oid.t -> Bytes.t -> int -> int -> Heap_file.edit;
}

type env = {
  schema : Schema.t;
  mutable registry : Registry.t;
  store : Store.t;
  file_of_set : string -> Heap_file.t;
  file_of_oid : Oid.t -> Heap_file.t;
  mutable on_hidden_update : string -> Oid.t -> (Record.t * Record.t) option -> unit;
  hidden_indexed : string -> bool;
  mutable batching : bool;
      (* group propagation fan-outs by page and rewrite each page under one
         pin; off = the per-object reference path (kept for comparison) *)
  pending : (int * int64, unit) Hashtbl.t;
      (* (rep_id, source oid) pairs whose hidden copies are stale under
         lazy propagation; the in-memory invalidation table *)
  editor : editor;
}

(* Per-domain buffers the write path reuses, so a rewrite allocates no
   payload: [copy_buf] holds a stored record being edited (with room for
   one more link pair), [link_buf] a link object, [encoding_buf] a record
   encoded for a write.  Each is done with before the next use starts. *)
let copy_buf = Domain.DLS.new_key (fun () -> ref (Bytes.create 256))
let link_buf = Domain.DLS.new_key (fun () -> ref (Bytes.create 256))
let encoding_buf = Domain.DLS.new_key (fun () -> ref (Bytes.create 256))

(* [Heap_file.read_with] decoders that copy the payload into [key]'s
   buffer, leaving [room] bytes past it, and return its length. *)
let copy_into key ~room buf off len =
  let copy = Domain.DLS.get key in
  Wire.grow copy (len + room);
  Bytes.blit buf off !copy 0 len;
  len

let copy_record = copy_into copy_buf ~room:Record.link_size
let copy_link = copy_into link_buf ~room:0

(* ------------------------------------------------------------------ *)
(* Membership editor                                                   *)

(* Each add of [es] applied to the membership in [buf]: its new length,
   or -1 when none of them changed it. *)
let rec add_all buf len changed = function
  | [] -> if changed then len else -1
  | e :: es -> (
      match Link_object.add_at buf len e with
      | -1 -> add_all buf len changed es
      | len -> add_all buf len true es)

(* The membership in [buf] edited: its new length, or -1 when the edit
   leaves it as it was (an absent member's removal, or adds of members
   already present with their tags). *)
let apply_edit buf len = function
  | Add e -> Link_object.add_at buf len e
  | Add_all es -> add_all buf len false es
  | Remove member -> Link_object.remove_at buf len member
  | Take_tagged (tag, taken) ->
      let len, es = Link_object.take_tagged_at buf tag in
      taken := es;
      len

(* Does the membership of [count] entries in [link_buf] need a link
   object?  Not when empty, nor, under small-link elimination, for a lone
   untagged member, which the target's pair stores itself. *)
let needs_object ed count =
  count > 0
  && not
       (ed.threshold >= 1 && count = 1
       && not (Link_object.tagged_at !(Domain.DLS.get link_buf)))

(* The step under the link object's pin: its membership copied into
   [link_buf] and edited there, and written back in the frame when it is
   still to be a link object. *)
let link_step ed _ buf off len =
  let len = copy_link buf off len in
  let lbuf = Domain.DLS.get link_buf in
  ed.was_empty <- Link_object.count_at !lbuf = 0;
  let edited = apply_edit lbuf len ed.edit in
  if edited >= 0 && needs_object ed (Link_object.count_at !lbuf) then
    Heap_file.Rewrite (!lbuf, edited)
  else Heap_file.Keep

(* The target's pair for the link set to [link_oid], in the frame when
   the pair is there already ([at]), else in a copy in [copy_buf]. *)
let set_pair ed buf off len at link_oid =
  if at >= 0 then begin
    if Oid.equal (Oid.decode buf at) link_oid then Heap_file.Keep
    else begin
      ignore (Oid.encode buf at link_oid);
      Heap_file.Patched
    end
  end
  else begin
    let n = copy_record buf off len in
    let copy = !(Domain.DLS.get copy_buf) in
    Heap_file.Rewrite
      (copy, Record.set_link_at copy n { Record.link_oid; link_id = ed.link_id })
  end

(* The step under the target's pin: read its pair for the link, edit the
   membership it names (a link object under that object's one pin, or
   the lone member the pair stores), and store the result: nothing when
   empty, the member's OID in the pair for a lone untagged member under
   small-link elimination, else a link object, created or freed here as
   the membership needs.  A changed pair is spliced under this pin. *)
let target_step ed _ buf off len =
  let at = Record.link_at buf off len ed.link_id in
  let pair = if at < 0 then Oid.nil else Oid.decode buf at in
  let is_object = Store.is_link_oid ed.links pair in
  let hf = Store.link_file ed.links ed.link_id in
  let lbuf = Domain.DLS.get link_buf in
  let link_len =
    if is_object then begin
      ignore (Heap_file.modify_run hf pair [] ~f:ed.link_step);
      0
    end
    else begin
      let n =
        Link_object.entries_into lbuf
          (if at < 0 then [] else [ { Link_object.member = pair; tag = Oid.nil } ])
      in
      ed.was_empty <- at < 0;
      let edited = apply_edit lbuf n ed.edit in
      if edited < 0 then n else edited
    end
  in
  let count = Link_object.count_at !lbuf in
  ed.now_empty <- count = 0;
  if needs_object ed count then
    if is_object then Heap_file.Keep
    else
      set_pair ed buf off len at (Heap_file.insert ~len:link_len hf !lbuf)
  else begin
    if is_object then Heap_file.delete hf pair;
    if count > 0 then set_pair ed buf off len at (Link_object.member_at !lbuf 0)
    else if at < 0 then Heap_file.Keep
    else begin
      let n = copy_record buf off len in
      let copy = !(Domain.DLS.get copy_buf) in
      Heap_file.Rewrite (copy, Record.remove_link_at copy n ed.link_id)
    end
  end

let make_editor links =
  let no_step _ _ _ _ = Heap_file.Keep in
  let ed =
    {
      links;
      link_id = 0;
      threshold = 0;
      edit = Add_all [];
      was_empty = false;
      now_empty = false;
      target_step = no_step;
      link_step = no_step;
    }
  in
  ed.target_step <- target_step ed;
  ed.link_step <- link_step ed;
  ed

let make_env ~schema ~store ~file_of_set ~file_of_oid
    ?(on_hidden_update = fun _ _ _ -> ()) ?(hidden_indexed = fun _ -> false) () =
  {
    schema;
    registry = Registry.compile schema;
    store;
    file_of_set;
    file_of_oid;
    on_hidden_update;
    hidden_indexed;
    batching = true;
    pending = Hashtbl.create 64;
    editor = make_editor store;
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

let read_field env oid idx =
  Heap_file.read_with (data_file env oid) oid (fun buf off len ->
      Record.field_at buf off len idx)

(* The object a node's step value points at, or None when the reference
   is null. *)
let step_target (node : Registry.node) = function
  | Value.VRef oid -> Some oid
  | Value.VNull -> None
  | (Value.VInt _ | Value.VString _) as v ->
      invalid_arg
        (Printf.sprintf "Engine: step %s holds non-reference %s" node.Registry.step
           (Value.to_string v))

let deref node record = step_target node (Record.field record node.Registry.step_index)

(* [deref] of the stored object [oid], reading its step field alone. *)
let deref_at env (node : Registry.node) oid =
  step_target node (read_field env oid node.Registry.step_index)

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

(* [oid]'s pair for link [link_id], read in place: the OID it stores, nil
   when the object has none. *)
let link_pair env ~link_id oid =
  Heap_file.read_with (data_file env oid) oid (fun buf off len ->
      let at = Record.link_at buf off len link_id in
      if at < 0 then Oid.nil else Oid.decode buf at)

(* The members that a pair for link [link_id] storing [loid] names, consed
   onto [acc] in reverse physical order: its link object's, read in the
   frame, or the lone member a small link keeps in the pair itself.  Nil
   names none. *)
let members_onto env ~link_id loid acc =
  if Oid.is_nil loid then acc
  else if Store.is_link_oid env.store loid then
    Heap_file.read_with (Store.link_file env.store link_id) loid
      (Link_object.fold_at (fun acc member _ -> member :: acc) acc)
  else loid :: acc

let members env ~link_id loid = List.rev (members_onto env ~link_id loid [])

(* Apply [edit] to the membership of [target] under link [link_id] and
   store the result, all under one pin of the target's page: the link
   object's edit pins its page once more, and creating or freeing one
   costs that write.  Returns [(was_empty, now_empty)]. *)
let modify_membership env ~link_id ~threshold target_oid edit =
  let ed = env.editor in
  ed.link_id <- link_id;
  ed.threshold <- threshold;
  ed.edit <- edit;
  ignore
    (Heap_file.modify_run (data_file env target_oid) target_oid [] ~f:ed.target_step);
  (ed.was_empty, ed.now_empty)

let edit_member env node target_oid edit =
  match node.Registry.link_id with
  | None -> (false, false)
  | Some link_id ->
      modify_membership env ~link_id ~threshold:(node_threshold node) target_oid edit

let add_member env node target_oid entry = edit_member env node target_oid (Add entry)
let remove_member env node target_oid member =
  edit_member env node target_oid (Remove member)

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
          match deref_at env child x_oid with
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
          match deref_at env child x_oid with
          | None -> ()
          | Some y ->
              let _, now_empty = remove_member env child y x_oid in
              if now_empty then cascade_off env child y))
    (Registry.children env.registry node)

(* ------------------------------------------------------------------ *)
(* Inverted traversal                                                  *)

(* Sources reaching an object through [node]'s inverted sub-path, given
   the OID its pair for the node's link stores, in physical order: one
   pair read per intermediate level, one link-object read per object
   link. *)
let sources_under env node loid =
  let rec collect (node : Registry.node) acc loid =
    let link_id = require_link node in
    match Registry.parent env.registry node with
    | None -> members_onto env ~link_id loid acc
    | Some parent ->
        let up = require_link parent in
        List.fold_left
          (fun acc m -> collect parent acc (link_pair env ~link_id:up m))
          acc
          (members_onto env ~link_id loid [])
  in
  let sources = collect node [] loid in
  (* One link object's members are distinct already. *)
  if Option.is_none (Registry.parent env.registry node) then List.rev sources
  else List.sort_uniq Oid.compare sources

(* ------------------------------------------------------------------ *)
(* Forward walks and terminal maintenance                              *)

(* One source's forward path under [rep], walked once and shared by the
   lock set and the apply that follows: the objects on the path (stopping
   at the first null reference), the final object when the path is
   complete, the final's replicated values for in-place and collapsed
   terminals (null when the path is broken; none when the walk is not
   asked for them), and the S' object a separate terminal's hidden
   reference names.  OIDs and user-field values only: apply re-reads any
   object before it rewrites it. *)
type path = {
  rep : Schema.replication;
  chain : (Registry.node * Oid.t) list;
  final : Oid.t option;
  values : Value.t list;
  sprime : Oid.t option;
}

(* The replicated values of the final encoded at [off], in [term.fields]
   order. *)
let terminal_values (term : Registry.terminal) buf off len =
  Array.fold_right
    (fun idx acc -> Record.field_at buf off len idx :: acc)
    term.Registry.field_indexes []

(* The path from a source whose first step holds [first]: each object on
   it is read for its next step alone, and the final, for in-place and
   collapsed terminals and when [values] asks, for the replicated fields
   alone, under one pin.  Returns the chain (innermost first), the final
   and its values. *)
let walk_from env ~values (term : Registry.terminal) nodes first =
  let rec go chain value = function
    | [] -> invalid_arg "Engine.walk_path: empty chain"
    | (node : Registry.node) :: rest -> (
        match step_target node value with
        | None -> (chain, None, List.map (fun _ -> Value.VNull) term.Registry.fields)
        | Some oid -> (
            let chain = (node, oid) :: chain in
            match rest with
            | [] ->
                let values =
                  match term.Registry.kind with
                  | (Registry.K_inplace | Registry.K_collapsed _) when values ->
                      Heap_file.read_with (data_file env oid) oid
                        (terminal_values term)
                  | Registry.K_separate _ | Registry.K_inplace | Registry.K_collapsed _
                    ->
                      []
                in
                (chain, Some oid, values)
            | (next : Registry.node) :: _ ->
                go chain (read_field env oid next.Registry.step_index) rest))
  in
  go [] first nodes

let first_step env rep =
  match Registry.chain env.registry rep with
  | (first : Registry.node) :: _ -> first.Registry.step_index
  | [] -> invalid_arg "Engine.walk_path: empty chain"

(* Read-only.  A separate terminal's final is named but not read, nor any
   final without [values]. *)
let walk_path env ~values (rep : Schema.replication) source_rec =
  let _, term = Registry.terminal_of env.registry rep in
  let chain, final, values =
    walk_from env ~values term (Registry.chain env.registry rep)
      (Record.field source_rec (first_step env rep))
  in
  let sprime =
    match term.Registry.kind with
    | Registry.K_separate _ ->
        as_ref_opt (Record.field source_rec term.Registry.slots.(0))
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
  let final_file = data_file env final_oid in
  let len = Heap_file.read_with final_file final_oid copy_record in
  let buf = !(Domain.DLS.get copy_buf) in
  let at = Record.link_at buf 0 len sref_link in
  if at >= 0 then Oid.decode buf at
  else begin
    let values =
      Array.of_list
        (Value.VInt 0 :: Value.VRef final_oid :: terminal_values term buf 0 len)
    in
    let tag = Schema.type_tag env.schema final_node.Registry.to_type in
    let hf = Store.sprime_file env.store term.Registry.rep.Schema.rep_id in
    let sp = Record.make ~type_tag:tag values in
    let sp_buf = Domain.DLS.get encoding_buf in
    Wire.grow sp_buf (Record.encoded_size sp);
    let sp_oid = Heap_file.insert ~len:(Record.encode_to !sp_buf 0 sp) hf !sp_buf in
    Heap_file.update
      ~len:(Record.set_link_at buf len { Record.link_oid = sp_oid; link_id = sref_link })
      final_file final_oid buf;
    sp_oid
  end

(* Copy [oid]'s record into [copy_buf], let [edit] change it there and
   write the result back: one read pin, then the update's. *)
let rewrite_copy env oid edit =
  let hf = data_file env oid in
  let len = Heap_file.read_with hf oid copy_record in
  let buf = !(Domain.DLS.get copy_buf) in
  match edit oid buf 0 len with
  | Heap_file.Keep -> ()
  | Heap_file.Patched -> Heap_file.update ~len hf oid buf
  | Heap_file.Rewrite (payload, len) -> Heap_file.update ~len hf oid payload

let sprime_refcount_add env ~sref_link sp_oid delta =
  let hf = data_file env sp_oid in
  let len = Heap_file.read_with hf sp_oid copy_record in
  let buf = !(Domain.DLS.get copy_buf) in
  let count = Value.as_int (Record.field_at buf 0 len 0) + delta in
  assert (count >= 0);
  if count = 0 then begin
    let owner = Value.as_ref (Record.field_at buf 0 len 1) in
    Heap_file.delete hf sp_oid;
    rewrite_copy env owner (fun _ buf _ len ->
        Heap_file.Rewrite (buf, Record.remove_link_at buf len sref_link))
  end
  else begin
    (* A count is an int: it keeps its size. *)
    ignore (Record.set_value_at buf 0 len 0 (Value.VInt count));
    Heap_file.update ~len hf sp_oid buf
  end

(* ------------------------------------------------------------------ *)
(* Hidden-slot writes                                                   *)

(* How hidden value [v] goes into slot [idx] of the record at [off]: 0
   when it already holds it (asked only without [force]), 1 in place (the
   slot exists and [v] is encoded in as many bytes), 2 only by
   re-encoding the record. *)
let slot_fit ~force buf off len (idx, v) =
  let pos = Record.value_offset buf off len idx in
  if
    (not force)
    && Value.equal
         (if pos < 0 then Value.VNull else Value.decode_at buf pos (off + len))
         v
  then 0
  else if pos >= 0 && Value.size_at buf pos (off + len) = Value.encoded_size v then 1
  else 2

let rec worst_fit ~force buf off len = function
  | [] -> 0
  | slot :: rest ->
      max (slot_fit ~force buf off len slot) (worst_fit ~force buf off len rest)

(* [slots] spliced into the record at [off], which has room for them:
   its new length.  Without [force] a null past the stored width stays
   implicit. *)
let rec splice_slots ~force buf off len = function
  | [] -> len
  | (idx, v) :: rest ->
      let len =
        if (not force) && Value.equal v Value.VNull && Record.value_offset buf off len idx < 0
        then len
        else Record.set_value_at buf off len idx v
      in
      splice_slots ~force buf off len rest

(* Set the hidden [slots] (index, value) of the stored record at [off]: in
   place when every value that changes keeps its encoded size, else by
   splicing a copy in [encoding_buf].  Without [force] a record that
   already holds every value is kept; with it the record is written even
   then. *)
let set_hidden ~force slots buf off len =
  match worst_fit ~force buf off len slots with
  | 0 -> if force then Heap_file.Patched else Heap_file.Keep
  | 1 ->
      ignore (splice_slots ~force buf off len slots);
      Heap_file.Patched
  | _ ->
      let copy = Domain.DLS.get encoding_buf in
      Wire.grow copy
        (List.fold_left (fun n (idx, v) -> n + idx + Value.encoded_size v) len slots);
      Bytes.blit buf off !copy 0 len;
      Heap_file.Rewrite (!copy, splice_slots ~force !copy 0 len slots)

let set_values env oid slots =
  rewrite_copy env oid (fun _ buf off len -> set_hidden ~force:true slots buf off len)

(* One page of [oids] at a time (one object without batching), firing the
   hook for the indexed rewrites each page collected. *)
let rec rewrite_pages env ~set edit changes = function
  | [] -> ()
  | (first : Oid.t) :: rest ->
      let rest =
        if env.batching then Heap_file.modify_run (data_file env first) first rest ~f:edit
        else begin
          rewrite_copy env first edit;
          rest
        end
      in
      if !changes <> [] then begin
        List.iter
          (fun (oid, before, after) ->
            env.on_hidden_update set oid (Some (before, after)))
          (List.rev !changes);
        changes := []
      end;
      rewrite_pages env ~set edit changes rest

(* Apply [edit] to every object in [oids] (all of [set], sorted and
   distinct), visiting pages in ascending (file, page) order.  [edit]
   changes the stored record's bytes and says how (a {!Heap_file.edit});
   it runs with the object's page pinned and may only read other objects.
   With batching on, each page's objects are edited under one pin — the
   paper's reason for keeping inverted structures in the referenced set's
   physical order — instead of a read and an update per object.  The
   change hook fires once per rewritten object; when the set indexes a
   hidden field it gets the decoded records, after the page's write. *)
let batched_rewrite env ~set oids ~edit =
  let indexed = env.hidden_indexed set in
  let changes = ref [] in
  let edit oid buf off len =
    if not indexed then begin
      let e = edit oid buf off len in
      (match e with
      | Heap_file.Keep -> ()
      | Heap_file.Patched | Heap_file.Rewrite _ -> env.on_hidden_update set oid None);
      e
    end
    else begin
      let before = Record.decode_at buf off len in
      let e = edit oid buf off len in
      (match e with
      | Heap_file.Keep -> ()
      | Heap_file.Patched ->
          changes := (oid, before, Record.decode_at buf off len) :: !changes
      | Heap_file.Rewrite (payload, n) ->
          changes := (oid, before, Record.decode_at payload 0 n) :: !changes);
      e
    end
  in
  rewrite_pages env ~set edit changes oids

(* The hidden copies of [term] set to [values] (one per terminal field),
   as (slot, value) pairs. *)
let copy_slots (term : Registry.terminal) values =
  List.mapi (fun i v -> (term.Registry.slots.(i), v)) values

(* Set one source object's hidden [slots] in the stored record, read at
   the write: any S' bookkeeping before it may have rewritten the record's
   link section (a self-referential path).  No slots, no write. *)
let write_hidden env (rep : Schema.replication) source_oid = function
  | [] -> ()
  | slots ->
      batched_rewrite env ~set:rep.Schema.rpath.Path.source_set [ source_oid ]
        ~edit:(fun _ buf off len -> set_hidden ~force:false slots buf off len)

(* The hidden slots that bring a source in line with its walked path: the
   copies (in-place, collapsed), or the S' reference (separate).  A
   separate path's claim moves first, from the S' object the stored source
   [source_oid] names (none when it is nil: an object not stored yet) to
   the one the path needs, found or created; an unchanged reference gives
   no slot. *)
let path_slots env (p : path) source_oid =
  let ((_, term) as ends) = Registry.terminal_of env.registry p.rep in
  match term.Registry.kind with
  | Registry.K_inplace | Registry.K_collapsed _ -> copy_slots term p.values
  | Registry.K_separate sref_link ->
      let idx = term.Registry.slots.(0) in
      let desired =
        match p.final with
        | Some final_oid -> Value.VRef (sprime_for env ends ~sref_link final_oid)
        | None -> Value.VNull
      in
      let current =
        if Oid.is_nil source_oid then Value.VNull else read_field env source_oid idx
      in
      if Value.equal current desired then []
      else begin
        Option.iter
          (fun sp -> sprime_refcount_add env ~sref_link sp (-1))
          (as_ref_opt current);
        Option.iter
          (fun sp -> sprime_refcount_add env ~sref_link sp 1)
          (as_ref_opt desired);
        [ (idx, desired) ]
      end

(* Bring one source object's hidden fields in line with its walked path
   (both strategies). *)
let refresh_path env (p : path) source_oid =
  write_hidden env p.rep source_oid (path_slots env p source_oid);
  clear_pending env p.rep source_oid

(* Recompute the hidden fields of one source object from the current state
   of the forward path. *)
let refresh_terminal env rep source_oid =
  refresh_path env
    (walk_path env ~values:true rep (read_record env source_oid))
    source_oid

(* Refresh many sources of one declaration, page-batched where the terminal
   allows it.  Separate terminals stay per-object — [sprime_for] /
   [sprime_refcount_add] rewrite final and S' objects as they go, which the
   page batch must not interleave with — but still run in ascending
   physical order. *)
let refresh_batch env (rep : Schema.replication) oids =
  let _, term = Registry.terminal_of env.registry rep in
  let oids = List.sort_uniq Oid.compare oids in
  match term.Registry.kind with
  | Registry.K_separate _ -> List.iter (refresh_terminal env rep) oids
  | Registry.K_inplace | Registry.K_collapsed _ ->
      let nodes = Registry.chain env.registry rep in
      let first = first_step env rep in
      batched_rewrite env ~set:rep.Schema.rpath.Path.source_set oids
        ~edit:(fun oid buf off len ->
          clear_pending env rep oid;
          let _, _, values =
            walk_from env ~values:true term nodes (Record.field_at buf off len first)
          in
          set_hidden ~force:false (copy_slots term values) buf off len)

(* ------------------------------------------------------------------ *)
(* Prepared mutations: one walk for the lock set and the apply        *)

(* A source object's paths under every declaration rooted at its set,
   walked from [source].  [touches] is every data object the apply below
   may write besides the source itself — the objects on the paths, plus
   (for a detach) the owners of the S' objects it releases, which the
   walk may no longer reach.  Link and S' objects are not data objects:
   the lock on the data object that owns them guards them.  [later]:
   declarations left unwalked until the source is stored
   ({!prepare_revive}). *)
type walk = {
  paths : path list;
  touches : Oid.t list;
  later : Schema.replication list;
  source : Record.t;
}

let touches w = w.touches

let alive env oid = Heap_file.exists (data_file env oid) oid

(* [List.sort_uniq] builds its merge closures on every call, before it
   looks at the length: spare them for the zero or one objects most
   walks name. *)
let sorted_distinct = function
  | ([] | [ _ ]) as oids -> oids
  | oids -> List.sort_uniq Oid.compare oids

(* A detach ([owners]) neither refreshes nor reads the final's values. *)
let prepare env record ~owners reps ~later =
  let paths = List.map (fun rep -> walk_path env ~values:(not owners) rep record) reps in
  let sprime_owner (p : path) =
    match p.sprime with
    | Some sp when owners && alive env sp -> as_ref_opt (read_field env sp 1)
    | Some _ | None -> None
  in
  let on_paths = List.concat_map (fun p -> List.map snd p.chain) paths in
  {
    paths;
    touches = sorted_distinct (on_paths @ List.filter_map sprime_owner paths);
    later;
    source = record;
  }

let prepare_attach env ~set record =
  prepare env record ~owners:false (Schema.replications_from env.schema set) ~later:[]

let prepare_detach env ~set record =
  prepare env record ~owners:true (Schema.replications_from env.schema set) ~later:[]

(* The record goes back into its own tombstoned slot, which a path that
   can reach the source may name: such a path is walked once it is
   stored. *)
let prepare_revive env ~set record =
  let later, now =
    List.partition (Registry.reaches_source env.registry)
      (Schema.replications_from env.schema set)
  in
  prepare env record ~owners:false now ~later

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
let attach_members env (p : path) source_oid =
  let _, term = Registry.terminal_of env.registry p.rep in
  (match (collapsed_link_id term, p.chain) with
  | Some link_id, [ (_, x1); (_, x2) ] ->
      (* Collapsed 2-level path: a single tagged link at the final node. *)
      ignore
        (modify_membership env ~link_id ~threshold:0 x2
           (Add { Link_object.member = source_oid; tag = x1 }))
  | None, (node1, x1) :: _ ->
      let was_empty, now_empty = add_member env node1 x1 (plain_entry source_oid) in
      if was_empty && not now_empty then ensure_deeper env node1 x1
  | Some _, _ | None, [] ->
      () (* path broken by a null reference: nothing to register *))

let attach_source env p source_oid =
  attach_members env p source_oid;
  refresh_path env p source_oid

let detach_source env (p : path) source_oid =
  clear_pending env p.rep source_oid;
  let _, term = Registry.terminal_of env.registry p.rep in
  (match (collapsed_link_id term, p.chain) with
  | Some link_id, [ _; (_, x2) ] ->
      ignore
        (modify_membership env ~link_id ~threshold:0 x2 (Remove source_oid))
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
  let _, term = Registry.terminal_of env.registry rep in
  (match (collapsed_link_id term, p.chain) with
  | Some link_id, [ _; (_, x2) ] ->
      (* The tagged link is exclusively this declaration's: always remove. *)
      ignore
        (modify_membership env ~link_id ~threshold:0 x2 (Remove source_oid))
  | Some _, _ -> ()
  | None, chain ->
      (* At each level whose link no live path needs, retract the previous
         object's membership.  Removals at deeper levels are shared across
         the sources reaching through one intermediate — removing an
         absent member is a no-op, so whichever source's teardown quantum
         gets there first wins. *)
      ignore
        (List.fold_left
           (fun member ((node : Registry.node), x_oid) ->
             if
               node.Registry.link_id <> None
               && not (List.exists (rep_live env) node.Registry.linked)
             then ignore (remove_member env node x_oid member);
             x_oid)
           source_oid chain));
  (* Null the declaration's hidden slots, releasing the S' claim first. *)
  write_hidden env rep source_oid
    (match term.Registry.kind with
    | Registry.K_separate sref_link -> (
        let idx = term.Registry.slots.(0) in
        match read_field env source_oid idx with
        | Value.VRef sp ->
            sprime_refcount_add env ~sref_link sp (-1);
            [ (idx, Value.VNull) ]
        | Value.VNull | Value.VInt _ | Value.VString _ -> [])
    | Registry.K_inplace | Registry.K_collapsed _ ->
        copy_slots term (List.map (fun _ -> Value.VNull) term.Registry.fields))

(* An insert writes its object once, born complete: the hidden slots of
   every live path come from the walk, a separate path's S' object found
   or created and claimed first.  Nulls past the record's width stay
   implicit, as [set_hidden] leaves them. *)
let complete env w (record : Record.t) =
  let slots =
    List.concat_map
      (fun p -> if rep_live env p.rep then path_slots env p Oid.nil else [])
      w.paths
  in
  let values = record.Record.values in
  let width =
    List.fold_left
      (fun width (idx, v) -> if Value.equal v Value.VNull then width else max width (idx + 1))
      (Array.length values) slots
  in
  if width = Array.length values then record
  else begin
    let full = Array.make width Value.VNull in
    Array.blit values 0 full 0 (Array.length values);
    List.iter (fun (idx, v) -> if idx < width then full.(idx) <- v) slots;
    { record with Record.values = full }
  end

(* The walked paths' hidden slots are in the stored record already; a
   declaration left for later ({!prepare_revive}) is walked and refreshed
   now that the object is stored. *)
let on_insert env w oid =
  List.iter
    (fun p ->
      if rep_live env p.rep then begin
        attach_members env p oid;
        clear_pending env p.rep oid
      end)
    w.paths;
  List.iter
    (fun rep ->
      if rep_live env rep then
        attach_source env (walk_path env ~values:true rep w.source) oid)
    w.later

let on_delete env w oid =
  List.iter (fun p -> detach_source env p oid) w.paths;
  (* Detaching may clear the object's own memberships (a self-referential
     path) but adds none; any left make it an intermediate or final
     object. *)
  if
    w.source.Record.links <> []
    && Heap_file.read_with (data_file env oid) oid Record.link_count_at > 0
  then
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
                  Some
                    (Copies
                       ( term.Registry.rep.Schema.rpath.Path.source_set,
                         [ term ],
                         members env ~link_id pair.Record.link_oid ))
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
              [
                Copies
                  (node.Registry.source_set, terms, sources_under env node pair.Record.link_oid);
              ]))
    record.Record.links

(* The hidden slot of a copy of [field] under an in-place or collapsed
   terminal. *)
let field_slot (term : Registry.terminal) field =
  let rec index i = function
    | [] -> invalid_arg ("Engine: terminal does not replicate " ^ field)
    | (f, _) :: rest -> if String.equal f field then i else index (i + 1) rest
  in
  term.Registry.slots.(index 0 term.Registry.fields)

let fanout_touches fanout =
  List.concat_map
    (function Sprime _ -> [] | Copies (_, _, sources) -> sources)
    fanout
  |> List.sort_uniq Oid.compare

(* Lazy terminals only invalidate: the write to each source is deferred
   until its hidden copy is next read. *)
(* The hidden slots of the live eager terminals among [terms], each with
   [value]; live lazy terminals mark [sources] stale instead. *)
let rec eager_slots env ~field value sources = function
  | [] -> []
  | (term : Registry.terminal) :: rest ->
      let slots = eager_slots env ~field value sources rest in
      let rep = term.Registry.rep in
      if not (rep_live env rep) then slots
      else if rep.Schema.options.Schema.lazy_propagation then begin
        List.iter (mark_pending env rep) sources;
        slots
      end
      else (field_slot term field, value) :: slots

let rec on_scalar_update env fanout ~field value =
  match fanout with
  | [] -> ()
  | entry :: rest ->
      (match entry with
      | Sprime (rep, sp, slot) ->
          if rep_live env rep then set_values env sp [ (slot, value) ]
      | Copies (set, terms, sources) -> (
          match eager_slots env ~field value sources terms with
          | [] -> ()
          | slots ->
              batched_rewrite env ~set sources ~edit:(fun _ buf off len ->
                  set_hidden ~force:true slots buf off len)));
      on_scalar_update env rest ~field value

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
                    match deref_at env final_node old_x1 with
                    | Some old_final ->
                        ignore
                          (modify_membership env ~link_id ~threshold:0 old_final
                             (Remove source_oid))
                    | None -> ())
                | None -> ());
                (match new_target with
                | Some new_x1 when rep_live env rep -> (
                    match deref_at env final_node new_x1 with
                    | Some new_final ->
                        ignore
                          (modify_membership env ~link_id ~threshold:0 new_final
                             (Add { Link_object.member = source_oid; tag = new_x1 }))
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
                            (modify_membership env ~link_id ~threshold:0 o
                               (Take_tagged (x_oid, moved)))
                      | None -> ());
                      (match new_target with
                      | Some nw
                        when !moved <> [] && rep_live env term.Registry.rep ->
                          ignore
                            (modify_membership env ~link_id ~threshold:0 nw
                               (Add_all !moved))
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
              | Some link_id ->
                  let loid = link_pair env ~link_id x_oid in
                  if not (Oid.is_nil loid) then begin
                    let sources = sources_under env node loid in
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
  let sorted_oids tbl =
    Oid.Table.fold (fun oid _ acc -> oid :: acc) tbl [] |> List.sort Oid.compare
  in
  match collapsed_link_id term with
  | Some link_id ->
      (* Gather (source, x1, final) triples, then lay the tagged link
         objects down in final-set physical order. *)
      let per_final = Oid.Table.create 64 in
      Heap_file.iter src_file Record.decode_at (fun source_oid record ->
          match (walk_path env ~values:false rep record).chain with
          | [ (_, x1); (_, x2) ] ->
              let prev = Option.value ~default:[] (Oid.Table.find_opt per_final x2) in
              Oid.Table.replace per_final x2
                ({ Link_object.member = source_oid; tag = x1 } :: prev)
          | _ -> ());
      let finals = sorted_oids per_final in
      List.iter
        (fun final_oid ->
          let entries = Oid.Table.find per_final final_oid in
          ignore
            (modify_membership env ~link_id ~threshold:0 final_oid (Add_all entries)))
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
          let targets = (walk_path env ~values:false rep record).chain in
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
          (modify_membership env ~link_id ~threshold target
             (Add_all (List.map plain_entry (Oid.Set.elements members))))
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
            List.iter (place deepest) (sorted_oids (table_for deepest));
            (* Any fresh node not reachable from the deepest level (e.g. the
               deepest itself was not fresh) is built level by level. *)
            List.iter
              (fun (node : Registry.node) ->
                let tbl = table_for node in
                Oid.Table.iter
                  (fun target _ ->
                    if Oid.is_nil (link_pair env ~link_id:(require_link node) target)
                    then build_node_target node target)
                  tbl)
              fresh_links)
      end
      else
        List.iter
          (fun (node : Registry.node) ->
            (* Force creation so a later build treats this link as existing
               even if it stays empty. *)
            ignore (Store.link_file env.store (require_link node));
            List.iter (build_node_target node) (sorted_oids (table_for node)))
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
              match (walk_path env ~values:false rep record).final with
              | Some final_oid ->
                  Oid.Table.replace final_for source_oid final_oid;
                  Oid.Table.replace counts final_oid
                    (1 + Option.value ~default:0 (Oid.Table.find_opt counts final_oid))
              | None -> ());
          let finals = sorted_oids counts in
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
          batched_rewrite env ~set (List.rev !sources) ~edit:(fun source_oid ->
              let desired =
                match Oid.Table.find_opt final_for source_oid with
                | Some final_oid -> Value.VRef (Oid.Table.find sp_of final_oid)
                | None -> Value.VNull
              in
              set_hidden ~force:false [ (idx, desired) ]))

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
      let link_id = require_link node in
      members env ~link_id (link_pair env ~link_id target_oid))
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
