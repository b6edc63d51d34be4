module Listx = Fieldrep_util.Listx
module Wire = Fieldrep_util.Wire
module Oid = Fieldrep_storage.Oid
module Heap_file = Fieldrep_storage.Heap_file
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record

type sref_problem =
  | Missing of Oid.t
  | Stale
  | Wrong_owner of { owner : Oid.t; final : Oid.t }
  | Dead
  | Not_a_ref

type finding =
  | Stale_hidden of {
      rep_id : int;
      source : Oid.t;
      slot : int;
      stored : Value.t;
      expected : Value.t;
    }
  | Stray_link of { link_id : int; target : Oid.t }
  | Membership of {
      link_id : int;
      target : Oid.t;
      stored : int;
      expected : Link_object.entry list;
    }
  | Shared_link of {
      link_id : int;
      target : Oid.t;
      link_oid : Oid.t;
      expected : Link_object.entry list;
    }
  | Orphan_link of { link_id : int; link_oid : Oid.t }
  | Sref of {
      rep_id : int;
      source : Oid.t;
      slot : int;
      stored : Value.t;
      problem : sref_problem;
    }
  | Sprime_values of {
      rep_id : int;
      sprime : Oid.t;
      final : Oid.t;
      expected : Value.t list;
    }
  | Sprime_refcount of {
      rep_id : int;
      link_id : int;
      sprime : Oid.t;
      stored : int option;
      claimed : int;
    }
  | Sref_pair of {
      rep_id : int;
      link_id : int;
      owner : Oid.t;
      stored : Oid.t option;
      wanted : Oid.t option;
    }
  | Unreadable of { oid : Oid.t; what : string }

(* Reads of objects named by a stored reference: a reference into a blanked
   page or a garbled record is a divergence to report, not a crash.
   Storage faults are not caught — they abort the audit. *)
let tolerant f x =
  match f x with
  | v -> v
  | exception (Invalid_argument _ | Failure _ | Wire.Corrupt _) -> None

(* The expected entries of one membership, sorted by member like a stored
   link object's. *)
let entries_of tbl =
  Hashtbl.fold (fun member tag acc -> { Link_object.member; tag } :: acc) tbl []
  |> List.sort (fun (a : Link_object.entry) b ->
         Oid.compare a.Link_object.member b.Link_object.member)

let rec increasing = function
  | (a : Link_object.entry) :: (b :: _ as rest) ->
      Oid.compare a.Link_object.member b.Link_object.member < 0 && increasing rest
  | [] | [ _ ] -> true

let entry acc member tag = { Link_object.member; tag } :: acc

let read_in hf oid decode =
  if Heap_file.exists hf oid then Some (Heap_file.read_with hf oid decode) else None

(* An active separate declaration, with what both of its passes need. *)
type separate = {
  rep : Schema.replication;
  sref_link : int;
  idx : int;  (* the source's hidden S' reference slot *)
  fields : (string * Ty.scalar) list;
  final_ty : Ty.t;
}

(* The well-formed S' record at [sp]: refcount, owner, record. *)
let sprime_at (env : Engine.env) s sp =
  let check (r : Record.t) =
    if Array.length r.Record.values <> Engine.sprime_field_offset + List.length s.fields
    then None
    else
      match (r.Record.values.(0), r.Record.values.(1)) with
      | Value.VInt count, Value.VRef owner -> Some (count, owner, r)
      | _ -> None
  in
  match Store.sprime_file_opt env.Engine.store s.rep.Schema.rep_id with
  | None -> None
  | Some hf -> tolerant (fun sp -> Option.bind (read_in hf sp Record.decode_at) check) sp

let findings (env : Engine.env) =
  let schema = env.Engine.schema in
  let registry = env.Engine.registry in
  let store = env.Engine.store in
  let out = ref [] in
  let add f = out := f :: !out in
  let exp = Recompute.compute env in
  let read_data_with oid decode =
    tolerant (fun oid -> Some (Heap_file.read_with (env.Engine.file_of_oid oid) oid decode)) oid
  in
  let read_data oid = read_data_with oid Record.decode_at in
  let separates =
    List.filter_map
      (fun (rep : Schema.replication) ->
        match Registry.terminal_of registry rep with
        | _, { Registry.kind = Registry.K_separate sref_link; fields; _ }
          when Schema.rep_state schema rep.Schema.rep_id = Schema.Active ->
            Some
              {
                rep;
                sref_link;
                idx =
                  Schema.hidden_index schema rep.Schema.rpath.Path.source_set
                    ~rep_id:rep.Schema.rep_id ~field:None;
                fields;
                final_ty =
                  Schema.find_type schema
                    (Listx.last_exn ~what:"Invariants: empty chain"
                       (Registry.chain registry rep))
                      .Registry.to_type;
              }
        | _ -> None)
      (Schema.replications schema)
  in
  (* Pass 1: every data object's hidden copies and link pairs.  Each
     membership seen is struck from the expectation, so what remains
     afterwards is missing. *)
  let referenced = Oid.Table.create 64 in
  let check_pair target (pair : Record.link) =
    let link_id = pair.Record.link_id in
    let loid = pair.Record.link_oid in
    match Registry.link_kind registry link_id with
    | None -> add (Stray_link { link_id; target })
    | Some _ when not (Engine.link_active env link_id) -> ()
    | Some (Registry.L_sref _) -> (
        match List.find_opt (fun s -> s.sref_link = link_id) separates with
        | None -> ()
        | Some s -> (
            match sprime_at env s loid with
            | Some (_, owner, _) when Oid.equal owner target -> ()
            | Some _ | None ->
                add
                  (Sref_pair
                     {
                       rep_id = s.rep.Schema.rep_id;
                       link_id;
                       owner = target;
                       stored = Some loid;
                       wanted = None;
                     })))
    | Some (Registry.L_path _ | Registry.L_collapsed _) -> (
        let is_object = Store.is_link_oid store loid in
        let shared = is_object && Oid.Table.mem referenced loid in
        if is_object then Oid.Table.replace referenced loid ();
        match Hashtbl.find_opt exp.Recompute.memberships (link_id, target) with
        | None -> add (Stray_link { link_id; target })
        | Some tbl ->
            Hashtbl.remove exp.Recompute.memberships (link_id, target);
            if shared then
              add (Shared_link { link_id; target; link_oid = loid; expected = entries_of tbl })
            else
              let entries =
                if not is_object then [ { Link_object.member = loid; tag = Oid.nil } ]
                else
                  match Store.link_file_opt store link_id with
                  | None -> []
                  | Some lf ->
                      Option.value ~default:[]
                        (tolerant
                           (fun loid ->
                             Option.map List.rev (read_in lf loid (Link_object.fold_at entry [])))
                           loid)
              in
              let agrees (e : Link_object.entry) =
                match Hashtbl.find_opt tbl e.Link_object.member with
                | Some tag -> Oid.is_nil e.Link_object.tag || Oid.equal e.Link_object.tag tag
                | None -> false
              in
              if
                not
                  (List.length entries = Hashtbl.length tbl
                  && increasing entries && List.for_all agrees entries)
              then
                add
                  (Membership
                     { link_id; target; stored = List.length entries; expected = entries_of tbl }))
  in
  List.iter
    (fun (set_name, _) ->
      Heap_file.iter (env.Engine.file_of_set set_name) Record.decode_at
        (fun oid record ->
          (match Hashtbl.find_opt exp.Recompute.hidden oid with
          | Some slots ->
              List.iter
                (fun (rep_id, slot, expected) ->
                  let stored = Record.field record slot in
                  if
                    not
                      (Hashtbl.mem env.Engine.pending (rep_id, Oid.to_int64 oid)
                      || Value.equal stored expected)
                  then add (Stale_hidden { rep_id; source = oid; slot; stored; expected }))
                !slots
          | None -> ());
          List.iter (check_pair oid) record.Record.links))
    (Schema.sets schema);
  (* Pass 2: expected memberships no pair was seen for. *)
  Hashtbl.iter
    (fun (link_id, target) tbl ->
      add
        (Membership
           {
             link_id;
             target;
             stored = 0;
             expected = entries_of tbl;
           }))
    exp.Recompute.memberships;
  (* Pass 3: orphan link objects.  Several link ids may share one file
     (small-link clustering); a file is audited only when every id in it is
     active, since a Building or Dropping id's objects are unreferenced by
     design. *)
  let link_files = Hashtbl.create 8 in
  List.iter
    (fun (link_id, fid) ->
      Hashtbl.replace link_files fid
        (link_id :: Option.value ~default:[] (Hashtbl.find_opt link_files fid)))
    (fst (Store.bindings store));
  Hashtbl.iter
    (fun _ ids ->
      match ids with
      | link_id :: _ when List.for_all (Engine.link_active env) ids -> (
          match Store.link_file_opt store link_id with
          | None -> ()
          | Some hf ->
              Heap_file.iter_oids hf (fun link_oid ->
                  if not (Oid.Table.mem referenced link_oid) then
                    add (Orphan_link { link_id; link_oid })))
      | _ -> ())
    link_files;
  let check_values s sp sp_rec final =
    match read_data final with
    | None -> add (Unreadable { oid = final; what = "final object" })
    | Some final_rec ->
        let field i (fname, _) =
          ( Record.field final_rec (Ty.field_index s.final_ty fname),
            Record.field sp_rec (Engine.sprime_field_offset + i) )
        in
        let pairs = List.mapi field s.fields in
        if not (List.for_all (fun (want, have) -> Value.equal want have) pairs)
        then
          add
            (Sprime_values
               {
                 rep_id = s.rep.Schema.rep_id;
                 sprime = sp;
                 final;
                 expected = List.map fst pairs;
               })
  in
  (* Pass 4: separate declarations — each source's S' reference, each S'
     record's values (once, at its first claim), refcount and owner pair. *)
  List.iter
    (fun s ->
      let rep_id = s.rep.Schema.rep_id in
      let claims = Oid.Table.create 32 in
      Heap_file.iter
        (env.Engine.file_of_set s.rep.Schema.rpath.Path.source_set)
        (fun buf off len -> Record.field_at buf off len s.idx)
        (fun source stored ->
          let final = Option.join (Hashtbl.find_opt exp.Recompute.sep_final (rep_id, source)) in
          let problem =
            match (stored, final) with
            | Value.VNull, None -> None
            | Value.VNull, Some f -> Some (Missing f)
            | (Value.VInt _ | Value.VString _), _ -> Some Not_a_ref
            | Value.VRef sp, _ -> (
                let claimed = 1 + Option.value ~default:0 (Oid.Table.find_opt claims sp) in
                Oid.Table.replace claims sp claimed;
                match (sprime_at env s sp, final) with
                | None, _ -> Some Dead
                | Some _, None -> Some Stale
                | Some (_, owner, _), Some f when not (Oid.equal owner f) ->
                    Some (Wrong_owner { owner; final = f })
                | Some (_, _, sp_rec), Some f ->
                    if claimed = 1 then check_values s sp sp_rec f;
                    None)
          in
          Option.iter
            (fun problem -> add (Sref { rep_id; source; slot = s.idx; stored; problem }))
            problem);
      match Store.sprime_file_opt store rep_id with
      | None -> ()
      | Some hf ->
          Heap_file.iter_oids hf (fun sp ->
              let claimed = Option.value ~default:0 (Oid.Table.find_opt claims sp) in
              let record = sprime_at env s sp in
              let stored = Option.map (fun (count, _, _) -> count) record in
              if claimed = 0 || stored <> Some claimed then
                add (Sprime_refcount { rep_id; link_id = s.sref_link; sprime = sp; stored; claimed });
              match record with
              | Some (_, owner, _) when claimed > 0 -> (
                  (* the owner's pair, read in place: [Some None] when it has none *)
                  match
                    read_data_with owner (fun buf off len ->
                        let at = Record.link_at buf off len s.sref_link in
                        if at < 0 then None else Some (Oid.decode buf at))
                  with
                  | None -> add (Unreadable { oid = owner; what = "owner of an S' record" })
                  | Some (Some pair) when Oid.equal pair sp -> ()
                  | Some stored ->
                      add
                        (Sref_pair
                           { rep_id; link_id = s.sref_link; owner; stored; wanted = Some sp }))
              | Some _ | None -> ()))
    separates;
  List.rev !out

let oid = Oid.to_string
let value = Value.to_string

let describe = function
  | Stale_hidden { rep_id; source; slot; stored; expected } ->
      Printf.sprintf "object %s: hidden slot %d (replication %d) is %s, expected %s"
        (oid source) slot rep_id (value stored) (value expected)
  | Stray_link { link_id; target } ->
      Printf.sprintf "object %s: stray pair for link %d" (oid target) link_id
  | Membership { link_id; target; stored = 0; expected } ->
      Printf.sprintf "link %d: target %s should hold %d members but has none" link_id
        (oid target) (List.length expected)
  | Membership { link_id; target; stored; expected } ->
      Printf.sprintf "link %d of %s: %d members stored, %d expected, or members differ"
        link_id (oid target) stored (List.length expected)
  | Shared_link { link_id; target; link_oid; _ } ->
      Printf.sprintf "link %d of %s: link object %s already belongs to another target"
        link_id (oid target) (oid link_oid)
  | Orphan_link { link_id; link_oid } ->
      Printf.sprintf "link %d: orphan link object %s" link_id (oid link_oid)
  | Sref { rep_id; source; stored; problem; _ } -> (
      let what = Printf.sprintf "separate %d: source %s" rep_id (oid source) in
      match problem with
      | Missing f -> Printf.sprintf "%s should reference S' of %s" what (oid f)
      | Stale -> Printf.sprintf "%s holds stale S' %s" what (value stored)
      | Wrong_owner { owner; final } ->
          Printf.sprintf "%s references S' %s owned by %s, expects %s" what (value stored)
            (oid owner) (oid final)
      | Dead -> Printf.sprintf "%s references missing S' %s" what (value stored)
      | Not_a_ref -> Printf.sprintf "%s hidden slot holds non-reference %s" what (value stored))
  | Sprime_values { rep_id; sprime; final; _ } ->
      Printf.sprintf "separate %d: S' %s values differ from final %s" rep_id (oid sprime)
        (oid final)
  | Sprime_refcount { rep_id; sprime; stored; claimed; _ } ->
      Printf.sprintf "separate %d: S' %s refcount %s but %d sources claim it" rep_id
        (oid sprime)
        (match stored with Some n -> string_of_int n | None -> "unreadable")
        claimed
  | Sref_pair { rep_id; owner; stored; wanted; _ } ->
      Printf.sprintf "separate %d: owner %s sref pair is %s, should be %s" rep_id (oid owner)
        (match stored with Some sp -> oid sp | None -> "missing")
        (match wanted with Some sp -> oid sp | None -> "removed")
  | Unreadable { oid = o; what } -> Printf.sprintf "%s %s does not read or decode" what (oid o)

let errors env = List.map describe (findings env)

let check env =
  match errors env with
  | [] -> ()
  | e :: rest ->
      failwith
        (Printf.sprintf "replication invariants violated (%d total): %s"
           (List.length rest + 1) e)
