module Listx = Fieldrep_util.Listx
module Oid = Fieldrep_storage.Oid
module Heap_file = Fieldrep_storage.Heap_file
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record

type expected = {
  (* (link_id, target oid) -> expected entries, keyed by member. *)
  memberships : (int * Oid.t, (Oid.t, Oid.t) Hashtbl.t) Hashtbl.t;
  (* source oid -> (rep_id, absolute value index, expected hidden value);
     separate srefs are checked structurally instead. *)
  hidden : (Oid.t, (int * int * Value.t) list ref) Hashtbl.t;
  (* (rep_id, source oid) -> final oid, for separate paths. *)
  sep_final : (int * Oid.t, Oid.t option) Hashtbl.t;
}

let membership_key tbl link_id target =
  match Hashtbl.find_opt tbl.memberships (link_id, target) with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 8 in
      Hashtbl.replace tbl.memberships (link_id, target) t;
      t

let hidden_slot tbl source =
  match Hashtbl.find_opt tbl.hidden source with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace tbl.hidden source r;
      r

(* Recompute every expected structure by scanning the source sets.  This is
   the ground truth {!Invariants} audits against: every replicated value is
   derivable by the forward walk below, which is why replicas are
   repairable from source objects while source fields themselves are
   not. *)
let compute (env : Engine.env) =
  let schema = env.Engine.schema in
  let registry = env.Engine.registry in
  let exp =
    {
      memberships = Hashtbl.create 64;
      hidden = Hashtbl.create 64;
      sep_final = Hashtbl.create 64;
    }
  in
  List.iter
    (fun (rep : Schema.replication) ->
      let set = rep.Schema.rpath.Path.source_set in
      let nodes = Registry.chain registry rep in
      let _, term = Registry.terminal_of registry rep in
      let src_file = env.Engine.file_of_set set in
      Heap_file.iter src_file Record.decode_at (fun source_oid source_rec ->
          (* Forward walk. *)
          let rec walk current_rec acc = function
            | [] -> List.rev acc
            | (node : Registry.node) :: rest -> (
                let idx =
                  Ty.field_index
                    (Schema.find_type schema node.Registry.from_type)
                    node.Registry.step
                in
                match Record.field current_rec idx with
                | Value.VRef oid ->
                    let r =
                      Heap_file.read_with (env.Engine.file_of_oid oid) oid Record.decode_at
                    in
                    walk r ((node, oid, r) :: acc) rest
                | Value.VNull | Value.VInt _ | Value.VString _ -> List.rev acc)
          in
          let targets = walk source_rec [] nodes in
          let complete = List.length targets = List.length nodes in
          let final =
            if complete then
              match List.rev targets with t :: _ -> Some t | [] -> None
            else None
          in
          (* Memberships. *)
          (match term.Registry.kind with
          | Registry.K_collapsed cid -> (
              match (final, targets) with
              | Some (_, final_oid, _), (_, x1, _) :: _ ->
                  Hashtbl.replace (membership_key exp cid final_oid) source_oid x1
              | _, _ -> ())
          | Registry.K_inplace | Registry.K_separate _ ->
              ignore
                (List.fold_left
                   (fun member (node, x_oid, _) ->
                     (match node.Registry.link_id with
                     | Some link_id ->
                         Hashtbl.replace
                           (membership_key exp link_id x_oid)
                           member Oid.nil
                     | None -> ());
                     x_oid)
                   source_oid targets));
          (* Hidden expectations. *)
          match term.Registry.kind with
          | Registry.K_inplace | Registry.K_collapsed _ ->
              let final_ty =
                Schema.find_type schema
                  (Listx.last_exn ~what:"Recompute: empty chain" nodes)
                    .Registry.to_type
              in
              List.iter
                (fun (fname, _) ->
                  let idx =
                    Schema.hidden_index schema set ~rep_id:rep.Schema.rep_id
                      ~field:(Some fname)
                  in
                  let v =
                    match final with
                    | Some (_, _, final_rec) ->
                        Record.field final_rec (Ty.field_index final_ty fname)
                    | None -> Value.VNull
                  in
                  let slot = hidden_slot exp source_oid in
                  slot := (rep.Schema.rep_id, idx, v) :: !slot)
                term.Registry.fields
          | Registry.K_separate _ ->
              Hashtbl.replace exp.sep_final
                (rep.Schema.rep_id, source_oid)
                (Option.map (fun (_, oid, _) -> oid) final)))
    (* Only [Active] declarations have fully-derived state to recompute
       against: a [Building] one is mid-backfill, a [Dropping] one
       mid-teardown.  Their structures are audited by the maintenance job
       that owns them, not here. *)
    (List.filter
       (fun (r : Schema.replication) ->
         Schema.rep_state schema r.Schema.rep_id = Schema.Active)
       (Schema.replications schema));
  exp
