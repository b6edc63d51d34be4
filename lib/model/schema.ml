module Listx = Fieldrep_util.Listx
type strategy = Inplace | Separate

type rep_options = {
  collapse : bool;
  small_link_threshold : int;
  lazy_propagation : bool;
  cluster_links : bool;
}

let default_options =
  { collapse = false; small_link_threshold = 1; lazy_propagation = false; cluster_links = false }

type replication = {
  rep_id : int;
  rpath : Path.t;
  strategy : strategy;
  options : rep_options;
}

type rep_state = Building | Active | Dropping | Dropped

type index_def = { iname : string; iset : string; ifield : string; clustered : bool }

type resolved_path = {
  type_chain : string list;
  terminal_fields : (string * Ty.scalar) list;
}

type hidden_slot =
  | Hidden_copy of { rep_id : int; source_field : string; scalar : Ty.scalar }
  | Hidden_sref of { rep_id : int }

(* What a write asks the catalog about one set, compiled on its first use
   at a generation: the set's live declarations and its record layout. *)
type set_catalog = {
  decls : replication list;  (* [replications_from], in [rep_id] order *)
  base : int;  (* user arity, the value index of the first hidden slot;
                  -1 for an unknown set *)
  slots : hidden_slot array;  (* in layout order, dead slots included *)
}

module Stbl = Hashtbl.Make (String)
module Itbl = Hashtbl.Make (Int)

type t = {
  type_table : (string, Ty.t) Hashtbl.t;
  tag_of_type : (string, int) Hashtbl.t;
  type_of_tag : (int, string) Hashtbl.t;
  set_table : (string, string) Hashtbl.t;  (* set -> elem type *)
  mutable set_order : string list;  (* reverse creation order *)
  mutable index_defs : index_def list;  (* reverse creation order *)
  mutable reps : replication list;  (* reverse creation order *)
  rep_states : rep_state Itbl.t;  (* rep_id -> life-cycle state *)
  mutable next_tag : int;
  mutable next_rep : int;
  mutable generation : int;  (* bumped by every catalog change *)
  catalogs : set_catalog Stbl.t;  (* compiled at [generation]; emptied by [bump] *)
}

let create () =
  {
    type_table = Hashtbl.create 16;
    tag_of_type = Hashtbl.create 16;
    type_of_tag = Hashtbl.create 16;
    set_table = Hashtbl.create 16;
    set_order = [];
    index_defs = [];
    reps = [];
    rep_states = Itbl.create 8;
    next_tag = 1;
    next_rep = 1;
    generation = 0;
    catalogs = Stbl.create 8;
  }

let generation t = t.generation

let bump t =
  t.generation <- t.generation + 1;
  Stbl.clear t.catalogs

(* ------------------------------------------------------------------ *)
(* Types                                                               *)

let define_type t (ty : Ty.t) =
  if Hashtbl.mem t.type_table ty.Ty.tname then
    invalid_arg (Printf.sprintf "Schema: type %s already defined" ty.Ty.tname);
  Hashtbl.replace t.type_table ty.Ty.tname ty;
  Hashtbl.replace t.tag_of_type ty.Ty.tname t.next_tag;
  Hashtbl.replace t.type_of_tag t.next_tag ty.Ty.tname;
  t.next_tag <- t.next_tag + 1;
  bump t

let find_type t name =
  match Hashtbl.find_opt t.type_table name with
  | Some ty -> ty
  | None -> raise Not_found

let type_tag t name =
  match Hashtbl.find_opt t.tag_of_type name with
  | Some tag -> tag
  | None -> raise Not_found

let type_of_tag t tag =
  match Hashtbl.find_opt t.type_of_tag tag with
  | Some name -> find_type t name
  | None -> raise Not_found

let types t =
  Hashtbl.fold (fun _ ty acc -> ty :: acc) t.type_table []
  |> List.sort (fun a b -> String.compare a.Ty.tname b.Ty.tname)

(* ------------------------------------------------------------------ *)
(* Sets                                                                *)

let create_set t ~name ~elem_type =
  if Hashtbl.mem t.set_table name then
    invalid_arg (Printf.sprintf "Schema: set %s already exists" name);
  let ty = find_type t elem_type in
  List.iter
    (fun (fname, target) ->
      if not (Hashtbl.mem t.type_table target) then
        invalid_arg
          (Printf.sprintf "Schema: field %s.%s references undefined type %s"
             elem_type fname target))
    (Ty.ref_fields ty);
  Hashtbl.replace t.set_table name elem_type;
  t.set_order <- name :: t.set_order;
  bump t

let set_type t name =
  match Hashtbl.find_opt t.set_table name with
  | Some elem -> find_type t elem
  | None -> raise Not_found

let sets t =
  List.rev_map
    (fun name ->
      match Hashtbl.find_opt t.set_table name with
      | Some elem -> (name, elem)
      | None -> invalid_arg ("Schema.sets: unregistered set " ^ name))
    t.set_order

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

let resolve_path t (path : Path.t) =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let start_type =
    match Hashtbl.find_opt t.set_table path.Path.source_set with
    | Some elem -> elem
    | None -> bad "path %s: unknown set %s" (Path.to_string path) path.Path.source_set
  in
  let rec walk ty_name steps acc =
    match steps with
    | [] -> List.rev (ty_name :: acc)
    | step :: rest -> (
        let ty = find_type t ty_name in
        match Ty.field_opt ty step with
        | Some { Ty.ftype = Ty.Ref target; _ } -> walk target rest (ty_name :: acc)
        | Some { Ty.ftype = Ty.Scalar _; _ } ->
            bad "path %s: %s.%s is a scalar, not a reference attribute"
              (Path.to_string path) ty_name step
        | None -> bad "path %s: type %s has no field %s" (Path.to_string path) ty_name step)
  in
  let type_chain = walk start_type path.Path.steps [] in
  let final_ty =
    find_type t (Listx.last_exn ~what:"Schema.resolve_path: empty type chain" type_chain)
  in
  let terminal_fields =
    match path.Path.terminal with
    | Path.All ->
        let fields = Ty.scalar_fields final_ty in
        if fields = [] then
          bad "path %s: final type %s has no scalar fields to replicate"
            (Path.to_string path) final_ty.Ty.tname;
        fields
    | Path.Field f -> (
        match Ty.field_opt final_ty f with
        | Some { Ty.ftype = Ty.Scalar s; _ } -> [ (f, s) ]
        | Some { Ty.ftype = Ty.Ref target; _ } ->
            (* Replicating a reference attribute collapses the path by one
               level (paper §3.3.3): the hidden copy holds the OID. *)
            ignore target;
            bad
              "path %s: terminal %s is a reference attribute; write the path \
               one level deeper or use .all"
              (Path.to_string path) f
        | None ->
            bad "path %s: final type %s has no field %s" (Path.to_string path)
              final_ty.Ty.tname f)
  in
  { type_chain; terminal_fields }

(* ------------------------------------------------------------------ *)
(* Replication                                                         *)

let rep_state t rep_id =
  match Itbl.find t.rep_states rep_id with
  | state -> state
  | exception Not_found -> Active

let set_rep_state t rep_id state =
  Itbl.replace t.rep_states rep_id state;
  bump t

(* Dropped declarations are invisible to every logical consumer (planning,
   propagation, recomputation, duplicate checks) but stay in [t.reps]:
   hidden-slot layout and link-ID allocation replay over {!all_replications},
   so dropping a path never shifts the physical layout of records declared
   after it. *)
let all_replications t = List.rev t.reps

let replications t =
  List.filter (fun r -> rep_state t r.rep_id <> Dropped) (all_replications t)

let find_replication t path =
  List.find_opt
    (fun r -> Path.equal r.rpath path && rep_state t r.rep_id <> Dropped)
    t.reps

let add_replication t ?(options = default_options) ?(state = Active) ~strategy
    path =
  (match find_replication t path with
  | Some _ ->
      invalid_arg (Printf.sprintf "Schema: %s already replicated" (Path.to_string path))
  | None -> ());
  if options.small_link_threshold < 0 then
    invalid_arg "Schema: small_link_threshold must be >= 0";
  ignore (resolve_path t path);
  if strategy = Separate && options.collapse then
    invalid_arg "Schema: collapse applies to in-place replication only";
  if options.cluster_links && options.collapse then
    invalid_arg "Schema: cluster_links is meaningless for collapsed paths";
  if options.cluster_links && Path.level path < 2 then
    invalid_arg "Schema: cluster_links applies to paths of two or more levels";
  if strategy = Separate && options.lazy_propagation then
    invalid_arg
      "Schema: lazy propagation applies to in-place replication only \
       (separate replication already writes a single shared object)";
  let rep = { rep_id = t.next_rep; rpath = path; strategy; options } in
  t.next_rep <- t.next_rep + 1;
  t.reps <- rep :: t.reps;
  Itbl.replace t.rep_states rep.rep_id state;
  bump t;
  rep

(* ------------------------------------------------------------------ *)
(* Hidden layout                                                       *)

(* Layout iterates {e all} declarations, Dropped included: a dropped path
   leaves a permanently dead (null) slot behind so the value-array indexes
   of every later declaration never move. *)
let compile_slots t set_name =
  List.concat_map
    (fun r ->
      match r.strategy with
      | Separate -> [ Hidden_sref { rep_id = r.rep_id } ]
      | Inplace ->
          let resolved = resolve_path t r.rpath in
          List.map
            (fun (source_field, scalar) ->
              Hidden_copy { rep_id = r.rep_id; source_field; scalar })
            resolved.terminal_fields)
    (List.filter
       (fun r -> r.rpath.Path.source_set = set_name)
       (all_replications t))

let compile_catalog t set_name =
  {
    decls =
      List.filter (fun r -> r.rpath.Path.source_set = set_name) (replications t);
    base =
      (match Hashtbl.find_opt t.set_table set_name with
      | Some elem -> Ty.arity (find_type t elem)
      | None -> -1);
    slots = Array.of_list (compile_slots t set_name);
  }

let catalog t set_name =
  match Stbl.find t.catalogs set_name with
  | c -> c
  | exception Not_found ->
      let c = compile_catalog t set_name in
      Stbl.replace t.catalogs set_name c;
      c

let replications_from t set_name = (catalog t set_name).decls

let user_arity t set_name =
  match (catalog t set_name).base with -1 -> raise Not_found | base -> base

let record_width t set_name =
  user_arity t set_name + Array.length (catalog t set_name).slots

let rec slot_index slots rep_id field i =
  if i >= Array.length slots then raise Not_found
  else
    match (slots.(i), field) with
    | Hidden_copy { rep_id = id; source_field; _ }, Some f
      when id = rep_id && String.equal f source_field ->
        i
    | Hidden_sref { rep_id = id }, None when id = rep_id -> i
    | (Hidden_copy _ | Hidden_sref _), _ -> slot_index slots rep_id field (i + 1)

let hidden_index t set_name ~rep_id ~field =
  let c = catalog t set_name in
  c.base + slot_index c.slots rep_id field 0

(* ------------------------------------------------------------------ *)
(* Indexes                                                             *)

let indexes t = List.rev t.index_defs
let indexes_on t set_name = List.filter (fun d -> d.iset = set_name) (indexes t)

let add_index t def =
  if List.exists (fun d -> d.iname = def.iname) t.index_defs then
    invalid_arg (Printf.sprintf "Schema: index %s already exists" def.iname);
  let ty = set_type t def.iset in
  let is_user_scalar =
    match Ty.field_opt ty def.ifield with
    | Some { Ty.ftype = Ty.Scalar _; _ } -> true
    | Some { Ty.ftype = Ty.Ref _; _ } ->
        invalid_arg
          (Printf.sprintf "Schema: cannot index reference attribute %s.%s" def.iset
             def.ifield)
    | None -> false
  in
  let is_replicated_path =
    (not is_user_scalar)
    &&
    (* An index on a path string like "Empl.dept.org.name" is legal when the
       path is replicated in-place into this set (paper §3.3.4). *)
    match
      (try Some (Path.parse def.ifield) with Invalid_argument _ -> None)
    with
    | Some p -> (
        p.Path.source_set = def.iset
        &&
        match find_replication t p with
        | Some r ->
            if rep_state t r.rep_id <> Active then
              invalid_arg
                (Printf.sprintf
                   "Schema: cannot index path %s while its replication is \
                    being reconfigured"
                   def.ifield);
            if r.options.lazy_propagation then
              invalid_arg
                (Printf.sprintf
                   "Schema: cannot index lazily-propagated path %s (stale keys \
                    would make index lookups incorrect)"
                   def.ifield);
            r.strategy = Inplace
        | None -> false)
    | None -> false
  in
  if not (is_user_scalar || is_replicated_path) then
    invalid_arg
      (Printf.sprintf
         "Schema: %s.%s is neither a scalar field nor an in-place replicated path"
         def.iset def.ifield);
  if def.clustered && List.exists (fun d -> d.iset = def.iset && d.clustered) t.index_defs
  then invalid_arg (Printf.sprintf "Schema: set %s already has a clustered index" def.iset);
  t.index_defs <- def :: t.index_defs;
  bump t
