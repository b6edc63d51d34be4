module Db = Fieldrep.Db
module Wire = Fieldrep_util.Wire
module Heap_file = Fieldrep_storage.Heap_file
module Pager = Fieldrep_storage.Pager
module Oid = Fieldrep_storage.Oid
module Key = Fieldrep_btree.Key
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Schema = Fieldrep_model.Schema

type access = Index_scan of string | File_scan

type retrieve_plan = {
  access : access;
  join_counts : (string * int) list;
}

(* Every field or path a query reads is compiled once, before its scan,
   and evaluated per row.  No maintenance step or reconfiguration runs
   inside one call, so the plans cannot go stale while it runs. *)
let compile db ~set exprs = List.map (Db.expr db ~set) exprs
let eval_all db ~oid record exprs = List.map (fun e -> Db.eval ~oid db e record) exprs

(* An index is usable when the predicate's bounds translate to keys; an
   open bound needs a key-space extreme, which only integers have. *)
let key_bounds (p : Ast.predicate) =
  let lo =
    match p.Ast.lo with
    | Some v -> Db.key_of_value v
    | None -> Some (Key.Int min_int)
  in
  let hi =
    match p.Ast.hi with
    | Some v -> Db.key_of_value v
    | None -> Some (Key.Int max_int)
  in
  match (lo, hi) with
  | Some (Key.Int _ as a), Some (Key.Int _ as b) -> Some (a, b)
  | Some (Key.String _ as a), Some (Key.String _ as b) -> Some (a, b)
  | Some _, Some _ | None, _ | _, None -> None

(* Predicates may target a plain field or a dotted path expression; a path
   predicate can use an index built on the replicated path, which is named
   from the set (paper §3.3.4: "queries that require an associative lookup
   on the path"). *)
let choose_access db ~set (where : Ast.predicate option) =
  match where with
  | None -> File_scan
  | Some p -> (
      let index =
        match Db.find_index db ~set ~field:p.Ast.pfield with
        | Some def -> Some def
        | None -> Db.find_index db ~set ~field:(set ^ "." ^ p.Ast.pfield)
      in
      match (index, key_bounds p) with
      | Some def, Some _ -> Index_scan def.Schema.iname
      | Some _, None | None, _ -> File_scan)

let value_in_range (p : Ast.predicate) v =
  let ge = match p.Ast.lo with None -> true | Some lo -> Value.compare v lo >= 0 in
  let le = match p.Ast.hi with None -> true | Some hi -> Value.compare v hi <= 0 in
  (match v with Value.VNull -> false | Value.VInt _ | Value.VString _ | Value.VRef _ -> true)
  && ge && le

let explain_retrieve db (q : Ast.retrieve) =
  let set = q.Ast.from_set in
  {
    access = choose_access db ~set q.Ast.where;
    join_counts =
      List.map (fun s -> (s, Db.joins (Db.expr db ~set s))) q.Ast.projections;
  }

(* The OIDs an index plan selects, in key order. *)
let index_oids db ~index (where : Ast.predicate option) =
  (* choose_access only picks an index scan off a bounded predicate. *)
  let lo, hi =
    match Option.map key_bounds where with
    | Some (Some bounds) -> bounds
    | Some None | None -> invalid_arg "Exec: index plan without key bounds"
  in
  (* Collect first: callbacks may mutate the tree's pages' residency. *)
  List.rev (Db.index_range db ~index ~lo ~hi ~init:[] ~f:(fun acc _ oid -> oid :: acc))

(* Feed every selected (oid, record) to [f].  Index scans visit in key
   order; file scans in physical order. *)
let iter_selected db ~set (where : Ast.predicate option) f =
  match choose_access db ~set where with
  | Index_scan index ->
      List.iter (fun oid -> f oid (Db.get db ~set oid)) (index_oids db ~index where)
  | File_scan -> (
      match where with
      | None -> Db.scan db ~set f
      | Some p ->
          let e = Db.expr db ~set p.Ast.pfield in
          Db.scan db ~set (fun oid record ->
              if value_in_range p (Db.eval ~oid db e record) then f oid record))

(* An index plan reads no target to find it. *)
let matching_oids db ~set where =
  match choose_access db ~set where with
  | Index_scan index -> index_oids db ~index where
  | File_scan ->
      let acc = ref [] in
      iter_selected db ~set where (fun oid _ -> acc := oid :: !acc);
      List.rev !acc

type retrieve_result = { rows : int; output_file : int; output_pages : int }

(* A retrieve's rows not yet stored, encoded end to end as {!Heap_file.insert_run}
   takes them; one per domain, so a warm retrieve allocates neither. *)
type staging = { bytes : Bytes.t ref; mutable bounds : int array; mutable staged : int }

let staging = Domain.DLS.new_key (fun () -> { bytes = ref Bytes.empty; bounds = [| 0 |]; staged = 0 })

(* Store the staged rows, or with [~all:false] those that fill whole
   pages, and move the rest to the front. *)
let place out run ~all =
  let placed = Heap_file.insert_run out ~all !(run.bytes) run.bounds run.staged in
  let from = run.bounds.(placed) in
  run.staged <- run.staged - placed;
  for i = 1 to run.staged do
    run.bounds.(i) <- run.bounds.(placed + i) - from
  done;
  Bytes.blit !(run.bytes) from !(run.bytes) 0 run.bounds.(run.staged)

let retrieve db (q : Ast.retrieve) =
  let set = q.Ast.from_set in
  let projections = Array.of_list (compile db ~set q.Ast.projections) in
  let out = Heap_file.create_output (Db.pager db) in
  (* One tuple serves every row: its values are evaluated into the tuple
     and encoded once, after the rows staged before it.  The output file
     takes them a page's worth at a time, each page under one pin. *)
  let tuple = Record.make ~type_tag:0 (Array.make (Array.length projections) Value.VNull) in
  let run = Domain.DLS.get staging in
  run.staged <- 0;
  iter_selected db ~set q.Ast.where (fun oid record ->
      for i = 0 to Array.length projections - 1 do
        tuple.Record.values.(i) <- Db.eval ~oid db projections.(i) record
      done;
      let pos = run.bounds.(run.staged) in
      Wire.grow ~keep:true run.bytes (pos + Record.encoded_size tuple);
      if run.staged + 1 = Array.length run.bounds then run.bounds <- Array.append run.bounds run.bounds;
      run.staged <- run.staged + 1;
      run.bounds.(run.staged) <- Record.encode_to !(run.bytes) pos tuple;
      if run.bounds.(run.staged) >= Pager.page_size (Db.pager db) then place out run ~all:false);
  place out run ~all:true;
  let rows = Heap_file.object_count out in
  { rows; output_file = Heap_file.file_id out; output_pages = Heap_file.page_count out }

let drop_output db file = Pager.delete_file (Db.pager db) file

let retrieve_values db q =
  let result = retrieve db q in
  let out = Heap_file.attach (Db.pager db) ~file:result.output_file in
  let rows = ref [] in
  Heap_file.iter out Record.decode_at (fun _ record ->
      rows := Array.to_list record.Record.values :: !rows);
  drop_output db result.output_file;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Aggregates and ordering                                             *)

type aggregate = Count | Sum | Avg | Min | Max

(* The one accumulator behind [aggregate] and every [group_by] group: a
   compiled spec per aggregate, a state per spec, one fold step per row and
   one finaliser. *)
type agg_state = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : Value.t;
  mutable vmax : Value.t;
}

let compile_specs db ~set specs =
  List.map (fun (agg, source) -> (agg, source, Db.expr db ~set source)) specs

let new_states specs =
  List.map (fun _ -> { count = 0; sum = 0; vmin = Value.VNull; vmax = Value.VNull }) specs

let fold_row db ~oid record specs states =
  List.iter2
    (fun (agg, source, e) st ->
      match Db.eval ~oid db e record with
      | Value.VNull -> ()
      | v ->
          st.count <- st.count + 1;
          (match (agg, v) with
          | (Sum | Avg), Value.VInt i -> st.sum <- st.sum + i
          | (Sum | Avg), _ ->
              invalid_arg (Printf.sprintf "Exec: sum/avg over non-integer %s" source)
          | (Count | Min | Max), _ -> ());
          if st.vmin = Value.VNull || Value.compare v st.vmin < 0 then st.vmin <- v;
          if st.vmax = Value.VNull || Value.compare v st.vmax > 0 then st.vmax <- v)
    specs states

let finish specs states =
  List.map2
    (fun (agg, _, _) st ->
      match agg with
      | Count -> Value.VInt st.count
      | Sum -> if st.count = 0 then Value.VNull else Value.VInt st.sum
      | Avg -> if st.count = 0 then Value.VNull else Value.VInt (st.sum / st.count)
      | Min -> st.vmin
      | Max -> st.vmax)
    specs states

let aggregate db ~set ~where specs =
  let specs = compile_specs db ~set specs in
  let states = new_states specs in
  iter_selected db ~set where (fun oid record -> fold_row db ~oid record specs states);
  finish specs states

let group_by db ~set ~where ~key specs =
  let module VM = Map.Make (struct
    type t = Value.t

    let compare = Value.compare
  end) in
  let key = Db.expr db ~set key in
  let specs = compile_specs db ~set specs in
  let groups = ref VM.empty in
  iter_selected db ~set where (fun oid record ->
      let k = Db.eval ~oid db key record in
      let states =
        match VM.find_opt k !groups with
        | Some states -> states
        | None ->
            let states = new_states specs in
            groups := VM.add k states !groups;
            states
      in
      fold_row db ~oid record specs states);
  List.map (fun (k, states) -> (k, finish specs states)) (VM.bindings !groups)

let delete_where db ~set where =
  let targets = matching_oids db ~set where in
  List.iter (fun oid -> Db.delete db ~set oid) targets;
  List.length targets

let retrieve_sorted db (q : Ast.retrieve) ~order_by ?(descending = false) ?limit () =
  let set = q.Ast.from_set in
  let order_by = Db.expr db ~set order_by in
  let projections = compile db ~set q.Ast.projections in
  let rows = ref [] in
  iter_selected db ~set q.Ast.where (fun oid record ->
      let key = Db.eval ~oid db order_by record in
      rows := (key, eval_all db ~oid record projections) :: !rows);
  let compare_rows (a, _) (b, _) =
    let c = Value.compare a b in
    if descending then -c else c
  in
  let sorted = List.stable_sort compare_rows (List.rev !rows) in
  let truncated =
    match limit with
    | Some n -> List.filteri (fun i _ -> i < n) sorted
    | None -> sorted
  in
  List.map snd truncated

let replace db (q : Ast.replace) =
  let set = q.Ast.target_set in
  (* Materialise the target list before mutating.  Index-driven selection
     returns targets in key order — physically random when the set is
     unclustered — so under batching the updates are applied in ascending
     OID order instead: each data page (and each propagation fan-out) is
     visited once, sequentially, rather than re-fetched per key. *)
  let targets = matching_oids db ~set q.Ast.rwhere in
  let targets =
    if Db.batching db then List.sort Oid.compare targets else targets
  in
  List.iter
    (fun oid ->
      List.iter
        (fun (field, rhs) ->
          let value =
            match rhs with Ast.Const v -> v | Ast.Computed f -> f oid
          in
          Db.update_field db ~set oid ~field value)
        q.Ast.assignments)
    targets;
  List.length targets
