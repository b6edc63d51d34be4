module Listx = Fieldrep_util.Listx
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ty = Fieldrep_model.Ty

type terminal_kind = K_inplace | K_separate of int | K_collapsed of int

type terminal = {
  rep : Schema.replication;
  fields : (string * Ty.scalar) list;
  field_indexes : int array;
  slots : int array;
  kind : terminal_kind;
}

type node = {
  node_id : int;
  parent : int option;
  source_set : string;
  step : string;
  step_index : int;
  prefix : string list;
  level : int;
  from_type : string;
  to_type : string;
  link_id : int option;
  terminals : terminal list;
  children : int list;
  passing : Schema.replication list;
  linked : Schema.replication list;
}

type link_kind = L_path of int | L_sref of int | L_collapsed of int

(* A live declaration's chain and its final node and terminal, looked up
   by every write that touches the declaration, and whether some level
   of the path leads back to the source's own type. *)
type decl = { chain : node list; ends : node * terminal; reaches_source : bool }

type t = {
  node_arr : node array;
  root_tbl : (string, int list) Hashtbl.t;
  by_link : (int, link_kind) Hashtbl.t;
  by_rep : decl option array;  (* by rep_id; [None] for a dropped one *)
}

(* Mutable builder mirror of [node]. *)
type bnode = {
  b_id : int;
  b_parent : int option;
  b_set : string;
  b_step : string;
  b_step_index : int;
  b_prefix : string list;
  b_level : int;
  b_from : string;
  b_to : string;
  mutable b_link : int option;
  mutable b_terminals : terminal list;
  mutable b_children : int list;
  mutable b_passing : Schema.replication list;
  mutable b_linked : Schema.replication list;
}

let max_link_id_space = 255

let compile schema =
  let bnodes : bnode array ref = ref [||] in
  let push b = bnodes := Array.append !bnodes [| b |] in
  let roots : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let by_link = Hashtbl.create 16 in
  let by_rep = Hashtbl.create 16 in  (* rep_id -> node chain *)
  let next_link = ref 1 in
  let alloc_link kind =
    if !next_link > max_link_id_space then
      invalid_arg "Registry: link-ID space exhausted (255 links)";
    let id = !next_link in
    incr next_link;
    Hashtbl.replace by_link id kind;
    id
  in
  let find_child parent_children step =
    List.find_opt (fun i -> (!bnodes).(i).b_step = step) parent_children
  in
  List.iter
    (fun (rep : Schema.replication) ->
      let path = rep.Schema.rpath in
      let resolved = Schema.resolve_path schema path in
      let n = Path.level path in
      let collapse = rep.Schema.options.Schema.collapse in
      if collapse && n <> 2 then
        invalid_arg
          (Printf.sprintf
             "Registry: collapsed inverted paths are supported for 2-level \
              paths only (%s has level %d)"
             (Path.to_string path) n);
      let types = Array.of_list resolved.Schema.type_chain in
      (* Walk/extend the trie. *)
      let chain = ref [] in
      let parent = ref None in
      List.iteri
        (fun i step ->
          let level = i + 1 in
          let siblings =
            match !parent with
            | None -> Option.value ~default:[] (Hashtbl.find_opt roots path.Path.source_set)
            | Some p -> (!bnodes).(p).b_children
          in
          let id =
            match find_child siblings step with
            | Some id -> id
            | None ->
                let id = Array.length !bnodes in
                let prefix =
                  match !parent with
                  | None -> [ step ]
                  | Some p -> (!bnodes).(p).b_prefix @ [ step ]
                in
                push
                  {
                    b_id = id;
                    b_parent = !parent;
                    b_set = path.Path.source_set;
                    b_step = step;
                    b_step_index =
                      Ty.field_index (Schema.find_type schema types.(i)) step;
                    b_prefix = prefix;
                    b_level = level;
                    b_from = types.(i);
                    b_to = types.(i + 1);
                    b_link = None;
                    b_terminals = [];
                    b_children = [];
                    b_passing = [];
                    b_linked = [];
                  };
                (match !parent with
                | None ->
                    Hashtbl.replace roots path.Path.source_set (siblings @ [ id ])
                | Some p -> (!bnodes).(p).b_children <- siblings @ [ id ]);
                id
          in
          let b = (!bnodes).(id) in
          b.b_passing <- b.b_passing @ [ rep ];
          (* Does this path need this level inverted? *)
          let needs_link =
            (not collapse)
            &&
            match rep.Schema.strategy with
            | Schema.Inplace -> true
            | Schema.Separate -> level <= n - 1
          in
          if needs_link then begin
            b.b_linked <- b.b_linked @ [ rep ];
            if b.b_link = None then b.b_link <- Some (alloc_link (L_path id))
          end;
          chain := id :: !chain;
          parent := Some id)
        path.Path.steps;
      let chain = List.rev !chain in
      Hashtbl.replace by_rep rep.Schema.rep_id chain;
      let final_id = Listx.last_exn ~what:"Registry.compile: empty chain" chain in
      let final = (!bnodes).(final_id) in
      let kind =
        if collapse then K_collapsed (alloc_link (L_collapsed final_id))
        else
          match rep.Schema.strategy with
          | Schema.Inplace -> K_inplace
          | Schema.Separate -> K_separate (alloc_link (L_sref final_id))
      in
      let fields = resolved.Schema.terminal_fields in
      let final_ty = Schema.find_type schema types.(n) in
      let slot field =
        Schema.hidden_index schema path.Path.source_set ~rep_id:rep.Schema.rep_id
          ~field
      in
      let term =
        {
          rep;
          fields;
          field_indexes =
            Array.of_list (List.map (fun (f, _) -> Ty.field_index final_ty f) fields);
          slots =
            (match rep.Schema.strategy with
            | Schema.Separate -> [| slot None |]
            | Schema.Inplace ->
                Array.of_list (List.map (fun (f, _) -> slot (Some f)) fields));
          kind;
        }
      in
      final.b_terminals <- final.b_terminals @ [ term ])
    (Schema.all_replications schema);
  (* Dropped declarations were replayed above purely for allocation
     stability (their successors must get the same node and link IDs on
     every compile).  Now erase them from the logical view: strip them from
     [passing], [linked] and [terminals], drop their terminal link IDs, and
     turn nodes whose link no live path needs into inert stubs
     ([link_id = None]), so the engine's membership maintenance no-ops on
     them. *)
  let dropped rep =
    Schema.rep_state schema rep.Schema.rep_id = Schema.Dropped
  in
  Array.iter
    (fun b ->
      List.iter
        (fun term ->
          if dropped term.rep then
            match term.kind with
            | K_inplace -> ()
            | K_separate id | K_collapsed id -> Hashtbl.remove by_link id)
        b.b_terminals;
      b.b_terminals <-
        List.filter (fun term -> not (dropped term.rep)) b.b_terminals;
      b.b_passing <- List.filter (fun rep -> not (dropped rep)) b.b_passing;
      b.b_linked <- List.filter (fun rep -> not (dropped rep)) b.b_linked;
      if b.b_linked = [] then begin
        (match b.b_link with Some id -> Hashtbl.remove by_link id | None -> ());
        b.b_link <- None
      end)
    !bnodes;
  let node_arr =
    Array.map
      (fun b ->
        {
          node_id = b.b_id;
          parent = b.b_parent;
          source_set = b.b_set;
          step = b.b_step;
          step_index = b.b_step_index;
          prefix = b.b_prefix;
          level = b.b_level;
          from_type = b.b_from;
          to_type = b.b_to;
          link_id = b.b_link;
          terminals = b.b_terminals;
          children = b.b_children;
          passing = b.b_passing;
          linked = b.b_linked;
        })
      !bnodes
  in
  let reps = Schema.all_replications schema in
  let by_rep_arr =
    Array.make (List.fold_left (fun m r -> max m (r.Schema.rep_id + 1)) 0 reps) None
  in
  List.iter
    (fun (rep : Schema.replication) ->
      if not (dropped rep) then begin
        let ids = Hashtbl.find_opt by_rep rep.Schema.rep_id |> Option.value ~default:[] in
        let chain = List.map (fun id -> node_arr.(id)) ids in
        let final = Listx.last_exn ~what:"Registry.compile: empty chain" chain in
        let term =
          List.find
            (fun term -> term.rep.Schema.rep_id = rep.Schema.rep_id)
            final.terminals
        in
        let reaches_source =
          match chain with
          | first :: _ -> List.exists (fun n -> n.to_type = first.from_type) chain
          | [] -> false
        in
        by_rep_arr.(rep.Schema.rep_id) <-
          Some { chain; ends = (final, term); reaches_source }
      end)
    reps;
  { node_arr; root_tbl = roots; by_link; by_rep = by_rep_arr }

let node t id = t.node_arr.(id)
let nodes t = Array.to_list t.node_arr

let roots t set =
  Option.value ~default:[] (Hashtbl.find_opt t.root_tbl set)
  |> List.map (fun id -> t.node_arr.(id))

let children t n = List.map (fun id -> t.node_arr.(id)) n.children
let parent t n = Option.map (fun id -> t.node_arr.(id)) n.parent
let link_kind t id = Hashtbl.find_opt t.by_link id

let decl t (rep : Schema.replication) =
  let id = rep.Schema.rep_id in
  if id < 0 || id >= Array.length t.by_rep then raise Not_found
  else match t.by_rep.(id) with Some d -> d | None -> raise Not_found

let chain t rep = (decl t rep).chain
let terminal_of t rep = (decl t rep).ends
let reaches_source t rep = (decl t rep).reaches_source
