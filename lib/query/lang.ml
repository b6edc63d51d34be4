module Db = Fieldrep.Db
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type outcome =
  | Type_defined of string
  | Set_created of string
  | Replicated of string
  | Index_built of string
  | Rows of Value.t list list
  | Updated of int
  | Inserted of Fieldrep_storage.Oid.t
  | Deleted of int

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

type token =
  | Ident of string  (* may contain '.' and "[]" *)
  | Int_lit of int
  | Str_lit of string
  | Punct of string  (* ( ) , : { } = < > <= >= *)

let lex input =
  let n = String.length input in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let i = ref 0 in
  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '[' || c = ']'
  in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '"' then begin
      let start = !i + 1 in
      let stop = ref start in
      while !stop < n && input.[!stop] <> '"' do
        incr stop
      done;
      if !stop >= n then fail "unterminated string literal";
      push (Str_lit (String.sub input start (!stop - start)));
      i := !stop + 1
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && input.[!i + 1] >= '0' && input.[!i + 1] <= '9')
    then begin
      let start = !i in
      incr i;
      while !i < n && input.[!i] >= '0' && input.[!i] <= '9' do
        incr i
      done;
      push (Int_lit (int_of_string (String.sub input start (!i - start))))
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      push (Ident (String.sub input start (!i - start)))
    end
    else if c = '<' || c = '>' then begin
      if !i + 1 < n && input.[!i + 1] = '=' then begin
        push (Punct (String.init 2 (fun j -> input.[!i + j])));
        i := !i + 2
      end
      else begin
        push (Punct (String.make 1 c));
        incr i
      end
    end
    else if c = '(' || c = ')' || c = ',' || c = ':' || c = '{' || c = '}' || c = '=' then begin
      push (Punct (String.make 1 c));
      incr i
    end
    else fail "unexpected character %C" c
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser helpers                                                      *)

type cursor = { mutable toks : token list }

let peek c = match c.toks with [] -> None | t :: _ -> Some t

let advance c =
  match c.toks with
  | [] -> fail "unexpected end of statement"
  | t :: rest ->
      c.toks <- rest;
      t

let expect_punct c s =
  match advance c with
  | Punct p when p = s -> ()
  | _ -> fail "expected %S" s

let expect_ident c =
  match advance c with Ident s -> s | _ -> fail "expected identifier"

let expect_keyword c kw =
  match advance c with
  | Ident s when String.lowercase_ascii s = kw -> ()
  | _ -> fail "expected keyword %S" kw

let accept_keyword c kw =
  match peek c with
  | Some (Ident s) when String.lowercase_ascii s = kw ->
      ignore (advance c);
      true
  | Some _ | None -> false

let literal c =
  match advance c with
  | Int_lit v -> Value.VInt v
  | Str_lit s -> Value.VString s
  | Ident s when String.lowercase_ascii s = "null" -> Value.VNull
  | _ -> fail "expected a literal"

(* Split "Set.rest.of.path" into the set and the in-set expression. *)
let split_qualified name =
  match String.index_opt name '.' with
  | Some i -> (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> fail "expected Set.field, got %S" name

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let parse_field_type c =
  let t = expect_ident c in
  match String.lowercase_ascii t with
  | "int" -> Ty.Scalar Ty.SInt
  | "char[]" -> Ty.Scalar Ty.SString
  | "ref" -> Ty.Ref (expect_ident c)
  | _ -> fail "unknown field type %S" t

let exec_define db c =
  expect_keyword c "type";
  let name = expect_ident c in
  expect_punct c "(";
  let fields = ref [] in
  let rec loop () =
    let fname = expect_ident c in
    expect_punct c ":";
    let ftype = parse_field_type c in
    fields := { Ty.fname; ftype } :: !fields;
    match peek c with
    | Some (Punct ",") ->
        ignore (advance c);
        loop ()
    | Some (Punct ")") -> ignore (advance c)
    | Some _ | None -> fail "expected ',' or ')' in type definition"
  in
  loop ();
  Db.define_type db (Ty.make ~name (List.rev !fields));
  Type_defined name

let exec_create db c =
  let name = expect_ident c in
  expect_punct c ":";
  expect_punct c "{";
  ignore (accept_keyword c "own");
  expect_keyword c "ref";
  let elem = expect_ident c in
  expect_punct c "}";
  Db.create_set db ~name ~elem_type:elem ();
  Set_created name

let exec_replicate db c =
  let path_str = expect_ident c in
  let path = Path.parse path_str in
  let strategy = ref Schema.Inplace in
  let options = ref Schema.default_options in
  let rec modifiers () =
    if accept_keyword c "using" then begin
      (match String.lowercase_ascii (expect_ident c) with
      | "separate" -> strategy := Schema.Separate
      | "inplace" | "in-place" -> strategy := Schema.Inplace
      | s -> fail "unknown strategy %S" s);
      modifiers ()
    end
    else if accept_keyword c "collapsed" then begin
      options := { !options with Schema.collapse = true };
      modifiers ()
    end
    else if accept_keyword c "clustered" then begin
      options := { !options with Schema.cluster_links = true };
      modifiers ()
    end
    else if accept_keyword c "lazy" then begin
      options := { !options with Schema.lazy_propagation = true };
      modifiers ()
    end
    else if accept_keyword c "threshold" then begin
      (match advance c with
      | Int_lit v -> options := { !options with Schema.small_link_threshold = v }
      | _ -> fail "threshold expects an integer");
      modifiers ()
    end
  in
  modifiers ();
  Db.replicate db ~options:!options ~strategy:!strategy path;
  Replicated path_str

let exec_build db c =
  let clustered = accept_keyword c "clustered" in
  expect_keyword c "btree";
  expect_keyword c "on";
  let target = expect_ident c in
  let set, rest = split_qualified target in
  (* A one-component rest is a plain field; more components form a
     replicated-path index named by the full path. *)
  let field = if String.contains rest '.' then target else rest in
  let name = Printf.sprintf "btree_%s" (String.map (fun ch -> if ch = '.' then '_' else ch) target) in
  Db.build_index db ~name ~set ~field ~clustered;
  Index_built name

let parse_predicate c =
  let lhs = expect_ident c in
  let set, field = split_qualified lhs in
  let p =
    if accept_keyword c "between" then begin
      let lo = literal c in
      expect_keyword c "and";
      let hi = literal c in
      { Ast.pfield = field; lo = Some lo; hi = Some hi }
    end
    else
      match advance c with
      | Punct "=" -> Ast.eq field (literal c)
      | Punct "<=" -> { Ast.pfield = field; lo = None; hi = Some (literal c) }
      | Punct ">=" -> { Ast.pfield = field; lo = Some (literal c); hi = None }
      | Punct "<" -> (
          match literal c with
          | Value.VInt v -> { Ast.pfield = field; lo = None; hi = Some (Value.VInt (v - 1)) }
          | _ -> fail "strict comparison needs an integer literal")
      | Punct ">" -> (
          match literal c with
          | Value.VInt v -> { Ast.pfield = field; lo = Some (Value.VInt (v + 1)); hi = None }
          | _ -> fail "strict comparison needs an integer literal")
      | _ -> fail "expected a comparison operator"
  in
  (set, p)

type proj_item = P_col of string | P_agg of Exec.aggregate * string

let aggregate_of_name name =
  match String.lowercase_ascii name with
  | "count" -> Some Exec.Count
  | "sum" -> Some Exec.Sum
  | "avg" -> Some Exec.Avg
  | "min" -> Some Exec.Min
  | "max" -> Some Exec.Max
  | _ -> None

let exec_retrieve db c =
  expect_punct c "(";
  let items = ref [] in
  let rec loop () =
    let name = expect_ident c in
    let item =
      match aggregate_of_name name with
      | Some agg when peek c = Some (Punct "(") ->
          ignore (advance c);
          let arg = expect_ident c in
          expect_punct c ")";
          P_agg (agg, arg)
      | Some _ | None -> P_col name
    in
    items := item :: !items;
    match advance c with
    | Punct "," -> loop ()
    | Punct ")" -> ()
    | _ -> fail "expected ',' or ')' in projection list"
  in
  loop ();
  let items = List.rev !items in
  let qualified_of = function P_col q | P_agg (_, q) -> q in
  let sets = List.map (fun it -> fst (split_qualified (qualified_of it))) items in
  let from_set =
    match sets with
    | [] -> fail "empty projection list"
    | s :: rest ->
        if List.for_all (String.equal s) rest then s
        else fail "all projections must come from one set"
  in
  let where =
    if accept_keyword c "where" then begin
      let set, p = parse_predicate c in
      if set <> from_set then fail "predicate set %S does not match %S" set from_set;
      Some p
    end
    else None
  in
  let group_key =
    if accept_keyword c "group" then begin
      expect_keyword c "by";
      let q = expect_ident c in
      let set, expr = split_qualified q in
      if set <> from_set then fail "group-by set %S does not match %S" set from_set;
      Some expr
    end
    else None
  in
  let order_by =
    if accept_keyword c "order" then begin
      expect_keyword c "by";
      let q = expect_ident c in
      let set, expr = split_qualified q in
      if set <> from_set then fail "order-by set %S does not match %S" set from_set;
      let descending = accept_keyword c "desc" in
      if not descending then ignore (accept_keyword c "asc");
      Some (expr, descending)
    end
    else None
  in
  let limit =
    if accept_keyword c "limit" then
      match advance c with
      | Int_lit n when n >= 0 -> Some n
      | _ -> fail "limit expects a non-negative integer"
    else None
  in
  let aggs = List.filter_map (function P_agg (a, q) -> Some (a, q) | P_col _ -> None) items in
  let cols = List.filter_map (function P_col q -> Some q | P_agg _ -> None) items in
  match group_key with
  | Some key ->
      if aggs = [] then fail "group by needs at least one aggregate projection";
      List.iter
        (fun q ->
          if snd (split_qualified q) <> key then
            fail "plain projection %S must equal the group-by key" q)
        cols;
      if order_by <> None || limit <> None then
        fail "order by / limit do not apply to grouped queries";
      let specs = List.map (fun (a, q) -> (a, snd (split_qualified q))) aggs in
      Rows
        (List.map
           (fun (k, vs) -> k :: vs)
           (Exec.group_by db ~set:from_set ~where ~key specs))
  | None ->
  if aggs <> [] && cols <> [] then
    fail "cannot mix aggregate and plain projections (no group-by support)";
  if aggs <> [] then begin
    if order_by <> None || limit <> None then
      fail "order by / limit do not apply to aggregate queries";
    let specs = List.map (fun (a, q) -> (a, snd (split_qualified q))) aggs in
    Rows [ Exec.aggregate db ~set:from_set ~where specs ]
  end
  else begin
    let projections = List.map (fun q -> snd (split_qualified q)) cols in
    let q = { Ast.from_set; projections; where } in
    match order_by with
    | Some (expr, descending) ->
        Rows (Exec.retrieve_sorted db q ~order_by:expr ~descending ?limit ())
    | None -> (
        match limit with
        | Some n ->
            Rows
              (Exec.retrieve_values db q |> List.filteri (fun i _ -> i < n))
        | None -> Rows (Exec.retrieve_values db q))
  end

let exec_replace db c =
  expect_punct c "(";
  let assignments = ref [] in
  let target = ref None in
  let rec loop () =
    let lhs = expect_ident c in
    let set, field = split_qualified lhs in
    (match !target with
    | None -> target := Some set
    | Some s when s = set -> ()
    | Some s -> fail "assignments mix sets %S and %S" s set);
    expect_punct c "=";
    let v = literal c in
    assignments := (field, Ast.Const v) :: !assignments;
    match advance c with
    | Punct "," -> loop ()
    | Punct ")" -> ()
    | _ -> fail "expected ',' or ')' in assignment list"
  in
  loop ();
  let target_set = match !target with Some s -> s | None -> fail "no assignments" in
  let rwhere =
    if accept_keyword c "where" then begin
      let set, p = parse_predicate c in
      if set <> target_set then fail "predicate set %S does not match %S" set target_set;
      Some p
    end
    else None
  in
  Updated
    (Exec.replace db
       { Ast.target_set; assignments = List.rev !assignments; rwhere })

(* A literal, [null], or [ref(Set.field = literal)] resolved to the unique
   matching object. *)
let insert_value db c =
  match peek c with
  | Some (Ident name) when String.lowercase_ascii name = "ref" ->
      ignore (advance c);
      expect_punct c "(";
      let set, p = parse_predicate c in
      expect_punct c ")";
      (match Exec.matching_oids db ~set (Some p) with
      | [ oid ] -> Value.VRef oid
      | [] -> fail "ref(...): no %s object matches" set
      | l -> fail "ref(...): %d %s objects match (need exactly one)" (List.length l) set)
  | Some _ | None -> literal c

let exec_insert db c =
  expect_keyword c "into";
  let set = expect_ident c in
  expect_keyword c "values";
  expect_punct c "(";
  let values = ref [] in
  let rec loop () =
    values := insert_value db c :: !values;
    match advance c with
    | Punct "," -> loop ()
    | Punct ")" -> ()
    | _ -> fail "expected ',' or ')' in value list"
  in
  loop ();
  Inserted (Fieldrep.Db.insert db ~set (List.rev !values))

let exec_delete db c =
  expect_keyword c "from";
  let set = expect_ident c in
  let where =
    if accept_keyword c "where" then begin
      let pset, p = parse_predicate c in
      if pset <> set then fail "predicate set %S does not match %S" pset set;
      Some p
    end
    else None
  in
  Deleted (Exec.delete_where db ~set where)

let exec db input =
  let c = { toks = lex input } in
  let outcome =
    match advance c with
    | Ident kw -> (
        match String.lowercase_ascii kw with
        | "define" -> exec_define db c
        | "create" -> exec_create db c
        | "replicate" -> exec_replicate db c
        | "build" -> exec_build db c
        | "retrieve" -> exec_retrieve db c
        | "replace" -> exec_replace db c
        | "insert" -> exec_insert db c
        | "delete" -> exec_delete db c
        | _ -> fail "unknown statement %S" kw)
    | _ -> fail "expected a statement keyword"
  in
  (match c.toks with
  | [] -> ()
  | _ -> fail "trailing tokens after statement");
  outcome

let exec_script db input =
  (* Statements are separated by semicolons and/or blank lines; "--"
     comments run to end of line. *)
  let without_comments =
    String.split_on_char '\n' input
    |> List.map (fun line ->
           match Str_helpers.find_substring line "--" with
           | Some i -> String.sub line 0 i
           | None -> line)
    |> String.concat "\n"
  in
  String.split_on_char ';' without_comments
  |> List.concat_map (fun chunk ->
         (* Also treat blank lines as separators within a chunk. *)
         let statements = ref [] in
         let current = Buffer.create 64 in
         let flush_current () =
           let s = String.trim (Buffer.contents current) in
           if s <> "" then statements := s :: !statements;
           Buffer.clear current
         in
         List.iter
           (fun line ->
             if String.trim line = "" then flush_current ()
             else begin
               Buffer.add_string current line;
               Buffer.add_char current '\n'
             end)
           (String.split_on_char '\n' chunk);
         flush_current ();
         List.rev !statements)
  |> List.map (exec db)

let pp_outcome fmt = function
  | Type_defined name -> Format.fprintf fmt "defined type %s" name
  | Set_created name -> Format.fprintf fmt "created set %s" name
  | Replicated path -> Format.fprintf fmt "replicated %s" path
  | Index_built name -> Format.fprintf fmt "built index %s" name
  | Updated n -> Format.fprintf fmt "updated %d object(s)" n
  | Inserted oid -> Format.fprintf fmt "inserted %s" (Fieldrep_storage.Oid.to_string oid)
  | Deleted n -> Format.fprintf fmt "deleted %d object(s)" n
  | Rows rows ->
      Format.fprintf fmt "%d row(s)" (List.length rows);
      List.iter
        (fun row ->
          Format.fprintf fmt "@\n  (%s)"
            (String.concat ", " (List.map Value.to_string row)))
        rows
