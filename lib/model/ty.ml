type scalar = SInt | SString
type ftype = Scalar of scalar | Ref of string
type field = { fname : string; ftype : ftype }
type t = { tname : string; fields : field list }

let make ~name fields =
  if name = "" then invalid_arg "Ty.make: empty type name";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun f ->
      if f.fname = "" then invalid_arg "Ty.make: empty field name";
      if Hashtbl.mem seen f.fname then
        invalid_arg (Printf.sprintf "Ty.make: duplicate field %S in %s" f.fname name);
      Hashtbl.add seen f.fname ())
    fields;
  { tname = name; fields }

(* Top-level walks that take the name: a lookup builds no closure. *)
let rec find_field name = function
  | [] -> raise Not_found
  | f :: rest -> if String.equal f.fname name then f else find_field name rest

let rec index_from name i = function
  | [] -> raise Not_found
  | f :: rest -> if String.equal f.fname name then i else index_from name (i + 1) rest

let field t name = find_field name t.fields
let field_opt t name = match field t name with f -> Some f | exception Not_found -> None
let field_index t name = index_from name 0 t.fields

let arity t = List.length t.fields

let scalar_fields t =
  List.filter_map
    (fun f -> match f.ftype with Scalar s -> Some (f.fname, s) | Ref _ -> None)
    t.fields

let ref_fields t =
  List.filter_map
    (fun f -> match f.ftype with Ref target -> Some (f.fname, target) | Scalar _ -> None)
    t.fields

let is_ref f = match f.ftype with Ref _ -> true | Scalar _ -> false

let pp_scalar fmt = function
  | SInt -> Format.pp_print_string fmt "int"
  | SString -> Format.pp_print_string fmt "char[]"

let pp_ftype fmt = function
  | Scalar s -> pp_scalar fmt s
  | Ref target -> Format.fprintf fmt "ref %s" target

