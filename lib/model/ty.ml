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

let field_opt t name = List.find_opt (fun f -> f.fname = name) t.fields

let field t name =
  match field_opt t name with Some f -> f | None -> raise Not_found

let field_index t name =
  let rec go i = function
    | [] -> raise Not_found
    | f :: rest -> if f.fname = name then i else go (i + 1) rest
  in
  go 0 t.fields

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

