module Wire = Fieldrep_util.Wire
module Oid = Fieldrep_storage.Oid

type t = VInt of int | VString of string | VRef of Oid.t | VNull

let equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VString x, VString y -> String.equal x y
  | VRef x, VRef y -> Oid.equal x y
  | VNull, VNull -> true
  | (VInt _ | VString _ | VRef _ | VNull), _ -> false

let rank = function VNull -> 0 | VInt _ -> 1 | VString _ -> 2 | VRef _ -> 3

let compare a b =
  match (a, b) with
  | VInt x, VInt y -> Int.compare x y
  | VString x, VString y -> String.compare x y
  | VRef x, VRef y -> Oid.compare x y
  | VNull, VNull -> 0
  | _ -> Int.compare (rank a) (rank b)

let pp fmt = function
  | VInt v -> Format.fprintf fmt "%d" v
  | VString s -> Format.fprintf fmt "%S" s
  | VRef oid -> Format.fprintf fmt "@%a" Oid.pp oid
  | VNull -> Format.pp_print_string fmt "null"

let to_string t = Format.asprintf "%a" pp t

let matches ftype v =
  match (ftype, v) with
  | Ty.Scalar Ty.SInt, VInt _ -> true
  | Ty.Scalar Ty.SString, VString _ -> true
  | Ty.Ref _, (VRef _ | VNull) -> true
  | (Ty.Scalar _ | Ty.Ref _), _ -> false

let tag_null = 0
let tag_int = 1
let tag_string = 2
let tag_ref = 3

let encoded_size = function
  | VNull -> 1
  | VInt _ -> 1 + 8
  | VString s -> 1 + Wire.string_size s
  | VRef _ -> 1 + Oid.encoded_size

let encode buf off = function
  | VNull -> Wire.put_u8 buf off tag_null
  | VInt v ->
      let off = Wire.put_u8 buf off tag_int in
      Wire.put_int buf off v
  | VString s ->
      let off = Wire.put_u8 buf off tag_string in
      Wire.put_string buf off s
  | VRef oid ->
      let off = Wire.put_u8 buf off tag_ref in
      Oid.encode buf off oid

(* The size of the encoded value at [off], which must end by [limit]. *)
let size_at buf off limit =
  Wire.check_limit limit off 1;
  let tag = Wire.u8_at buf off in
  let size =
    if tag = tag_null then 1
    else if tag = tag_int then 1 + 8
    else if tag = tag_string then begin
      Wire.check_limit limit off 3;
      3 + Wire.u16_at buf (off + 1)
    end
    else if tag = tag_ref then 1 + Oid.encoded_size
    else raise (Wire.Corrupt (Printf.sprintf "Value: bad tag %d" tag))
  in
  Wire.check_limit limit off size;
  size

let decode_at buf off limit =
  let size = size_at buf off limit in
  let tag = Wire.u8_at buf off in
  if tag = tag_null then VNull
  else if tag = tag_int then VInt (Wire.int_at buf (off + 1))
  else if tag = tag_string then VString (Bytes.sub_string buf (off + 3) (size - 3))
  else VRef (Oid.decode buf (off + 1))

let decode buf off = decode_at buf off (Bytes.length buf)

let as_int = function
  | VInt v -> v
  | v -> invalid_arg ("Value.as_int: " ^ to_string v)

let as_string = function
  | VString s -> s
  | v -> invalid_arg ("Value.as_string: " ^ to_string v)

let as_ref = function
  | VRef oid -> oid
  | v -> invalid_arg ("Value.as_ref: " ^ to_string v)
