module Wire = Fieldrep_util.Wire

type t = Int of int | String of string

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.Int.compare x y
  | String x, String y -> Stdlib.String.compare x y
  | Int _, String _ -> -1
  | String _, Int _ -> 1

let equal a b = compare a b = 0

let same_variant a b =
  match (a, b) with
  | Int _, Int _ | String _, String _ -> true
  | Int _, String _ | String _, Int _ -> false

let pp fmt = function
  | Int v -> Format.fprintf fmt "%d" v
  | String s -> Format.fprintf fmt "%S" s

let to_string t = Format.asprintf "%a" pp t
let tag_int = 0
let tag_string = 1

let encoded_size = function
  | Int _ -> 1 + 8
  | String s -> 1 + Wire.string_size s

let encode buf off = function
  | Int v ->
      let off = Wire.put_u8 buf off tag_int in
      Wire.put_int buf off v
  | String s ->
      let off = Wire.put_u8 buf off tag_string in
      Wire.put_string buf off s

let bad_tag tag = raise (Wire.Corrupt (Printf.sprintf "Key: bad tag %d" tag))

let decode_at buf off =
  let tag = Wire.u8_at buf off in
  if tag = tag_int then Int (Wire.int_at buf (off + 1))
  else if tag = tag_string then String (Wire.string_at buf (off + 1))
  else bad_tag tag

let encoded_size_at buf off =
  let tag = Bytes.get_uint8 buf off in
  if tag = tag_int then 1 + 8
  else if tag = tag_string then 1 + 2 + Bytes.get_uint16_le buf (off + 1)
  else bad_tag tag

let decode buf off =
  let key = decode_at buf off in
  (key, off + encoded_size_at buf off)

(* [Stdlib.String.compare s b] for the [len] bytes b at [pos]. *)
let compare_string_at s buf pos len =
  let n = String.length s in
  let rec go i =
    if i = n || i = len then Stdlib.Int.compare n len
    else
      match Char.compare s.[i] (Bytes.get buf (pos + i)) with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

let compare_encoded key buf off =
  let tag = Bytes.get_uint8 buf off in
  match key with
  | Int v ->
      if tag = tag_int then
        Stdlib.Int.compare v (Int64.to_int (Bytes.get_int64_le buf (off + 1)))
      else if tag = tag_string then -1
      else bad_tag tag
  | String s ->
      if tag = tag_string then
        compare_string_at s buf (off + 3) (Bytes.get_uint16_le buf (off + 1))
      else if tag = tag_int then 1
      else bad_tag tag

let min_int_key = Int min_int
