module Wire = Fieldrep_util.Wire

type t = { file : int; page : int; slot : int }

(* Packed layout: file in bits 48-63, page in 16-47, slot in 0-15. *)
let file_bits = 16
let page_bits = 32
let slot_bits = 16
let max_file = (1 lsl file_bits) - 1
let max_page = (1 lsl page_bits) - 1
let max_slot = (1 lsl slot_bits) - 1
let nil = { file = max_file; page = max_page; slot = max_slot }
let is_nil t = t.file = max_file && t.page = max_page && t.slot = max_slot
let equal a b = a.file = b.file && a.page = b.page && a.slot = b.slot

let compare a b =
  match Int.compare a.file b.file with
  | 0 -> (
      match Int.compare a.page b.page with
      | 0 -> Int.compare a.slot b.slot
      | c -> c)
  | c -> c

let check t =
  assert (t.file >= 0 && t.file <= max_file);
  assert (t.page >= 0 && t.page <= max_page);
  assert (t.slot >= 0 && t.slot <= max_slot)

let to_int64 t =
  check t;
  Int64.logor
    (Int64.shift_left (Int64.of_int t.file) (page_bits + slot_bits))
    (Int64.logor
       (Int64.shift_left (Int64.of_int t.page) slot_bits)
       (Int64.of_int t.slot))

let of_int64 v =
  let mask bits = (1 lsl bits) - 1 in
  {
    file = Int64.to_int (Int64.shift_right_logical v (page_bits + slot_bits)) land mask file_bits;
    page = Int64.to_int (Int64.shift_right_logical v slot_bits) land mask page_bits;
    slot = Int64.to_int v land mask slot_bits;
  }

let hash t = Hashtbl.hash (to_int64 t)

(* The fields mixed as one int, so nothing is boxed; [hash] stays as it is
   because [Table]'s iteration orders follow it. *)
let hash_fields t =
  Hashtbl.hash ((t.file lsl 48) lxor (t.page lsl 16) lxor t.slot)

let pp fmt t =
  if is_nil t then Format.fprintf fmt "<nil>"
  else Format.fprintf fmt "%d.%d.%d" t.file t.page t.slot

let to_string t = Format.asprintf "%a" pp t
let encoded_size = 8
(* The little-endian int64 of [to_int64], written and read field by
   field, so no int64 is boxed: slot in bytes 0-1, page in 2-5, file in
   6-7. *)
let encode buf off t =
  check t;
  Wire.check_bounds buf off encoded_size;
  let off = Wire.put_u16 buf off t.slot in
  let off = Wire.put_u32 buf off t.page in
  Wire.put_u16 buf off t.file

let decode buf off =
  let slot = Wire.u16_at buf off in
  let page = Wire.u32_at buf (off + 2) in
  { file = Wire.u16_at buf (off + 6); page; slot }

let is_nil_at buf off =
  Wire.u16_at buf off = max_slot
  && Wire.u32_at buf (off + 2) = max_page
  && Wire.u16_at buf (off + 6) = max_file

(* [compare oid (decode buf off)] without building the OID.  The three
   fields are compared, not the i64: [nil]'s file sets its sign bit. *)
let compare_at oid buf off =
  match Int.compare oid.file (Wire.u16_at buf (off + 6)) with
  | 0 -> (
      match Int.compare oid.page (Wire.u32_at buf (off + 2)) with
      | 0 -> Int.compare oid.slot (Wire.u16_at buf off)
      | c -> c)
  | c -> c

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Set = Stdlib.Set.Make (Ord)
module Map = Stdlib.Map.Make (Ord)
module Table = Stdlib.Hashtbl.Make (Hashed)
