module Wire = Fieldrep_util.Wire
module Oid = Fieldrep_storage.Oid

type entry = { member : Oid.t; tag : Oid.t }

(* Kept as a sorted array for O(log n) membership and cheap encoding. *)
type t = entry array

let empty = [||]

let compare_entry a b = Oid.compare a.member b.member

let of_entries l =
  let arr = Array.of_list l in
  Array.sort compare_entry arr;
  (* De-duplicate by member, keeping the last tag. *)
  let n = Array.length arr in
  if n <= 1 then arr
  else begin
    let out = ref [] in
    for i = n - 1 downto 0 do
      match !out with
      | last :: _ when Oid.equal last.member arr.(i).member -> ()
      | _ -> out := arr.(i) :: !out
    done;
    Array.of_list !out
  end

let cardinal = Array.length
let is_empty t = Array.length t = 0

let find_index t member =
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Oid.compare t.(mid).member member < 0 then bsearch (mid + 1) hi
      else bsearch lo mid
  in
  bsearch 0 (Array.length t)

let mem t member =
  let i = find_index t member in
  i < Array.length t && Oid.equal t.(i).member member

let add t entry =
  let i = find_index t entry.member in
  if i < Array.length t && Oid.equal t.(i).member entry.member then begin
    let out = Array.copy t in
    out.(i) <- entry;
    out
  end
  else begin
    let n = Array.length t in
    Array.init (n + 1) (fun j ->
        if j < i then t.(j) else if j = i then entry else t.(j - 1))
  end

let remove t member =
  let i = find_index t member in
  if i < Array.length t && Oid.equal t.(i).member member then
    Array.init (Array.length t - 1) (fun j -> if j < i then t.(j) else t.(j + 1))
  else t

let entries t = Array.to_list t
let members t = Array.to_list (Array.map (fun e -> e.member) t)

let entries_tagged t tag =
  Array.to_list t |> List.filter (fun e -> Oid.equal e.tag tag)

let remove_tagged t tag =
  Array.of_list (Array.to_list t |> List.filter (fun e -> not (Oid.equal e.tag tag)))

let iter f t = Array.iter f t

(* Layout: [count:u16][tagged:u8][member (+tag)...].  The tagged flag is set
   when any entry carries a tag, so untagged links cost 8 bytes per OID as in
   the cost model's l = 1 + sizeof(type-tag) + f*sizeof(OID). *)
let encode t =
  let tagged = Array.exists (fun e -> not (Oid.is_nil e.tag)) t in
  let size =
    2 + 1 + (Array.length t * (Oid.encoded_size * if tagged then 2 else 1))
  in
  let buf = Bytes.create size in
  let off = Wire.put_u16 buf 0 (Array.length t) in
  let off = Wire.put_u8 buf off (if tagged then 1 else 0) in
  let off =
    Array.fold_left
      (fun off e ->
        let off = Oid.encode buf off e.member in
        if tagged then Oid.encode buf off e.tag else off)
      off t
  in
  assert (off = size);
  buf

let decode_at buf off len =
  Wire.check_limit (off + len) off 3;
  let n = Wire.u16_at buf off in
  let tagged = Wire.u8_at buf (off + 2) = 1 in
  let width = if tagged then 2 * Oid.encoded_size else Oid.encoded_size in
  Wire.check_limit (off + len) (off + 3) (n * width);
  Array.init n (fun i ->
      let off = off + 3 + (i * width) in
      let member = Oid.decode buf off in
      let tag = if tagged then Oid.decode buf (off + Oid.encoded_size) else Oid.nil in
      { member; tag })

let decode buf = decode_at buf 0 (Bytes.length buf)

let pp fmt t =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
       (fun fmt e ->
         if Oid.is_nil e.tag then Oid.pp fmt e.member
         else Format.fprintf fmt "%a^%a" Oid.pp e.member Oid.pp e.tag))
    (entries t)
