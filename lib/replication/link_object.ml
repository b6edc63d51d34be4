module Wire = Fieldrep_util.Wire
module Oid = Fieldrep_storage.Oid

type entry = { member : Oid.t; tag : Oid.t }

(* Layout: [count:u16][tagged:u8][member (+tag)...].  The tagged flag is set
   when any entry carries a tag, so untagged links cost 8 bytes per OID as in
   the cost model's l = 1 + sizeof(type-tag) + f*sizeof(OID).  The object
   is read in the frame that holds it and edited in a buffer: it has no
   decoded form. *)

let header_size = 3
let count_at buf = Wire.u16_at buf 0
let tagged_at buf = Wire.u8_at buf 2 = 1
let width buf = if tagged_at buf then 2 * Oid.encoded_size else Oid.encoded_size
let entry_offset buf i = header_size + (i * width buf)
let member_at buf i = Oid.decode buf (entry_offset buf i)

let tag_at buf i =
  if tagged_at buf then Oid.decode buf (entry_offset buf i + Oid.encoded_size)
  else Oid.nil

let fold_at f acc buf off len =
  Wire.check_limit (off + len) off header_size;
  let n = Wire.u16_at buf off in
  let tagged = Wire.u8_at buf (off + 2) = 1 in
  let o = Oid.encoded_size in
  let w = if tagged then 2 * o else o in
  Wire.check_limit (off + len) (off + header_size) (n * w);
  let rec go acc at last =
    if at = last then acc
    else
      let tag = if tagged then Oid.decode buf (at + o) else Oid.nil in
      go (f acc (Oid.decode buf at) tag) (at + w) last
  in
  go acc (off + header_size) (off + header_size + (n * w))

let rec put_entries buf ~tagged off = function
  | [] -> off
  | { member; tag } :: rest ->
      let off = Oid.encode buf off member in
      put_entries buf ~tagged (if tagged then Oid.encode buf off tag else off) rest

let entries_into buf entries =
  let tagged = List.exists (fun e -> not (Oid.is_nil e.tag)) entries in
  let n = List.length entries in
  Wire.grow buf (header_size + (n * Oid.encoded_size * if tagged then 2 else 1));
  ignore (Wire.put_u16 !buf 0 n);
  ignore (Wire.put_u8 !buf 2 (if tagged then 1 else 0));
  put_entries !buf ~tagged header_size entries

(* The index of the first entry in [lo, hi) whose member is not below
   [member]. *)
let rec search_in buf member w lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Oid.compare_at member buf (header_size + (mid * w)) > 0 then
      search_in buf member w (mid + 1) hi
    else search_in buf member w lo mid

let search buf member = search_in buf member (width buf) 0 (count_at buf)

let holds buf i member =
  i < count_at buf && Oid.compare_at member buf (entry_offset buf i) = 0

(* Re-lay the entries with or without tags: widening gives every entry a
   nil tag, narrowing drops tags that are all nil.  Returns the length. *)
let relayout (buf : Bytes.t ref) ~tagged =
  let n = count_at !buf in
  let o = Oid.encoded_size in
  if tagged then begin
    Wire.grow ~keep:true buf (header_size + (2 * n * o));
    for i = n - 1 downto 0 do
      let at = header_size + (2 * i * o) in
      Bytes.blit !buf (header_size + (i * o)) !buf at o;
      ignore (Oid.encode !buf (at + o) Oid.nil)
    done
  end
  else
    for i = 0 to n - 1 do
      Bytes.blit !buf (header_size + (2 * i * o)) !buf (header_size + (i * o)) o
    done;
  ignore (Wire.put_u8 !buf 2 (if tagged then 1 else 0));
  header_size + (n * if tagged then 2 * o else o)

let rec tags_nil_from buf i =
  i = count_at buf
  || Oid.is_nil_at buf (entry_offset buf i + Oid.encoded_size)
     && tags_nil_from buf (i + 1)

(* A tagged object whose tags are all nil encodes untagged. *)
let settle buf len =
  if tagged_at !buf && tags_nil_from !buf 0 then relayout buf ~tagged:false else len

(* Does the [i]th entry carry [tag]?  Compared in place, decoding nothing. *)
let tag_is buf i tag =
  if tagged_at buf then
    Oid.compare_at tag buf (entry_offset buf i + Oid.encoded_size) = 0
  else Oid.is_nil tag

(* [relayout] keeps every entry's index, so [i] survives a widening. *)
let add_at buf len { member; tag } =
  let i = search !buf member in
  let present = holds !buf i member in
  if present && tag_is !buf i tag then -1
  else begin
    let len =
      if Oid.is_nil tag || tagged_at !buf then len
      else relayout buf ~tagged:true
    in
    let at = entry_offset !buf i in
    let len =
      if present then len
      else begin
        let w = width !buf in
        Wire.grow ~keep:true buf (len + w);
        Bytes.blit !buf at !buf (at + w) (len - at);
        ignore (Wire.put_u16 !buf 0 (count_at !buf + 1));
        ignore (Oid.encode !buf at member);
        len + w
      end
    in
    if tagged_at !buf then begin
      ignore (Oid.encode !buf (at + Oid.encoded_size) tag);
      if Oid.is_nil tag then settle buf len else len
    end
    else len
  end

let remove_at buf len member =
  let i = search !buf member in
  if not (holds !buf i member) then -1
  else begin
    let w = width !buf in
    let at = entry_offset !buf i in
    Bytes.blit !buf (at + w) !buf at (len - at - w);
    ignore (Wire.put_u16 !buf 0 (count_at !buf - 1));
    settle buf (len - w)
  end

let take_tagged_at buf tag =
  let n = count_at !buf in
  let w = width !buf in
  let taken = ref [] in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let e_tag = tag_at !buf i in
    if Oid.equal e_tag tag then
      taken := { member = member_at !buf i; tag = e_tag } :: !taken
    else begin
      Bytes.blit !buf (header_size + (i * w)) !buf (header_size + (!kept * w)) w;
      incr kept
    end
  done;
  ignore (Wire.put_u16 !buf 0 !kept);
  (settle buf (header_size + (!kept * w)), List.rev !taken)
