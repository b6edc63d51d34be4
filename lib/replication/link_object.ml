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

(* Entry edits over bytes.  The membership editor keeps one link object's
   encoding at the start of a buffer it reuses and changes its entries
   there; each edit leaves the bytes [encode] gives for the same edit of
   the decoded object, the tagged flag included. *)

let header_size = 3
let count_at buf = Wire.u16_at buf 0
let tagged_at buf = Wire.u8_at buf 2 = 1
let width buf = if tagged_at buf then 2 * Oid.encoded_size else Oid.encoded_size
let entry_offset buf i = header_size + (i * width buf)
let member_at buf i = Oid.decode buf (entry_offset buf i)

let tag_at buf i =
  if tagged_at buf then Oid.decode buf (entry_offset buf i + Oid.encoded_size)
  else Oid.nil

let ensure (buf : Bytes.t ref) size =
  if Bytes.length !buf < size then begin
    let grown = Bytes.create (max size (2 * Bytes.length !buf)) in
    Bytes.blit !buf 0 grown 0 (Bytes.length !buf);
    buf := grown
  end

let members_into buf members =
  let n = List.length members in
  ensure buf (header_size + (n * Oid.encoded_size));
  let off = Wire.put_u16 !buf 0 n in
  let off = Wire.put_u8 !buf off 0 in
  List.fold_left (fun off member -> Oid.encode !buf off member) off members

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
    ensure buf (header_size + (2 * n * o));
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

let add_at buf len { member; tag } =
  let len =
    if Oid.is_nil tag || tagged_at !buf then len else relayout buf ~tagged:true
  in
  let i = search !buf member in
  let at = entry_offset !buf i in
  let len =
    if holds !buf i member then len
    else begin
      let w = width !buf in
      ensure buf (len + w);
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
