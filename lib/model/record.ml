module Wire = Fieldrep_util.Wire
module Oid = Fieldrep_storage.Oid

type link = { link_oid : Oid.t; link_id : int }
type t = { type_tag : int; links : link list; values : Value.t array }

let link_size = Oid.encoded_size + 1

let make ~type_tag values = { type_tag; links = []; values }

let field t i =
  if i < 0 then invalid_arg (Printf.sprintf "Record.field: index %d" i)
  else if i < Array.length t.values then t.values.(i)
  else Value.VNull

let encoded_size t =
  2 + 1
  + (List.length t.links * link_size)
  + 2
  + Array.fold_left (fun acc v -> acc + Value.encoded_size v) 0 t.values

let rec encode_links buf off = function
  | [] -> off
  | l :: rest ->
      let off = Oid.encode buf off l.link_oid in
      encode_links buf (Wire.put_u8 buf off l.link_id) rest

let encode_to buf off t =
  let off = Wire.put_u16 buf off t.type_tag in
  let off = Wire.put_u8 buf off (List.length t.links) in
  let off = encode_links buf off t.links in
  let off = ref (Wire.put_u16 buf off (Array.length t.values)) in
  for i = 0 to Array.length t.values - 1 do
    off := Value.encode buf !off t.values.(i)
  done;
  !off

let encode t =
  let buf = Bytes.create (encoded_size t) in
  let off = encode_to buf 0 t in
  assert (off = Bytes.length buf);
  buf

let rec decode_links buf off n =
  if n = 0 then []
  else
    let link_oid = Oid.decode buf off in
    let link_id = Wire.u8_at buf (off + Oid.encoded_size) in
    { link_oid; link_id } :: decode_links buf (off + link_size) (n - 1)

(* Where the value count sits in the record at [off], whose header and
   link section are checked to end by [limit]. *)
let values_at buf off limit =
  Wire.check_limit limit off 3;
  let voff = off + 3 + (Wire.u8_at buf (off + 2) * link_size) in
  Wire.check_limit limit voff 2;
  voff

(* Reads at a running offset: no pair per field, no closure per record.
   Every read is checked against the record's own end, so a damaged length
   raises [Wire.Corrupt] instead of reading the bytes that follow. *)
let decode_at buf off len =
  let limit = off + len in
  let voff = values_at buf off limit in
  let type_tag = Wire.u16_at buf off in
  let links = decode_links buf (off + 3) (Wire.u8_at buf (off + 2)) in
  let nvalues = Wire.u16_at buf voff in
  let values = Array.make nvalues Value.VNull in
  let pos = ref (voff + 2) in
  for i = 0 to nvalues - 1 do
    let v = Value.decode_at buf !pos limit in
    values.(i) <- v;
    pos := !pos + Value.encoded_size v
  done;
  { type_tag; links; values }

let decode buf = decode_at buf 0 (Bytes.length buf)

let value_offset buf off len i =
  let limit = off + len in
  let voff = values_at buf off limit in
  if i < 0 || i >= Wire.u16_at buf voff then -1
  else begin
    let pos = ref (voff + 2) in
    for _ = 1 to i do
      pos := !pos + Value.size_at buf !pos limit
    done;
    !pos
  end

let field_at buf off len i =
  let pos = value_offset buf off len i in
  if pos < 0 then Value.VNull else Value.decode_at buf pos (off + len)

(* The value section is walked to its end, so a record cut short raises
   [Wire.Corrupt] before a byte moves. *)
let set_value_at buf off len i v =
  if i < 0 then invalid_arg (Printf.sprintf "Record.set_value_at: index %d" i);
  let limit = off + len in
  let voff = values_at buf off limit in
  let n = Wire.u16_at buf voff in
  let pos = ref (voff + 2) and at = ref (-1) in
  for j = 0 to n - 1 do
    if j = i then at := !pos;
    pos := !pos + Value.size_at buf !pos limit
  done;
  if !at >= 0 then begin
    let old = Value.size_at buf !at limit and size = Value.encoded_size v in
    if size <> old then Bytes.blit buf (!at + old) buf (!at + size) (limit - !at - old);
    ignore (Value.encode buf !at v);
    len - old + size
  end
  else begin
    (* Past the stored width: nulls up to [i], then [v]. *)
    for _ = n to i - 1 do
      pos := Value.encode buf !pos Value.VNull
    done;
    ignore (Wire.put_u16 buf voff (i + 1));
    Value.encode buf !pos v - off
  end

let type_tag_at buf off len =
  Wire.check_limit (off + len) off 2;
  Wire.u16_at buf off

let link_count_at buf off len =
  Wire.check_limit (off + len) off 3;
  Wire.u8_at buf (off + 2)

let rec find_pair buf link_id p last =
  if p = last then -1
  else if Wire.u8_at buf (p + Oid.encoded_size) = link_id then p
  else find_pair buf link_id (p + link_size) last

let link_at buf off len link_id =
  let n = link_count_at buf off len in
  Wire.check_limit (off + len) (off + 3) (n * link_size);
  find_pair buf link_id (off + 3) (off + 3 + (n * link_size))

(* The first pair in [p, last) with a larger link id, else [last]. *)
let rec first_above buf link_id p last =
  if p = last || Wire.u8_at buf (p + Oid.encoded_size) > link_id then p
  else first_above buf link_id (p + link_size) last

(* Pairs stay in link-id order, as [encode] lays them out. *)
let set_link_at buf len { link_oid; link_id } =
  let p = link_at buf 0 len link_id in
  if p >= 0 then begin
    ignore (Oid.encode buf p link_oid);
    len
  end
  else begin
    let n = Wire.u8_at buf 2 in
    let p = first_above buf link_id 3 (3 + (n * link_size)) in
    Bytes.blit buf p buf (p + link_size) (len - p);
    ignore (Wire.put_u8 buf (Oid.encode buf p link_oid) link_id);
    ignore (Wire.put_u8 buf 2 (n + 1));
    len + link_size
  end

let remove_link_at buf len link_id =
  let p = link_at buf 0 len link_id in
  if p < 0 then len
  else begin
    Bytes.blit buf (p + link_size) buf p (len - p - link_size);
    ignore (Wire.put_u8 buf 2 (Wire.u8_at buf 2 - 1));
    len - link_size
  end

let pp fmt t =
  Format.fprintf fmt "@[<hov 2>{tag=%d;@ links=[%a];@ values=[%a]}@]" t.type_tag
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
       (fun fmt l -> Format.fprintf fmt "(%a,#%d)" Oid.pp l.link_oid l.link_id))
    t.links
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
       Value.pp)
    (Array.to_list t.values)
