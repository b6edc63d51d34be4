module Wire = Fieldrep_util.Wire
module Oid = Fieldrep_storage.Oid

type link = { link_oid : Oid.t; link_id : int }
type t = { type_tag : int; links : link list; values : Value.t array }

let sort_links links =
  List.sort_uniq (fun a b -> Int.compare a.link_id b.link_id) links

let link_size = Oid.encoded_size + 1

let make ~type_tag values = { type_tag; links = []; values }

let field t i =
  if i < 0 || i >= Array.length t.values then
    invalid_arg (Printf.sprintf "Record.field: index %d of %d" i (Array.length t.values));
  t.values.(i)

let set_field t i v =
  if i < 0 || i >= Array.length t.values then
    invalid_arg (Printf.sprintf "Record.set_field: index %d of %d" i (Array.length t.values));
  let values = Array.copy t.values in
  values.(i) <- v;
  { t with values }

let with_links t links = { t with links = sort_links links }
let find_link t id = List.find_opt (fun l -> l.link_id = id) t.links

let add_link t link =
  let links = List.filter (fun l -> l.link_id <> link.link_id) t.links in
  { t with links = sort_links (link :: links) }

let remove_link t id =
  { t with links = List.filter (fun l -> l.link_id <> id) t.links }

let encoded_size t =
  2 + 1
  + (List.length t.links * link_size)
  + 2
  + Array.fold_left (fun acc v -> acc + Value.encoded_size v) 0 t.values

let encode t =
  let buf = Bytes.create (encoded_size t) in
  let off = Wire.put_u16 buf 0 t.type_tag in
  let off = Wire.put_u8 buf off (List.length t.links) in
  let off =
    List.fold_left
      (fun off l ->
        let off = Oid.encode buf off l.link_oid in
        Wire.put_u8 buf off l.link_id)
      off t.links
  in
  let off = Wire.put_u16 buf off (Array.length t.values) in
  let off = Array.fold_left (fun off v -> Value.encode buf off v) off t.values in
  assert (off = Bytes.length buf);
  buf

let rec decode_links buf off n =
  if n = 0 then []
  else
    let link_oid = Oid.decode buf off in
    let link_id = Wire.u8_at buf (off + Oid.encoded_size) in
    { link_oid; link_id } :: decode_links buf (off + link_size) (n - 1)

(* Reads at a running offset: no pair per field, no closure per record. *)
let decode buf =
  let type_tag = Wire.u16_at buf 0 in
  let nlinks = Wire.u8_at buf 2 in
  let links = decode_links buf 3 nlinks in
  let off = 3 + (nlinks * link_size) in
  let nvalues = Wire.u16_at buf off in
  let values = Array.make nvalues Value.VNull in
  let off = ref (off + 2) in
  for i = 0 to nvalues - 1 do
    let v = Value.decode buf !off in
    values.(i) <- v;
    off := !off + Value.encoded_size v
  done;
  { type_tag; links; values }

let type_tag_of_bytes buf = Wire.u16_at buf 0
let link_count_of_bytes buf = Wire.u8_at buf 2

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
