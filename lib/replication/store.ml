module Pager = Fieldrep_storage.Pager
module Heap_file = Fieldrep_storage.Heap_file
module Oid = Fieldrep_storage.Oid

type t = {
  pager : Pager.t;
  link_files : (int, Heap_file.t) Hashtbl.t;  (* link id -> file *)
  sprime_files : (int, Heap_file.t) Hashtbl.t;  (* rep id -> file *)
  by_file_id : (int, Heap_file.t) Hashtbl.t;
  link_file_ids : (int, unit) Hashtbl.t;  (* disk file ids of link files *)
}

let create pager =
  {
    pager;
    link_files = Hashtbl.create 8;
    sprime_files = Hashtbl.create 8;
    by_file_id = Hashtbl.create 8;
    link_file_ids = Hashtbl.create 8;
  }

let pager t = t.pager

let get_or_create table t key ~is_link =
  match Hashtbl.find_opt table key with
  | Some hf -> hf
  | None ->
      let hf = Heap_file.create t.pager in
      Hashtbl.replace table key hf;
      Hashtbl.replace t.by_file_id (Heap_file.file_id hf) hf;
      if is_link then Hashtbl.replace t.link_file_ids (Heap_file.file_id hf) ();
      hf

let link_file t id = get_or_create t.link_files t id ~is_link:true
let link_file_opt t id = Hashtbl.find_opt t.link_files id
let sprime_file t rep_id = get_or_create t.sprime_files t rep_id ~is_link:false
let sprime_file_opt t rep_id = Hashtbl.find_opt t.sprime_files rep_id

let is_link_oid t (oid : Oid.t) =
  (not (Oid.is_nil oid)) && Hashtbl.mem t.link_file_ids oid.Oid.file

let file_of_oid t (oid : Oid.t) = Hashtbl.find_opt t.by_file_id oid.Oid.file

let total_pages t =
  let count table =
    Hashtbl.fold (fun _ hf acc -> acc + Heap_file.page_count hf) table 0
  in
  count t.link_files + count t.sprime_files

let alias_links t ids =
  let existing = List.filter_map (fun id -> Hashtbl.find_opt t.link_files id) ids in
  let hf =
    match existing with
    | hf :: _ -> hf
    | [] ->
        let hf = Heap_file.create t.pager in
        Hashtbl.replace t.by_file_id (Heap_file.file_id hf) hf;
        Hashtbl.replace t.link_file_ids (Heap_file.file_id hf) ();
        hf
  in
  List.iter
    (fun id ->
      if not (Hashtbl.mem t.link_files id) then Hashtbl.replace t.link_files id hf)
    ids;
  hf

let bindings t =
  let dump table =
    Hashtbl.fold (fun k hf acc -> (k, Heap_file.file_id hf) :: acc) table []
    |> List.sort compare
  in
  (dump t.link_files, dump t.sprime_files)

let bind_link t ~link_id hf =
  Hashtbl.replace t.link_files link_id hf;
  Hashtbl.replace t.by_file_id (Heap_file.file_id hf) hf;
  Hashtbl.replace t.link_file_ids (Heap_file.file_id hf) ()

let bind_sprime t ~rep_id hf =
  Hashtbl.replace t.sprime_files rep_id hf;
  Hashtbl.replace t.by_file_id (Heap_file.file_id hf) hf

let gc t ~live_link ~live_sprime =
  let dead table live =
    Hashtbl.fold
      (fun id hf acc ->
        if live id then acc else (id, Heap_file.file_id hf) :: acc)
      table []
  in
  let dead_links = dead t.link_files live_link
  and dead_sprimes = dead t.sprime_files live_sprime in
  let dead_files = List.map snd dead_links @ List.map snd dead_sprimes in
  List.iter (fun (id, _) -> Hashtbl.remove t.link_files id) dead_links;
  List.iter (fun (id, _) -> Hashtbl.remove t.sprime_files id) dead_sprimes;
  (* A physical file goes only when no surviving binding aliases it
     (clustered links share one file across several link IDs). *)
  let still_bound file_id =
    let scan table =
      Hashtbl.fold
        (fun _ hf acc -> acc || Heap_file.file_id hf = file_id)
        table false
    in
    scan t.link_files || scan t.sprime_files
  in
  List.iter
    (fun file_id ->
      if not (still_bound file_id) then begin
        Hashtbl.remove t.by_file_id file_id;
        Hashtbl.remove t.link_file_ids file_id;
        Pager.delete_file t.pager file_id
      end)
    (List.sort_uniq compare dead_files)
