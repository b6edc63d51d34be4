module Wire = Fieldrep_util.Wire

type slot = int

let header_size = 4
let dir_entry_size = 4
let free_mark = 0xffff

let size page = Bytes.length page
let get_n_slots page = Bytes.get_uint16_le page 0
let set_n_slots page v = Bytes.set_uint16_le page 0 v
let get_free_off page = Bytes.get_uint16_le page 2
let set_free_off page v = Bytes.set_uint16_le page 2 v
let dir_pos page i = size page - (dir_entry_size * (i + 1))
let get_off page i = Bytes.get_uint16_le page (dir_pos page i)
let get_len page i = Bytes.get_uint16_le page (dir_pos page i + 2)

let set_entry page i ~off ~len =
  Bytes.set_uint16_le page (dir_pos page i) off;
  Bytes.set_uint16_le page (dir_pos page i + 2) len

let init page =
  set_n_slots page 0;
  set_free_off page header_size

let slot_count = get_n_slots

let is_live page s =
  s >= 0 && s < get_n_slots page && get_off page s <> free_mark

let live_count page =
  let n = get_n_slots page in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if get_off page s <> free_mark then incr count
  done;
  !count

(* Contiguous space between the data area and the directory, assuming
   [extra_slots] new directory entries will be appended. *)
let raw_gap page ~extra_slots =
  size page
  - (dir_entry_size * (get_n_slots page + extra_slots))
  - get_free_off page

let used_bytes page =
  let n = get_n_slots page in
  let acc = ref 0 in
  for s = 0 to n - 1 do
    if get_off page s <> free_mark then acc := !acc + get_len page s
  done;
  !acc

(* The lowest free directory entry, or -1 when every entry is live. *)
let free_slot page =
  let n = get_n_slots page in
  let s = ref 0 in
  while !s < n && get_off page !s <> free_mark do
    incr s
  done;
  if !s < n then !s else -1

let free_space page =
  let dir_room = if free_slot page >= 0 then 0 else dir_entry_size in
  let capacity = size page - header_size - (dir_entry_size * get_n_slots page) - dir_room in
  capacity - used_bytes page

let fits page len = len <= free_space page

(* Per-domain copy of the page being compacted, so compaction allocates
   nothing once warm. *)
let scratch = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let compact page =
  let copy = Domain.DLS.get scratch in
  let data_end = get_free_off page in
  Wire.grow copy data_end;
  Bytes.blit page 0 !copy 0 data_end;
  let cursor = ref header_size in
  for s = 0 to get_n_slots page - 1 do
    let off = get_off page s in
    if off <> free_mark then begin
      let len = get_len page s in
      Bytes.blit !copy off page !cursor len;
      set_entry page s ~off:!cursor ~len;
      cursor := !cursor + len
    end
  done;
  set_free_off page !cursor

let ensure_gap page ~extra_slots need =
  if raw_gap page ~extra_slots < need then compact page;
  raw_gap page ~extra_slots >= need

let insert page data len =
  if not (fits page len) then -1
  else begin
    let free = free_slot page in
    let slot = if free >= 0 then free else get_n_slots page in
    let ok = ensure_gap page ~extra_slots:(if free >= 0 then 0 else 1) len in
    assert ok;
    let off = get_free_off page in
    Bytes.blit data 0 page off len;
    if free < 0 then set_n_slots page (slot + 1);
    set_entry page slot ~off ~len;
    set_free_off page (off + len);
    slot
  end

let check_live page s =
  if not (is_live page s) then
    invalid_arg (Printf.sprintf "Page: dead slot %d" s)

let read page s =
  check_live page s;
  Bytes.sub page (get_off page s) (get_len page s)

let read_length page s =
  check_live page s;
  get_len page s

let offset page s =
  check_live page s;
  get_off page s

let delete page s =
  check_live page s;
  set_entry page s ~off:free_mark ~len:0

let write page s data new_len =
  check_live page s;
  let old_off = get_off page s in
  let old_len = get_len page s in
  if new_len <= old_len then begin
    Bytes.blit data 0 page old_off new_len;
    set_entry page s ~off:old_off ~len:new_len;
    true
  end
  else begin
    (* Room check with the old copy logically removed; its directory entry is
       reused so no directory cost. *)
    let available = size page - header_size - (dir_entry_size * get_n_slots page) - (used_bytes page - old_len) in
    if new_len > available then false
    else begin
      set_entry page s ~off:free_mark ~len:0;
      let ok = ensure_gap page ~extra_slots:0 new_len in
      assert ok;
      let off = get_free_off page in
      Bytes.blit data 0 page off new_len;
      set_entry page s ~off ~len:new_len;
      set_free_off page (off + new_len);
      true
    end
  end

let iter f page =
  let n = get_n_slots page in
  for s = 0 to n - 1 do
    if get_off page s <> free_mark then f s (read page s)
  done

let fold f init page =
  let acc = ref init in
  iter (fun s data -> acc := f !acc s data) page;
  !acc
