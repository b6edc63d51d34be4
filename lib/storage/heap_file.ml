module Wire = Fieldrep_util.Wire

type t = {
  pager : Pager.t;
  file : int;
  reserve : int;  (* bytes kept free per page during inserts (PCTFREE) *)
  mutable count : int;
  mutable tail_page : int;  (* page that receives the next append, -1 if none *)
  mutable space : int array;
      (* free-space map: per page, what [usable] says of it; -1 past the end *)
  mutable candidates : int;  (* pages whose [space] entry is not -1 *)
}

let kind_head = 0
let kind_segment = 1

(* A tombstone is a deleted object whose home slot stays allocated, so the
   OID cannot be recycled while a transaction that deleted the object is
   still undecided.  [free_tombstone] releases the slot at commit;
   [insert_at] revives the object in place on abort. *)
let kind_tombstone = 2
let header_size = 1 + Oid.encoded_size

let encode_segment ~kind ~next payload_sub =
  let src, src_off, len = payload_sub in
  let buf = Bytes.create (header_size + len) in
  let off = Wire.put_u8 buf 0 kind in
  let off = Oid.encode buf off next in
  Bytes.blit src src_off buf off len;
  buf

let decode_header record = (Wire.u8_at record 0, Oid.decode record 1)

(* A handle on [file]; [recount] fills in the count and the map. *)
let handle ~reserve pager file =
  let tail_page = Pager.page_count pager file - 1 in
  { pager; file; reserve; count = 0; tail_page; space = [||]; candidates = 0 }

let create ?(reserve = 0) pager =
  if reserve < 0 then invalid_arg "Heap_file.create: negative reserve";
  handle ~reserve pager (Pager.create_file pager)

let create_output pager = handle ~reserve:0 pager (Pager.create_output_file pager)

let file_id t = t.file
let pager t = t.pager
let reserve t = t.reserve
let object_count t = t.count
let page_count t = Pager.page_count t.pager t.file

(* The largest record a fresh page can host. *)
let max_record t =
  Pager.page_size t.pager - Page.header_size - Page.dir_entry_size

(* Space reuse.  A page becomes a reuse candidate once a delete has freed
   one of its directory entries and at least 1/[reuse_divisor] of it is
   free; an insert goes to the lowest candidate it fits, else to the tail
   page, else to a new page.  The rule reads only the page's bytes (and the
   handle's reserve), so the live master, a log replay from a checkpoint
   image and a replica bootstrapped from a snapshot all hold the same map
   and give every insert the same OID.  A history without deletes never
   frees a directory entry, so bulk builds keep plain append order.  The
   half-page guard keeps a page that just refilled from taking small
   records it would soon need as room for its objects to grow. *)
let reuse_divisor = 2

(* The bytes an insert may use on a page with [live] records and [free]
   bytes free.  Inserts honour the per-page reserve so objects have in-page
   room to grow (hidden replicated fields, link pairs); a record that could
   never fit alongside the reserve still goes into an empty page alone. *)
let room t ~live ~free = if live = 0 then free else free - t.reserve

(* A page's free-space map entry: its [room], or -1 when the page is not a
   reuse candidate. *)
let usable t buf =
  let live = Page.live_count buf in
  if live = Page.slot_count buf then -1
  else
    let free = Page.free_space buf in
    if free * reuse_divisor < Bytes.length buf then -1 else max 0 (room t ~live ~free)

(* Bring the map up to date with a page just changed: called at the end of
   every closure that writes a page of this file. *)
let note t page buf =
  let entry = usable t buf in
  if t.space.(page) >= 0 then t.candidates <- t.candidates - 1;
  if entry >= 0 then t.candidates <- t.candidates + 1;
  t.space.(page) <- entry

let rec lowest_fit t len page =
  if page >= Array.length t.space then -1
  else if t.space.(page) >= len then page
  else lowest_fit t len (page + 1)

let insert_record t record =
  let len = Bytes.length record in
  let try_page page =
    Pager.with_page_write t.pager ~file:t.file ~page (fun buf ->
        let fits =
          room t ~live:(Page.live_count buf) ~free:(Page.free_space buf) >= len
        in
        let slot = if fits then Page.insert buf record else -1 in
        if slot >= 0 then note t page buf;
        slot)
  in
  let reuse = if t.candidates > 0 then lowest_fit t len 0 else -1 in
  let slot = if reuse >= 0 then try_page reuse else -1 in
  if slot >= 0 then { Oid.file = t.file; page = reuse; slot }
  else
    let slot = if t.tail_page >= 0 then try_page t.tail_page else -1 in
    if slot >= 0 then { Oid.file = t.file; page = t.tail_page; slot }
    else begin
      let page = Pager.new_page t.pager ~file:t.file in
      Pager.with_page_write t.pager ~file:t.file ~page (fun buf ->
          Page.init buf);
      if page >= Array.length t.space then begin
        let space = Array.make (max 8 (2 * page)) (-1) in
        Array.blit t.space 0 space 0 (Array.length t.space);
        t.space <- space
      end;
      t.tail_page <- page;
      let slot = try_page page in
      if slot < 0 then invalid_arg "Heap_file: record larger than a page";
      { Oid.file = t.file; page; slot }
    end

(* Append the payload from [pos] onwards as a chain of continuation
   segments, returning the OID of the first one (or nil when done). *)
let rec spill t payload pos =
  let remaining = Bytes.length payload - pos in
  if remaining = 0 then Oid.nil
  else begin
    let room = max_record t - header_size in
    let chunk = min remaining room in
    let next = spill t payload (pos + chunk) in
    let record = encode_segment ~kind:kind_segment ~next (payload, pos, chunk) in
    insert_record t record
  end

let insert t payload =
  (* Head goes first, so while no page qualifies for reuse home slots
     appear in insertion order; oversize payloads spill their tail into
     segments allocated just after. *)
  let head_room = max_record t - header_size in
  let head_chunk = min (Bytes.length payload) head_room in
  let head_oid =
    insert_record t (encode_segment ~kind:kind_head ~next:Oid.nil (payload, 0, head_chunk))
  in
  let next = spill t payload head_chunk in
  if not (Oid.is_nil next) then begin
    let record = encode_segment ~kind:kind_head ~next (payload, 0, head_chunk) in
    Pager.with_page_write t.pager ~file:t.file ~page:head_oid.Oid.page (fun buf ->
        let ok = Page.write buf head_oid.Oid.slot record in
        assert ok;
        note t head_oid.Oid.page buf)
  end;
  t.count <- t.count + 1;
  Stats.bump (Pager.stats t.pager) Stats.Objects_written;
  head_oid

let read_segment t (oid : Oid.t) =
  if oid.Oid.file <> t.file then invalid_arg "Heap_file: OID from another file";
  Pager.with_page_read t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
      if not (Page.is_live buf oid.Oid.slot) then
        invalid_arg (Printf.sprintf "Heap_file: dead OID %s" (Oid.to_string oid));
      Page.read buf oid.Oid.slot)

(* The payload of one segment, and the segment after it if any. *)
type piece = Last of Bytes.t | Chained of Bytes.t * Oid.t

(* Read one segment on its pinned page: the header is checked in place in
   the frame and the payload copied out once. *)
let piece ~kind (oid : Oid.t) buf =
  let slot = oid.Oid.slot in
  if not (Page.is_live buf slot) then
    invalid_arg (Printf.sprintf "Heap_file: dead OID %s" (Oid.to_string oid));
  let off = Page.offset buf slot in
  if Wire.u8_at buf off <> kind then
    if kind = kind_head then
      invalid_arg
        (Printf.sprintf "Heap_file: OID %s is not an object head" (Oid.to_string oid))
    else raise (Wire.Corrupt "Heap_file: bad segment kind in chain");
  let payload =
    Bytes.sub buf (off + header_size) (Page.read_length buf slot - header_size)
  in
  if Oid.is_nil_at buf (off + 1) then Last payload
  else Chained (payload, Oid.decode buf (off + 1))

(* Each segment is pinned exactly once; the callbacks capture only the OID
   ([kind] is a constant at each site). *)
let read_piece t (oid : Oid.t) ~head =
  if oid.Oid.file <> t.file then invalid_arg "Heap_file: OID from another file";
  if head then
    Pager.with_page_read t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
        piece ~kind:kind_head oid buf)
  else
    Pager.with_page_read t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
        piece ~kind:kind_segment oid buf)

let read t oid =
  let payload =
    match read_piece t oid ~head:true with
    | Last payload -> payload
    | Chained (first, next) ->
        let parts = ref [ first ] in
        let cursor = ref next in
        while not (Oid.is_nil !cursor) do
          match read_piece t !cursor ~head:false with
          | Last part ->
              parts := part :: !parts;
              cursor := Oid.nil
          | Chained (part, next) ->
              parts := part :: !parts;
              cursor := next
        done;
        Bytes.concat Bytes.empty (List.rev !parts)
  in
  Stats.bump (Pager.stats t.pager) Stats.Objects_read;
  payload

let exists t (oid : Oid.t) =
  oid.Oid.file = t.file
  && oid.Oid.page >= 0
  && oid.Oid.page < page_count t
  && Pager.with_page_read t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
         Page.is_live buf oid.Oid.slot
         && Wire.u8_at buf (Page.offset buf oid.Oid.slot) = kind_head)

let free_chain t first =
  let cursor = ref first in
  while not (Oid.is_nil !cursor) do
    let oid = !cursor in
    let seg = read_segment t oid in
    let kind, next = decode_header seg in
    if kind <> kind_segment then raise (Wire.Corrupt "Heap_file: bad chain");
    Pager.with_page_write t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
        Page.delete buf oid.Oid.slot;
        note t oid.Oid.page buf);
    cursor := next
  done

let update t (oid : Oid.t) payload =
  let head = read_segment t oid in
  let kind, old_next = decode_header head in
  if kind <> kind_head then
    invalid_arg "Heap_file.update: OID is not an object head";
  let write_head record =
    Pager.with_page_write t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
        let ok = Page.write buf oid.Oid.slot record in
        note t oid.Oid.page buf;
        ok)
  in
  let full = encode_segment ~kind:kind_head ~next:Oid.nil (payload, 0, Bytes.length payload) in
  let placed =
    Bytes.length full <= max_record t && write_head full
  in
  if not placed then begin
    (* Keep the head at its old size (an equal-size write always succeeds)
       and spill the remainder. *)
    let head_chunk = min (Bytes.length payload) (Bytes.length head - header_size) in
    let next = spill t payload head_chunk in
    let record = encode_segment ~kind:kind_head ~next (payload, 0, head_chunk) in
    let ok = write_head record in
    assert ok
  end;
  if not (Oid.is_nil old_next) then free_chain t old_next;
  Stats.bump (Pager.stats t.pager) Stats.Objects_written

let delete t (oid : Oid.t) =
  let head = read_segment t oid in
  let kind, next = decode_header head in
  if kind <> kind_head then
    invalid_arg "Heap_file.delete: OID is not an object head";
  Pager.with_page_write t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
      Page.delete buf oid.Oid.slot;
      note t oid.Oid.page buf);
  if not (Oid.is_nil next) then free_chain t next;
  t.count <- t.count - 1

(* Best-effort removal for scrub: drop whatever survives of an object whose
   chain may pass through a blanked (repaired-empty) page.  Deletes the
   slot if it is still live and follows the continuation chain while the
   segments remain readable, stopping silently at the first dead or
   malformed one — [delete] would raise there, but during repair the
   missing tail is exactly the damage being cleaned up. *)
let purge t (oid : Oid.t) =
  if oid.Oid.file <> t.file then invalid_arg "Heap_file.purge: OID from another file";
  let drop_slot (o : Oid.t) =
    Pager.with_page_write t.pager ~file:t.file ~page:o.Oid.page (fun buf ->
        Page.delete buf o.Oid.slot;
        note t o.Oid.page buf)
  in
  let segment_of (o : Oid.t) =
    if o.Oid.page < 0 || o.Oid.page >= page_count t then None
    else
      Pager.with_page_read t.pager ~file:t.file ~page:o.Oid.page (fun buf ->
          if Page.is_live buf o.Oid.slot then Some (Page.read buf o.Oid.slot)
          else None)
  in
  match segment_of oid with
  | None -> ()
  | Some head ->
      let kind, next = decode_header head in
      drop_slot oid;
      if kind = kind_head then t.count <- t.count - 1;
      let cursor = ref next in
      let continue = ref true in
      while !continue && not (Oid.is_nil !cursor) do
        match segment_of !cursor with
        | None -> continue := false
        | Some seg ->
            let kind, next = decode_header seg in
            if kind <> kind_segment then continue := false
            else begin
              drop_slot !cursor;
              cursor := next
            end
      done

let tombstone_record () =
  encode_segment ~kind:kind_tombstone ~next:Oid.nil (Bytes.empty, 0, 0)

let delete_pinned t (oid : Oid.t) =
  let head = read_segment t oid in
  let kind, next = decode_header head in
  if kind <> kind_head then
    invalid_arg "Heap_file.delete_pinned: OID is not an object head";
  (* A head record is at least [header_size] bytes, so an equal-or-smaller
     in-place write always succeeds. *)
  Pager.with_page_write t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
      let ok = Page.write buf oid.Oid.slot (tombstone_record ()) in
      assert ok;
      note t oid.Oid.page buf);
  if not (Oid.is_nil next) then free_chain t next;
  t.count <- t.count - 1

let is_tombstone t (oid : Oid.t) =
  oid.Oid.file = t.file
  && oid.Oid.page >= 0
  && oid.Oid.page < page_count t
  && Pager.with_page_read t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
         Page.is_live buf oid.Oid.slot
         && Wire.u8_at buf (Page.offset buf oid.Oid.slot) = kind_tombstone)

let free_tombstone t (oid : Oid.t) =
  let head = read_segment t oid in
  let kind, _ = decode_header head in
  if kind <> kind_tombstone then
    invalid_arg "Heap_file.free_tombstone: OID is not a tombstone";
  Pager.with_page_write t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
      Page.delete buf oid.Oid.slot;
      note t oid.Oid.page buf)

let insert_at t (oid : Oid.t) payload =
  let head = read_segment t oid in
  let kind, _ = decode_header head in
  if kind <> kind_tombstone then
    invalid_arg "Heap_file.insert_at: slot is not a tombstone";
  let write_head record =
    Pager.with_page_write t.pager ~file:t.file ~page:oid.Oid.page (fun buf ->
        let ok = Page.write buf oid.Oid.slot record in
        note t oid.Oid.page buf;
        ok)
  in
  let full =
    encode_segment ~kind:kind_head ~next:Oid.nil (payload, 0, Bytes.length payload)
  in
  let placed = Bytes.length full <= max_record t && write_head full in
  if not placed then begin
    (* Keep the head at the tombstone's size (an equal-size write always
       succeeds) and spill the whole payload into segments. *)
    let next = spill t payload 0 in
    let record = encode_segment ~kind:kind_head ~next (payload, 0, 0) in
    let ok = write_head record in
    assert ok
  end;
  t.count <- t.count + 1;
  Stats.bump (Pager.stats t.pager) Stats.Objects_written

(* Batched page access: the replication engine groups a propagation fan-out
   by page and touches every slot under a single pin, instead of one
   pin/lookup per object.  Only unchained heads are served — an object whose
   payload spills into continuation segments needs other pages anyway, so
   the caller falls back to {!read} / {!update} for it. *)

(* Per-slot plumbing for [modify_batch]: the page buffer is already
   pinned. *)

(* Where a live head sits on the pinned page. *)
let batch_head t buf ~page slot =
  if not (Page.is_live buf slot) then
    invalid_arg
      (Printf.sprintf "Heap_file: dead OID %s"
         (Oid.to_string { Oid.file = t.file; page; slot }));
  let off = Page.offset buf slot in
  if Wire.u8_at buf off <> kind_head then
    invalid_arg "Heap_file.modify_batch: OID is not an object head";
  off

let batch_payload t buf ~page slot =
  let off = batch_head t buf ~page slot in
  if Oid.is_nil_at buf (off + 1) then begin
    Stats.bump (Pager.stats t.pager) Stats.Objects_read;
    Some (Bytes.sub buf (off + header_size) (Page.read_length buf slot - header_size))
  end
  else None

(* Rewrite one slot in place if the payload still fits an unchained head;
   [true] means the caller must fall back to the general [update] (which may
   spill) after the pin is released. *)
let batch_write_deferred t buf ~page (slot, payload) =
  let off = batch_head t buf ~page slot in
  if not (Oid.is_nil_at buf (off + 1)) then true
  else begin
    let record =
      encode_segment ~kind:kind_head ~next:Oid.nil (payload, 0, Bytes.length payload)
    in
    if Bytes.length record <= max_record t && Page.write buf slot record then begin
      let stats = Pager.stats t.pager in
      Stats.bump stats Stats.Objects_written;
      false
    end
    else true
  end

let modify_batch t ~page slots ~f =
  (* Read-modify-write under a single pin: the page is pinned once for both
     the head reads and the in-place rewrites, instead of once per phase.
     [f] runs with the page pinned, so it may read other objects (a
     re-entrant pin on this page just increments the count) but must not
     write through this heap file. *)
  let deferred =
    Pager.with_pin t.pager ~file:t.file ~page ~dirty:true (fun buf ->
        let payloads = List.map (batch_payload t buf ~page) slots in
        let deferred =
          List.filter (batch_write_deferred t buf ~page) (f payloads)
        in
        note t page buf;
        deferred)
  in
  List.iter
    (fun (slot, payload) -> update t { Oid.file = t.file; page; slot } payload)
    deferred

let iter_heads t f =
  let pages = page_count t in
  for page = 0 to pages - 1 do
    (* Collect head slots while the page is pinned, then call back unpinned
       so the callback may itself touch storage. *)
    let heads =
      Pager.with_page_read t.pager ~file:t.file ~page (fun buf ->
          Page.fold
            (fun acc slot record ->
              if fst (Wire.get_u8 record 0) = kind_head then slot :: acc
              else acc)
            [] buf)
    in
    List.iter (fun slot -> f { Oid.file = t.file; page; slot }) (List.rev heads)
  done

let iter t f = iter_heads t (fun oid -> f oid (read t oid))

(* One page's worth of [iter_heads] — the unit of work of an incremental
   (resumable-cursor) walk.  Out-of-range pages yield []. *)
let oids_on_page t ~page =
  if page < 0 || page >= page_count t then []
  else
    let heads =
      Pager.with_page_read t.pager ~file:t.file ~page (fun buf ->
          Page.fold
            (fun acc slot record ->
              if fst (Wire.get_u8 record 0) = kind_head then slot :: acc
              else acc)
            [] buf)
    in
    List.rev_map (fun slot -> { Oid.file = t.file; page; slot }) heads

let chained_count t =
  let count = ref 0 in
  iter_heads t (fun oid ->
      let head = read_segment t oid in
      let _, next = decode_header head in
      if not (Oid.is_nil next) then incr count);
  !count
let iter_oids t f = iter_heads t f

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun oid payload -> acc := f !acc oid payload);
  !acc

(* Heads on a pinned page. *)
let heads_on buf =
  let heads = ref 0 in
  for slot = 0 to Page.slot_count buf - 1 do
    if Page.is_live buf slot && Wire.u8_at buf (Page.offset buf slot) = kind_head then
      incr heads
  done;
  !heads

(* One pin per page rebuilds both the object count and the free-space map. *)
let recount t =
  let pages = page_count t in
  t.count <- 0;
  t.space <- Array.make pages (-1);
  t.candidates <- 0;
  for page = 0 to pages - 1 do
    Pager.with_page_read t.pager ~file:t.file ~page (fun buf ->
        t.count <- t.count + heads_on buf;
        note t page buf)
  done

let attach ?(reserve = 0) pager ~file =
  let t = handle ~reserve pager file in
  recount t;
  t

let check t =
  let fail fmt = Printf.ksprintf failwith ("heap file %d: " ^^ fmt) t.file in
  let candidates = ref 0 in
  for page = 0 to page_count t - 1 do
    let entry = Pager.with_page_read t.pager ~file:t.file ~page (usable t) in
    if page >= Array.length t.space then fail "free-space map ends before page %d" page;
    if t.space.(page) <> entry then
      fail "free-space map has %d for page %d, whose bytes give %d" t.space.(page) page
        entry;
    if entry >= 0 then incr candidates
  done;
  if !candidates <> t.candidates then
    fail "free-space map counts %d candidate pages, the pages give %d" t.candidates
      !candidates
