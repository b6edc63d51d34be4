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
  (* The in-page steps below run under [Pager.with_pin_arg] with the file
     as their argument, so a step builds no closure: [at_page]/[at_slot]
     say where it works, [staged] how long the record staged in the
     scratch is, and [head_step] reads the kind it wants from [head_kind]
     and leaves its findings in [head_*]. *)
  mutable at_page : int;
  mutable at_slot : int;
  mutable staged : int;
  mutable head_kind : int;  (* -1 when the slot is dead *)
  mutable head_len : int;  (* the whole record, header included *)
  mutable head_next : Oid.t;
  read : 'a. (Bytes.t -> int -> int -> 'a) -> Bytes.t -> 'a;
      (* [read_with]'s in-frame step, bound to this handle *)
  (* [modify_run]'s edit, its first OID, the OIDs it has not reached and
     the rewrites that wait for its pin to go *)
  mutable run_edit : Oid.t -> Bytes.t -> int -> int -> edit;
  mutable run_first : Oid.t;
  mutable run_rest : Oid.t list;
  mutable run_deferred : (Oid.t * Bytes.t) list;
  (* [place_run]'s records [ins_i] to [ins_n - 1] of [ins_buf], laid out
     by [ins_bounds] as {!insert_run} says, and {!insert}'s bounds *)
  mutable ins_buf : Bytes.t;
  mutable ins_bounds : int array;
  mutable ins_i : int;
  mutable ins_n : int;
  mutable tail_refuses : int;  (* a size the tail page, as it is, refuses *)
  one : int array;
}

and edit = Keep | Patched | Rewrite of Bytes.t * int

let kind_head = 0
let kind_segment = 1

(* A tombstone is a deleted object whose home slot stays allocated, so the
   OID cannot be recycled while a transaction that deleted the object is
   still undecided.  [free_tombstone] releases the slot at commit;
   [insert_at] revives the object in place on abort. *)
let kind_tombstone = 2
let header_size = 1 + Oid.encoded_size

(* Per-domain staging buffer for the segment being written, so a write
   allocates nothing once warm.  A segment is staged just before the pin
   that copies it into the page; nothing stages in between. *)
let scratch = Domain.DLS.new_key (fun () -> ref Bytes.empty)

(* Stage [kind], [next] and [len] payload bytes from [pos] as one
   segment of [staged] bytes. *)
let stage t ~kind ~next payload pos len =
  let buf = Domain.DLS.get scratch in
  Wire.grow buf (header_size + len);
  let off = Wire.put_u8 !buf 0 kind in
  let off = Oid.encode !buf off next in
  Bytes.blit payload pos !buf off len;
  t.staged <- header_size + len

let staged () = !(Domain.DLS.get scratch)

let dead oid = invalid_arg (Printf.sprintf "Heap_file: dead OID %s" (Oid.to_string oid))

(* Where the record in [slot] of the pinned page [page] of [file], a
   segment of [kind], starts. *)
let segment_at buf ~file ~page slot ~kind =
  if not (Page.is_live buf slot) then dead { Oid.file; page; slot };
  let off = Page.offset buf slot in
  if Wire.u8_at buf off <> kind then
    if kind = kind_head then
      invalid_arg
        (Printf.sprintf "Heap_file: OID %s is not an object head"
           (Oid.to_string { Oid.file; page; slot }))
    else raise (Wire.Corrupt "Heap_file: bad segment kind in chain");
  off

(* Raised out of a head's pin when the object goes on in other segments,
   with the head's chunk and the next segment's OID. *)
exception Continues of Bytes.t * Oid.t

(* [read_with]'s step on the pinned page: decode the one-segment head at
   [at_slot] in place, or hand a chained head's chunk over. *)
let read_step t decode buf =
  let slot = t.at_slot in
  let off = segment_at buf ~file:t.file ~page:t.at_page slot ~kind:kind_head in
  let len = Page.read_length buf slot - header_size in
  if Oid.is_nil_at buf (off + 1) then decode buf (off + header_size) len
  else raise (Continues (Bytes.sub buf (off + header_size) len, Oid.decode buf (off + 1)))

let no_edit _ _ _ _ = Keep

(* A handle on [file]; [recount] fills in the count and the map. *)
let handle ~reserve pager file =
  let tail_page = Pager.page_count pager file - 1 in
  let rec t =
    {
      pager;
      file;
      reserve;
      count = 0;
      tail_page;
      space = [||];
      candidates = 0;
      at_page = 0;
      at_slot = 0;
      staged = 0;
      head_kind = 0;
      head_len = 0;
      head_next = Oid.nil;
      read = (fun decode buf -> read_step t decode buf);
      run_edit = no_edit;
      run_first = Oid.nil;
      run_rest = [];
      run_deferred = [];
      ins_buf = Bytes.empty;
      ins_bounds = [||];
      ins_i = 0;
      ins_n = 0;
      tail_refuses = max_int;
      one = [| 0; 0 |];
    }
  in
  t

let create ?(reserve = 0) pager =
  if reserve < 0 then invalid_arg "Heap_file.create: negative reserve";
  handle ~reserve pager (Pager.create_file pager)

let create_output pager = handle ~reserve:0 pager (Pager.create_output_file pager)

let file_id t = t.file
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
  if page = t.tail_page then t.tail_refuses <- max_int;
  let entry = usable t buf in
  if t.space.(page) >= 0 then t.candidates <- t.candidates - 1;
  if entry >= 0 then t.candidates <- t.candidates + 1;
  t.space.(page) <- entry

let rec lowest_fit t len page =
  if page >= Array.length t.space then -1
  else if t.space.(page) >= len then page
  else lowest_fit t len (page + 1)

(* Put the staged record on [at_page] if it fits the page's room. *)
let insert_step t buf =
  if room t ~live:(Page.live_count buf) ~free:(Page.free_space buf) < t.staged then -1
  else begin
    let slot = Page.insert buf (staged ()) t.staged in
    if slot >= 0 then note t t.at_page buf;
    slot
  end

(* Stage record [ins_i] of the run, only its head chunk when it outgrows a
   page. *)
let stage_next t =
  let pos = t.ins_bounds.(t.ins_i) in
  stage t ~kind:kind_head ~next:Oid.nil t.ins_buf pos
    (min (t.ins_bounds.(t.ins_i + 1) - pos) (max_record t - header_size))

(* The insert policy: the lowest reuse candidate the staged record fits,
   which always takes it, else the tail page unless that is known to
   refuse it, else -1 for a new page. *)
let offer t =
  let reuse = if t.candidates > 0 then lowest_fit t t.staged 0 else -1 in
  if reuse >= 0 || t.staged >= t.tail_refuses then reuse else t.tail_page

(* The step on the pinned [at_page], a new one when [at_slot] < 0: put the
   staged segment there and, for record [ins_i] of a run, each next record
   while the last was whole and the policy offers this page.  False, and
   the refusal remembered, when the tail page refuses the first. *)
let rec place_step t buf =
  if t.at_slot < 0 then Page.init buf;
  let slot = insert_step t buf in
  if slot < 0 then t.tail_refuses <- t.staged
  else begin
    t.at_slot <- slot;
    if t.ins_i < t.ins_n then begin
      let whole = t.staged - header_size = t.ins_bounds.(t.ins_i + 1) - t.ins_bounds.(t.ins_i) in
      t.ins_i <- t.ins_i + 1;
      t.count <- t.count + 1;
      Stats.bump (Pager.stats t.pager) Stats.Objects_written;
      if whole && t.ins_i < t.ins_n then begin
        stage_next t;
        if offer t = t.at_page then ignore (place_step t buf)
      end
    end
  end;
  slot >= 0

(* Place the staged segment, and the run's records after it that land on
   its page, under one pin.  Only the tail page may refuse; the policy
   then offers a new page. *)
let rec place_staged t =
  let offered = offer t in
  t.at_slot <- offered;
  t.at_page <- offered;
  if offered < 0 then begin
    let page = Pager.new_page t.pager ~file:t.file in
    if page >= Array.length t.space then begin
      let space = Array.make (max 8 (2 * page)) (-1) in
      Array.blit t.space 0 space 0 (Array.length t.space);
      t.space <- space
    end;
    t.tail_page <- page;
    t.at_page <- page
  end;
  if not (Pager.with_pin_arg t.pager ~file:t.file ~page:t.at_page ~dirty:true place_step t) then
    if offered <> t.tail_page then invalid_arg "Heap_file: record larger than a page"
    else place_staged t

(* What a head step asks for when it is not one kind: to look only (no
   live record has kind -1), or to act on a live record of any kind. *)
let look = -1
let any_kind = -2

(* The head step, the one pin of every mutation: read the header of the
   record in [at_slot] into [head_*] (kind -1 when the slot is dead), and
   when its kind is the one [head_kind] asked for, free the slot ([staged]
   = 0) or write the staged record over it.  The pin is clean: only an act
   dirties the page.  True when it acted; false also when the staged
   record does not fit the page. *)
let head_step t buf =
  let want = t.head_kind and slot = t.at_slot in
  if not (Page.is_live buf slot) then t.head_kind <- -1
  else begin
    let off = Page.offset buf slot in
    t.head_kind <- Wire.u8_at buf off;
    t.head_len <- Page.read_length buf slot;
    t.head_next <- (if Oid.is_nil_at buf (off + 1) then Oid.nil else Oid.decode buf (off + 1))
  end;
  let acted =
    t.head_kind >= 0
    && (want = t.head_kind || want = any_kind)
    &&
    if t.staged = 0 then begin
      Page.delete buf slot;
      true
    end
    else Page.write buf slot (staged ()) t.staged
  in
  if acted then begin
    Pager.mark_dirty t.pager ~file:t.file ~page:t.at_page;
    note t t.at_page buf
  end;
  acted

let head_at t (oid : Oid.t) want =
  if oid.Oid.file <> t.file then invalid_arg "Heap_file: OID from another file";
  t.at_page <- oid.Oid.page;
  t.at_slot <- oid.Oid.slot;
  t.head_kind <- want;
  Pager.with_pin_arg t.pager ~file:t.file ~page:oid.Oid.page ~dirty:false head_step t

let free_slot t oid want =
  t.staged <- 0;
  head_at t oid want

(* [oid] names a page of this file. *)
let in_file t (oid : Oid.t) =
  oid.Oid.file = t.file && oid.Oid.page >= 0 && oid.Oid.page < page_count t

(* The kind of the record at [oid], -1 when its slot is dead or it names
   another file or a page past the end; [head_*] then hold the rest of its
   header. *)
let kind_at t oid =
  if not (in_file t oid) then -1
  else begin
    ignore (head_at t oid look);
    t.head_kind
  end

(* Raise for a head step that found no record of the kind it wanted. *)
let refuse t oid message =
  if t.head_kind < 0 then dead oid;
  invalid_arg message

(* Write over the [kind] record at [oid] the head of a chain that goes on
   at [next]: [chunk] payload bytes from [pos], no more than the record
   holds, so the write succeeds in place. *)
let write_chain_head t oid ~kind payload pos chunk next =
  stage t ~kind:kind_head ~next payload pos chunk;
  let ok = head_at t oid kind in
  assert ok

(* Append the payload's bytes from [pos] up to [stop] as a chain of
   continuation segments, returning the OID of the first one (or nil when
   done). *)
let rec spill t payload pos stop =
  if pos = stop then Oid.nil
  else begin
    let chunk = min (stop - pos) (max_record t - header_size) in
    let next = spill t payload (pos + chunk) stop in
    stage t ~kind:kind_segment ~next payload pos chunk;
    t.ins_n <- 0;
    place_staged t;
    { Oid.file = t.file; page = t.at_page; slot = t.at_slot }
  end

(* Put [len] payload bytes over the [want] record at [oid] with one head
   step: true when they fit its page.  A payload no page could hold is not
   staged, and the step only looks. *)
let place t oid want payload len =
  if header_size + len <= max_record t then begin
    stage t ~kind:kind_head ~next:Oid.nil payload 0 len;
    head_at t oid want
  end
  else begin
    ignore (head_at t oid look);
    false
  end

(* Keep [keep] of [len] payload bytes in the [kind] record at [oid], whose
   page has no room for them all, and spill the rest. *)
let spill_head t oid ~kind payload len ~keep =
  let keep = min len keep in
  let next = spill t payload keep len in
  write_chain_head t oid ~kind payload 0 keep next

(* Place records [i] to [n - 1] of a run; see {!insert_run}.  A record
   that outgrows a page puts its head chunk down like any other, then
   spills the rest and points the head at it, so [at_page]/[at_slot] end
   on the last record's head. *)
let rec place_run t ~all buf bounds i n =
  t.ins_buf <- buf;
  t.ins_bounds <- bounds;
  t.ins_i <- i;
  t.ins_n <- n;
  if i < n then stage_next t;
  if i = n || not (all || offer t >= 0 || bounds.(n) - bounds.(i) >= Pager.page_size t.pager)
  then begin
    t.ins_buf <- Bytes.empty;
    i
  end
  else begin
    place_staged t;
    let last = t.ins_i - 1 and room = max_record t - header_size in
    let pos = bounds.(last) + room in
    if pos < bounds.(last + 1) then begin
      let head = { Oid.file = t.file; page = t.at_page; slot = t.at_slot } in
      write_chain_head t head ~kind:kind_head buf bounds.(last) room (spill t buf pos bounds.(last + 1))
    end;
    place_run t ~all buf bounds (last + 1) n
  end

let insert_run t ~all buf bounds n = place_run t ~all buf bounds 0 n

let insert ?len t payload =
  t.one.(1) <- (match len with Some len -> len | None -> Bytes.length payload);
  ignore (place_run t ~all:true payload t.one 0 1);
  { Oid.file = t.file; page = t.at_page; slot = t.at_slot }

(* A continuation segment's chunk and the segment after it, nil at the
   end. *)
let continuation (oid : Oid.t) buf =
  let off =
    segment_at buf ~file:oid.Oid.file ~page:oid.Oid.page oid.Oid.slot ~kind:kind_segment
  in
  let chunk =
    Bytes.sub buf (off + header_size) (Page.read_length buf oid.Oid.slot - header_size)
  in
  (chunk, if Oid.is_nil_at buf (off + 1) then Oid.nil else Oid.decode buf (off + 1))

(* The whole payload of a chained object: the head's chunk, then each
   continuation segment, each pinned once. *)
let assemble t first next =
  let parts = ref [ first ] in
  let cursor = ref next in
  while not (Oid.is_nil !cursor) do
    let oid = !cursor in
    if oid.Oid.file <> t.file then invalid_arg "Heap_file: OID from another file";
    let chunk, next =
      Pager.with_page_read t.pager ~file:t.file ~page:oid.Oid.page (continuation oid)
    in
    parts := chunk :: !parts;
    cursor := next
  done;
  Bytes.concat Bytes.empty (List.rev !parts)

let read_with t (oid : Oid.t) decode =
  if oid.Oid.file <> t.file then invalid_arg "Heap_file: OID from another file";
  t.at_page <- oid.Oid.page;
  t.at_slot <- oid.Oid.slot;
  let v =
    match
      Pager.with_pin_arg t.pager ~file:t.file ~page:oid.Oid.page ~dirty:false
        t.read decode
    with
    | v -> v
    | exception Continues (first, next) ->
        let payload = assemble t first next in
        decode payload 0 (Bytes.length payload)
  in
  Stats.bump (Pager.stats t.pager) Stats.Objects_read;
  v

let read t oid = read_with t oid Bytes.sub

let exists t oid = kind_at t oid = kind_head

let rec free_chain t oid =
  if not (Oid.is_nil oid) then begin
    if not (free_slot t oid kind_segment) then begin
      if t.head_kind < 0 then dead oid;
      raise (Wire.Corrupt "Heap_file: bad chain")
    end;
    free_chain t t.head_next
  end

(* A payload that fits the head's page goes over it in place; one that
   does not keeps the head's present size and spills the rest. *)
let update ?len t (oid : Oid.t) payload =
  let len = match len with Some len -> len | None -> Bytes.length payload in
  let placed = place t oid kind_head payload len in
  let old_next = t.head_next in
  if not placed then begin
    if t.head_kind <> kind_head then
      refuse t oid "Heap_file.update: OID is not an object head";
    spill_head t oid ~kind:kind_head payload len ~keep:(t.head_len - header_size)
  end;
  free_chain t old_next;
  Stats.bump (Pager.stats t.pager) Stats.Objects_written

let delete t oid =
  if not (free_slot t oid kind_head) then
    refuse t oid "Heap_file.delete: OID is not an object head";
  free_chain t t.head_next;
  t.count <- t.count - 1

(* Best-effort removal for scrub: drop whatever survives of an object whose
   chain may pass through a blanked (repaired-empty) page.  Frees the slot
   if it is still live and follows the continuation chain while the
   segments remain readable, stopping silently at the first dead or
   malformed one — [delete] would raise there, but during repair the
   missing tail is exactly the damage being cleaned up. *)
let purge t (oid : Oid.t) =
  if oid.Oid.file <> t.file then invalid_arg "Heap_file.purge: OID from another file";
  if in_file t oid && free_slot t oid any_kind then begin
    if t.head_kind = kind_head then t.count <- t.count - 1;
    let cursor = ref t.head_next in
    while in_file t !cursor && free_slot t !cursor kind_segment do
      cursor := t.head_next
    done
  end

let delete_pinned t oid =
  (* A head record is at least [header_size] bytes, so an equal-or-smaller
     in-place write always succeeds. *)
  stage t ~kind:kind_tombstone ~next:Oid.nil Bytes.empty 0 0;
  if not (head_at t oid kind_head) then
    refuse t oid "Heap_file.delete_pinned: OID is not an object head";
  free_chain t t.head_next;
  t.count <- t.count - 1

let free_tombstone t oid = in_file t oid && free_slot t oid kind_tombstone

let insert_at t oid payload =
  let len = Bytes.length payload in
  if not (place t oid kind_tombstone payload len) then begin
    if t.head_kind <> kind_tombstone then
      refuse t oid "Heap_file.insert_at: slot is not a tombstone";
    (* An oversize payload keeps the head at the tombstone's size and
       spills whole into segments. *)
    spill_head t oid ~kind:kind_tombstone payload len ~keep:0
  end;
  t.count <- t.count + 1;
  Stats.bump (Pager.stats t.pager) Stats.Objects_written

(* Batched page access: the replication engine groups a propagation fan-out
   by page and edits every object on it under a single pin, instead of one
   pin pair per object. *)

(* Put [len] bytes of [payload] in place of the unchained head in [slot]
   if they still fit there. *)
let write_in_place t buf slot payload len =
  header_size + len <= max_record t
  && (stage t ~kind:kind_head ~next:Oid.nil payload 0 len;
      Page.write buf slot (staged ()) t.staged)

(* The run pins its page clean; an edit that changed the frame dirties it. *)
let written t page =
  Pager.mark_dirty t.pager ~file:t.file ~page;
  Stats.bump (Pager.stats t.pager) Stats.Objects_written

(* Edit [oid] on the pinned [page], queueing the rewrite that must wait
   for the pin to go — a chained object's, and one that no longer fits
   its page. *)
let edit_one t buf page (oid : Oid.t) =
  let slot = oid.Oid.slot in
  let off = segment_at buf ~file:t.file ~page slot ~kind:kind_head in
  if Oid.is_nil_at buf (off + 1) then begin
    Stats.bump (Pager.stats t.pager) Stats.Objects_read;
    match
      t.run_edit oid buf (off + header_size) (Page.read_length buf slot - header_size)
    with
    | Keep -> ()
    | Patched -> written t page
    | Rewrite (payload, len) ->
        if write_in_place t buf slot payload len then written t page
        else t.run_deferred <- (oid, Bytes.sub payload 0 len) :: t.run_deferred
  end
  else begin
    let payload = read t oid in
    match t.run_edit oid payload 0 (Bytes.length payload) with
    | Keep -> ()
    | Patched -> t.run_deferred <- (oid, payload) :: t.run_deferred
    | Rewrite (p, len) -> t.run_deferred <- (oid, Bytes.sub p 0 len) :: t.run_deferred
  end

(* Edit the objects at the head of [oids] on the pinned [page] and leave
   the rest of the list in [run_rest]. *)
let rec edit_run t buf page oids =
  match oids with
  | (oid : Oid.t) :: rest when oid.Oid.file = t.file && oid.Oid.page = page ->
      edit_one t buf page oid;
      edit_run t buf page rest
  | rest -> t.run_rest <- rest

(* [f] may read through this handle, which moves [at_page]: read it first. *)
let run_step t buf =
  let page = t.at_page in
  edit_one t buf page t.run_first;
  edit_run t buf page t.run_rest;
  note t page buf

let modify_run t (first : Oid.t) rest ~f =
  if first.Oid.file <> t.file then invalid_arg "Heap_file: OID from another file";
  t.at_page <- first.Oid.page;
  t.run_edit <- f;
  t.run_first <- first;
  t.run_rest <- rest;
  t.run_deferred <- [];
  Pager.with_pin_arg t.pager ~file:t.file ~page:first.Oid.page ~dirty:false run_step t;
  let rest = t.run_rest and deferred = t.run_deferred in
  t.run_edit <- no_edit;
  t.run_first <- Oid.nil;
  t.run_rest <- [];
  t.run_deferred <- [];
  if deferred <> [] then
    List.iter (fun (oid, payload) -> update t oid payload) (List.rev deferred);
  rest

let is_head buf slot =
  Page.is_live buf slot && Wire.u8_at buf (Page.offset buf slot) = kind_head

(* The head slots of a pinned page, in slot order, read in place. *)
let head_slots buf =
  let heads = ref [] in
  for slot = Page.slot_count buf - 1 downto 0 do
    if is_head buf slot then heads := slot :: !heads
  done;
  !heads

(* One page's worth of [iter_oids] — the unit of work of an incremental
   (resumable-cursor) walk.  Out-of-range pages yield []. *)
let oids_on_page t ~page =
  if page < 0 || page >= page_count t then []
  else
    List.map
      (fun slot -> { Oid.file = t.file; page; slot })
      (Pager.with_page_read t.pager ~file:t.file ~page head_slots)

(* Head slots are collected while the page is pinned, and the callback runs
   unpinned so it may itself touch storage. *)
let iter_oids t f =
  for page = 0 to page_count t - 1 do
    List.iter f (oids_on_page t ~page)
  done

let iter t decode f = iter_oids t (fun oid -> f oid (read_with t oid decode))

let chained_count t =
  let count = ref 0 in
  iter_oids t (fun oid ->
      if kind_at t oid = kind_head && not (Oid.is_nil t.head_next) then incr count);
  !count

(* Heads on a pinned page. *)
let heads_on buf =
  let heads = ref 0 in
  for slot = 0 to Page.slot_count buf - 1 do
    if is_head buf slot then incr heads
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
