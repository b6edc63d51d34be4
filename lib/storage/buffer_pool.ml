module Lockdep = Fieldrep_util.Lockdep

exception Exhausted

type frame = {
  mutable file : int;
  mutable page : int;
  mutable pins : int;
  mutable dirty : bool;
  mutable referenced : bool;
  mutable occupied : bool;
  data : Bytes.t;
}

(* The frame table is keyed by one int, [(file lsl 32) lor page]: exact,
   because an OID packs the file into 16 bits and the page into 32, and a
   lookup then hashes and compares an immediate instead of a tuple. *)
module Table = Hashtbl.Make (Int)

let key ~file ~page = (file lsl 32) lor page

type t = {
  disk : Disk.t;
  frames : frame array;
  table : int Table.t;  (* key ~file ~page -> frame index *)
  mutable hand : int;
  scratch : Bytes.t;
      (* staging buffer for installs: the physical read lands here before
         the victim frame is touched *)
}

let create disk ~frames =
  if frames <= 0 then invalid_arg "Buffer_pool.create: frames must be positive";
  let make_frame _ =
    {
      file = -1;
      page = -1;
      pins = 0;
      dirty = false;
      referenced = false;
      occupied = false;
      data = Bytes.make (Disk.page_size disk) '\000';
    }
  in
  {
    disk;
    frames = Array.init frames make_frame;
    table = Table.create (2 * frames);
    hand = 0;
    scratch = Bytes.make (Disk.page_size disk) '\000';
  }

let resident t = Table.length t.table

let write_back t f =
  if f.dirty then begin
    Disk.write_page t.disk ~file:f.file ~page:f.page f.data;
    f.dirty <- false
  end

let evict_frame t idx =
  let f = t.frames.(idx) in
  assert (f.occupied && f.pins = 0);
  write_back t f;
  Table.remove t.table (key ~file:f.file ~page:f.page);
  f.occupied <- false;
  f.referenced <- false

(* Clock sweep: skip pinned frames, give referenced frames a second chance.
   Two full sweeps with no victim means everything is pinned.  The miss
   path's loops are top-level functions, not local closures, so a miss
   allocates no closure. *)
let rec sweep t steps =
  let n = Array.length t.frames in
  if steps > 2 * n then raise Exhausted
  else begin
    let idx = t.hand in
    t.hand <- (t.hand + 1) mod n;
    let f = t.frames.(idx) in
    if not f.occupied then idx
    else if f.pins > 0 then sweep t (steps + 1)
    else if f.referenced then begin
      f.referenced <- false;
      sweep t (steps + 1)
    end
    else idx
  end

let find_victim t = sweep t 0

(* Transient faults ({!Disk.Read_error}) are retried a bounded number of
   times; the disk is simulated, so the backoff between attempts is a
   counted retry rather than a wall-clock sleep.  Permanent faults
   ({!Disk.Corrupt_page}) are never retried — rereading cannot fix a bad
   checksum. *)
let max_read_attempts = 3

let rec read_with_retry t ~file ~page buf attempt =
  try Disk.read_page t.disk ~file ~page buf
  with Disk.Read_error _ when attempt < max_read_attempts ->
    Stats.bump (Disk.stats t.disk) Stats.Read_retries;
    read_with_retry t ~file ~page buf (attempt + 1)

(* Retarget an unpinned (or just-vacated) frame at (file, page).  The page
   image is already in hand — in [t.scratch] when [read] — or the frame is
   zeroed for a fresh page, so nothing here can fail between evicting the
   old resident and mapping the new one. *)
let install_at t idx ~file ~page ~read =
  let f = t.frames.(idx) in
  if f.occupied then evict_frame t idx;
  f.file <- file;
  f.page <- page;
  f.pins <- 0;
  f.dirty <- false;
  f.referenced <- true;
  f.occupied <- true;
  if read then Bytes.blit t.scratch 0 f.data 0 (Bytes.length f.data)
  else Bytes.fill f.data 0 (Bytes.length f.data) '\000';
  Table.replace t.table (key ~file ~page) idx;
  idx

(* The physical read goes through [t.scratch] *before* the victim is
   evicted: a read that still fails after retries must not cost a clean
   cached page.  Failed installs leave the pool exactly as it was and are
   counted ([failed_reads]), so every lookup lands in exactly one of
   [buffer_hits], [page_reads] or [failed_reads]. *)
let install t ~file ~page =
  let idx = find_victim t in
  (try read_with_retry t ~file ~page t.scratch 1
   with e ->
     Stats.bump (Disk.stats t.disk) Stats.Failed_reads;
     raise e);
  install_at t idx ~file ~page ~read:true

(* [find] with a [Not_found] handler, not [find_opt]: a hit allocates no
   [Some]. *)
let lookup t ~file ~page =
  match Table.find t.table (key ~file ~page) with
  | idx ->
      Stats.bump (Disk.stats t.disk) Stats.Buffer_hits;
      t.frames.(idx).referenced <- true;
      idx
  | exception Not_found -> install t ~file ~page

let unpin_frame f =
  Lockdep.release Lockdep.Pool_pin;
  f.pins <- f.pins - 1

(* The only place a pin is taken.  A pinned frame is never evicted,
   invalidated or dropped, so the frame pinned here is still the page's
   when the callback ends: no second lookup, and no closure for a
   [~finally]. *)
let with_pin_arg t ~file ~page ~dirty fn arg =
  let f = t.frames.(lookup t ~file ~page) in
  Lockdep.acquire Lockdep.Pool_pin;
  f.pins <- f.pins + 1;
  if dirty then f.dirty <- true;
  match fn arg f.data with
  | r ->
      unpin_frame f;
      r
  | exception e ->
      unpin_frame f;
      raise e

(* An uncounted lookup: the caller holds a pin, so the frame is resident. *)
let mark_dirty t ~file ~page =
  let f = t.frames.(Table.find t.table (key ~file ~page)) in
  if f.pins <= 0 then invalid_arg "Buffer_pool.mark_dirty: frame is not pinned";
  f.dirty <- true

let apply fn buf = fn buf

let with_page_read t ~file ~page fn =
  with_pin_arg t ~file ~page ~dirty:false apply fn

let with_page_write t ~file ~page fn =
  with_pin_arg t ~file ~page ~dirty:true apply fn

let new_page t ~file =
  (* Claim the victim frame *before* allocating: there is no
     [Disk.free_page], so allocating first would leak the disk page when an
     all-pinned pool raises [Exhausted]. *)
  let idx = find_victim t in
  let page = Disk.allocate_page t.disk file in
  let idx = install_at t idx ~file ~page ~read:false in
  t.frames.(idx).dirty <- true;
  page

let flush t = Array.iter (fun f -> if f.occupied then write_back t f) t.frames

let invalidate t ~file ~page =
  match Table.find_opt t.table (key ~file ~page) with
  | None -> ()
  | Some idx ->
      let f = t.frames.(idx) in
      if f.pins > 0 then invalid_arg "Buffer_pool.invalidate: pinned frame";
      Table.remove t.table (key ~file ~page);
      f.occupied <- false;
      f.referenced <- false;
      f.dirty <- false

(* Both bulk-discard operations refuse *before* touching anything: a pinned
   frame found mid-sweep must not leave some pages unmapped and others not. *)
let check_unpinned t ~op ~file =
  Array.iter
    (fun f ->
      if f.occupied && f.pins > 0 && (file = -1 || f.file = file) then
        invalid_arg (Printf.sprintf "Buffer_pool.%s: pinned frame" op))
    t.frames

let drop_file t ~file =
  check_unpinned t ~op:"drop_file" ~file;
  Array.iter
    (fun f ->
      if f.occupied && f.file = file then begin
        Table.remove t.table (key ~file:f.file ~page:f.page);
        f.occupied <- false;
        f.referenced <- false;
        f.dirty <- false
      end)
    t.frames

let clear t =
  check_unpinned t ~op:"clear" ~file:(-1);
  flush t;
  Array.iter
    (fun f ->
      if f.occupied then begin
        f.occupied <- false;
        f.referenced <- false
      end)
    t.frames;
  Table.reset t.table
