module Lockdep = Fieldrep_util.Lockdep

exception Exhausted

type frame = {
  mutable file : int;
  mutable page : int;
  mutable pins : int;
  mutable dirty : bool;
  mutable referenced : bool;
  mutable occupied : bool;
  mutable prefetched : bool;
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
  mutable prefetch_depth : int;  (* 0 disables read-ahead *)
  mutable seq_file : int;
  mutable seq_next : int;
      (* last demand miss was (seq_file, seq_next - 1): a miss landing on
         (seq_file, seq_next) means a sequential run *)
}

let create ?(prefetch = 0) disk ~frames =
  if frames <= 0 then invalid_arg "Buffer_pool.create: frames must be positive";
  let make_frame _ =
    {
      file = -1;
      page = -1;
      pins = 0;
      dirty = false;
      referenced = false;
      occupied = false;
      prefetched = false;
      data = Bytes.make (Disk.page_size disk) '\000';
    }
  in
  {
    disk;
    frames = Array.init frames make_frame;
    table = Table.create (2 * frames);
    hand = 0;
    scratch = Bytes.make (Disk.page_size disk) '\000';
    prefetch_depth = max 0 prefetch;
    seq_file = -1;
    seq_next = -1;
  }

let resident t = Table.length t.table
let set_prefetch t depth = t.prefetch_depth <- max 0 depth
let prefetch_depth t = t.prefetch_depth

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
  f.referenced <- false;
  f.prefetched <- false

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
  f.prefetched <- false;
  if read then Bytes.blit t.scratch 0 f.data 0 (Bytes.length f.data)
  else Bytes.fill f.data 0 (Bytes.length f.data) '\000';
  Table.replace t.table (key ~file ~page) idx;
  idx

(* The physical read goes through [t.scratch] *before* the victim is
   evicted: a read that still fails after retries must not cost a clean
   cached page.  Failed installs leave the pool exactly as it was and are
   counted ([failed_reads]), so every lookup lands in exactly one of
   [buffer_hits], [page_reads] or [failed_reads]. *)
let install t ~file ~page ~read =
  let idx = find_victim t in
  if read then begin
    (try read_with_retry t ~file ~page t.scratch 1
     with e ->
       Stats.bump (Disk.stats t.disk) Stats.Failed_reads;
       raise e)
  end;
  install_at t idx ~file ~page ~read

(* Read pages (page+1 .. page+depth) of [file] into the pool ahead of
   demand.  Called with the frame for [page] pinned, so the demand page
   cannot be chosen as a victim.  Best-effort: an exhausted pool or a
   failing read simply ends the run — the demand path will face the fault
   itself if the page is ever actually needed. *)
let prefetch_run t ~file ~page =
  let stats = Disk.stats t.disk in
  let last = min (page + t.prefetch_depth) (Disk.page_count t.disk file - 1) in
  (try
     for p = page + 1 to last do
       if not (Table.mem t.table (key ~file ~page:p)) then begin
         let idx = install t ~file ~page:p ~read:true in
         t.frames.(idx).prefetched <- true;
         Stats.bump stats Stats.Prefetch_issued
       end
     done
   with Exhausted | Disk.Read_error _ | Disk.Corrupt_page _ -> ());
  if last > page then begin
    t.seq_file <- file;
    t.seq_next <- last + 1
  end

(* [find] with a [Not_found] handler, not [find_opt]: a hit allocates no
   [Some]. *)
let lookup t ~file ~page ~for_new =
  match Table.find t.table (key ~file ~page) with
  | idx ->
      let stats = Disk.stats t.disk in
      Stats.bump stats Stats.Buffer_hits;
      let f = t.frames.(idx) in
      if f.prefetched then begin
        f.prefetched <- false;
        Stats.bump stats Stats.Prefetch_hits
      end;
      f.referenced <- true;
      idx
  | exception Not_found ->
      let idx = install t ~file ~page ~read:(not for_new) in
      if t.prefetch_depth > 0 && not for_new then begin
        let sequential = file = t.seq_file && page = t.seq_next in
        t.seq_file <- file;
        t.seq_next <- page + 1;
        if sequential then begin
          (* Pin the demand frame across the run so the prefetcher's own
             installs cannot evict it. *)
          let f = t.frames.(idx) in
          f.pins <- f.pins + 1;
          Fun.protect
            ~finally:(fun () -> f.pins <- f.pins - 1)
            (fun () -> prefetch_run t ~file ~page)
        end
      end;
      idx

let pin_frame t ~file ~page ~dirty =
  let f = t.frames.(lookup t ~file ~page ~for_new:false) in
  Lockdep.acquire Lockdep.Pool_pin;
  f.pins <- f.pins + 1;
  if dirty then f.dirty <- true;
  f

let unpin_frame f =
  if f.pins <= 0 then invalid_arg "Buffer_pool.unpin: frame is not pinned";
  Lockdep.release Lockdep.Pool_pin;
  f.pins <- f.pins - 1

let pin t ~file ~page ~dirty = (pin_frame t ~file ~page ~dirty).data

let unpin t ~file ~page =
  match Table.find_opt t.table (key ~file ~page) with
  | None -> invalid_arg "Buffer_pool.unpin: page not resident"
  | Some idx -> unpin_frame t.frames.(idx)

(* A pinned frame is never evicted, invalidated or dropped, so the frame
   [pin_frame] returned is still the page's when the callback ends: no
   second lookup, and no closure for a [~finally]. *)
let with_pin_arg t ~file ~page ~dirty fn arg =
  let f = pin_frame t ~file ~page ~dirty in
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
let with_pin t ~file ~page ~dirty fn = with_pin_arg t ~file ~page ~dirty apply fn

let with_page_read t ~file ~page fn = with_pin t ~file ~page ~dirty:false fn
let with_page_write t ~file ~page fn = with_pin t ~file ~page ~dirty:true fn

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
      f.prefetched <- false;
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
        f.prefetched <- false;
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
        f.referenced <- false;
        f.prefetched <- false
      end)
    t.frames;
  Table.reset t.table;
  t.seq_file <- -1;
  t.seq_next <- -1
