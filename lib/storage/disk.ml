exception Crash of string
exception Read_error of string
exception Corrupt_page of { file : int; page : int }

(* Each page carries a checksum trailer kept out of the page image —
   conceptually the 8 spare bytes of a 520-byte sector — so the
   slotted-page layout (whose directory grows down from the page end) and
   the cost model's page capacity are untouched.  Where the trailer
   physically lives is the backend's business (an int array for [Mem], 8
   real bytes per slot for [File]); verification, quarantine and fault
   injection all stay here, shared by every backend. *)

type backend_kind = Mem | File of string option

type packed = P : (module Backend.S with type t = 'a) * 'a -> packed

type failpoint = { mutable remaining : int; mutable fires : int; torn : bool }

type read_failpoint = {
  mutable r_remaining : int;
  mutable r_fires : int;
  every : int;
  mutable tick : int;
}

(* Pages are keyed by one int, [(file lsl 32) lor page], as in the buffer
   pool, so a quarantine probe hashes an immediate instead of a tuple. *)
module Table = Hashtbl.Make (Int)

let page_key ~file ~page = (file lsl 32) lor page

(* The highest file id handed out: [Oid.max_file] is the nil OID's file. *)
let max_file_id = Oid.max_file - 1

type t = {
  page_size : int;
  zero_sum : int;
  stats : Stats.t;
  backend : packed;
  backend_name : string;
  scratch : Bytes.t;  (* staging for [verify_page] and the fault injectors *)
  mutable next_file : int;
  outputs : unit Table.t;  (* live query output file ids *)
  mutable failpoint : failpoint option;
  mutable read_failpoint : read_failpoint option;
  quarantine_tbl : unit Table.t;
}

let backend_of_env () =
  match Sys.getenv_opt "FIELDREP_BACKEND" with
  | None | Some "" | Some "mem" -> Mem
  | Some "file" -> File None
  | Some other ->
      invalid_arg
        (Printf.sprintf "FIELDREP_BACKEND: unknown backend %S (mem or file)" other)

let create ?(page_size = 4096) ?backend stats =
  let kind = match backend with Some k -> k | None -> backend_of_env () in
  let backend, backend_name =
    match kind with
    | Mem -> (P ((module Backend.Mem), Backend.Mem.create ~page_size), Backend.Mem.label)
    | File dir ->
        (P ((module Backend.File), Backend.File.create ~page_size ?dir ()), Backend.File.label)
  in
  {
    page_size;
    zero_sum = Checksum.sum32 (Bytes.make page_size '\000') 0 page_size;
    stats;
    backend;
    backend_name;
    scratch = Bytes.create page_size;
    next_file = 0;
    outputs = Table.create 8;
    failpoint = None;
    read_failpoint = None;
    quarantine_tbl = Table.create 8;
  }

let page_size t = t.page_size
let stats t = t.stats
let backend_name t = t.backend_name
let sum_of t bytes = Checksum.sum32 bytes 0 t.page_size

let close t =
  let (P ((module B), b)) = t.backend in
  B.close b

(* File ids come from two ranges of one space.  Persistent files — sets,
   indexes, link and S' files, everything DDL makes and the log replays —
   count up from 0 through [next_file].  Query output files, which nothing
   logs, take the highest id no live output holds, counting down from
   [max_file_id], so a query never moves the id the next DDL gets, and a
   dropped output's id is reused.  Either allocation raises once the two
   ranges meet. *)
let create_file t =
  let id = t.next_file in
  if id > max_file_id || Table.mem t.outputs id then
    invalid_arg
      (Printf.sprintf "Disk.create_file: file ids exhausted (next id %d)" id);
  t.next_file <- id + 1;
  let (P ((module B), b)) = t.backend in
  B.create_file b ~id;
  id

let create_output_file t =
  let rec free id = if Table.mem t.outputs id then free (id - 1) else id in
  let id = free max_file_id in
  if id < t.next_file then
    invalid_arg
      (Printf.sprintf
         "Disk.create_output_file: file ids exhausted (%d persistent, %d output)"
         t.next_file (Table.length t.outputs));
  Table.replace t.outputs id ();
  let (P ((module B), b)) = t.backend in
  B.create_file b ~id;
  id

let is_output_file t id = Table.mem t.outputs id

let delete_file t id =
  let (P ((module B), b)) = t.backend in
  if B.file_exists b ~id then B.delete_file b ~id;
  Table.remove t.outputs id;
  if Table.length t.quarantine_tbl > 0 then
    Table.filter_map_inplace
      (fun k () -> if k lsr 32 = id then None else Some ())
      t.quarantine_tbl

let file_exists t id =
  let (P ((module B), b)) = t.backend in
  B.file_exists b ~id

(* Every entry point names itself in its unknown-file error (the PR 5
   named-error policy: no bare [Not_found] escapes the storage layer). *)
let known t ~op id =
  let (P ((module B), b)) = t.backend in
  if not (B.file_exists b ~id) then
    invalid_arg (Printf.sprintf "Disk.%s: unknown file %d" op id)

let page_count t id =
  known t ~op:"page_count" id;
  let (P ((module B), b)) = t.backend in
  B.page_count b ~id

let allocate_page t id =
  known t ~op:"allocate_page" id;
  let (P ((module B), b)) = t.backend in
  let page_no = B.page_count b ~id in
  B.grow b ~id;
  B.write_sum b ~file:id ~page:page_no ~sum:t.zero_sum;
  Stats.bump t.stats Stats.Pages_allocated;
  page_no

let check t ~op ~file page =
  known t ~op file;
  let (P ((module B), b)) = t.backend in
  let count = B.page_count b ~id:file in
  if page < 0 || page >= count then
    invalid_arg (Printf.sprintf "Disk: page %d out of range (count %d)" page count)

(* {2 Quarantine} *)

(* The table is almost always empty, and every read and write asks it. *)
let quarantine t ~file ~page = Table.replace t.quarantine_tbl (page_key ~file ~page) ()

let quarantined t ~file ~page =
  Table.length t.quarantine_tbl > 0
  && Table.mem t.quarantine_tbl (page_key ~file ~page)

let clear_quarantine t ~file ~page =
  if Table.length t.quarantine_tbl > 0 then
    Table.remove t.quarantine_tbl (page_key ~file ~page)

let quarantined_pages t =
  Table.fold
    (fun k () acc -> (k lsr 32, k land 0xffff_ffff) :: acc)
    t.quarantine_tbl []
  |> List.sort compare

(* {2 Fault injection} *)

let set_failpoint ?(torn = false) ?(count = 1) t ~after_writes =
  if after_writes < 0 then invalid_arg "Disk.set_failpoint: negative count";
  if count < 1 then invalid_arg "Disk.set_failpoint: count must be >= 1";
  t.failpoint <- Some { remaining = after_writes; fires = count; torn }

let clear_failpoint t = t.failpoint <- None

let writes_until_crash t = Option.map (fun fp -> fp.remaining) t.failpoint

let set_read_failpoint ?(count = 1) ?(every = 1) t ~after_reads =
  if after_reads < 0 then invalid_arg "Disk.set_read_failpoint: negative count";
  if count < 1 then invalid_arg "Disk.set_read_failpoint: count must be >= 1";
  if every < 1 then invalid_arg "Disk.set_read_failpoint: every must be >= 1";
  t.read_failpoint <- Some { r_remaining = after_reads; r_fires = count; every; tick = 0 }

let clear_read_failpoint t = t.read_failpoint <- None

let corrupt_page t ~file ~page offsets =
  check t ~op:"corrupt_page" ~file page;
  let (P ((module B), b)) = t.backend in
  B.read b ~file ~page t.scratch;
  List.iter
    (fun off ->
      if off < 0 || off >= t.page_size then
        invalid_arg "Disk.corrupt_page: offset out of range";
      Bytes.set t.scratch off (Char.chr (Char.code (Bytes.get t.scratch off) lxor 0xff)))
    offsets;
  B.write b ~file ~page ~len:t.page_size t.scratch
(* the stored checksum is deliberately left stale: that is the corruption *)

let tear_page t ~file ~page =
  check t ~op:"tear_page" ~file page;
  let (P ((module B), b)) = t.backend in
  B.read b ~file ~page t.scratch;
  Bytes.fill t.scratch (t.page_size / 2) (t.page_size - (t.page_size / 2)) '\000';
  B.write b ~file ~page ~len:t.page_size t.scratch

let verify_page t ~file ~page =
  check t ~op:"verify_page" ~file page;
  let (P ((module B), b)) = t.backend in
  B.read b ~file ~page t.scratch;
  B.read_sum b ~file ~page = sum_of t t.scratch

(* {2 Physical I/O} *)

(* Verified in the caller's buffer: a caller that must not see a failed
   read's bytes (the buffer pool) reads into a staging buffer of its
   own. *)
let read_verified t ~file ~page buf =
  let (P ((module B), b)) = t.backend in
  B.read b ~file ~page buf;
  if B.read_sum b ~file ~page <> sum_of t buf then begin
    quarantine t ~file ~page;
    Stats.bump t.stats Stats.Checksum_failures;
    raise (Corrupt_page { file; page })
  end

let read_page t ~file ~page buf =
  check t ~op:"read_page" ~file page;
  assert (Bytes.length buf = t.page_size);
  if quarantined t ~file ~page then raise (Corrupt_page { file; page });
  (match t.read_failpoint with
  | Some rf when rf.r_remaining > 0 -> rf.r_remaining <- rf.r_remaining - 1
  | Some rf ->
      rf.tick <- rf.tick + 1;
      if rf.tick mod rf.every = 0 then begin
        rf.r_fires <- rf.r_fires - 1;
        if rf.r_fires <= 0 then t.read_failpoint <- None;
        raise
          (Read_error
             (Printf.sprintf "injected transient read error on file %d page %d"
                file page))
      end
  | None -> ());
  read_verified t ~file ~page buf;
  Stats.record_read t.stats ~file

let write_page t ~file ~page buf =
  check t ~op:"write_page" ~file page;
  assert (Bytes.length buf = t.page_size);
  let (P ((module B), b)) = t.backend in
  (match t.failpoint with
  | Some fp when fp.remaining <= 0 ->
      (* A torn write lands half the buffer but never the trailer update, so
         the page fails verification on the next read — exactly how a real
         checksummed store detects torn data pages. *)
      if fp.torn then B.write b ~file ~page ~len:(t.page_size / 2) buf;
      fp.fires <- fp.fires - 1;
      if fp.fires <= 0 then t.failpoint <- None;
      raise
        (Crash
           (Printf.sprintf "injected crash on write to file %d page %d%s" file
              page
              (if fp.torn then " (torn)" else "")))
  | Some fp -> fp.remaining <- fp.remaining - 1
  | None -> ());
  B.write b ~file ~page ~len:t.page_size buf;
  B.write_sum b ~file ~page ~sum:(sum_of t buf);
  (* rewriting a page with fresh, checksummed content lifts its quarantine *)
  clear_quarantine t ~file ~page;
  Stats.record_write t.stats ~file

let raw_page t ~file ~page =
  check t ~op:"raw_page" ~file page;
  let (P ((module B), b)) = t.backend in
  let out = Bytes.create t.page_size in
  B.read b ~file ~page out;
  out

let dump_page t ~file ~page =
  check t ~op:"dump_page" ~file page;
  if quarantined t ~file ~page then raise (Corrupt_page { file; page });
  let out = Bytes.create t.page_size in
  read_verified t ~file ~page out;
  out

let restore_file t ~id pages =
  if id < 0 || id > max_file_id then
    invalid_arg (Printf.sprintf "Disk.restore_file: file id %d out of range" id);
  Array.iter (fun p -> assert (Bytes.length p = t.page_size)) pages;
  let (P ((module B), b)) = t.backend in
  if B.file_exists b ~id then B.delete_file b ~id;
  B.create_file b ~id;
  Array.iteri
    (fun page p ->
      B.grow b ~id;
      B.write b ~file:id ~page ~len:t.page_size p;
      B.write_sum b ~file:id ~page ~sum:(sum_of t p))
    pages;
  if id >= t.next_file then t.next_file <- id + 1

let next_file_id t = t.next_file
let reserve_file_ids t n =
  if n > Oid.max_file then
    invalid_arg (Printf.sprintf "Disk.reserve_file_ids: %d is past the id space" n);
  if n > t.next_file then t.next_file <- n

let total_pages t =
  let (P ((module B), b)) = t.backend in
  List.fold_left (fun acc id -> acc + B.page_count b ~id) 0 (B.file_ids b)

let file_ids t =
  let (P ((module B), b)) = t.backend in
  B.file_ids b
