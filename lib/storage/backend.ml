(* Raw page storage behind [Disk]: where a file's pages and checksum
   trailers physically live.  [Disk] owns every policy — bounds checks,
   stats, quarantine, fault injection — and calls down here only to move
   bytes, so a backend is deliberately dumb: no verification, no counters.

   Two implementations:

   - [Mem]: the original growable [Bytes.t array] per file.  Free, exact,
     and deterministic — the right substrate for unit tests and for
     benchmarks that measure I/O *counts*.

   - [File]: one real file per fieldrep file id, written through
     [Unix] seek/read/write.  Each on-disk page slot is [page_size + 8]
     bytes: the page image followed by an 8-byte checksum trailer (the
     "spare bytes of a 520-byte sector" the mem backend models with its
     [sums] array).  A torn write is a partial [write] of the first half
     of the slot that never touches the trailer — exactly the failure a
     checksummed store detects on the next read. *)

module type S = sig
  type t

  val label : string
  val create_file : t -> id:int -> unit
  (** Make [id] exist with zero pages, truncating any previous content. *)

  val delete_file : t -> id:int -> unit
  val file_exists : t -> id:int -> bool
  val file_ids : t -> int list
  val page_count : t -> id:int -> int

  val grow : t -> id:int -> unit
  (** Append one zeroed page.  The caller seals it with {!write_sum}. *)

  val read : t -> file:int -> page:int -> Bytes.t -> unit
  (** Fill the caller's page-sized buffer from the stored page. *)

  val write : t -> file:int -> page:int -> len:int -> Bytes.t -> unit
  (** Land the first [len] bytes of the buffer on the stored page,
      leaving bytes past [len] — and the checksum trailer — untouched.
      [len = page_size] is a full write; anything less is torn. *)

  val read_sum : t -> file:int -> page:int -> int
  val write_sum : t -> file:int -> page:int -> sum:int -> unit

  val close : t -> unit
  (** Release OS resources (idempotent).  [Mem] is a no-op; [File]
      closes descriptors and removes an auto-created directory. *)
end

(* ------------------------------------------------------------------ *)

(* Both backends key their per-file tables by the file id itself, and
   look a file up with [find] and a [Not_found] handler rather than
   [find_opt], whose [Some] would cost a page I/O an allocation. *)
module Table = Hashtbl.Make (Int)

let unknown id = invalid_arg (Printf.sprintf "Disk: unknown file %d" id)
let sorted_ids files = Table.fold (fun id _ acc -> id :: acc) files [] |> List.sort Int.compare

module Mem = struct
  type file = {
    mutable pages : Bytes.t array;
    mutable count : int;
    mutable sums : int array;
  }

  type t = { page_size : int; files : file Table.t }

  let label = "mem"
  let create ~page_size = { page_size; files = Table.create 16 }
  let find t id = try Table.find t.files id with Not_found -> unknown id

  let create_file t ~id =
    Table.replace t.files id { pages = [||]; count = 0; sums = [||] }

  let delete_file t ~id = Table.remove t.files id
  let file_exists t ~id = Table.mem t.files id
  let file_ids t = sorted_ids t.files

  let page_count t ~id = (find t id).count

  let grow t ~id =
    let f = find t id in
    if f.count = Array.length f.pages then begin
      let cap = max 8 (2 * Array.length f.pages) in
      let pages = Array.make cap Bytes.empty in
      Array.blit f.pages 0 pages 0 f.count;
      f.pages <- pages;
      let sums = Array.make cap 0 in
      Array.blit f.sums 0 sums 0 f.count;
      f.sums <- sums
    end;
    f.pages.(f.count) <- Bytes.make t.page_size '\000';
    f.count <- f.count + 1

  let read t ~file ~page buf = Bytes.blit (find t file).pages.(page) 0 buf 0 t.page_size
  let write t ~file ~page ~len buf = Bytes.blit buf 0 (find t file).pages.(page) 0 len
  let read_sum t ~file ~page = (find t file).sums.(page)
  let write_sum t ~file ~page ~sum = (find t file).sums.(page) <- sum
  let close _ = ()
end

(* ------------------------------------------------------------------ *)

module File = struct
  (* A process-wide LRU cache of open descriptors, keyed by (backend id,
     file id).  Crash-matrix tests build hundreds of short-lived databases
     per run; without a global cap they would exhaust the fd limit long
     before the GC reclaims the corresponding backends.  Eviction just
     closes the descriptor — the path is re-opened on the next access. *)
  module Fd_cache = struct
    (* One int per (backend, file): a file id is below [Oid.max_file]. *)
    let key ~bid ~file = (bid * (Oid.max_file + 1)) + file

    type entry = { fd : Unix.file_descr; mutable last : int }

    let cap = 64
    let tbl : entry Table.t = Table.create 97
    let clock = ref 0

    let evict_oldest () =
      let oldest =
        Table.fold
          (fun k e acc ->
            match acc with
            | Some (_, best) when best <= e.last -> acc
            | Some _ | None -> Some (k, e.last))
          tbl None
      in
      match oldest with
      | Some (k, _) ->
          Unix.close (Table.find tbl k).fd;
          Table.remove tbl k
      | None -> ()

    (* The cached descriptor for [key], or [Not_found]. *)
    let find key =
      let e = Table.find tbl key in
      incr clock;
      e.last <- !clock;
      e.fd

    let open_ key path =
      if Table.length tbl >= cap then evict_oldest ();
      let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
      incr clock;
      Table.replace tbl key { fd; last = !clock };
      fd

    let drop ~bid ~file =
      let key = key ~bid ~file in
      match Table.find tbl key with
      | e ->
          Unix.close e.fd;
          Table.remove tbl key
      | exception Not_found -> ()
  end

  (* Auto-created backing directories, removed at process exit so a test
     run does not strew temp dirs.  [close] removes a directory early and
     unregisters it. *)
  let auto_dirs : (string, unit) Hashtbl.t = Hashtbl.create 8
  let exit_hook = ref false

  let remove_dir dir =
    (match Sys.readdir dir with
    | entries ->
        Array.iter
          (fun e ->
            try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
          entries
    | exception Sys_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ()

  let register_auto_dir dir =
    Hashtbl.replace auto_dirs dir ();
    if not !exit_hook then begin
      exit_hook := true;
      at_exit (fun () -> Hashtbl.iter (fun d () -> remove_dir d) auto_dirs)
    end

  let dir_counter = ref 0

  let fresh_dir () =
    let base = Filename.get_temp_dir_name () in
    let pid = Unix.getpid () in
    let rec go n =
      let d = Filename.concat base (Printf.sprintf "fieldrep-disk-%d-%d" pid n) in
      match Unix.mkdir d 0o700 with
      | () ->
          dir_counter := n + 1;
          d
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (n + 1)
    in
    go !dir_counter

  (* Cached page counts and checksum trailers.  The trailers are written
     through to the slot on disk (the file format is self-contained) but
     served from memory, so verification does not double the syscalls of
     every read. *)
  type meta = { mutable count : int; mutable sums : int array }

  type t = {
    dir : string;
    owns_dir : bool;
    bid : int;  (* key into the process-wide fd cache *)
    page_size : int;
    slot : int;  (* page_size + 8-byte checksum trailer *)
    files : meta Table.t;
    trailer : Bytes.t;  (* 8-byte staging buffer for trailer writes *)
    paths : string Table.t;  (* file id -> path, built once per id *)
    mutable closed : bool;
  }

  let label = "file"
  let next_bid = ref 0

  let create ~page_size ?dir () =
    let dir, owns_dir =
      match dir with
      | Some d ->
          (match Unix.mkdir d 0o700 with
          | () -> ()
          | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          (d, false)
      | None ->
          let d = fresh_dir () in
          register_auto_dir d;
          (d, true)
    in
    let bid = !next_bid in
    incr next_bid;
    {
      dir;
      owns_dir;
      bid;
      page_size;
      slot = page_size + 8;
      files = Table.create 16;
      trailer = Bytes.create 8;
      paths = Table.create 16;
      closed = false;
    }

  (* A query's output file is created, opened and removed under the same
     id again and again; its path is built once. *)
  let path t id =
    match Table.find t.paths id with
    | p -> p
    | exception Not_found ->
        let p = Filename.concat t.dir (Printf.sprintf "%06d.fdb" id) in
        Table.replace t.paths id p;
        p

  (* The path is looked up only when the descriptor is not cached. *)
  let fd t id =
    let key = Fd_cache.key ~bid:t.bid ~file:id in
    try Fd_cache.find key with Not_found -> Fd_cache.open_ key (path t id)

  let find t id = try Table.find t.files id with Not_found -> unknown id

  let rec really_write fd buf off len =
    if len > 0 then begin
      let n = Unix.write fd buf off len in
      really_write fd buf (off + n) (len - n)
    end

  (* Short reads past EOF zero-fill: a grown-but-never-written slot is a
     sparse hole and must read as a zero page. *)
  let rec really_read fd buf off len =
    if len > 0 then begin
      let n = Unix.read fd buf off len in
      if n = 0 then Bytes.fill buf off len '\000'
      else really_read fd buf (off + n) (len - n)
    end

  let seek fd off = ignore (Unix.lseek fd off Unix.SEEK_SET)

  let create_file t ~id =
    Fd_cache.drop ~bid:t.bid ~file:id;
    let fd = Unix.openfile (path t id) [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Unix.close fd;
    Table.replace t.files id { count = 0; sums = [||] }

  let delete_file t ~id =
    Fd_cache.drop ~bid:t.bid ~file:id;
    (try Sys.remove (path t id) with Sys_error _ -> ());
    Table.remove t.files id

  let file_exists t ~id = Table.mem t.files id
  let file_ids t = sorted_ids t.files

  let page_count t ~id = (find t id).count

  let grow t ~id =
    let m = find t id in
    if m.count = Array.length m.sums then begin
      let cap = max 8 (2 * Array.length m.sums) in
      let sums = Array.make cap 0 in
      Array.blit m.sums 0 sums 0 m.count;
      m.sums <- sums
    end;
    (* No syscall: the new slot is a sparse hole that reads as zeros. *)
    m.count <- m.count + 1

  (* [Disk] has checked that the file exists before it reads or writes. *)
  let read t ~file ~page buf =
    let fd = fd t file in
    seek fd (page * t.slot);
    really_read fd buf 0 t.page_size

  let write t ~file ~page ~len buf =
    let fd = fd t file in
    seek fd (page * t.slot);
    really_write fd buf 0 len

  let read_sum t ~file ~page = (find t file).sums.(page)

  let write_sum t ~file ~page ~sum =
    let m = find t file in
    m.sums.(page) <- sum;
    Bytes.set_int64_le t.trailer 0 (Int64.of_int sum);
    let fd = fd t file in
    seek fd ((page * t.slot) + t.page_size);
    really_write fd t.trailer 0 8

  let close t =
    if not t.closed then begin
      t.closed <- true;
      Table.iter (fun id _ -> Fd_cache.drop ~bid:t.bid ~file:id) t.files;
      if t.owns_dir then begin
        remove_dir t.dir;
        Hashtbl.remove auto_dirs t.dir
      end
    end
end
