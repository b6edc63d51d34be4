(** The disk: fixed-size pages behind a pluggable storage backend.

    Files are arrays of fixed-size pages.  Where the pages physically live
    is a {!backend_kind} decision: [Mem] keeps them in growable in-memory
    arrays (free, deterministic — the substrate for unit tests and for
    benchmarks that measure I/O {e counts}), [File] stores each file as a
    real on-disk file written through [Unix] (the substrate for benchmarks
    that measure I/O {e time}).  Every [read_page]/[write_page] increments
    the shared {!Stats} counters — this is the "hardware" whose I/O the
    experiments measure.  All access goes through the buffer pool in
    normal operation.

    Each page carries a {!Checksum.sum32} trailer (stored out of band, like
    the spare bytes of a 520-byte sector, so the slotted-page layout and the
    cost model's page capacity are untouched; the file backend stores the
    trailer as 8 real bytes after each page slot).  [write_page] seals the
    page; [read_page] verifies it and raises {!Corrupt_page} instead of
    returning garbage. *)

type t

exception Crash of string
(** Raised by {!write_page} when an armed failpoint fires: the simulated
    machine lost power mid-workload.  Everything the buffer pool had not
    yet written back is gone; recovery must restart from the last
    checkpoint image and the write-ahead log. *)

exception Read_error of string
(** A {e transient} read fault (injected by {!set_read_failpoint}): the page
    itself is intact and retrying may succeed.  The buffer pool retries
    these a bounded number of times before giving up. *)

exception Corrupt_page of { file : int; page : int }
(** A {e permanent} read fault: the page failed checksum verification (or
    was already quarantined).  Retrying cannot help; the page needs repair
    (see [Scrub]) or the query must degrade to a path that avoids it. *)

type backend_kind =
  | Mem  (** in-memory page arrays (the default) *)
  | File of string option
      (** real files, one per fieldrep file, under the given directory —
          or under a fresh temp directory (removed at exit) for [None] *)

val backend_of_env : unit -> backend_kind
(** The backend selected by the [FIELDREP_BACKEND] environment variable
    (["mem"], ["file"], or unset for [Mem]) — the default for every
    {!create} that does not pass [?backend], so an existing test suite can
    be re-run against real files without touching a line of it.  Raises
    [Invalid_argument] on an unknown value. *)

val create : ?page_size:int -> ?backend:backend_kind -> Stats.t -> t
(** Default page size is 4096 bytes (EXODUS's page size; the cost model's
    [B = 4056] is this minus per-page bookkeeping).  [backend] defaults to
    {!backend_of_env}[ ()]. *)

val page_size : t -> int
val stats : t -> Stats.t

val backend_name : t -> string
(** ["mem"] or ["file"]. *)

val close : t -> unit
(** Release backend resources: a no-op for [Mem]; for [File], close the
    cached descriptors and remove an auto-created backing directory.
    Idempotent.  Auto-created directories of unclosed disks are removed
    at process exit regardless. *)

val create_file : t -> int
(** Returns a fresh persistent file id: ids count up from 0.  Raises
    [Invalid_argument "Disk.create_file: file ids exhausted ..."] when the
    next id would reach [Oid.max_file] (the nil OID's file, past which an
    OID cannot encode the id) or an id a live query output holds. *)

val create_output_file : t -> int
(** Returns a file id for a query's output file: the highest id below
    [Oid.max_file] that no live output holds.  Outputs are not logged, so
    they take ids from the top of the space and {!create_file}'s count —
    which log replay repeats — never sees them; the id of a deleted
    output is reused.  Raises [Invalid_argument] when the two ranges
    meet. *)

val is_output_file : t -> int -> bool
(** Was the file made by {!create_output_file} (and not yet deleted)? *)

val delete_file : t -> int -> unit
val file_exists : t -> int -> bool

val page_count : t -> int -> int
(** Number of pages in a file.  Raises
    [Invalid_argument "Disk.page_count: unknown file N"] for unknown
    files (every entry point names itself the same way — no bare
    [Not_found] escapes the storage layer). *)

val allocate_page : t -> int -> int
(** [allocate_page t file] appends a zeroed page and returns its page number.
    Counted in [pages_allocated], not as a read or write. *)

val read_page : t -> file:int -> page:int -> Bytes.t -> unit
(** Copy a page into the caller's buffer (one physical read).  Verifies the
    page checksum first: on mismatch the page is quarantined,
    [checksum_failures] is bumped, and {!Corrupt_page} is raised.  The
    page is verified in the caller's buffer, so after a failed read the
    buffer holds the bytes as stored (or, on an injected {!Read_error},
    is untouched). *)

val write_page : t -> file:int -> page:int -> Bytes.t -> unit
(** Copy the caller's buffer onto the page (one physical write), recompute
    its checksum, and lift any quarantine — rewriting a page with fresh
    content is how repair heals it. *)

val total_pages : t -> int
(** Pages across all files (for space-overhead reporting). *)

val file_ids : t -> int list

val next_file_id : t -> int
(** The id {!create_file} would hand out next.  Checkpoint images record it
    so that replayed DDL allocates the same file ids as the original run
    even when deleted files left holes in the id space. *)

val reserve_file_ids : t -> int -> unit
(** [reserve_file_ids t n] bumps the file-id allocator to at least [n].
    Raises [Invalid_argument] if [n] is past [Oid.max_file]. *)

(** {1 Quarantine}

    Pages that failed verification.  Reads of a quarantined page raise
    {!Corrupt_page} without touching the bytes; a {!write_page} of fresh
    content clears the entry. *)

val quarantine : t -> file:int -> page:int -> unit
val quarantined : t -> file:int -> page:int -> bool

val quarantined_pages : t -> (int * int) list
(** Sorted [(file, page)] list of currently quarantined pages. *)

(** {1 Fault injection}

    Crash-recovery tests arm a write failpoint, run a workload, and catch
    {!Crash} — proving that a crash between any two physical writes is
    recoverable.  Corruption tests flip stored bytes with {!corrupt_page} /
    {!tear_page} and exercise detection, scrubbing, and repair.  Read
    failpoints inject transient faults for the retry path.  The machinery
    is backend-independent: against real files a torn write is a partial
    [write] of the first half of the page that never reaches the trailer. *)

val set_failpoint : ?torn:bool -> ?count:int -> t -> after_writes:int -> unit
(** Let [after_writes] more physical writes succeed, then raise {!Crash}.
    With [torn:true] the first half of the crashing write lands on the page
    (but not its checksum) before the exception — a half-written page that
    the next read detects.  [count] (default 1) is how many consecutive
    write attempts fire before the failpoint disarms itself; pass a large
    count for a persistent fault that needs no re-arming. *)

val clear_failpoint : t -> unit

val writes_until_crash : t -> int option
(** Remaining successful writes before the armed failpoint fires, if any. *)

val set_read_failpoint : ?count:int -> ?every:int -> t -> after_reads:int -> unit
(** Let [after_reads] more physical reads succeed, then raise {!Read_error}
    on subsequent reads: [count] (default 1) faults in total, one every
    [every]-th attempt (default 1, i.e. back-to-back; larger values give an
    intermittent fault).  Disarms after the last fault fires. *)

val clear_read_failpoint : t -> unit

val corrupt_page : t -> file:int -> page:int -> int list -> unit
(** Bit-rot: XOR [0xff] into the stored page at each byte offset, leaving
    the stored checksum stale so the next verified read fails.  Not counted
    as I/O. *)

val tear_page : t -> file:int -> page:int -> unit
(** Zero the second half of the stored page without updating its checksum —
    the on-disk aftermath of a torn write. *)

val verify_page : t -> file:int -> page:int -> bool
(** Does the stored page match its checksum?  No counters, no quarantine —
    pure inspection (scrub and tests use the counted {!read_page} path). *)

(** {1 Image support}

    Page access for database images; bypasses the I/O counters. *)

val dump_page : t -> file:int -> page:int -> Bytes.t
(** Copy of the page, not counted as a read.  Verified as {!read_page}
    verifies: a quarantined page, or one whose checksum fails (which is
    then quarantined), raises {!Corrupt_page}, so an image never copies
    rotten bytes for {!restore_file} to re-seal. *)

val raw_page : t -> file:int -> page:int -> Bytes.t
(** Copy of the stored page bytes, neither counted nor verified: what
    scrub salvages from a quarantined page. *)

val restore_file : t -> id:int -> Bytes.t array -> unit
(** (Re)create a file with exactly these pages, not counted as writes.
    Page checksums are recomputed from the restored bytes.  Also bumps the
    internal file-id allocator past [id]; raises [Invalid_argument] if
    [id] is not below [Oid.max_file]. *)
