(** Storage-manager facade: one disk, one buffer pool, one stats block.

    Heap files and B+-trees are built against this interface only, so tests
    can substitute pool sizes freely and experiments read a single stats
    block. *)

type t

type backend = Disk.backend_kind = Mem | File of string option
(** Re-exported so layers above the storage facade can pick a backend
    without referencing [Disk] (whose raw I/O surface is private to
    [lib/storage]). *)

val create : ?page_size:int -> ?frames:int -> ?backend:backend -> unit -> t
(** Defaults: 4096-byte pages, 256 frames, backend from the
    [FIELDREP_BACKEND] environment variable (in-memory when unset). *)

val page_size : t -> int

val close : t -> unit
(** Flush the pool and release backend resources (descriptors, an
    auto-created backing directory).  Idempotent at the disk level. *)

val stats : t -> Stats.t
val disk : t -> Disk.t
val create_file : t -> int
val create_output_file : t -> int
val delete_file : t -> int -> unit
val page_count : t -> int -> int
val with_page_read : t -> file:int -> page:int -> (Bytes.t -> 'a) -> 'a
val with_page_write : t -> file:int -> page:int -> (Bytes.t -> 'a) -> 'a

val with_pin_arg :
  t -> file:int -> page:int -> dirty:bool -> ('a -> Bytes.t -> 'b) -> 'a -> 'b
(** Generalised pinned access for a callback that takes its state as an
    argument (see {!Buffer_pool.with_pin_arg}): the pin is released even on
    exceptions, and no closure is allocated. *)

val mark_dirty : t -> file:int -> page:int -> unit
(** See {!Buffer_pool.mark_dirty}. *)

val new_page : t -> file:int -> int
(** Fresh zeroed page, resident and dirty; no physical read. *)

val flush : t -> unit

val invalidate : t -> file:int -> page:int -> unit
(** Drop one page's frame without write-back (see
    {!Buffer_pool.invalidate}); scrub calls this after rewriting a page
    directly on disk.  Transient read faults are retried by the pool with
    bounded backoff before an error reaches the caller. *)

val run_cold : t -> (unit -> 'a) -> 'a
(** [run_cold t f] empties the buffer pool, zeroes the stats, runs [f], and
    flushes — so [stats t] afterwards reflects exactly the cold-cache I/O of
    [f].  This realises the cost model's assumption that a query reads each
    page it needs exactly once. *)

val reset_stats : t -> unit
val total_pages : t -> int
