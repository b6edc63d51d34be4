(** Buffer pool with clock (second-chance) replacement.

    All page access from the upper layers goes through [with_page_read] /
    [with_page_write]; a frame is pinned for the duration of the callback and
    unpinned afterwards, even on exceptions.  Dirty frames are written back
    on eviction or on [flush].

    {1 Sequential read-ahead}

    When [prefetch] is positive, two consecutive demand misses on adjacent
    pages of one file mark a sequential run, and the pool reads the next
    [prefetch] pages of that file into frames ahead of demand.  Prefetched
    pages cost a physical read when issued ([prefetch_issued]) and turn the
    later demand access into a buffer hit ([prefetch_hits]); a run that hits
    a fault or an exhausted pool just stops.  The default depth is 0
    (disabled) so cost-model validation sees exactly the paper's per-page
    read counts. *)

type t

val create : ?prefetch:int -> Disk.t -> frames:int -> t
(** [frames] must be positive.  [prefetch] is the read-ahead depth in pages
    (default 0 = off). *)

val resident : t -> int

val set_prefetch : t -> int -> unit
(** Change the read-ahead depth; 0 disables. *)

val prefetch_depth : t -> int

val pin : t -> file:int -> page:int -> dirty:bool -> Bytes.t
(** Low-level: install (reading if absent) and pin the page's frame, and
    return its buffer.  Every [pin] must be balanced by {!unpin} on all
    paths, including exceptional ones — fieldrep-lint rule P1 enforces this,
    so prefer {!with_pin} / {!with_page_read} / {!with_page_write}, which
    cannot leak the pin. *)

val unpin : t -> file:int -> page:int -> unit
(** Release one pin taken by {!pin}.  Raises [Invalid_argument] if the page
    is not resident or not pinned. *)

val with_pin : t -> file:int -> page:int -> dirty:bool -> (Bytes.t -> 'a) -> 'a
(** [pin], run the callback, [unpin] — even on exceptions.  The blessed
    combinator behind {!with_page_read} and {!with_page_write}; the callback
    must not retain the buffer past its return. *)

val with_pin_arg :
  t -> file:int -> page:int -> dirty:bool -> ('a -> Bytes.t -> 'b) -> 'a -> 'b
(** [with_pin_arg t ~file ~page ~dirty fn arg] is
    [with_pin t ~file ~page ~dirty (fn arg)] without building that closure:
    a top-level [fn] whose state travels in [arg] pins a page allocating
    nothing. *)

val mark_dirty : t -> file:int -> page:int -> unit
(** Mark a pinned page's frame dirty, for a caller that pinned it clean
    and then changed it.  Not counted as a lookup. *)

val with_page_read : t -> file:int -> page:int -> (Bytes.t -> 'a) -> 'a
(** The callback must not retain the buffer past its return. *)

val with_page_write : t -> file:int -> page:int -> (Bytes.t -> 'a) -> 'a
(** Like [with_page_read] but marks the frame dirty. *)

val new_page : t -> file:int -> int
(** Allocate a page on disk and install a zeroed, dirty frame for it without
    a physical read.  Returns the page number.  The victim frame is claimed
    before the disk page is allocated, so an [Exhausted] pool allocates
    nothing. *)

val flush : t -> unit
(** Write back all dirty frames (they stay resident and clean). *)

val clear : t -> unit
(** [flush] then drop every frame — the next access to any page is a
    physical read.  Used to run experiment queries cold.  Raises
    [Invalid_argument] {e before} mutating anything if any frame is
    pinned. *)

val invalidate : t -> file:int -> page:int -> unit
(** Discard (without write-back) the frame caching one page, if resident —
    used after the page is repaired on disk so the stale copy is never
    served.  Raises [Invalid_argument] if the frame is pinned. *)

val drop_file : t -> file:int -> unit
(** Discard (without write-back) every frame belonging to one file — used
    when that file is deleted, so its dirty pages are never flushed to a
    dead file.  Frames of other files stay resident.  Raises
    [Invalid_argument] {e before} mutating anything if one of the file's
    frames is pinned. *)

exception Exhausted
(** Raised when every frame is pinned and a new page is requested.  A failed
    install — [Exhausted], or a physical read that still fails after
    retries — leaves the pool unchanged: the victim frame keeps its page
    ([failed_reads] counts the read case). *)
