(** Buffer pool with clock (second-chance) replacement.

    A page is pinned only for the duration of a callback — {!with_page_read},
    {!with_page_write} or {!with_pin_arg} — and unpinned afterwards, even on
    exceptions; there is no bare pin to leak.  Every lookup is counted once:
    a buffer hit, a physical read, or a failed read.  Dirty frames are
    written back on eviction or on [flush]. *)

type t

val create : Disk.t -> frames:int -> t
(** [frames] must be positive. *)

val resident : t -> int

val with_pin_arg :
  t -> file:int -> page:int -> dirty:bool -> ('a -> Bytes.t -> 'b) -> 'a -> 'b
(** [with_pin_arg t ~file ~page ~dirty fn arg] installs (reading if absent)
    and pins the page's frame, runs [fn arg buf], and unpins — even on
    exceptions.  [dirty] marks the frame dirty.  A top-level [fn] whose
    state travels in [arg] pins a page allocating nothing.  The callback
    must not retain the buffer past its return. *)

val mark_dirty : t -> file:int -> page:int -> unit
(** Mark a pinned page's frame dirty, for a caller that pinned it clean
    and then changed it.  Not counted as a lookup. *)

val with_page_read : t -> file:int -> page:int -> (Bytes.t -> 'a) -> 'a
(** [with_pin_arg] with [~dirty:false] and a callback that closes over its
    state. *)

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
