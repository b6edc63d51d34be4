(** Heap files of variable-length objects with stable physical OIDs.

    Every object owns a *home slot*; its OID names that slot and never
    changes.  Stored records are chains of segments:

    {v segment = [ kind:u8 | next:oid(8) | payload chunk ] v}

    with [kind] 0 for the head (the home slot) and 1 for continuation
    segments.  An object that outgrows its page keeps its head in place —
    shrunk to a 9-byte chain header if necessary — and spills the rest into
    continuation segments on other pages, so objects larger than a page and
    in-place growth (e.g. adding hidden replicated fields) both work without
    forwarding.

    Space freed by deletes is reused.  A page qualifies for reuse once a
    delete has freed one of its directory entries and at least half of it
    is free; an insert takes the lowest qualifying page it fits, else the
    tail page, else a new one.  The rule reads only page bytes, so log
    replay and replicas allocate the same OIDs as the original run.

    While no page qualifies — in every history without deletes, which
    covers every bulk build — [insert] lays objects down in strictly
    increasing physical order.  That is how the replication engine builds
    link files and separate-replication files "in the same order as S"
    (paper §4.1, §5).  After deletes, an insert may land on an earlier
    page. *)

type t

val create : ?reserve:int -> Pager.t -> t
(** Create a new file on the pager's disk.  [reserve] bytes are kept free
    on each page during inserts (a PCTFREE-style fill factor) so objects
    can later grow in place — e.g. when a [replicate] declaration adds
    hidden fields — without spilling into continuation segments. *)

val create_output : Pager.t -> t
(** Create a query output file: like {!create}, but its id comes from
    {!Disk.create_output_file}, so making one never moves the id of the
    next persistent file. *)

val attach : ?reserve:int -> Pager.t -> file:int -> t
(** Open an existing heap file (scans once to recover the object count). *)

val file_id : t -> int

val reserve : t -> int
(** The per-page insert reserve this handle was opened with. *)

val object_count : t -> int
(** Live objects (heads only). *)

val page_count : t -> int

val insert : ?len:int -> t -> Bytes.t -> Oid.t
(** Store an object: the payload's first [len] bytes (default: all of
    them), so a caller may encode into a buffer it reuses.  While no page
    qualifies for reuse, its home slot lands after every previously
    inserted object's home slot; otherwise it may land on the lowest
    qualifying page.  Each segment is staged in a per-domain scratch
    buffer, so an insert that fits one page allocates only its OID. *)

val insert_run : t -> all:bool -> Bytes.t -> int array -> int -> int
(** [insert_run t ~all buf bounds n] stores [n] objects, object [i] the
    bytes of [buf] from [bounds.(i)] to [bounds.(i + 1)], each where
    {!insert} would put it but under one pin per page.  With [~all:false]
    it stops before a new page that the objects left might not fill.
    Returns how many it stored, the first ones. *)

val read_with : t -> Oid.t -> (Bytes.t -> int -> int -> 'a) -> 'a
(** [read_with t oid decode] is [decode buf off len] over the object's
    payload, [buf.[off .. off+len-1]].  For an object of one segment [buf]
    is the page's frame, still pinned: [decode] must touch no storage, keep
    no reference to [buf] and read nothing outside its range.  A chained
    object's payload is assembled first, pinning each segment once.  Raises
    [Invalid_argument] if the OID does not name a live object head. *)

val read : t -> Oid.t -> Bytes.t
(** A copy of the payload: [read_with t oid Bytes.sub]. *)

val exists : t -> Oid.t -> bool

val update : ?len:int -> t -> Oid.t -> Bytes.t -> unit
(** Replace the object's payload with the first [len] bytes of the given
    one (default: all of them); the OID remains valid even when the object
    grows or shrinks across the page boundary.  A payload that fits the
    head's page is written under the one pin that checks the head; one
    that does not, or a head that goes on in segments, pins again to spill
    or free them.  Here and in the mutations below, a call refused for
    the record's kind raises and leaves the page clean. *)

val delete : t -> Oid.t -> unit
(** Frees the home slot and any continuation segments. *)

val purge : t -> Oid.t -> unit
(** Best-effort {!delete} for repair: frees the slot if still live and
    follows the continuation chain only while segments remain readable,
    stopping silently at the first dead or malformed one.  Scrub uses this
    to clear the surviving fragments of objects whose chains passed through
    a corrupt page; {!delete} would raise on the severed chain. *)

val delete_pinned : t -> Oid.t -> unit
(** Delete the object but keep its home slot allocated as a *tombstone* (a
    9-byte chain header with kind 2), so the OID cannot be recycled while
    the deleting transaction is undecided.  Continuation segments are freed
    immediately.  Resolve with {!free_tombstone} (commit) or {!insert_at}
    (abort). *)

val free_tombstone : t -> Oid.t -> bool
(** Release a tombstoned home slot for reuse, under one pin; false, and
    nothing changed, when the slot holds no tombstone (it was revived by
    {!insert_at}, or is dead). *)

val insert_at : t -> Oid.t -> Bytes.t -> unit
(** Revive a tombstoned home slot with the given payload — the rollback of
    {!delete_pinned}.  The OID is unchanged; an oversize payload spills into
    continuation segments as usual. *)

type edit =
  | Keep  (** leave the object as it is *)
  | Patched  (** the payload's bytes were changed in place, length kept *)
  | Rewrite of Bytes.t * int  (** the new payload: the buffer's first [n] bytes *)

val modify_run :
  t ->
  Oid.t ->
  Oid.t list ->
  f:(Oid.t -> Bytes.t -> int -> int -> edit) ->
  Oid.t list
(** [modify_run t oid rest ~f] edits [oid] and the objects at the head of
    [rest] that share its page, under a {e single} pin of that page, and
    returns the rest of [rest]; the page is written back only if an edit
    changed it; with [rest = []] it edits one object and builds no list.
    [f oid buf off len] sees the payload as {!read_with} gives it and says
    how it changed.  For an object of one segment [buf] is the pinned
    frame, so a [Patched] payload is already written and a [Rewrite]
    lands in place when it still fits the page; a chained object's
    payload is assembled first and its rewrite, like one that outgrew its
    page, goes through {!update} after the pin is released.  Every visited object counts one object read, every edited
    one one object written.  [f] may read other objects but must not
    write through this file.  Raises [Invalid_argument] on a dead slot or
    a non-head record. *)

val iter : t -> (Bytes.t -> int -> int -> 'a) -> (Oid.t -> 'a -> unit) -> unit
(** [iter t decode f] calls [f] on every object in physical order (page
    then slot), heads only, with its payload read through {!read_with}
    ([Bytes.sub] gives a copy). *)

val iter_oids : t -> (Oid.t -> unit) -> unit
(** Like {!iter} without materialising payloads (still reads each page). *)

val oids_on_page : t -> page:int -> Oid.t list
(** Head OIDs of one page, in slot order — the work unit of an incremental
    walk driven by a resumable page cursor (lib/maint).  [] when the page
    is out of range. *)

val recount : t -> unit
(** Rescan the file and reset {!object_count} and the free-space map.
    Needed after scrub blanks a corrupt page: the heads it held vanish
    without going through {!delete}. *)

val check : t -> unit
(** Fails unless the free-space map and its count of reuse candidates
    equal the ones rebuilt from the pages' bytes — the condition under
    which replay and replicas pick the same pages as the original run. *)

val chained_count : t -> int
(** Objects whose payload spans more than one segment — fragmentation
    introduced by growth beyond the page's free space. *)
