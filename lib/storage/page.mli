(** Slotted pages.

    A page is a byte buffer with a 4-byte header, a data area growing up from
    the header, and a slot directory growing down from the end.  Slots give
    records stable in-page identifiers across compaction, which is what makes
    physical OIDs possible.

    Layout:
    {v
      [ n_slots:u16 | free_off:u16 | record data ... free ... directory ]
      directory entry i (4 bytes, at size - 4*(i+1)): [ off:u16 | len:u16 ]
      off = 0xFFFF marks a free directory entry.
    v} *)

type slot = int

val header_size : int
val dir_entry_size : int

val init : Bytes.t -> unit
(** Format a fresh page in place. *)

val slot_count : Bytes.t -> int
(** Number of directory entries (live or free). *)

val live_count : Bytes.t -> int
(** Number of live records. *)

val is_live : Bytes.t -> slot -> bool
(** [is_live page s] is false for free or out-of-range slots. *)

val free_space : Bytes.t -> int
(** Bytes available for a new record, assuming its directory entry must be
    newly allocated and after compaction. *)

val fits : Bytes.t -> int -> bool
(** [fits page len] — would a record of [len] bytes fit (possibly after
    compaction)? *)

val insert : Bytes.t -> Bytes.t -> int -> slot
(** [insert page data len] places the record [data.[0 .. len-1]] in the
    lowest free directory entry (or a new one), compacting if needed, and
    returns its slot; [-1] when it cannot fit.  Allocates nothing. *)

val read : Bytes.t -> slot -> Bytes.t
(** Copy of the record bytes.  Raises [Invalid_argument] on a dead slot. *)

val read_length : Bytes.t -> slot -> int

val offset : Bytes.t -> slot -> int
(** Where the record in a live slot starts in the page, for reading it in
    place.  Raises [Invalid_argument] on a dead slot. *)

val write : Bytes.t -> slot -> Bytes.t -> int -> bool
(** [write page s data len] replaces the record in [s] with
    [data.[0 .. len-1]].  Returns [false] when the new record cannot fit
    even after compaction (the old record is then left intact). *)

val delete : Bytes.t -> slot -> unit
(** Frees the slot.  Raises [Invalid_argument] on a dead slot. *)

val iter : (slot -> Bytes.t -> unit) -> Bytes.t -> unit
(** Live records in slot order. *)

val fold : ('a -> slot -> Bytes.t -> 'a) -> 'a -> Bytes.t -> 'a

val compact : Bytes.t -> unit
(** Squeeze out holes left by deletes and in-place shrinks, laying the live
    records back down in slot order.  Every slot keeps its number and its
    bytes, and {!free_space} is unchanged.  Called automatically by
    [insert]/[write] when needed; allocates nothing once the calling
    domain's scratch copy has grown to the page size. *)
