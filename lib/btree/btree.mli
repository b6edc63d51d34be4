(** Page-based B+-tree mapping keys to OIDs.

    Entries are (key, oid) pairs ordered lexicographically, so duplicate
    keys are supported and every entry is individually addressable (needed
    when an index entry must follow one specific object).  Internal
    separators carry the full (key, oid) pair of the right subtree's first
    entry, which keeps duplicate runs searchable from the leftmost
    occurrence.

    Nodes occupy one page each and their capacity is set by bytes alone;
    splits are byte-driven, deletes rebalance by borrowing or merging, and
    leaves are chained for range scans.  Lookups and single-entry inserts
    and deletes search and edit the serialized node in its buffer-pool
    frame; a node is decoded only when its structure changes.  This is the
    index structure the paper assumes on [field_r] / [field_s] (clustered
    or not is a property of the heap file's physical order, not of the
    tree). *)

type t

val create : Fieldrep_storage.Pager.t -> t
(** A fresh empty tree in its own file. *)

val root : t -> int
(** Page number of the root node (stable for the tree's lifetime). *)

val attach :
  Fieldrep_storage.Pager.t ->
  file:int ->
  root:int ->
  count:int ->
  free_pages:int list ->
  t
(** Reopen a tree persisted in an existing file (database image load),
    with the free-page list {!free_pages} returned at save time. *)

val free_pages : t -> int list
(** Pages freed by merges and [bulk_load], in the order [alloc] reuses
    them. *)

val file_id : t -> int
val entry_count : t -> int
val height : t -> int
(** 1 for a lone leaf.  Kept up to date by every change; reads no page. *)

val page_count : t -> int

val leaf_count : t -> int
(** Number of leaf nodes (walks the leaf chain). *)

val insert : t -> Key.t -> Fieldrep_storage.Oid.t -> unit
(** Duplicate (key, oid) pairs are rejected with [Invalid_argument];
    duplicate keys with distinct OIDs are fine.  All keys in a tree must be
    of one {!Key.t} variant. *)

val delete : t -> Key.t -> Fieldrep_storage.Oid.t -> bool
(** [true] iff the exact entry existed. *)

val find : t -> Key.t -> Fieldrep_storage.Oid.t list
(** All OIDs under the key, in OID order. *)

val find_first : t -> Key.t -> Fieldrep_storage.Oid.t option
(** The head of {!find}. *)

val iter_range : t -> lo:Key.t -> hi:Key.t -> (Key.t -> Fieldrep_storage.Oid.t -> unit) -> unit
(** Entries with [lo <= key <= hi] in order. *)

val fold_range :
  t -> lo:Key.t -> hi:Key.t -> init:'a -> f:('a -> Key.t -> Fieldrep_storage.Oid.t -> 'a) -> 'a

val iter_all : t -> (Key.t -> Fieldrep_storage.Oid.t -> unit) -> unit

val bulk_load : t -> (Key.t * Fieldrep_storage.Oid.t) array -> unit
(** Build bottom-up from entries (sorted internally); the tree must be
    empty.  Much cheaper than repeated {!insert} and produces full leaves. *)

val check_invariants : t -> unit
(** Raises [Failure] describing the first violated invariant: global order,
    uniform depth, separators equal to their right subtree's minimum, leaf
    chaining, node size bounds, cached height and count.  Decodes every
    node, so it is the reference the in-place paths are checked against.
    For tests. *)
