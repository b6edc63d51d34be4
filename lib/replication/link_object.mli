(** Link objects: the building blocks of inverted paths (paper §4.1).

    A link object belongs to one target object X and one link, and holds the
    sorted OIDs of the objects one level closer to the source set that
    reference X along the path.  Sorted order gives binary-search deletes
    and, because OIDs are physical, clustered-order propagation.

    Entries may carry a *tag* OID: collapsed inverted paths (paper §4.3.3)
    tag each source OID with the intermediate object it came through, so a
    reference update on the intermediate can move exactly its entries.

    A link object exists only as its encoding: it is read where it lies
    ({!fold_at}, under a pin) and edited in a buffer (the byte editors
    below). *)

type entry = { member : Fieldrep_storage.Oid.t; tag : Fieldrep_storage.Oid.t }
(** [tag] is {!Fieldrep_storage.Oid.nil} for untagged links. *)

val fold_at :
  ('a -> Fieldrep_storage.Oid.t -> Fieldrep_storage.Oid.t -> 'a) ->
  'a ->
  Bytes.t ->
  int ->
  int ->
  'a
(** [fold_at f acc buf off len] folds [f acc member tag] over the entries
    of the link object in [buf.[off .. off+len-1]], in member order;
    raises [Wire.Corrupt] if it does not fit. *)

(** {1 Entry edits over bytes}

    A link object's encoding kept at the start of a buffer that the edits
    grow as needed.  Each edit changes it in place and returns the new
    length.  Entries stay sorted by member, and the tagged flag is set
    exactly when some entry carries a tag. *)

val count_at : Bytes.t -> int
val tagged_at : Bytes.t -> bool

val member_at : Bytes.t -> int -> Fieldrep_storage.Oid.t
(** The member of the [i]th entry. *)

val entries_into : Bytes.t ref -> entry list -> int
(** Lay down the object of these entries, already sorted and distinct by
    member. *)

val add_at : Bytes.t ref -> int -> entry -> int
(** Inserts keeping order; replaces the tag if the member is present.  -1,
    the bytes untouched, when the member is present with this tag. *)

val remove_at : Bytes.t ref -> int -> Fieldrep_storage.Oid.t -> int
(** -1, the bytes untouched, when the member is absent. *)

val take_tagged_at : Bytes.t ref -> Fieldrep_storage.Oid.t -> int * entry list
(** Removes the entries with this tag and returns them in member order. *)
