(** Link objects: the building blocks of inverted paths (paper §4.1).

    A link object belongs to one target object X and one link, and holds the
    sorted OIDs of the objects one level closer to the source set that
    reference X along the path.  Sorted order gives binary-search deletes
    and, because OIDs are physical, clustered-order propagation.

    Entries may carry a *tag* OID: collapsed inverted paths (paper §4.3.3)
    tag each source OID with the intermediate object it came through, so a
    reference update on the intermediate can move exactly its entries. *)

type entry = { member : Fieldrep_storage.Oid.t; tag : Fieldrep_storage.Oid.t }
(** [tag] is {!Fieldrep_storage.Oid.nil} for untagged links. *)

type t

val empty : t
val of_entries : entry list -> t
(** Sorts and de-duplicates by member. *)

val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> Fieldrep_storage.Oid.t -> bool

val add : t -> entry -> t
(** Inserts keeping order; replaces the tag if the member is present. *)

val remove : t -> Fieldrep_storage.Oid.t -> t
(** No-op if absent. *)

val entries : t -> entry list
(** In member (physical) order. *)

val members : t -> Fieldrep_storage.Oid.t list

val entries_tagged : t -> Fieldrep_storage.Oid.t -> entry list
(** Entries whose tag equals the given OID (collapsed-path moves). *)

val remove_tagged : t -> Fieldrep_storage.Oid.t -> t

val encode : t -> Bytes.t
val decode_at : Bytes.t -> int -> int -> t
(** [decode_at buf off len] decodes the link object in
    [buf.[off .. off+len-1]]; raises [Wire.Corrupt] if it does not fit. *)

val decode : Bytes.t -> t

(** {1 Entry edits over bytes}

    A link object's encoding kept at the start of a buffer that the edits
    grow as needed.  Each edit changes it in place to the encoding
    {!encode} gives for the matching edit of the decoded object ({!add},
    {!remove}, {!remove_tagged}), the tagged flag included, and returns
    the new length. *)

val count_at : Bytes.t -> int
val tagged_at : Bytes.t -> bool

val member_at : Bytes.t -> int -> Fieldrep_storage.Oid.t
(** The member of the [i]th entry. *)

val members_into : Bytes.t ref -> Fieldrep_storage.Oid.t list -> int
(** Lay down the untagged object of these members, already sorted. *)

val add_at : Bytes.t ref -> int -> entry -> int

val remove_at : Bytes.t ref -> int -> Fieldrep_storage.Oid.t -> int
(** -1, the bytes untouched, when the member is absent. *)

val take_tagged_at : Bytes.t ref -> Fieldrep_storage.Oid.t -> int * entry list
(** Removes the entries with this tag and returns them in member order. *)
