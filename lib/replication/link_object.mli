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

val iter : (entry -> unit) -> t -> unit
val encode : t -> Bytes.t
val decode_at : Bytes.t -> int -> int -> t
(** [decode_at buf off len] decodes the link object in
    [buf.[off .. off+len-1]]; raises [Wire.Corrupt] if it does not fit. *)

val decode : Bytes.t -> t
val pp : Format.formatter -> t -> unit
