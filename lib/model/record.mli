(** Stored object representation.

    Every object on disk carries:
    - a 2-byte *type tag* identifying its type (paper §2.2),
    - a small *link section* of (link-OID, link-ID) pairs driving update
      propagation along replication paths (paper §4.1.3),
    - its field values — the user-visible fields of its type followed by any
      *hidden* fields added by replication (replicated copies for in-place
      paths, an S'-reference for separate paths; paper §3.1, §4, §5).

    The record layer is schema-agnostic: it stores a flat value array; which
    positions are user vs hidden fields is the catalog's business. *)

type link = { link_oid : Fieldrep_storage.Oid.t; link_id : int }
(** [link_oid] points at this object's link object for link [link_id].  A
    nil [link_oid] means the link is registered but currently has no link
    object (e.g. eliminated small links store member OIDs elsewhere). *)

type t = {
  type_tag : int;
  links : link list;  (** sorted by [link_id]; at most one entry per id *)
  values : Value.t array;
}

val make : type_tag:int -> Value.t array -> t
(** A record with no links. *)

val field : t -> int -> Value.t
(** Raises [Invalid_argument] on a bad index. *)

val set_field : t -> int -> Value.t -> t
(** Functional update. *)

val with_links : t -> link list -> t
(** Replaces the link section (re-sorts by link id). *)

val find_link : t -> int -> link option
val add_link : t -> link -> t
(** Replaces any existing entry with the same link id. *)

val remove_link : t -> int -> t

val encoded_size : t -> int
val encode : t -> Bytes.t
val decode : Bytes.t -> t

val type_tag_of_bytes : Bytes.t -> int
(** Peek at the tag without decoding the rest. *)

val link_count_of_bytes : Bytes.t -> int
(** Peek at the number of (link-OID, link-ID) pairs the same way. *)

val pp : Format.formatter -> t -> unit
