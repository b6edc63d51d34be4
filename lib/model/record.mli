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

val encode_to : Bytes.t -> t -> int
(** [encode_to buf t] writes [t] at the start of [buf], which must hold
    [encoded_size t] bytes, and returns that size. *)

val encode : t -> Bytes.t

val decode_at : Bytes.t -> int -> int -> t
(** [decode_at buf off len] decodes the record in [buf.[off .. off+len-1]]
    (a frame, under {!Fieldrep_storage.Heap_file.read_with}).  Raises
    [Wire.Corrupt] if the record does not fit [len] bytes: nothing past
    them is read. *)

val decode : Bytes.t -> t
(** [decode_at buf 0 (Bytes.length buf)]. *)

val field_at : Bytes.t -> int -> int -> int -> Value.t
(** [field_at buf off len i] is [values.(i)] of the record {!decode_at}
    would return, [VNull] past the end, decoding that value alone. *)

val type_tag_at : Bytes.t -> int -> int -> int
(** Peek at the tag of the record at [off] without decoding the rest. *)

val link_count_at : Bytes.t -> int -> int -> int
(** Peek at its number of (link-OID, link-ID) pairs the same way. *)

val pp : Format.formatter -> t -> unit
