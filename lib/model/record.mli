(** Stored object representation.

    Every object on disk carries:
    - a 2-byte *type tag* identifying its type (paper §2.2),
    - a small *link section* of (link-OID, link-ID) pairs driving update
      propagation along replication paths (paper §4.1.3),
    - its field values — the user-visible fields of its type followed by any
      *hidden* fields added by replication (replicated copies for in-place
      paths, an S'-reference for separate paths; paper §3.1, §4, §5).

    The record layer is schema-agnostic: it stores a flat value array; which
    positions are user vs hidden fields is the catalog's business.

    {!encode} lays down a fresh object.  A stored one is changed only as
    bytes: {!set_value_at} replaces a value, {!set_link_at} and
    {!remove_link_at} edit the link section, each leaving exactly the
    bytes {!encode} gives for the changed record. *)

type link = { link_oid : Fieldrep_storage.Oid.t; link_id : int }
(** [link_oid] points at this object's link object for link [link_id].  A
    nil [link_oid] means the link is registered but currently has no link
    object (e.g. eliminated small links store member OIDs elsewhere). *)

type t = {
  type_tag : int;
  links : link list;  (** sorted by [link_id]; at most one entry per id *)
  values : Value.t array;
}

val link_size : int
(** The encoded size of one (link-OID, link-ID) pair: 9 bytes. *)

val make : type_tag:int -> Value.t array -> t
(** A record with no links. *)

val field : t -> int -> Value.t
(** [field t i] is [t.values.(i)], [VNull] past the end: hidden slots may
    postdate an object (the subtyping of paper §4, realised lazily).
    Raises [Invalid_argument] on a negative index. *)

val encoded_size : t -> int

val encode_to : Bytes.t -> int -> t -> int
(** [encode_to buf off t] writes [t] at [off] in [buf], which must hold
    [encoded_size t] bytes from there, and returns the offset past it. *)

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

val value_offset : Bytes.t -> int -> int -> int -> int
(** [value_offset buf off len i] is where [values.(i)] of the record at
    [off] starts, or -1 past its last value. *)

val type_tag_at : Bytes.t -> int -> int -> int
(** Peek at the tag of the record at [off] without decoding the rest. *)

val link_count_at : Bytes.t -> int -> int -> int
(** Peek at its number of (link-OID, link-ID) pairs the same way. *)

val link_at : Bytes.t -> int -> int -> int -> int
(** [link_at buf off len id] is the offset of the pair for link [id] in
    the record at [off] (its link OID is {!Fieldrep_storage.Oid.decode}
    there), or -1 when the record has none. *)

(** {1 Edits over bytes}

    [buf.[off .. off+len-1]] ([off] = 0 for the link-section edits) holds
    an encoded record; each edit changes it in place to the encoding of the
    edited record and returns the new length. *)

val set_value_at : Bytes.t -> int -> int -> int -> Value.t -> int
(** [set_value_at buf off len i v] sets [values.(i)] to [v], padding with
    [VNull] past the stored width.  A value of the stored size is
    overwritten in place, so a frame can be patched; otherwise [buf]
    needs room past [off + len] ([Value.encoded_size v + i] bytes always
    suffice).  A record cut short raises [Wire.Corrupt] before a byte
    moves; a negative index raises [Invalid_argument]. *)

val set_link_at : Bytes.t -> int -> link -> int
(** Replaces the pair with the same link id, else inserts it in link-id
    order; [buf] needs {!link_size} bytes of room past [len]. *)

val remove_link_at : Bytes.t -> int -> int -> int
(** No-op when the record has no pair for the id. *)

val pp : Format.formatter -> t -> unit
