(** Physical object identifiers.

    As in the EXODUS storage manager, OIDs are physically based: they name
    the file, page and slot where the object lives.  Objects that move leave
    a forwarding stub behind, so an OID stays valid for the object's
    lifetime.  The encoded size is 8 bytes, matching the cost model's
    [sizeof(OID)]. *)

type t = { file : int; page : int; slot : int }

val nil : t
(** A reserved invalid OID (all components [0xffff...]); never allocated. *)

val max_file : int
(** The largest value a file id can encode in an OID (16 bits), and the
    nil OID's file: {!Disk} hands out file ids below it. *)

val is_nil : t -> bool
val equal : t -> t -> bool

val compare : t -> t -> int
(** Physical order: file, then page, then slot.  Sorting OIDs in this order
    yields clustered access, which the replication engine relies on when
    propagating updates. *)

val hash_fields : t -> int
(** A hash of the three fields that allocates nothing (unlike the hash
    {!Table} uses, which boxes an int64).  The two differ: key a table by
    one of them. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val encoded_size : int
(** 8 bytes. *)

val encode : Bytes.t -> int -> t -> int
val decode : Bytes.t -> int -> t
(** [decode buf off] reads the OID at [off]; the next field starts
    {!encoded_size} bytes on.  Raises [Wire.Corrupt] past the end of
    [buf]. *)

val is_nil_at : Bytes.t -> int -> bool
(** [is_nil_at buf off] is [is_nil (decode buf off)], without building the
    OID. *)

val compare_at : t -> Bytes.t -> int -> int
(** [compare_at oid buf off] is [compare oid (decode buf off)], without
    building the OID. *)

val to_int64 : t -> int64
val of_int64 : int64 -> t

module Set : Stdlib.Set.S with type elt = t
module Map : Stdlib.Map.S with type key = t
module Table : Stdlib.Hashtbl.S with type key = t
