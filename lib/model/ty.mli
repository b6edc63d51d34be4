(** Type definitions of the EXTRA-like data model.

    A type is a named list of fields; fields are either scalars or reference
    attributes ([ref T]) holding the OID of an object of type [T] — the
    construct field replication is built on (paper §2). *)

type scalar = SInt | SString

type ftype = Scalar of scalar | Ref of string  (** target type name *)

type field = { fname : string; ftype : ftype }

type t = { tname : string; fields : field list }

val make : name:string -> field list -> t
(** Validates that field names are non-empty and unique.
    Raises [Invalid_argument] otherwise. *)

val field : t -> string -> field
(** Raises [Not_found].  Allocates nothing, like {!field_index}: a hot
    path that must tell a missing field from a present one matches on
    this, not on {!field_opt}. *)

val field_opt : t -> string -> field option
val field_index : t -> string -> int
(** Position of a field in the layout.  Raises [Not_found]. *)

val arity : t -> int

val scalar_fields : t -> (string * scalar) list
(** Scalar fields in declaration order (what [replicate path.all] copies). *)

val ref_fields : t -> (string * string) list
(** [(field name, target type name)] pairs. *)

val is_ref : field -> bool
val pp_ftype : Format.formatter -> ftype -> unit
