(** Runtime values stored in object fields. *)

type t =
  | VInt of int
  | VString of string
  | VRef of Fieldrep_storage.Oid.t
  | VNull  (** an unset reference or missing scalar *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val matches : Ty.ftype -> t -> bool
(** Does the value conform to the field type?  [VNull] conforms to any
    [Ref _] field (an unset reference) but not to scalars. *)

val encoded_size : t -> int
val encode : Bytes.t -> int -> t -> int
val decode_at : Bytes.t -> int -> int -> t
(** [decode_at buf off limit] reads the value at [off]; the next one
    starts [encoded_size v] bytes on.  Raises [Wire.Corrupt] on a bad tag
    or if the value does not end by [limit]. *)

val size_at : Bytes.t -> int -> int -> int
(** The encoded size of the value at [off], checked as {!decode_at} checks
    it, without building the value. *)

val decode : Bytes.t -> int -> t
(** [decode_at buf off (Bytes.length buf)]. *)

val as_int : t -> int
(** Raises [Invalid_argument] on other variants; same for the others. *)

val as_string : t -> string
val as_ref : t -> Fieldrep_storage.Oid.t
