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
val decode : Bytes.t -> int -> t
(** [decode buf off] reads the value at [off]; the next one starts
    [encoded_size v] bytes on.  Raises [Wire.Corrupt] on a bad tag or past
    the end of [buf]. *)

val as_int : t -> int
(** Raises [Invalid_argument] on other variants; same for the others. *)

val as_string : t -> string
val as_ref : t -> Fieldrep_storage.Oid.t
