(** Index keys.

    The paper's model indexes scalar fields; we support integer and string
    keys.  A single tree holds keys of one variant only (enforced by
    {!Btree}). *)

type t = Int of int | String of string

val compare : t -> t -> int
(** Total order within a variant; [Int _ < String _] across variants (never
    exercised by a well-formed tree, but keeps [compare] total). *)

val equal : t -> t -> bool
val same_variant : t -> t -> bool
val to_string : t -> string
val encoded_size : t -> int
val encode : Bytes.t -> int -> t -> int
val decode : Bytes.t -> int -> t * int

val decode_at : Bytes.t -> int -> t
(** [fst (decode buf off)], without the pair. *)

val encoded_size_at : Bytes.t -> int -> int
(** Size of the key encoded at the offset, read from its header alone. *)

val compare_encoded : t -> Bytes.t -> int -> int
(** [compare_encoded k buf off] is [compare k k'] for the key [k'] encoded
    at [off], read in place without decoding it.  Both raise
    [Wire.Corrupt] on an unknown tag. *)

val min_int_key : t
(** Smallest possible [Int] key. *)
