(** Little-endian binary codecs over [Bytes.t].

    All storage-level structures (records, link objects, B+-tree nodes)
    serialize through this module so that the on-page layout is defined in
    exactly one place.  Writers take a buffer and an offset and return the
    offset just past what they wrote; [get_*] readers mirror that shape.
    The [*_at] readers return the value alone, for decoders on a hot path
    that advance by a known size instead of allocating a pair per read. *)

exception Corrupt of string
(** Raised by readers on malformed input (bad bounds, bad tags). *)

val put_u8 : Bytes.t -> int -> int -> int
(** [put_u8 buf off v] writes the low 8 bits of [v] at [off]. *)

val get_u8 : Bytes.t -> int -> int * int
(** [get_u8 buf off] is [(v, off')] with [0 <= v < 256]. *)

val u8_at : Bytes.t -> int -> int
(** [u8_at buf off] is [fst (get_u8 buf off)]; the [*_at] readers below
    relate to their [get_*] twins the same way. *)

val put_u16 : Bytes.t -> int -> int -> int
(** [put_u16 buf off v] writes the low 16 bits of [v], little-endian. *)

val get_u16 : Bytes.t -> int -> int * int
val u16_at : Bytes.t -> int -> int

val put_u32 : Bytes.t -> int -> int -> int
(** [put_u32 buf off v] writes the low 32 bits of [v]; [v] must be
    non-negative and fit in 32 bits. *)

val get_u32 : Bytes.t -> int -> int * int
val u32_at : Bytes.t -> int -> int

val put_i64 : Bytes.t -> int -> int64 -> int
val get_i64 : Bytes.t -> int -> int64 * int
val i64_at : Bytes.t -> int -> int64

val put_int : Bytes.t -> int -> int -> int
(** [put_int] stores an OCaml [int] as a signed 64-bit value. *)

val get_int : Bytes.t -> int -> int * int
val int_at : Bytes.t -> int -> int

val put_string : Bytes.t -> int -> string -> int
(** [put_string buf off s] writes a [u16] length prefix followed by the raw
    bytes of [s].  [String.length s] must be < 65536. *)

val get_string : Bytes.t -> int -> string * int
val string_at : Bytes.t -> int -> string

val string_size : string -> int
(** Encoded size of a string (2 + length). *)

val put_blob : Bytes.t -> int -> string -> int
(** [put_blob buf off s] writes a [u32] length prefix followed by the raw
    bytes of [s] — the large-payload variant of {!put_string}, used for
    values (checkpoint images) that can exceed 64 KiB. *)

val get_blob : Bytes.t -> int -> string * int

val blob_size : string -> int
(** Encoded size of a blob (4 + length). *)

val grow : ?keep:bool -> Bytes.t ref -> int -> unit
(** [grow buf size] makes [!buf] at least [size] bytes long, at least
    doubling it when it must grow, so a reused scratch buffer allocates
    nothing once warm.  A grown buffer is fresh unless [keep] carries the
    old contents over. *)

val check_bounds : Bytes.t -> int -> int -> unit
(** [check_bounds buf off len] raises {!Corrupt} unless [off, off+len) lies
    inside [buf]. *)

val check_limit : int -> int -> int -> unit
(** [check_limit limit off len] raises {!Corrupt} unless [off, off+len)
    ends by [limit]: the bound a decoder of one record within a larger
    buffer (a page) checks, so it never reads past the record. *)
