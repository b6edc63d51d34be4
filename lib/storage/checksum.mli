(** The store's one 32-bit checksum.

    {!Disk} seals every page with it, the WAL every frame and [Proto] every
    replication message, so all three detect corruption with the same
    function.  It reads the input a 64-bit word at a time in four
    independent lanes, so four multiply chains overlap where each byte of
    the FNV-1a it replaced waited on the previous byte's multiply, and it
    allocates nothing.  Any change
    confined to one aligned 8-byte word, which includes every single-bit
    flip, changes the internal 64-bit value; the 32 bits returned collide
    with probability 2{^-32}. *)

val sum32 : Bytes.t -> int -> int -> int
(** [sum32 bytes off len] hashes the [len] bytes starting at [off], to a
    value in \[0, 2{^32}).  Raises [Invalid_argument] if the slice is not
    inside [bytes]. *)
