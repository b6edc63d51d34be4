(* One 32-bit hash for the whole store: page trailers, WAL frames and
   replication messages all use it, so a checksum mismatch means the bytes
   changed, not that two subsystems disagree about hashing.

   Four lanes each fold every fourth 64-bit word of the input as
   [lane <- (lane xor word) * p], so the four multiply chains run side by
   side instead of one byte waiting on the previous byte's multiply.  For
   fixed other words, each step is a bijection of the lane (xor, then a
   multiply by an odd constant), and so is folding a lane into the
   combined value and the xorshift-multiply finaliser: any change confined
   to one aligned 8-byte word — every single-bit flip — changes the 64-bit
   result.  Only the final cut to 32 bits can collide, with odds of 2^-32.
   The finaliser's right shifts carry a change in a word's top bits, which
   a multiply never moves down, into the bits that are kept. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Words are read little-endian on every host, so a stored sum means the
   same thing on any machine. *)
let[@inline] word b i =
  let w = get64u b i in
  if Sys.big_endian then bswap64 w else w

let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L

let sum32 b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Checksum.sum32: slice out of bounds";
  let l0 = ref 0x243F6A8885A308D3L
  and l1 = ref 0x13198A2E03707344L
  and l2 = ref 0xA4093822299F31D0L
  and l3 = ref 0x082EFA98EC4E6C89L in
  let stop = off + len in
  let i = ref off in
  while !i + 32 <= stop do
    let k = !i in
    l0 := Int64.mul (Int64.logxor !l0 (word b k)) p1;
    l1 := Int64.mul (Int64.logxor !l1 (word b (k + 8))) p1;
    l2 := Int64.mul (Int64.logxor !l2 (word b (k + 16))) p1;
    l3 := Int64.mul (Int64.logxor !l3 (word b (k + 24))) p1;
    i := k + 32
  done;
  while !i + 8 <= stop do
    l0 := Int64.mul (Int64.logxor !l0 (word b !i)) p1;
    i := !i + 8
  done;
  (* The last 0-7 bytes, little-endian, as one word of lane 1. *)
  let tail = ref 0 in
  for j = stop - 1 downto !i do
    tail := (!tail lsl 8) lor Char.code (Bytes.unsafe_get b j)
  done;
  l1 := Int64.mul (Int64.logxor !l1 (Int64.of_int !tail)) p1;
  let h =
    Int64.logxor
      (Int64.logxor !l0 (Int64.mul !l1 p2))
      (Int64.logxor (Int64.mul !l2 p1) (Int64.mul !l3 p3))
  in
  (* The length goes in so that inputs differing only in trailing zero
     bytes differ; then a murmur3-style 64-bit finaliser. *)
  let h = Int64.logxor h (Int64.of_int len) in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xFF51AFD7ED558CCDL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xC4CEB9FE1A85EC53L in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  Int64.to_int (Int64.shift_right_logical h 32)
