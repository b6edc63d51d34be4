exception Corrupt of string

let check_bounds buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    raise (Corrupt (Printf.sprintf "out of bounds: off=%d len=%d buflen=%d"
                      off len (Bytes.length buf)))

let check_limit limit off len =
  if off < 0 || len < 0 || off + len > limit then
    raise (Corrupt (Printf.sprintf "out of bounds: off=%d len=%d limit=%d" off len limit))

let put_u8 buf off v =
  check_bounds buf off 1;
  Bytes.unsafe_set buf off (Char.unsafe_chr (v land 0xff));
  off + 1

let u8_at buf off =
  check_bounds buf off 1;
  Char.code (Bytes.unsafe_get buf off)

let get_u8 buf off = (u8_at buf off, off + 1)

let put_u16 buf off v =
  check_bounds buf off 2;
  Bytes.set_uint16_le buf off (v land 0xffff);
  off + 2

let u16_at buf off =
  check_bounds buf off 2;
  Bytes.get_uint16_le buf off

let get_u16 buf off = (u16_at buf off, off + 2)

let put_u32 buf off v =
  check_bounds buf off 4;
  assert (v >= 0 && v < 0x1_0000_0000);
  Bytes.set_int32_le buf off (Int32.of_int v);
  off + 4

let u32_at buf off =
  check_bounds buf off 4;
  Int32.to_int (Bytes.get_int32_le buf off) land 0xffff_ffff

let get_u32 buf off = (u32_at buf off, off + 4)

let put_i64 buf off v =
  check_bounds buf off 8;
  Bytes.set_int64_le buf off v;
  off + 8

let i64_at buf off =
  check_bounds buf off 8;
  Bytes.get_int64_le buf off

let get_i64 buf off = (i64_at buf off, off + 8)

let put_int buf off v = put_i64 buf off (Int64.of_int v)

let int_at buf off =
  check_bounds buf off 8;
  Int64.to_int (Bytes.get_int64_le buf off)

let get_int buf off = (int_at buf off, off + 8)

let put_string buf off s =
  let n = String.length s in
  if n >= 0x10000 then raise (Corrupt "string too long");
  let off = put_u16 buf off n in
  check_bounds buf off n;
  Bytes.blit_string s 0 buf off n;
  off + n

let string_at buf off =
  let n = u16_at buf off in
  check_bounds buf (off + 2) n;
  Bytes.sub_string buf (off + 2) n

let get_string buf off =
  let s = string_at buf off in
  (s, off + 2 + String.length s)

let string_size s = 2 + String.length s

let put_blob buf off s =
  let n = String.length s in
  let off = put_u32 buf off n in
  check_bounds buf off n;
  Bytes.blit_string s 0 buf off n;
  off + n

let get_blob buf off =
  let n, off = get_u32 buf off in
  check_bounds buf off n;
  (Bytes.sub_string buf off n, off + n)

let blob_size s = 4 + String.length s

let grow ?(keep = false) buf size =
  if Bytes.length !buf < size then begin
    let grown = Bytes.create (max size (2 * Bytes.length !buf)) in
    if keep then Bytes.blit !buf 0 grown 0 (Bytes.length !buf);
    buf := grown
  end
