module Wire = Fieldrep_util.Wire
module Checksum = Fieldrep_storage.Checksum

type msg =
  | Hello of { last_lsn : int64 }
  | Snapshot of { lsn : int64; bytes : int64; image : string }
  | Frames of { data : Bytes.t; off : int; len : int }
  | Commit of { lsn : int64; bytes : int64 }
  | Ack of { lsn : int64 }
  | Resend of { after : int64 }
  | Ping of { lsn : int64; bytes : int64 }
  | Pong of { lsn : int64 }
  | Fenced
  | Reset of { fork : int64 }

let tag_of = function
  | Hello _ -> 0
  | Snapshot _ -> 1
  | Frames _ -> 2
  | Commit _ -> 3
  | Ack _ -> 4
  | Resend _ -> 5
  | Ping _ -> 6
  | Pong _ -> 7
  | Fenced -> 8
  | Reset _ -> 9

let body_size = function
  | Hello _ | Ack _ | Resend _ | Pong _ | Reset _ -> 8
  | Commit _ | Ping _ -> 16
  | Fenced -> 0
  | Snapshot { image; _ } -> 16 + Wire.blob_size image
  | Frames { len; _ } -> len

let put_body buf off = function
  | Hello { last_lsn } -> Wire.put_i64 buf off last_lsn
  | Ack { lsn } | Pong { lsn } -> Wire.put_i64 buf off lsn
  | Resend { after } -> Wire.put_i64 buf off after
  | Reset { fork } -> Wire.put_i64 buf off fork
  | Fenced -> off
  | Commit { lsn; bytes } | Ping { lsn; bytes } ->
      let off = Wire.put_i64 buf off lsn in
      Wire.put_i64 buf off bytes
  | Snapshot { lsn; bytes; image } ->
      let off = Wire.put_i64 buf off lsn in
      let off = Wire.put_i64 buf off bytes in
      Wire.put_blob buf off image
  | Frames { data; off = src; len } ->
      Wire.check_bounds buf off len;
      Bytes.blit data src buf off len;
      off + len

(* Envelope: [crc:u32 | epoch:u32 | tag:u8 | body], crc over epoch+tag+body.
   The epoch is in the envelope, not per-message, so *every* payload — data,
   heartbeat or ack — is fenceable: a receiver compares the envelope epoch
   against its own before it even dispatches on the tag. *)

let encode ~epoch msg =
  if epoch < 0 then invalid_arg "Proto.encode: negative epoch";
  let blen = body_size msg in
  let buf = Bytes.create (4 + 4 + 1 + blen) in
  let off = Wire.put_u32 buf 0 0 (* crc patched below *) in
  let off = Wire.put_u32 buf off epoch in
  let off = Wire.put_u8 buf off (tag_of msg) in
  let off = put_body buf off msg in
  assert (off = 4 + 4 + 1 + blen);
  ignore (Wire.put_u32 buf 0 (Checksum.sum32 buf 4 (4 + 1 + blen)));
  Bytes.unsafe_to_string buf

(* The [i64] at [off] in the body, which starts after the 9-byte header. *)
let body_i64 buf off = Wire.i64_at buf (9 + off)

(* [msg], if the message of [n] bytes has the body [size] it must have. *)
let sized n size msg =
  if n <> 9 + size then raise (Wire.Corrupt "Proto: bad message length");
  msg

(* The received string is read where it lies, never copied or written:
   a [Frames] body is handed on as a view of its region. *)
let decode s =
  let buf = Bytes.unsafe_of_string s in
  let n = Bytes.length buf in
  if n < 9 then raise (Wire.Corrupt "Proto: short message");
  if Checksum.sum32 buf 4 (n - 4) <> Wire.u32_at buf 0 then
    raise (Wire.Corrupt "Proto: message checksum mismatch");
  let epoch = Wire.u32_at buf 4 in
  let msg =
    match Wire.u8_at buf 8 with
    | 0 -> sized n 8 (Hello { last_lsn = body_i64 buf 0 })
    | 1 ->
        let image, off = Wire.get_blob buf (9 + 16) in
        if off <> n then raise (Wire.Corrupt "Proto: trailing bytes");
        Snapshot { lsn = body_i64 buf 0; bytes = body_i64 buf 8; image }
    | 2 -> Frames { data = buf; off = 9; len = n - 9 }
    | 3 -> sized n 16 (Commit { lsn = body_i64 buf 0; bytes = body_i64 buf 8 })
    | 4 -> sized n 8 (Ack { lsn = body_i64 buf 0 })
    | 5 -> sized n 8 (Resend { after = body_i64 buf 0 })
    | 6 -> sized n 16 (Ping { lsn = body_i64 buf 0; bytes = body_i64 buf 8 })
    | 7 -> sized n 8 (Pong { lsn = body_i64 buf 0 })
    | 8 -> sized n 0 Fenced
    | 9 -> sized n 8 (Reset { fork = body_i64 buf 0 })
    | t -> raise (Wire.Corrupt (Printf.sprintf "Proto: unknown tag %d" t))
  in
  (epoch, msg)

let pp fmt = function
  | Hello { last_lsn } -> Format.fprintf fmt "Hello{last_lsn=%Ld}" last_lsn
  | Snapshot { lsn; bytes; image } ->
      Format.fprintf fmt "Snapshot{lsn=%Ld; bytes=%Ld; %d bytes}" lsn bytes
        (String.length image)
  | Frames { len; _ } -> Format.fprintf fmt "Frames{%d bytes}" len
  | Commit { lsn; bytes } ->
      Format.fprintf fmt "Commit{lsn=%Ld; bytes=%Ld}" lsn bytes
  | Ack { lsn } -> Format.fprintf fmt "Ack{lsn=%Ld}" lsn
  | Resend { after } -> Format.fprintf fmt "Resend{after=%Ld}" after
  | Ping { lsn; bytes } ->
      Format.fprintf fmt "Ping{lsn=%Ld; bytes=%Ld}" lsn bytes
  | Pong { lsn } -> Format.fprintf fmt "Pong{lsn=%Ld}" lsn
  | Fenced -> Format.fprintf fmt "Fenced"
  | Reset { fork } -> Format.fprintf fmt "Reset{fork=%Ld}" fork
