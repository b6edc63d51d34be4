module Wire = Fieldrep_util.Wire
module Checksum = Fieldrep_storage.Checksum

type msg =
  | Hello of { last_lsn : int64 }
  | Snapshot of { lsn : int64; bytes : int64; image : string }
  | Frames of Bytes.t list
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
  | Frames frames ->
      List.fold_left (fun acc f -> acc + 4 + Bytes.length f) 4 frames

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
  | Frames frames ->
      let off = Wire.put_u32 buf off (List.length frames) in
      List.fold_left
        (fun off f -> Wire.put_blob buf off (Bytes.to_string f))
        off frames

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

let decode s =
  let buf = Bytes.of_string s in
  if Bytes.length buf < 9 then raise (Wire.Corrupt "Proto: short message");
  let want_crc, off = Wire.get_u32 buf 0 in
  if Checksum.sum32 buf 4 (Bytes.length buf - 4) <> want_crc then
    raise (Wire.Corrupt "Proto: message checksum mismatch");
  let epoch, off = Wire.get_u32 buf off in
  let tag, off = Wire.get_u8 buf off in
  let msg, off =
    match tag with
    | 0 ->
        let last_lsn, off = Wire.get_i64 buf off in
        (Hello { last_lsn }, off)
    | 1 ->
        let lsn, off = Wire.get_i64 buf off in
        let bytes, off = Wire.get_i64 buf off in
        let image, off = Wire.get_blob buf off in
        (Snapshot { lsn; bytes; image }, off)
    | 2 ->
        let count, off = Wire.get_u32 buf off in
        (* Each frame costs at least its 4-byte length prefix; a count that
           could not fit is a corrupt (or hostile) header, reject before
           allocating. *)
        if count * 4 > Bytes.length buf - off then
          raise (Wire.Corrupt "Proto: absurd frame count");
        let off = ref off in
        let frames =
          List.init count (fun _ ->
              let f, o = Wire.get_blob buf !off in
              off := o;
              Bytes.of_string f)
        in
        (Frames frames, !off)
    | 3 ->
        let lsn, off = Wire.get_i64 buf off in
        let bytes, off = Wire.get_i64 buf off in
        (Commit { lsn; bytes }, off)
    | 4 ->
        let lsn, off = Wire.get_i64 buf off in
        (Ack { lsn }, off)
    | 5 ->
        let after, off = Wire.get_i64 buf off in
        (Resend { after }, off)
    | 6 ->
        let lsn, off = Wire.get_i64 buf off in
        let bytes, off = Wire.get_i64 buf off in
        (Ping { lsn; bytes }, off)
    | 7 ->
        let lsn, off = Wire.get_i64 buf off in
        (Pong { lsn }, off)
    | 8 -> (Fenced, off)
    | 9 ->
        let fork, off = Wire.get_i64 buf off in
        (Reset { fork }, off)
    | t -> raise (Wire.Corrupt (Printf.sprintf "Proto: unknown tag %d" t))
  in
  if off <> Bytes.length buf then
    raise (Wire.Corrupt "Proto: trailing bytes");
  (epoch, msg)

let pp fmt = function
  | Hello { last_lsn } -> Format.fprintf fmt "Hello{last_lsn=%Ld}" last_lsn
  | Snapshot { lsn; bytes; image } ->
      Format.fprintf fmt "Snapshot{lsn=%Ld; bytes=%Ld; %d bytes}" lsn bytes
        (String.length image)
  | Frames frames -> Format.fprintf fmt "Frames{%d}" (List.length frames)
  | Commit { lsn; bytes } ->
      Format.fprintf fmt "Commit{lsn=%Ld; bytes=%Ld}" lsn bytes
  | Ack { lsn } -> Format.fprintf fmt "Ack{lsn=%Ld}" lsn
  | Resend { after } -> Format.fprintf fmt "Resend{after=%Ld}" after
  | Ping { lsn; bytes } ->
      Format.fprintf fmt "Ping{lsn=%Ld; bytes=%Ld}" lsn bytes
  | Pong { lsn } -> Format.fprintf fmt "Pong{lsn=%Ld}" lsn
  | Fenced -> Format.fprintf fmt "Fenced"
  | Reset { fork } -> Format.fprintf fmt "Reset{fork=%Ld}" fork
