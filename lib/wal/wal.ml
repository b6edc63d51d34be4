module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Wire = Fieldrep_util.Wire
module Lockdep = Fieldrep_util.Lockdep
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema

type record =
  | Define_type of Ty.t
  | Create_set of { name : string; elem_type : string; reserve : int }
  | Insert of { set : string; values : Value.t list }
  | Update of { set : string; oid : Oid.t; field : string; value : Value.t }
  | Delete of { set : string; oid : Oid.t }
  | Replicate of {
      path : string;
      strategy : Schema.strategy;
      options : Schema.rep_options;
    }
  | Build_index of {
      name : string;
      set : string;
      field : string;
      clustered : bool;
    }
  | Abort of int64
  | Txn_commit of int
  | Txn_abort of int
  | Insert_at of { set : string; oid : Oid.t; values : Value.t list }
  | Txn_op of { txn : int; op : record; before : Value.t list option }
  | Scrub_repair of { rep_id : int; source : Oid.t }
  | Replicate_online of {
      path : string;
      strategy : Schema.strategy;
      options : Schema.rep_options;
    }
  | Unreplicate of { path : string }
  | Maint_step of { job : int; upto : int }
  | Maint_done of { job : int }
  | Epoch_change of { epoch : int }

(* The version digit moves whenever a frame's bytes or checksum change
   meaning: version 3 seals frames with [Checksum.sum32], version 2 used
   FNV-1a. *)
let magic = "FREPWAL3"
let magic_family = "FREPWAL"

(* ------------------------------------------------------------------ *)
(* Record codec (body only; lsn and kind are framed by the caller)     *)

let ftype_size = function
  | Ty.Scalar _ -> 1
  | Ty.Ref target -> 1 + Wire.string_size target

let put_ftype buf off = function
  | Ty.Scalar Ty.SInt -> Wire.put_u8 buf off 0
  | Ty.Scalar Ty.SString -> Wire.put_u8 buf off 1
  | Ty.Ref target ->
      let off = Wire.put_u8 buf off 2 in
      Wire.put_string buf off target

(* A read cursor over one frame's payload.  Every read is checked against
   the payload's end, so a body never decodes into the bytes after it, and
   reads return bare values: decoding allocates the record, not a pair
   per field. *)
type cursor = { b : Bytes.t; mutable pos : int; lim : int }

(* Claim the next [n] bytes; the offset where they start. *)
let take c n =
  let p = c.pos in
  Wire.check_limit c.lim p n;
  c.pos <- p + n;
  p

let u8 c = Wire.u8_at c.b (take c 1)
let u16 c = Wire.u16_at c.b (take c 2)
let u32 c = Wire.u32_at c.b (take c 4)
let i64 c = Wire.i64_at c.b (take c 8)

let str c =
  let n = u16 c in
  Bytes.sub_string c.b (take c n) n

let oid c = Oid.decode c.b (take c Oid.encoded_size)

let value c =
  let v = Value.decode_at c.b c.pos c.lim in
  c.pos <- c.pos + Value.encoded_size v;
  v

let get_ftype c =
  match u8 c with
  | 0 -> Ty.Scalar Ty.SInt
  | 1 -> Ty.Scalar Ty.SString
  | 2 -> Ty.Ref (str c)
  | k -> raise (Wire.Corrupt (Printf.sprintf "Wal: bad field kind %d" k))

let kind_of = function
  | Define_type _ -> 0
  | Create_set _ -> 1
  | Insert _ -> 2
  | Update _ -> 3
  | Delete _ -> 4
  | Replicate _ -> 5
  | Build_index _ -> 6
  | Abort _ -> 7
  | Txn_commit _ -> 9
  | Txn_abort _ -> 10
  | Insert_at _ -> 12
  | Txn_op _ -> 13
  | Scrub_repair _ -> 14
  | Replicate_online _ -> 15
  | Unreplicate _ -> 16
  | Maint_step _ -> 17
  | Maint_done _ -> 18
  | Epoch_change _ -> 19

(* A value list: [count:u16] then the values. *)
let values_size values =
  List.fold_left (fun acc v -> acc + Value.encoded_size v) 2 values

let rec put_each buf off = function
  | [] -> off
  | v :: rest -> put_each buf (Value.encode buf off v) rest

let put_values buf off values =
  put_each buf (Wire.put_u16 buf off (List.length values)) values

let rec body_size = function
  | Define_type ty ->
      Wire.string_size ty.Ty.tname + 2
      + List.fold_left
          (fun acc (f : Ty.field) ->
            acc + Wire.string_size f.Ty.fname + ftype_size f.Ty.ftype)
          0 ty.Ty.fields
  | Create_set { name; elem_type; reserve = _ } ->
      Wire.string_size name + Wire.string_size elem_type + 4
  | Insert { set; values } -> Wire.string_size set + values_size values
  | Update { set; oid = _; field; value } ->
      Wire.string_size set + Oid.encoded_size + Wire.string_size field
      + Value.encoded_size value
  | Delete { set; oid = _ } -> Wire.string_size set + Oid.encoded_size
  | Replicate { path; strategy = _; options = _ } -> Wire.string_size path + 6
  | Build_index { name; set; field; clustered = _ } ->
      Wire.string_size name + Wire.string_size set + Wire.string_size field + 1
  | Abort _ -> 8
  | Txn_commit _ | Txn_abort _ -> 4
  | Insert_at { set; oid = _; values } ->
      Wire.string_size set + Oid.encoded_size + values_size values
  | Txn_op { txn = _; op; before } ->
      4 + 1 + body_size op + 1
      + (match before with Some values -> values_size values | None -> 0)
  | Scrub_repair { rep_id = _; source = _ } -> 4 + Oid.encoded_size
  | Replicate_online { path; strategy; options } ->
      body_size (Replicate { path; strategy; options })
  | Unreplicate { path } -> Wire.string_size path
  | Maint_step { job = _; upto = _ } -> 8
  | Maint_done { job = _ } -> 4
  | Epoch_change { epoch = _ } -> 4

let rec put_body buf off = function
  | Define_type ty ->
      let off = Wire.put_string buf off ty.Ty.tname in
      let off = Wire.put_u16 buf off (List.length ty.Ty.fields) in
      List.fold_left
        (fun off (f : Ty.field) ->
          let off = Wire.put_string buf off f.Ty.fname in
          put_ftype buf off f.Ty.ftype)
        off ty.Ty.fields
  | Create_set { name; elem_type; reserve } ->
      let off = Wire.put_string buf off name in
      let off = Wire.put_string buf off elem_type in
      Wire.put_u32 buf off reserve
  | Insert { set; values } ->
      let off = Wire.put_string buf off set in
      put_values buf off values
  | Update { set; oid; field; value } ->
      let off = Wire.put_string buf off set in
      let off = Oid.encode buf off oid in
      let off = Wire.put_string buf off field in
      Value.encode buf off value
  | Delete { set; oid } ->
      let off = Wire.put_string buf off set in
      Oid.encode buf off oid
  | Replicate { path; strategy; options } ->
      let off = Wire.put_string buf off path in
      let off =
        Wire.put_u8 buf off
          (match strategy with Schema.Inplace -> 0 | Schema.Separate -> 1)
      in
      let off = Wire.put_u8 buf off (if options.Schema.collapse then 1 else 0) in
      let off = Wire.put_u16 buf off options.Schema.small_link_threshold in
      let off =
        Wire.put_u8 buf off (if options.Schema.lazy_propagation then 1 else 0)
      in
      Wire.put_u8 buf off (if options.Schema.cluster_links then 1 else 0)
  | Build_index { name; set; field; clustered } ->
      let off = Wire.put_string buf off name in
      let off = Wire.put_string buf off set in
      let off = Wire.put_string buf off field in
      Wire.put_u8 buf off (if clustered then 1 else 0)
  | Abort lsn -> Wire.put_i64 buf off lsn
  | Txn_commit txn | Txn_abort txn -> Wire.put_u32 buf off txn
  | Insert_at { set; oid; values } ->
      let off = Wire.put_string buf off set in
      let off = Oid.encode buf off oid in
      put_values buf off values
  | Txn_op { txn; op; before } -> (
      let off = Wire.put_u32 buf off txn in
      let off = Wire.put_u8 buf off (kind_of op) in
      let off = put_body buf off op in
      match before with
      | None -> Wire.put_u8 buf off 0
      | Some values -> put_values buf (Wire.put_u8 buf off 1) values)
  | Scrub_repair { rep_id; source } ->
      let off = Wire.put_u32 buf off rep_id in
      Oid.encode buf off source
  | Replicate_online { path; strategy; options } ->
      put_body buf off (Replicate { path; strategy; options })
  | Unreplicate { path } -> Wire.put_string buf off path
  | Maint_step { job; upto } ->
      let off = Wire.put_u32 buf off job in
      Wire.put_u32 buf off upto
  | Maint_done { job } -> Wire.put_u32 buf off job
  | Epoch_change { epoch } -> Wire.put_u32 buf off epoch

(* A value list: [count:u16] then the values. *)
let get_values c =
  let n = u16 c in
  List.init n (fun _ -> value c)

let flag c = u8 c = 1

(* Reads are sequenced with [let]: the fields of a record expression are
   evaluated in no fixed order. *)
let rec get_body kind c =
  match kind with
  | 0 ->
      let tname = str c in
      let nfields = u16 c in
      let fields =
        List.init nfields (fun _ ->
            let fname = str c in
            let ftype = get_ftype c in
            { Ty.fname; ftype })
      in
      Define_type (Ty.make ~name:tname fields)
  | 1 ->
      let name = str c in
      let elem_type = str c in
      let reserve = u32 c in
      Create_set { name; elem_type; reserve }
  | 2 ->
      let set = str c in
      let values = get_values c in
      Insert { set; values }
  | 3 ->
      let set = str c in
      let oid = oid c in
      let field = str c in
      let value = value c in
      Update { set; oid; field; value }
  | 4 ->
      let set = str c in
      let oid = oid c in
      Delete { set; oid }
  | 5 ->
      let path = str c in
      let strategy =
        match u8 c with
        | 0 -> Schema.Inplace
        | 1 -> Schema.Separate
        | s -> raise (Wire.Corrupt (Printf.sprintf "Wal: bad strategy %d" s))
      in
      let collapse = flag c in
      let small_link_threshold = u16 c in
      let lazy_propagation = flag c in
      let cluster_links = flag c in
      Replicate
        {
          path;
          strategy;
          options =
            {
              Schema.collapse;
              small_link_threshold;
              lazy_propagation;
              cluster_links;
            };
        }
  | 6 ->
      let name = str c in
      let set = str c in
      let field = str c in
      let clustered = flag c in
      Build_index { name; set; field; clustered }
  | 7 -> Abort (i64 c)
  | 9 -> Txn_commit (u32 c)
  | 10 -> Txn_abort (u32 c)
  | 12 ->
      let set = str c in
      let oid = oid c in
      let values = get_values c in
      Insert_at { set; oid; values }
  | 13 ->
      let txn = u32 c in
      let ikind = u8 c in
      if ikind = 13 then raise (Wire.Corrupt "Wal: nested Txn_op");
      let op = get_body ikind c in
      let before =
        match u8 c with
        | 0 -> None
        | 1 -> Some (get_values c)
        | b -> raise (Wire.Corrupt (Printf.sprintf "Wal: bad before-image flag %d" b))
      in
      Txn_op { txn; op; before }
  | 14 ->
      let rep_id = u32 c in
      Scrub_repair { rep_id; source = oid c }
  | 15 -> (
      match get_body 5 c with
      | Replicate { path; strategy; options } ->
          Replicate_online { path; strategy; options }
      | _ -> raise (Wire.Corrupt "Wal: bad Replicate_online body"))
  | 16 -> Unreplicate { path = str c }
  | 17 ->
      let job = u32 c in
      let upto = u32 c in
      Maint_step { job; upto }
  | 18 -> Maint_done { job = u32 c }
  | 19 -> Epoch_change { epoch = u32 c }
  | k -> raise (Wire.Corrupt (Printf.sprintf "Wal: bad record kind %d" k))

(* The same function seals disk pages (see [Fieldrep_storage.Disk]). *)
let crc = Fieldrep_storage.Checksum.sum32

(* ------------------------------------------------------------------ *)
(* The log handle                                                      *)

(* Group commit: appends accumulate in the channel buffer and reach the OS
   only on {!sync} — issued by the database layer at commit points (an
   autocommit mutation, [Txn_commit], a checkpoint) — or when the buffered
   bytes pass [flush_limit].  Buffering preserves append order, so the
   on-disk log is always a prefix of the appended sequence and recovery
   lands exactly on the last synced record. *)
let default_flush_limit = 1 lsl 16

(* A run of whole frames, back to back, in [data] from [off] for [len]
   bytes: [count] of them, the last with LSN [last_lsn]. *)
type batch = {
  data : Bytes.t;
  off : int;
  len : int;
  count : int;
  last_lsn : int64;
}

type t = {
  path : string;
  oc : out_channel;
  mutable next_lsn : int64;  (* last assigned *)
  existing : (int64 * record) list;
  mutable appends : int;
  mutable bytes : int;
  mutable pending_bytes : int;  (* appended but not yet flushed *)
  mutable flushes : int;
  mutable fsyncs : int;
  fsync : bool;  (* fsync(2) on every sync: honest durability on real disks *)
  flush_limit : int;
  stats : Stats.t option;
  mutable tap : (batch -> unit) option;
  frames : Bytes.t ref;
      (* frames are encoded here: with no tap each at offset 0, with a tap
         appended to the batch the next sync hands it *)
  mutable batch_len : int;
  mutable batch_count : int;
  mutable batch_last : int64;
}

let path t = t.path
let last_lsn t = t.next_lsn
let ensure_lsn t lsn = if t.next_lsn < lsn then t.next_lsn <- lsn
let records t = t.existing
let appended t = t.appends
let bytes_written t = t.bytes
let flushes t = t.flushes
let fsyncs t = t.fsyncs
let pending_bytes t = t.pending_bytes

let clear_batch t =
  t.batch_len <- 0;
  t.batch_count <- 0

(* Lockdep class [Wal_sync] brackets the whole flush barrier, including the
   frame tap: anything the shipping hook does runs "under" the sync from
   this node's point of view (a loopback peer applying frames resets its
   scope at [Db.replica_apply], because its pins belong to the other
   node). *)
let sync t =
  Lockdep.with_held Lockdep.Wal_sync @@ fun () ->
  if t.pending_bytes > 0 then begin
    flush t.oc;
    (* With [fsync] the group-commit point pays for a real disk barrier,
       not just a channel flush to the OS cache — so the appends-per-sync
       ratio the txn bench reports amortizes {e actual} fsyncs.  The
       descriptor is fsynced, not reopened O_DSYNC, so the channel keeps
       buffering between syncs (that buffering {e is} group commit). *)
    if t.fsync then begin
      Unix.fsync (Unix.descr_of_out_channel t.oc);
      t.fsyncs <- t.fsyncs + 1
    end;
    t.pending_bytes <- 0;
    t.flushes <- t.flushes + 1;
    (match t.stats with Some s -> Stats.bump s Stats.Wal_flushes | None -> ());
    (* The frame tap fires after the physical flush, with the batch this
       sync made durable: the very bytes just written, in append order.
       Replication shipping hangs off this hook: anything a tap observer
       sees is already on disk, so a re-send can always be served from the
       file — and a tap that blocks (ack-mode shipping) makes [sync]
       itself the durability barrier.  The batch is cleared before the
       call, so the range stays valid for the call only. *)
    match t.tap with
    | Some f when t.batch_count > 0 ->
        let batch =
          {
            data = !(t.frames);
            off = 0;
            len = t.batch_len;
            count = t.batch_count;
            last_lsn = t.batch_last;
          }
        in
        clear_batch t;
        f batch
    | Some _ | None -> clear_batch t
  end

let set_tap t tap =
  t.tap <- tap;
  clear_batch t

(* The whole file at [path], or [None] when there is none. *)
let read_file path =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    Some
      (Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () -> really_input_string ic (in_channel_length ic)))

(* Refuse anything but a current log before reading a frame of it. *)
let check_magic ~op data =
  if not (String.starts_with ~prefix:magic data) then
    if String.starts_with ~prefix:magic_family data then
      invalid_arg
        (Printf.sprintf
           "Wal.%s: %s log is an older format (%s expected); recover it with \
            the release that wrote it"
           op
           (String.sub data 0 (String.length magic))
           magic)
    else invalid_arg (Printf.sprintf "Wal.%s: not a fieldrep log" op)

(* The payload length of the frame at [pos] if it is well formed and ends
   by [limit] (header present, length in bounds, checksum good), else -1. *)
let frame_len buf pos limit =
  if pos + 8 > limit then -1
  else
    let flen = Wire.u32_at buf pos in
    if
      flen < 9
      || pos + 8 + flen > limit
      || crc buf (pos + 8) flen <> Wire.u32_at buf (pos + 4)
    then -1
    else flen

let frame_end buf pos = pos + 8 + Wire.u32_at buf pos

(* Walk the frames of a log file's contents, from just past the header.
   Each well-formed frame is offered to [f] with its offset and payload
   length; the walk stops at the first short or corrupt frame, or when
   [f] returns [false].  Returns the offset just past the last accepted
   frame. *)
let walk_frames data f =
  let len = String.length data in
  let buf = Bytes.unsafe_of_string data in
  let rec go pos =
    let flen = frame_len buf pos len in
    if flen >= 0 && f buf pos flen then go (pos + 8 + flen) else pos
  in
  go (String.length magic)

(* The LSN of the frame at [pos]. *)
let frame_lsn buf pos = Wire.i64_at buf (pos + 8)

(* Decode a checksummed payload of [flen] bytes at [p]. *)
let decode_payload buf p flen =
  let c = { b = buf; pos = p; lim = p + flen } in
  let lsn = i64 c in
  let kind = u8 c in
  let r = get_body kind c in
  if c.pos <> c.lim then raise (Wire.Corrupt "Wal: frame length mismatch");
  (lsn, r)

let decode_frame_at buf off ~limit =
  let flen = frame_len buf off (min limit (Bytes.length buf)) in
  if flen < 0 then raise (Wire.Corrupt "Wal: short, torn or corrupt frame");
  decode_payload buf (off + 8) flen

let decode_frame frame =
  let entry = decode_frame_at frame 0 ~limit:(Bytes.length frame) in
  if frame_end frame 0 <> Bytes.length frame then
    raise (Wire.Corrupt "Wal: bytes after the frame");
  entry

(* The (lsn, record) list of an existing log file's contents and the offset
   just past the last well-formed frame; a body that does not decode also
   ends the scan. *)
let scan data =
  let acc = ref [] in
  let good_end =
    walk_frames data (fun buf pos flen ->
        match decode_payload buf (pos + 8) flen with
        | entry ->
            acc := entry :: !acc;
            true
        | exception (Wire.Corrupt _ | Invalid_argument _) -> false)
  in
  (List.rev !acc, good_end)

let fsync_of_env () =
  match Sys.getenv_opt "FIELDREP_WAL_FSYNC" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let open_ ?stats ?(flush_limit = default_flush_limit) ?fsync path =
  let fsync = match fsync with Some b -> b | None -> fsync_of_env () in
  let raw, good_end, data =
    match read_file path with
    | None | Some "" -> ([], 0, "")
    | Some data ->
        check_magic ~op:"open_" data;
        let raw, good_end = scan data in
        (raw, good_end, data)
  in
  let oc =
    if good_end > 0 && good_end < String.length data then begin
      (* Discard everything past the last well-formed frame immediately.
         Merely seeking there and letting the next append overwrite is not
         enough: if a corrupt frame in the middle of the log happens to be
         the same size as the overwriting one, a stale frame beyond it
         would come back to life with its old LSN. *)
      let oc =
        open_out_gen [ Open_wronly; Open_trunc; Open_binary ] 0o644 path
      in
      output_string oc (String.sub data 0 good_end);
      flush oc;
      oc
    end
    else begin
      let oc =
        open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 path
      in
      if good_end = 0 then begin
        output_string oc magic;
        flush oc
      end
      else seek_out oc good_end;
      oc
    end
  in
  let aborted =
    List.filter_map (function _, Abort l -> Some l | _ -> None) raw
  in
  let existing =
    List.filter
      (fun (lsn, r) ->
        (match r with Abort _ -> false | _ -> true)
        && not (List.mem lsn aborted))
      raw
  in
  let next_lsn = List.fold_left (fun acc (l, _) -> max acc l) 0L raw in
  {
    path;
    oc;
    next_lsn;
    existing;
    appends = 0;
    bytes = 0;
    pending_bytes = 0;
    flushes = 0;
    fsyncs = 0;
    fsync;
    flush_limit = max 1 flush_limit;
    stats;
    tap = None;
    frames = ref (Bytes.create 256);
    batch_len = 0;
    batch_count = 0;
    batch_last = 0L;
  }

(* Write the frame of [record] at [off]; [flen] is its payload size. *)
let put_frame buf off ~flen lsn record =
  let p = Wire.put_u32 buf off flen in
  let p = Wire.put_u32 buf p 0 (* crc patched below *) in
  let p = Wire.put_i64 buf p lsn in
  let p = Wire.put_u8 buf p (kind_of record) in
  let p = put_body buf p record in
  assert (p = off + 8 + flen);
  ignore (Wire.put_u32 buf (off + 4) (crc buf (off + 8) flen))

let encode_frame lsn record =
  let flen = 8 + 1 + body_size record in
  let frame = Bytes.create (8 + flen) in
  put_frame frame 0 ~flen lsn record;
  frame

(* The frames of the log file at [path] above [after], as one range of
   the file's contents.  The shipping tap only ever sees frames that have
   already been flushed (see [sync]), so any frame a replica can
   legitimately ask for again is present in the file.  LSNs rise along
   the file, so the range runs from the first frame above [after] to the
   last well-formed one. *)
let read_frames path ~after =
  match read_file path with
  | None | Some "" ->
      { data = Bytes.empty; off = 0; len = 0; count = 0; last_lsn = after }
  | Some data ->
      check_magic ~op:"read_frames" data;
      let first = ref (-1) and count = ref 0 and last_lsn = ref after in
      let stop =
        walk_frames data (fun buf pos _ ->
            let lsn = frame_lsn buf pos in
            if Int64.compare lsn after > 0 then begin
              if !first < 0 then first := pos;
              incr count;
              last_lsn := lsn
            end;
            true)
      in
      let off = if !first < 0 then stop else !first in
      {
        data = Bytes.unsafe_of_string data;
        off;
        len = stop - off;
        count = !count;
        last_lsn = !last_lsn;
      }

(* Physically discard every frame above [after] — the rejoin path for a
   deposed master whose unshipped tail diverged from the new epoch's
   history.  Works on a closed log file: the caller re-opens (or
   re-recovers) afterwards.  Keeps the magic header plus every
   well-formed frame with lsn <= after; scanning stops at the first
   ill-formed frame exactly as [open_] would, so nothing past a torn
   frame survives either. *)
let truncate_file path ~after =
  match read_file path with
  | None -> ()
  | Some data ->
      check_magic ~op:"truncate_file" data;
      let keep =
        walk_frames data (fun buf pos _ -> Int64.compare (frame_lsn buf pos) after <= 0)
      in
      let oc =
        open_out_gen [ Open_wronly; Open_trunc; Open_binary ] 0o644 path
      in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_substring oc data 0 keep)

(* Encode the frame into [frames] — at the end of the pending batch when a
   tap will want it, else at offset 0 as scratch — and write it from
   there: an append allocates no frame of its own. *)
let write_record t lsn record =
  let flen = 8 + 1 + body_size record in
  let size = 8 + flen in
  let off = match t.tap with Some _ -> t.batch_len | None -> 0 in
  Wire.grow ~keep:true t.frames (off + size);
  put_frame !(t.frames) off ~flen lsn record;
  output t.oc !(t.frames) off size;
  (match t.tap with
  | Some _ ->
      t.batch_len <- off + size;
      t.batch_count <- t.batch_count + 1;
      t.batch_last <- lsn
  | None -> ());
  t.appends <- t.appends + 1;
  t.bytes <- t.bytes + size;
  t.pending_bytes <- t.pending_bytes + size;
  (match t.stats with
  | Some s ->
      Stats.bump s Stats.Wal_appends;
      Stats.add s Stats.Wal_bytes size
  | None -> ());
  if t.pending_bytes >= t.flush_limit then sync t

let append t record =
  let lsn = Int64.add t.next_lsn 1L in
  t.next_lsn <- lsn;
  write_record t lsn record;
  lsn

let append_abort t ~aborted = ignore (append t (Abort aborted))

let close t =
  sync t;
  close_out t.oc
