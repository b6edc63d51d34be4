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

let get_ftype buf off =
  let k, off = Wire.get_u8 buf off in
  match k with
  | 0 -> (Ty.Scalar Ty.SInt, off)
  | 1 -> (Ty.Scalar Ty.SString, off)
  | 2 ->
      let target, off = Wire.get_string buf off in
      (Ty.Ref target, off)
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

let put_values buf off values =
  let off = Wire.put_u16 buf off (List.length values) in
  List.fold_left (fun off v -> Value.encode buf off v) off values

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

(* A value list from [off], and the offset just past its last value. *)
let get_values buf off =
  let n, off = Wire.get_u16 buf off in
  let off = ref off in
  let values =
    List.init n (fun _ ->
        let v = Value.decode buf !off in
        off := !off + Value.encoded_size v;
        v)
  in
  (values, !off)

let rec get_body kind buf off =
  match kind with
  | 0 ->
      let tname, off = Wire.get_string buf off in
      let nfields, off = Wire.get_u16 buf off in
      let off = ref off in
      let fields =
        List.init nfields (fun _ ->
            let fname, o = Wire.get_string buf !off in
            let ftype, o = get_ftype buf o in
            off := o;
            { Ty.fname; ftype })
      in
      (Define_type (Ty.make ~name:tname fields), !off)
  | 1 ->
      let name, off = Wire.get_string buf off in
      let elem_type, off = Wire.get_string buf off in
      let reserve, off = Wire.get_u32 buf off in
      (Create_set { name; elem_type; reserve }, off)
  | 2 ->
      let set, off = Wire.get_string buf off in
      let values, off = get_values buf off in
      (Insert { set; values }, off)
  | 3 ->
      let set, off = Wire.get_string buf off in
      let oid = Oid.decode buf off in
      let off = off + Oid.encoded_size in
      let field, off = Wire.get_string buf off in
      let value = Value.decode buf off in
      (Update { set; oid; field; value }, off + Value.encoded_size value)
  | 4 ->
      let set, off = Wire.get_string buf off in
      let oid = Oid.decode buf off in
      let off = off + Oid.encoded_size in
      (Delete { set; oid }, off)
  | 5 ->
      let path, off = Wire.get_string buf off in
      let s, off = Wire.get_u8 buf off in
      let strategy =
        match s with
        | 0 -> Schema.Inplace
        | 1 -> Schema.Separate
        | s -> raise (Wire.Corrupt (Printf.sprintf "Wal: bad strategy %d" s))
      in
      let collapse, off = Wire.get_u8 buf off in
      let small_link_threshold, off = Wire.get_u16 buf off in
      let lazy_propagation, off = Wire.get_u8 buf off in
      let cluster_links, off = Wire.get_u8 buf off in
      ( Replicate
          {
            path;
            strategy;
            options =
              {
                Schema.collapse = collapse = 1;
                small_link_threshold;
                lazy_propagation = lazy_propagation = 1;
                cluster_links = cluster_links = 1;
              };
          },
        off )
  | 6 ->
      let name, off = Wire.get_string buf off in
      let set, off = Wire.get_string buf off in
      let field, off = Wire.get_string buf off in
      let clustered, off = Wire.get_u8 buf off in
      (Build_index { name; set; field; clustered = clustered = 1 }, off)
  | 7 ->
      let lsn, off = Wire.get_i64 buf off in
      (Abort lsn, off)
  | 9 ->
      let txn, off = Wire.get_u32 buf off in
      (Txn_commit txn, off)
  | 10 ->
      let txn, off = Wire.get_u32 buf off in
      (Txn_abort txn, off)
  | 12 ->
      let set, off = Wire.get_string buf off in
      let oid = Oid.decode buf off in
      let values, off = get_values buf (off + Oid.encoded_size) in
      (Insert_at { set; oid; values }, off)
  | 13 ->
      let txn, off = Wire.get_u32 buf off in
      let ikind, off = Wire.get_u8 buf off in
      if ikind = 13 then raise (Wire.Corrupt "Wal: nested Txn_op");
      let op, off = get_body ikind buf off in
      let has_before, off = Wire.get_u8 buf off in
      let before, off =
        match has_before with
        | 0 -> (None, off)
        | 1 ->
            let values, off = get_values buf off in
            (Some values, off)
        | b -> raise (Wire.Corrupt (Printf.sprintf "Wal: bad before-image flag %d" b))
      in
      (Txn_op { txn; op; before }, off)
  | 14 ->
      let rep_id, off = Wire.get_u32 buf off in
      (Scrub_repair { rep_id; source = Oid.decode buf off }, off + Oid.encoded_size)
  | 15 -> (
      match get_body 5 buf off with
      | Replicate { path; strategy; options }, off ->
          (Replicate_online { path; strategy; options }, off)
      | _ -> raise (Wire.Corrupt "Wal: bad Replicate_online body"))
  | 16 ->
      let path, off = Wire.get_string buf off in
      (Unreplicate { path }, off)
  | 17 ->
      let job, off = Wire.get_u32 buf off in
      let upto, off = Wire.get_u32 buf off in
      (Maint_step { job; upto }, off)
  | 18 ->
      let job, off = Wire.get_u32 buf off in
      (Maint_done { job }, off)
  | 19 ->
      let epoch, off = Wire.get_u32 buf off in
      (Epoch_change { epoch }, off)
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
  mutable tap : ((int64 * Bytes.t) list -> unit) option;
  mutable tap_pending : (int64 * Bytes.t) list;  (* newest first *)
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
       sync made durable, in append order.  Replication shipping hangs off
       this hook: anything a tap observer sees is already on disk, so a
       re-send can always be served from the file — and a tap that blocks
       (ack-mode shipping) makes [sync] itself the durability barrier. *)
    match t.tap with
    | Some f when t.tap_pending <> [] ->
        let batch = List.rev t.tap_pending in
        t.tap_pending <- [];
        f batch
    | Some _ | None -> t.tap_pending <- []
  end

let set_tap t tap =
  t.tap <- tap;
  t.tap_pending <- []

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

(* Walk the frames of a log file's contents, from just past the header.
   Each well-formed frame (length in bounds, checksum good) is offered to
   [f] with its offset and payload length; the walk stops at the first
   short or corrupt frame, or when [f] returns [false].  Returns the offset
   just past the last accepted frame. *)
let walk_frames data f =
  let len = String.length data in
  let buf = Bytes.unsafe_of_string data in
  let rec go pos =
    if pos + 8 > len then pos
    else
      let flen, p = Wire.get_u32 buf pos in
      let fcrc, p = Wire.get_u32 buf p in
      if flen < 9 || p + flen > len || crc buf p flen <> fcrc then pos
      else if f buf pos flen then go (p + flen)
      else pos
  in
  go (String.length magic)

(* The LSN of the frame at [pos]. *)
let frame_lsn buf pos = fst (Wire.get_i64 buf (pos + 8))

(* Decode a checksummed payload of [flen] bytes at [p]. *)
let decode_payload buf p flen =
  let lsn, o = Wire.get_i64 buf p in
  let kind, o = Wire.get_u8 buf o in
  let r, o = get_body kind buf o in
  if o <> p + flen then raise (Wire.Corrupt "Wal: frame length mismatch");
  (lsn, r)

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
    tap_pending = [];
  }

let encode_frame lsn record =
  let blen = body_size record in
  let flen = 8 + 1 + blen in
  let frame = Bytes.create (8 + flen) in
  let off = Wire.put_u32 frame 0 flen in
  let off = Wire.put_u32 frame off 0 (* crc patched below *) in
  let off = Wire.put_i64 frame off lsn in
  let off = Wire.put_u8 frame off (kind_of record) in
  let off = put_body frame off record in
  assert (off = 8 + flen);
  ignore (Wire.put_u32 frame 4 (crc frame 8 flen));
  frame

let decode_frame frame =
  if Bytes.length frame < 8 then raise (Wire.Corrupt "Wal: short frame");
  let flen, p = Wire.get_u32 frame 0 in
  let fcrc, p = Wire.get_u32 frame p in
  if flen < 9 || p + flen <> Bytes.length frame then
    raise (Wire.Corrupt "Wal: bad frame length");
  if crc frame p flen <> fcrc then
    raise (Wire.Corrupt "Wal: frame checksum mismatch");
  decode_payload frame p flen

(* Re-read raw frames from a log file, for serving replica re-send
   requests.  The shipping tap only ever sees frames that have already
   been flushed (see [sync]), so any frame a replica can legitimately ask
   for again is present in the file. *)
let read_frames path ~after =
  match read_file path with
  | None | Some "" -> []
  | Some data ->
      check_magic ~op:"read_frames" data;
      let acc = ref [] in
      ignore
        (walk_frames data (fun buf pos flen ->
             let lsn = frame_lsn buf pos in
             if Int64.compare lsn after > 0 then
               acc := (lsn, Bytes.sub buf pos (8 + flen)) :: !acc;
             true));
      List.rev !acc

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

let write_record t lsn record =
  let frame = encode_frame lsn record in
  output_bytes t.oc frame;
  t.appends <- t.appends + 1;
  t.bytes <- t.bytes + Bytes.length frame;
  t.pending_bytes <- t.pending_bytes + Bytes.length frame;
  (match t.stats with
  | Some s ->
      Stats.bump s Stats.Wal_appends;
      Stats.add s Stats.Wal_bytes (Bytes.length frame)
  | None -> ());
  (match t.tap with
  | Some _ -> t.tap_pending <- (lsn, frame) :: t.tap_pending
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
