(* Master/replica streaming replication.

   Everything runs over the deterministic in-process loopback transport
   (plus one socketpair smoke test): a master Db ships WAL frames as its
   log syncs them, replicas apply them through the streaming redo path and
   serve reads.  The fault tests inject drop/duplicate/corrupt/truncate
   and mid-commit disconnects, then prove the replica converges to a state
   byte-identical to the master's. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Disk = Fieldrep_storage.Disk
module Pager = Fieldrep_storage.Pager
module Wal = Fieldrep_wal.Wal
module Recovery = Fieldrep_wal.Recovery
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Key = Fieldrep_btree.Key
module Params = Fieldrep_costmodel.Params
module Gen = Fieldrep_workload.Gen
module Splitmix = Fieldrep_util.Splitmix
module Wire = Fieldrep_util.Wire
module Proto = Fieldrep_repl.Proto
module Transport = Fieldrep_repl.Transport
module Clock = Fieldrep_repl.Clock
module Repl = Fieldrep_repl.Repl
module Master = Fieldrep_repl.Repl.Master
module Replica = Fieldrep_repl.Repl.Replica
module Path = Fieldrep_model.Path
module Ast = Fieldrep_query.Ast
module Exec = Fieldrep_query.Exec

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* CI re-runs the fault tests under several fixed seeds by exporting
   FIELDREP_TEST_SEED; the offset perturbs the generated database and the
   fuzzed op/fault schedule. *)
let seed_base =
  match Sys.getenv_opt "FIELDREP_TEST_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)

let build_master ?(s_count = 30) ?(seed = 5) ?(frames = 64) ?wal_flush_limit () =
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count;
        sharing = 2;
        strategy = Params.Inplace;
        page_size = 1024;
        frames;
        seed = seed + seed_base;
        durable = true;
        wal_flush_limit;
      }
  in
  built.Gen.db

let s_oids db =
  let acc = ref [] in
  Db.scan db ~set:"S" (fun oid _ -> acc := oid :: !acc);
  Array.of_list (List.rev !acc)

let r_oids db =
  let acc = ref [] in
  Db.scan db ~set:"R" (fun oid _ -> acc := oid :: !acc);
  Array.of_list (List.rev !acc)

(* Canonical user-visible observation (sets, indexes, replicated reads):
   two databases in the same state produce the same string. *)
let observe db =
  let b = Buffer.create 4096 in
  List.iter
    (fun set ->
      Buffer.add_string b (Printf.sprintf "== set %s (%d)\n" set (Db.set_size db set));
      Db.scan db ~set (fun oid record ->
          Buffer.add_string b (Oid.to_string oid);
          List.iter
            (fun v ->
              Buffer.add_char b '|';
              Buffer.add_string b (Value.to_string v))
            (Db.user_values db ~set record);
          Buffer.add_char b '\n'))
    [ "S"; "R" ];
  List.iter
    (fun index ->
      Buffer.add_string b ("== index " ^ index ^ "\n");
      Db.index_range db ~index ~lo:Key.min_int_key ~hi:(Key.Int max_int) ~init:()
        ~f:(fun () k oid ->
          Buffer.add_string b
            (Printf.sprintf "%s->%s\n" (Key.to_string k) (Oid.to_string oid))))
    [ Gen.r_index; Gen.s_index ];
  Buffer.add_string b "== derefs\n";
  Db.scan db ~set:"R" (fun oid _ ->
      Buffer.add_string b (Value.to_string (Db.deref db ~set:"R" oid "sref.repfield"));
      Buffer.add_char b '\n');
  Buffer.contents b

(* Byte-level identity: flush both buffer pools, then digest every page of
   every disk file.  The replica restores the master's checkpoint pages
   and replays deterministically, so even the physical layout matches. *)
let disk_digest db =
  Pager.flush (Db.pager db);
  let disk = Pager.disk (Db.pager db) in
  Disk.file_ids disk
  |> List.sort compare
  |> List.map (fun id ->
         let n = Disk.page_count disk id in
         let b = Buffer.create 64 in
         for page = 0 to n - 1 do
           Buffer.add_string b
             (Digest.to_hex (Digest.bytes (Disk.dump_page disk ~file:id ~page)))
         done;
         (id, n, Digest.to_hex (Digest.string (Buffer.contents b))))

let check_converged ?(what = "replica") master_db replica_db =
  checks (what ^ " observation identical") (observe master_db)
    (observe replica_db);
  checkb
    (what ^ " pages byte-identical")
    true
    (disk_digest master_db = disk_digest replica_db)

(* Drive an in-process master/replica pair until traffic dries up: flush
   buffers and acks both ways.  Several rounds, because a resend costs a
   full round-trip (replica asks, master re-ships, replica applies). *)
let converge ?(rounds = 4) m r =
  for _ = 1 to rounds do
    Master.pump m;
    ignore (Replica.drain r)
  done;
  Master.pump m

let connect_pair ?mode mdb =
  let m = Master.create ?mode mdb in
  let ma, rb, fa, fb = Transport.loopback () in
  let r = Replica.connect rb in
  let _peer = Master.attach ~pump:(fun () -> ignore (Replica.drain r)) m ma in
  ignore (Replica.drain r);
  (* the bootstrap snapshot *)
  (m, r, fa, fb)

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)

let proto_samples =
  [
    Proto.Hello { last_lsn = 0L };
    Proto.Hello { last_lsn = 123456789L };
    Proto.Snapshot { lsn = 42L; bytes = 9_999L; image = String.make 100_000 'i' };
    (* a range inside a larger buffer: only the range travels *)
    Proto.Frames
      { data = Bytes.of_string ("<<abc" ^ String.make 70_000 'f' ^ ">>");
        off = 2; len = 70_003 };
    Proto.Frames { data = Bytes.empty; off = 0; len = 0 };
    Proto.Commit { lsn = 7L; bytes = 1234L };
    Proto.Ack { lsn = 7L };
    Proto.Resend { after = 3L };
    Proto.Ping { lsn = 88L; bytes = 4321L };
    Proto.Pong { lsn = 88L };
    Proto.Fenced;
    Proto.Reset { fork = 55L };
  ]

(* A decoded [Frames] is a view of the received payload, so two of them
   are the same message when their ranges hold the same bytes. *)
let same_msg a b =
  match (a, b) with
  | Proto.Frames x, Proto.Frames y ->
      Bytes.sub x.data x.off x.len = Bytes.sub y.data y.off y.len
  | _ -> a = b

let test_proto_roundtrip () =
  List.iter
    (fun msg ->
      List.iter
        (fun epoch ->
          let back_epoch, back = Proto.decode (Proto.encode ~epoch msg) in
          checkb
            (Format.asprintf "%a survives the codec" Proto.pp msg)
            true
            (same_msg msg back && epoch = back_epoch))
        [ 0; 1; 777 ])
    proto_samples;
  try
    ignore (Proto.encode ~epoch:(-1) Proto.Fenced);
    Alcotest.fail "negative epoch encoded"
  with Invalid_argument _ -> ()

let test_proto_rejects_corruption () =
  List.iter
    (fun msg ->
      let s = Proto.encode ~epoch:3 msg in
      (* flip one byte somewhere in the middle *)
      let b = Bytes.of_string s in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      (try
         ignore (Proto.decode (Bytes.to_string b));
         Alcotest.fail "corrupt message decoded"
       with Wire.Corrupt _ -> ());
      (* truncate *)
      (try
         ignore (Proto.decode (String.sub s 0 (String.length s / 2)));
         Alcotest.fail "truncated message decoded"
       with Wire.Corrupt _ -> ());
      (* trailing garbage *)
      try
        ignore (Proto.decode (s ^ "x"));
        Alcotest.fail "trailing garbage decoded"
      with Wire.Corrupt _ -> ())
    proto_samples

let test_wal_frame_codec () =
  let record = Wal.Insert { set = "S"; values = [ Value.VInt 1 ] } in
  let frame = Wal.encode_frame 9L record in
  let lsn, back = Wal.decode_frame frame in
  checkb "frame roundtrips" true (Int64.equal lsn 9L && back = record);
  let b = Bytes.copy frame in
  Bytes.set b (Bytes.length b - 1) 'x';
  (try
     ignore (Wal.decode_frame b);
     Alcotest.fail "corrupt frame decoded"
   with Wire.Corrupt _ -> ());
  try
    ignore (Wal.decode_frame (Bytes.sub frame 0 (Bytes.length frame - 2)));
    Alcotest.fail "truncated frame decoded"
  with Wire.Corrupt _ -> ()

let test_read_frames () =
  let path = Filename.temp_file "fieldrep_repl_test" ".wal" in
  Sys.remove path;
  let w = Wal.open_ path in
  let records =
    List.init 5 (fun i -> Wal.Insert { set = "S"; values = [ Value.VInt i ] })
  in
  List.iter (fun r -> ignore (Wal.append w r)) records;
  Wal.sync w;
  (* The (lsn, record) list a batch's range holds, decoded in place. *)
  let entries (b : Wal.batch) =
    let limit = b.off + b.len in
    let rec go pos acc =
      if pos >= limit then List.rev acc
      else go (Wal.frame_end b.data pos) (Wal.decode_frame_at b.data pos ~limit :: acc)
    in
    go b.off []
  in
  let all = Wal.read_frames path ~after:0L in
  checki "all frames read back" 5 all.count;
  checkb "last lsn" true (Int64.equal all.last_lsn 5L);
  List.iteri
    (fun i (lsn, record) ->
      checkb "frames in lsn order" true (Int64.equal lsn (Int64.of_int (i + 1)));
      checkb "record matches" true (record = List.nth records i))
    (entries all);
  checki "frames fill the range" 5 (List.length (entries all));
  let tail = Wal.read_frames path ~after:3L in
  checki "tail after 3" 2 tail.count;
  checkb "tail starts at 4" true
    (List.map fst (entries tail) = [ 4L; 5L ]);
  checki "tail ends where the range does" (all.off + all.len) (tail.off + tail.len);
  checki "nothing above the last frame" 0 (Wal.read_frames path ~after:5L).len;
  checki "missing file is empty" 0
    (Wal.read_frames (path ^ ".nope") ~after:0L).count;
  Wal.close w;
  Sys.remove path

(* Minor words allocated by [f ()], less the cost of measuring. *)
let minor_words f =
  let span g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  span f -. span ignore

(* A [Frames] message of [n] insert frames, each carrying [pad] bytes. *)
let frames_message ~n ~pad =
  let b = Buffer.create 4096 in
  for i = 1 to n do
    Buffer.add_bytes b
      (Wal.encode_frame (Int64.of_int i)
         (Wal.Insert
            { set = "R"; values = [ Value.VInt i; Value.VString (String.make pad 'v') ] }))
  done;
  let data = Buffer.to_bytes b in
  Proto.encode ~epoch:1 (Proto.Frames { data; off = 0; len = Bytes.length data })

(* Decoding a [Frames] message reads the payload where it lies: the words
   it allocates do not depend on how many frames it carries or how big
   they are.  A copy of the payload would cost a word per 8 bytes. *)
let test_proto_decode_words () =
  let words msg = minor_words (fun () -> ignore (Proto.decode msg)) in
  let w100 = words (frames_message ~n:100 ~pad:10) in
  Alcotest.(check (float 0.))
    "100 big frames" w100
    (words (frames_message ~n:100 ~pad:1000));
  Alcotest.(check (float 0.)) "10 frames" w100 (words (frames_message ~n:10 ~pad:10));
  checkb (Printf.sprintf "decode allocates %.0f words (bound 8)" w100) true (w100 <= 8.)

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)

let test_loopback_faults () =
  let a, b, fa, _fb = Transport.loopback () in
  a.Transport.send "one";
  checkb "delivered" true (b.Transport.recv ~block:false = Some "one");
  fa.Transport.drop <- 1;
  a.Transport.send "lost";
  a.Transport.send "kept";
  checkb "drop loses exactly one" true (b.Transport.recv ~block:false = Some "kept");
  fa.Transport.duplicate <- 1;
  a.Transport.send "twice";
  checkb "dup 1" true (b.Transport.recv ~block:false = Some "twice");
  checkb "dup 2" true (b.Transport.recv ~block:false = Some "twice");
  fa.Transport.corrupt <- 1;
  a.Transport.send "payload";
  checkb "corrupted in flight" true
    (match b.Transport.recv ~block:false with
    | Some s -> s <> "payload" && String.length s = 7
    | None -> false);
  fa.Transport.truncate <- 1;
  a.Transport.send "12345678";
  checkb "truncated to half" true (b.Transport.recv ~block:false = Some "1234");
  fa.Transport.disconnect_after <- 1;
  a.Transport.send "last";
  (try
     a.Transport.send "never";
     Alcotest.fail "send on dying link succeeded"
   with Transport.Disconnected -> ());
  checkb "delivered before death is readable" true
    (b.Transport.recv ~block:false = Some "last");
  try
    ignore (b.Transport.recv ~block:false);
    Alcotest.fail "recv on dead drained link succeeded"
  with Transport.Disconnected -> ()

let test_socket_transport () =
  let sa, sb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let a = Transport.of_socket ~label:"test:a" sa in
  let b = Transport.of_socket ~label:"test:b" sb in
  checkb "empty socket: no payload" true (b.Transport.recv ~block:false = None);
  let msg =
    Proto.encode ~epoch:0
      (Proto.Frames { data = Bytes.make 10_000 'f'; off = 0; len = 10_000 })
  in
  a.Transport.send msg;
  a.Transport.send (Proto.encode ~epoch:2 (Proto.Commit { lsn = 3L; bytes = 64L }));
  checkb "payload survives the socket" true (b.Transport.recv ~block:true = Some msg);
  checkb "framing separates messages" true
    (match b.Transport.recv ~block:false with
    | Some s -> Proto.decode s = (2, Proto.Commit { lsn = 3L; bytes = 64L })
    | None -> false);
  a.Transport.close ();
  (try
     ignore (b.Transport.recv ~block:true);
     Alcotest.fail "recv past EOF succeeded"
   with Transport.Disconnected -> ());
  b.Transport.close ()

(* Regression: the socket receiver must reassemble a frame that arrives
   one byte at a time — including a split length prefix.  The old reader
   blocked (or failed) on a partial prefix even with [block:false]. *)
let test_socket_byte_at_a_time () =
  let sa, sb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let b = Transport.of_socket ~label:"partial:b" sb in
  let payload = Proto.encode ~epoch:3 (Proto.Commit { lsn = 9L; bytes = 512L }) in
  let len = String.length payload in
  let framed = Bytes.create (4 + len) in
  Bytes.set_int32_le framed 0 (Int32.of_int len);
  Bytes.blit_string payload 0 framed 4 len;
  for i = 0 to 4 + len - 1 do
    checkb "no message while the frame is incomplete" true
      (b.Transport.recv ~block:false = None);
    ignore (Unix.write sa framed i 1)
  done;
  checkb "frame completes on the last byte" true
    (b.Transport.recv ~block:false = Some payload);
  checkb "nothing trailing" true (b.Transport.recv ~block:false = None);
  (* two frames coalesced into one kernel write split messages correctly *)
  let p2 = Proto.encode ~epoch:1 (Proto.Ack { lsn = 4L }) in
  let frame_of p =
    let fp = Bytes.create (4 + String.length p) in
    Bytes.set_int32_le fp 0 (Int32.of_int (String.length p));
    Bytes.blit_string p 0 fp 4 (String.length p);
    fp
  in
  let both = Bytes.cat (frame_of p2) (frame_of p2) in
  ignore (Unix.write sa both 0 (Bytes.length both));
  checkb "first of coalesced pair" true (b.Transport.recv ~block:false = Some p2);
  checkb "second of coalesced pair" true (b.Transport.recv ~block:false = Some p2);
  Unix.close sa;
  b.Transport.close ()

(* ------------------------------------------------------------------ *)
(* Bootstrap and streaming                                             *)

let test_bootstrap_snapshot () =
  let mdb = build_master () in
  let m, r, _, _ = connect_pair mdb in
  let rdb = Replica.db r in
  checkb "replica flag set" true (Db.is_replica rdb);
  checkb "master flag clear" true (not (Db.is_replica mdb));
  checkb "bootstrap lsn matches the log" true
    (Int64.equal (Replica.last_applied r)
       (Wal.last_lsn (Option.get (Db.wal mdb))));
  check_converged ~what:"bootstrapped replica" mdb rdb;
  ignore m

let test_async_streaming () =
  let mdb = build_master () in
  let m, r, _, _ = connect_pair mdb in
  let ss = s_oids mdb and rs = r_oids mdb in
  (* autocommit traffic *)
  Db.update_field mdb ~set:"S" ss.(0) ~field:"repfield"
    (Value.VString (String.make 20 'z'));
  ignore
    (Db.insert mdb ~set:"R"
       [ Value.VInt 7777; Value.VString (String.make 65 'q'); Value.VRef ss.(1) ]);
  (* a committed transaction *)
  let tx = Db.begin_txn mdb in
  Db.update_field ~txn:tx mdb ~set:"S" ss.(2) ~field:"repfield"
    (Value.VString (String.make 20 'y'));
  Db.update_field ~txn:tx mdb ~set:"R" rs.(0) ~field:"field_r" (Value.VInt 100_000);
  Db.commit mdb tx;
  (* an aborted transaction: compensations ship too *)
  let tx = Db.begin_txn mdb in
  Db.update_field ~txn:tx mdb ~set:"S" ss.(3) ~field:"repfield"
    (Value.VString (String.make 20 'w'));
  Db.abort mdb tx;
  converge m r;
  check_converged mdb (Replica.db r);
  checkb "replica applied frames" true
    ((Db.stats (Replica.db r)).Stats.frames_applied > 0);
  checkb "master shipped frames" true ((Db.stats mdb).Stats.frames_shipped > 0)

(* The frames a replica applies, decoded from copies of a shipped range. *)
let decode_range data =
  let rec go pos acc =
    if pos >= Bytes.length data then List.rev acc
    else
      let next = Wal.frame_end data pos in
      go next (Wal.decode_frame (Bytes.sub data pos (next - pos)) :: acc)
  in
  go 0 []

(* A replica's apply of a shipped batch — decode the envelope, walk the
   range in place, one replay bracket — against the redo alone of the same
   records, decoded beforehand, on a twin replica opened from the same
   image.  The difference per frame is what shipping costs on the replica:
   decoding the record where it lies plus the walk. *)
let test_replica_apply_words () =
  let mdb = build_master () in
  let w = Option.get (Db.wal mdb) in
  let image = Db.image mdb in
  let lsn = Wal.last_lsn w in
  let shipped = Buffer.create 4096 in
  Wal.set_tap w
    (Some (fun (b : Wal.batch) -> Buffer.add_subbytes shipped b.data b.off b.len));
  let ss = s_oids mdb and rs = r_oids mdb in
  for i = 0 to 39 do
    let s = ss.(i mod Array.length ss) in
    Db.update_field mdb ~set:"S" s ~field:"repfield"
      (Value.VString (Printf.sprintf "%020d" i));
    ignore
      (Db.insert mdb ~set:"R"
         [ Value.VInt (90_000 + i); Value.VString (String.make 65 'n'); Value.VRef s ]);
    Db.delete mdb ~set:"R" rs.(i)
  done;
  Wal.set_tap w None;
  let data = Buffer.to_bytes shipped in
  let entries = decode_range data in
  let frames = List.length entries in
  checki "three frames a round" 120 frames;
  let ma, rb, _, _ = Transport.loopback () in
  let r = Replica.connect rb in
  ma.Transport.send (Proto.encode ~epoch:0 (Proto.Snapshot { lsn; bytes = 0L; image }));
  ignore (Replica.drain r);
  ma.Transport.send
    (Proto.encode ~epoch:0 (Proto.Frames { data; off = 0; len = Bytes.length data }));
  let twin = Db.open_replica image in
  let shipping = minor_words (fun () -> ignore (Replica.step r)) in
  let redo =
    minor_words (fun () ->
        Db.replica_apply twin (fun apply ->
            List.iter (fun (lsn, record) -> apply lsn record) entries))
  in
  checkb "the whole batch applied" true
    (Int64.equal (Replica.last_applied r) (Wal.last_lsn w));
  check_converged ~what:"shipped replica" mdb (Replica.db r);
  check_converged ~what:"twin replica" mdb twin;
  let per_frame = (shipping -. redo) /. float_of_int frames in
  checkb
    (Printf.sprintf
       "%.1f words a frame beyond the redo (%.0f in all, redo %.0f; bound 36)"
       per_frame shipping redo)
    true (per_frame <= 36.)

(* The unit of shipping is the log's own bytes.  Over several syncs, an
   async flush and a resend, the ranges shipped as the tap handed them are,
   end to end, the log file after its header, and the resent range is the
   file from the first frame above [after].  One lost flush costs one
   resent tail; when the replica's [Resend] is lost too, the next round's
   bare barrier makes it ask again, and that answer brings it level. *)
let shipped_bytes_are_the_log ~lose_resend () =
  let wal_path = Filename.temp_file "fieldrep_repl_bytes" ".wal" in
  Sys.remove wal_path;
  let mdb = Db.create ~page_size:1024 ~frames:64 ~wal_path () in
  let m = Master.create ~mode:(Master.Async { buffer_bytes = 1 lsl 20 }) mdb in
  let events = ref [] in
  let ma, rb, fa, fb = Transport.loopback () in
  let ma =
    { ma with
      Transport.send =
        (fun p ->
          (match Proto.decode p with
          | _, Proto.Frames { data; off; len } ->
              events := `Frames (Bytes.sub_string data off len) :: !events
          | _ -> ());
          ma.Transport.send p) }
  in
  let rb =
    { rb with
      Transport.send =
        (fun p ->
          (match Proto.decode p with
          | _, Proto.Resend { after } -> events := `Resend after :: !events
          | _ -> ());
          rb.Transport.send p) }
  in
  let r = Replica.connect rb in
  ignore (Master.attach ~pump:(fun () -> ignore (Replica.drain r)) m ma);
  ignore (Replica.drain r);
  Db.define_type mdb
    (Ty.make ~name:"XT"
       [ { Ty.fname = "v"; ftype = Ty.Scalar Ty.SInt };
         { Ty.fname = "s"; ftype = Ty.Scalar Ty.SString } ]);
  Db.create_set mdb ~name:"X" ~elem_type:"XT" ();
  let xs =
    List.init 6 (fun i ->
        Db.insert mdb ~set:"X" [ Value.VInt i; Value.VString (String.make (i * 9) 'x') ])
  in
  converge m r;
  List.iteri
    (fun i x -> Db.update_field mdb ~set:"X" x ~field:"v" (Value.VInt (100 + i)))
    xs;
  converge m r;
  (* the next flush is lost on the wire: the replica asks for the tail *)
  fa.Transport.drop <- 1;
  if lose_resend then fb.Transport.drop <- 1;
  Db.delete mdb ~set:"X" (List.hd xs);
  ignore (Db.insert mdb ~set:"X" [ Value.VInt 99; Value.VString "late" ]);
  converge m r;
  let rows db =
    let acc = ref [] in
    Db.scan db ~set:"X" (fun oid record ->
        acc := (oid, Db.user_values db ~set:"X" record) :: !acc);
    !acc
  in
  checkb "replica rows = master rows" true (rows mdb = rows (Replica.db r));
  checkb "replica pages byte-identical" true
    (disk_digest mdb = disk_digest (Replica.db r));
  let w = Option.get (Db.wal mdb) in
  checkb "several syncs" true (Wal.flushes w >= 10);
  let file = In_channel.with_open_bin wal_path In_channel.input_all in
  let body = String.sub file 8 (String.length file - 8) in
  (* Split the traffic: a range that answers a [Resend] is a re-read of the
     file; every other one is what the tap handed over. *)
  let rec split tapped resent = function
    | [] -> (List.rev tapped, List.rev resent)
    | `Resend after :: `Frames f :: rest -> split tapped ((after, f) :: resent) rest
    | `Resend _ :: rest -> split tapped resent rest
    | `Frames f :: rest -> split (f :: tapped) resent rest
  in
  let tapped, resent = split [] [] (List.rev !events) in
  checkb "more than one async flush" true (List.length tapped >= 3);
  checks "tap ranges, end to end, are the log after its header" body
    (String.concat "" tapped);
  let asked =
    List.length (List.filter (function `Resend _ -> true | `Frames _ -> false) !events)
  in
  checki "resend requests, the lost one included" (if lose_resend then 2 else 1) asked;
  checki "one resent tail" 1 (List.length resent);
  List.iter
    (fun (after, tail) ->
      (* the offset of the first frame above [after], walked by hand *)
      let rec first_above pos =
        if pos >= String.length file then pos
        else if Int64.compare (String.get_int64_le file (pos + 8)) after > 0 then pos
        else first_above (pos + 8 + Int32.to_int (String.get_int32_le file pos))
      in
      let from = first_above 8 in
      checkb "the resend starts inside the log" true (from < String.length file);
      checks "the resent range is the file after [after]"
        (String.sub file from (String.length file - from)) tail)
    resent;
  Db.close mdb;
  Sys.remove wal_path

(* A query on the master between two DDLs: its output file is not logged
   and so must not shift the file ids the replica's replay hands the later
   sets out. *)
let test_retrieve_between_ddls () =
  let mdb = build_master () in
  let m, r, _, _ = connect_pair mdb in
  Db.define_type mdb
    (Ty.make ~name:"XT" [ { Ty.fname = "v"; ftype = Ty.Scalar Ty.SInt } ]);
  Db.create_set mdb ~name:"X" ~elem_type:"XT" ();
  let x = Db.insert mdb ~set:"X" [ Value.VInt 1 ] in
  let result =
    Exec.retrieve mdb { Ast.from_set = "S"; projections = [ "repfield" ]; where = None }
  in
  checkb "query read rows" true (result.Exec.rows > 0);
  Exec.drop_output mdb result.Exec.output_file;
  Db.create_set mdb ~name:"Y" ~elem_type:"XT" ();
  let y = Db.insert mdb ~set:"Y" [ Value.VInt 2 ] in
  Db.update_field mdb ~set:"Y" y ~field:"v" (Value.VInt 3);
  Db.update_field mdb ~set:"X" x ~field:"v" (Value.VInt 4);
  converge m r;
  let rdb = Replica.db r in
  List.iter
    (fun (set, oid, v) ->
      checks (set ^ " on the replica") (Value.to_string (Value.VInt v))
        (Value.to_string (List.hd (Db.user_values rdb ~set (Db.get rdb ~set oid)))))
    [ ("X", x, 4); ("Y", y, 3) ];
  check_converged mdb rdb

let test_abort_marker_stream () =
  let mdb = build_master () in
  let m, r, _, _ = connect_pair mdb in
  let ss = s_oids mdb in
  (* Deleting a still-referenced S object fails validation on the master
     AFTER its record hit the log; the abort marker rescinds it.  The
     replica applies the record, fails identically, and the marker clears
     the failed slot. *)
  (try
     Db.delete mdb ~set:"S" ss.(0);
     Alcotest.fail "expected a validation failure"
   with Invalid_argument _ -> ());
  Db.update_field mdb ~set:"S" ss.(0) ~field:"repfield"
    (Value.VString (String.make 20 'k'));
  converge m r;
  check_converged ~what:"post-abort replica" mdb (Replica.db r)

let test_ack_mode_blocks () =
  let mdb = build_master () in
  let m, r, _, _ = connect_pair ~mode:Master.Ack mdb in
  let ss = s_oids mdb in
  let acks0 = (Db.stats mdb).Stats.acks_waited in
  Db.update_field mdb ~set:"S" ss.(0) ~field:"repfield"
    (Value.VString (String.make 20 'a'));
  (* The autocommit sync blocked until the replica acknowledged: the
     replica is already caught up, with no pump needed afterwards. *)
  checkb "replica at master lsn right after the commit" true
    (Int64.equal (Replica.last_applied r)
       (Wal.last_lsn (Option.get (Db.wal mdb))));
  checkb "a commit barrier waited" true ((Db.stats mdb).Stats.acks_waited > acks0);
  let tx = Db.begin_txn mdb in
  Db.update_field ~txn:tx mdb ~set:"S" ss.(1) ~field:"repfield"
    (Value.VString (String.make 20 'b'));
  Db.commit mdb tx;
  checkb "txn commit also waited" true
    (Int64.equal (Replica.last_applied r)
       (Wal.last_lsn (Option.get (Db.wal mdb))));
  check_converged ~what:"ack replica" mdb (Replica.db r);
  ignore m

(* A transaction pays its own database's I/O.  Master and ack-mode
   replica each run on a pool of four frames, so both miss; the replica
   applies the commit's frames inside the master's [Wal.sync], and none
   of its page I/O is charged to the master's transaction. *)
let test_ack_txn_io_is_its_own () =
  let mdb = build_master ~frames:4 () in
  let m = Master.create ~mode:Master.Ack mdb in
  let ma, rb, _, _ = Transport.loopback () in
  let r = Replica.connect ~frames:4 rb in
  ignore (Master.attach ~pump:(fun () -> ignore (Replica.drain r)) m ma);
  ignore (Replica.drain r);
  let ss = s_oids mdb in
  let io db = Stats.total_io (Db.stats db) in
  let rdb = Replica.db r in
  let master0 = io mdb and replica0 = io rdb in
  let tx = Db.begin_txn mdb in
  Array.iteri
    (fun i s ->
      if i < 8 then
        Db.update_field ~txn:tx mdb ~set:"S" s ~field:"repfield"
          (Value.VString (Printf.sprintf "own-io-%02d" i)))
    ss;
  Db.commit mdb tx;
  checkb "the replica applied the commit" true
    (Int64.equal (Replica.last_applied r) (Wal.last_lsn (Option.get (Db.wal mdb))));
  checkb "the master missed its pool" true (io mdb > master0);
  checkb "the replica's redo missed its pool" true (io rdb > replica0);
  checki "txn I/O = the master's own I/O" (io mdb - master0) (Db.Txn.io tx);
  check_converged ~what:"small-pool ack replica" mdb rdb

(* Space reuse on a replica.  The master runs a rolling window over R —
   delete the oldest object, insert a new one — for a turnover and then
   deletes half the window, so the snapshot that bootstraps an ack-mode
   replica holds pages that qualify for reuse.  The window then refills
   and turns over three more times, half the time inside transactions
   (tombstones, freed at commit).  The replica rebuilds its free-space map
   from the snapshot and replays every insert onto the master's page and
   slot: every page stays byte-identical, and R stops growing. *)
let test_ack_replica_space_reuse () =
  let mdb = build_master () in
  let ss = s_oids mdb in
  let window = Queue.of_seq (Array.to_seq (r_oids mdb)) in
  let live = Queue.length window in
  let rng = Splitmix.create (41 + seed_base) in
  let next = ref 0 in
  let insert ?txn () =
    incr next;
    Queue.push
      (Db.insert ?txn mdb ~set:"R"
         [
           Value.VInt (400_000 + !next);
           Value.VString (String.make 65 'r');
           Value.VRef ss.(Splitmix.int rng (Array.length ss));
         ])
      window
  in
  let turnover ~txns =
    let tx = ref None in
    for j = 0 to live - 1 do
      if txns && j mod 10 = 0 then tx := Some (Db.begin_txn mdb);
      let txn = !tx in
      Db.delete ?txn mdb ~set:"R" (Queue.pop window);
      insert ?txn ();
      match txn with
      | Some t when j mod 10 = 9 || j = live - 1 ->
          Db.commit mdb t;
          tx := None
      | Some _ | None -> ()
    done
  in
  turnover ~txns:false;
  for _ = 1 to live / 2 do
    Db.delete mdb ~set:"R" (Queue.pop window)
  done;
  let m, r, _, _ = connect_pair ~mode:Master.Ack mdb in
  while Queue.length window < live do
    insert ()
  done;
  let plateau = ref 0 in
  for k = 1 to 3 do
    turnover ~txns:(k mod 2 = 1);
    if k = 1 then plateau := Db.set_pages mdb "R"
  done;
  checki "R pages after the last turnover = after the first" !plateau
    (Db.set_pages mdb "R");
  converge m r;
  check_converged ~what:"ack replica" mdb (Replica.db r);
  Db.check_integrity (Replica.db r)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_replica_read_only () =
  let mdb = build_master () in
  let _m, r, _, _ = connect_pair mdb in
  let rdb = Replica.db r in
  let ss = s_oids rdb in
  let expect_readonly what f =
    try
      f ();
      Alcotest.fail (what ^ " succeeded on a replica")
    with Invalid_argument msg ->
      checkb (what ^ " names the replica") true (contains msg "read-only replica")
  in
  expect_readonly "insert" (fun () ->
      ignore
        (Db.insert rdb ~set:"R"
           [ Value.VInt 1; Value.VString "x"; Value.VRef ss.(0) ]));
  expect_readonly "update" (fun () ->
      Db.update_field rdb ~set:"S" ss.(0) ~field:"repfield" (Value.VString "x"));
  expect_readonly "delete" (fun () -> Db.delete rdb ~set:"S" ss.(0));
  expect_readonly "begin_txn" (fun () -> ignore (Db.begin_txn rdb));
  expect_readonly "ddl" (fun () ->
      Db.define_type rdb (Ty.make ~name:"X" [ { Ty.fname = "a"; ftype = Ty.Scalar Ty.SInt } ]));
  expect_readonly "scrub" (fun () -> ignore (Db.scrub rdb));
  expect_readonly "checkpoint" (fun () -> Db.checkpoint rdb "/dev/null");
  (* every write entry point added with online maintenance *)
  expect_readonly "replicate" (fun () ->
      Db.replicate rdb ~strategy:Schema.Separate (Path.parse "R.sref.field_s"));
  expect_readonly "unreplicate" (fun () ->
      Db.unreplicate rdb (Path.parse "R.sref.repfield"));
  expect_readonly "maint_step" (fun () -> ignore (Db.maint_step rdb));
  expect_readonly "maint_drain" (fun () -> Db.maint_drain rdb);
  expect_readonly "build_index" (fun () ->
      Db.build_index rdb ~name:"ix_ro" ~set:"S" ~field:"field_s" ~clustered:false);
  (* reads keep working *)
  checkb "reads serve" true
    (Db.deref rdb ~set:"R" (r_oids rdb).(0) "sref.repfield" <> Value.VNull)

(* ------------------------------------------------------------------ *)
(* Wire faults                                                         *)

let mutate_some mdb ~seed ~ops =
  let rng = Splitmix.create (0x5EED + seed) in
  let ss = s_oids mdb in
  for i = 1 to ops do
    let s = ss.(Splitmix.int rng (Array.length ss)) in
    Db.update_field mdb ~set:"S" s ~field:"repfield"
      (Value.VString (Printf.sprintf "%020d" (i * 7 + seed)))
  done

let test_corrupt_frame_resend () =
  let mdb = build_master () in
  let m, r, fa, _ = connect_pair mdb in
  mutate_some mdb ~seed:1 ~ops:5;
  fa.Transport.corrupt <- 1;
  (* the next shipped Frames message is damaged in flight *)
  converge m r;
  check_converged ~what:"post-corruption replica" mdb (Replica.db r)

let test_drop_and_duplicate () =
  let mdb = build_master () in
  let m, r, fa, fb = connect_pair mdb in
  mutate_some mdb ~seed:2 ~ops:4;
  fa.Transport.drop <- 1;
  converge m r;
  check_converged ~what:"post-drop replica" mdb (Replica.db r);
  mutate_some mdb ~seed:3 ~ops:4;
  fa.Transport.duplicate <- 1;
  fb.Transport.duplicate <- 1;
  converge m r;
  check_converged ~what:"post-duplicate replica" mdb (Replica.db r)

let test_truncated_frame_resend () =
  let mdb = build_master () in
  let m, r, fa, _ = connect_pair mdb in
  mutate_some mdb ~seed:4 ~ops:4;
  fa.Transport.truncate <- 1;
  converge m r;
  check_converged ~what:"post-truncation replica" mdb (Replica.db r)

let test_disconnect_mid_commit_and_rejoin () =
  let mdb = build_master () in
  let m, r, fa, _ = connect_pair mdb in
  mutate_some mdb ~seed:5 ~ops:6;
  converge m r;
  let rdb_before = Replica.db r in
  mutate_some mdb ~seed:6 ~ops:6;
  (* The link dies mid-commit: the Frames message is delivered, the Commit
     barrier right behind it is lost with the link. *)
  fa.Transport.disconnect_after <- 1;
  Master.pump m;
  ignore (Replica.drain r);
  checkb "master marked the peer dead" true (Master.peer_count m = 0);
  (* the master keeps taking writes while the replica is gone *)
  mutate_some mdb ~seed:7 ~ops:6;
  (* Rejoin on a fresh transport: Hello carries the replica's position, so
     the master ships only the missing tail — no new snapshot. *)
  let ma2, rb2, _, _ = Transport.loopback () in
  Replica.reconnect r rb2;
  ignore (Master.attach ~pump:(fun () -> ignore (Replica.drain r)) m ma2);
  converge m r;
  checkb "same database instance (no re-bootstrap)" true (Replica.db r == rdb_before);
  checki "rejoined peer live" 1 (Master.peer_count m);
  check_converged ~what:"rejoined replica" mdb (Replica.db r)

let test_fuzzed_faults_converge () =
  let mdb = build_master ~s_count:24 ~seed:9 () in
  let m, r, fa, fb = connect_pair mdb in
  let rng = Splitmix.create (0xFA17 + seed_base) in
  let ss = s_oids mdb in
  for i = 1 to 120 do
    (match Splitmix.int rng 10 with
    | 0 ->
        (* a write that fails validation: exercises abort markers *)
        (try Db.delete mdb ~set:"S" ss.(Splitmix.int rng (Array.length ss))
         with Invalid_argument _ -> ())
    | 1 | 2 ->
        ignore
          (Db.insert mdb ~set:"R"
             [
               Value.VInt (100_000 + i);
               Value.VString (String.make 65 'n');
               Value.VRef ss.(Splitmix.int rng (Array.length ss));
             ])
    | 3 | 4 | 5 when Splitmix.int rng 2 = 0 ->
        let tx = Db.begin_txn mdb in
        Db.update_field ~txn:tx mdb ~set:"S"
          ss.(Splitmix.int rng (Array.length ss))
          ~field:"repfield"
          (Value.VString (Printf.sprintf "%020d" i));
        if Splitmix.int rng 3 = 0 then Db.abort mdb tx else Db.commit mdb tx
    | _ ->
        Db.update_field mdb ~set:"S"
          ss.(Splitmix.int rng (Array.length ss))
          ~field:"repfield"
          (Value.VString (Printf.sprintf "%020d" (i + 1_000))));
    (* sprinkle wire faults *)
    (match Splitmix.int rng 12 with
    | 0 -> fa.Transport.corrupt <- fa.Transport.corrupt + 1
    | 1 -> fa.Transport.drop <- fa.Transport.drop + 1
    | 2 -> fa.Transport.duplicate <- fa.Transport.duplicate + 1
    | 3 -> fa.Transport.truncate <- fa.Transport.truncate + 1
    | 4 -> fb.Transport.drop <- fb.Transport.drop + 1
    | _ -> ());
    if Splitmix.int rng 4 = 0 then begin
      Master.pump m;
      ignore (Replica.drain r)
    end
  done;
  (* heal the wire and settle *)
  fa.Transport.corrupt <- 0;
  fa.Transport.drop <- 0;
  fa.Transport.duplicate <- 0;
  fa.Transport.truncate <- 0;
  fb.Transport.drop <- 0;
  converge ~rounds:8 m r;
  check_converged ~what:"fuzzed replica" mdb (Replica.db r);
  Db.check_integrity (Replica.db r)

(* ------------------------------------------------------------------ *)
(* Liveness, degradation, failover                                     *)

let tight_liveness =
  { Repl.heartbeat_every = 5; suspect_after = 12; dead_after = 25 }

(* A master/replica pair on a shared manual clock, with a switchable pump:
   while [hung] the replica makes no progress (the pump only advances the
   clock, as a real scheduler would). *)
let connect_pair_manual ?mode ?(ack_deadline = 50) mdb =
  let clk = Clock.manual () in
  let clock = Clock.of_manual clk in
  let m =
    Master.create ?mode ~clock ~liveness:tight_liveness ~ack_deadline mdb
  in
  let ma, rb, fa, fb = Transport.loopback () in
  let r = Replica.connect ~clock ~liveness:tight_liveness rb in
  let hung = ref false in
  let pump () =
    if !hung then Clock.advance clk ~by:10 else ignore (Replica.drain r)
  in
  let peer = Master.attach ~pump m ma in
  ignore (Replica.drain r);
  (m, r, peer, clk, hung, fa, fb)

let test_heartbeat_liveness () =
  let mdb = build_master () in
  let m, r, peer, clk, _hung, _, _ = connect_pair_manual mdb in
  (* heartbeats keep both ends Live while traffic flows *)
  for _ = 1 to 10 do
    Clock.advance clk ~by:5;
    Master.tick m;
    ignore (Replica.drain r);
    Replica.tick r;
    Master.pump m
  done;
  checkb "peer live under heartbeats" true (Master.peer_state peer = Repl.Live);
  checkb "master live under heartbeats" true
    (Replica.master_state r = Repl.Live);
  (* both links go silent: each end walks the other Live -> Suspect ->
     Dead on the same deadlines (the replica stops draining, the master's
     pings stop reaching it) *)
  Master.pump m;
  let rdb = Replica.db r in
  let missed0 = (Db.stats mdb).Stats.heartbeats_missed in
  Clock.advance clk ~by:13;
  Master.tick m;
  Replica.tick r;
  checkb "silent peer suspected" true (Master.peer_state peer = Repl.Suspect);
  checkb "missed heartbeat counted" true
    ((Db.stats mdb).Stats.heartbeats_missed > missed0);
  checkb "silent master suspected" true
    (Replica.master_state r = Repl.Suspect);
  Clock.advance clk ~by:13;
  Master.tick m;
  Replica.tick r;
  checkb "silent peer declared dead" true (Master.peer_state peer = Repl.Dead);
  checkb "peer no longer alive" true (not (Master.peer_alive peer));
  checki "dead peer left the live set" 0 (Master.peer_count m);
  checkb "peer death counted" true ((Db.stats mdb).Stats.peer_deaths > 0);
  checkb "silent master declared dead" true
    (Replica.master_state r = Repl.Dead);
  checkb "replica counted the master's death" true
    ((Db.stats rdb).Stats.peer_deaths > 0)

(* The acceptance bound: an ack-mode commit under a hung replica finishes
   within the deadline (no unbounded block), demotes the peer, and the
   peer is re-promoted once it catches back up. *)
let test_ack_demotion_bounded () =
  let mdb = build_master () in
  let m, r, peer, _clk, hung, _, _ =
    connect_pair_manual ~mode:Master.Ack mdb
  in
  let ss = s_oids mdb in
  Db.update_field mdb ~set:"S" ss.(0) ~field:"repfield"
    (Value.VString (String.make 20 'a'));
  checkb "healthy ack commit reached the replica" true
    (Int64.equal (Replica.last_applied r)
       (Wal.last_lsn (Option.get (Db.wal mdb))));
  checki "no demotion while healthy" 0 (Db.stats mdb).Stats.ack_demotions;
  (* hang the replica: the pump now only advances the clock *)
  hung := true;
  Db.update_field mdb ~set:"S" ss.(1) ~field:"repfield"
    (Value.VString (String.make 20 'b'));
  (* the commit returned — that is the bound — and the peer was demoted *)
  checki "exactly one demotion" 1 (Db.stats mdb).Stats.ack_demotions;
  checkb "peer demoted to async" true (not (Master.peer_synchronous peer));
  checkb "peer still alive" true (Master.peer_alive peer);
  checkb "replica is behind" true
    (Int64.compare (Replica.last_applied r)
       (Wal.last_lsn (Option.get (Db.wal mdb)))
    < 0);
  (* further commits do not wait for the demoted peer *)
  Db.update_field mdb ~set:"S" ss.(2) ~field:"repfield"
    (Value.VString (String.make 20 'c'));
  checki "demoted peer does not re-demote" 1 (Db.stats mdb).Stats.ack_demotions;
  (* the replica wakes up, catches up, and is re-promoted *)
  hung := false;
  converge m r;
  checkb "caught-up peer re-promoted" true (Master.peer_synchronous peer);
  Db.update_field mdb ~set:"S" ss.(3) ~field:"repfield"
    (Value.VString (String.make 20 'd'));
  checkb "synchronous again: commit waits and lands" true
    (Int64.equal (Replica.last_applied r)
       (Wal.last_lsn (Option.get (Db.wal mdb))));
  check_converged ~what:"re-promoted replica" mdb (Replica.db r)

let test_staleness_gate () =
  let mdb = build_master () in
  let m, r, fa, _ = connect_pair mdb in
  Replica.set_max_lag r (Some 0);
  checki "caught up: gated read serves" (Db.set_size mdb "S")
    (Replica.read r (fun db -> Db.set_size db "S"));
  mutate_some mdb ~seed:21 ~ops:4;
  (* the flush loses its Frames but the Commit barrier arrives: the
     replica now knows exactly how far behind it is *)
  fa.Transport.drop <- 1;
  Master.pump m;
  ignore (Replica.drain r);
  checkb "lag is visible" true (Int64.compare (Replica.lag_bytes r) 0L > 0);
  (try
     ignore (Replica.read r (fun db -> Db.set_size db "S"));
     Alcotest.fail "stale read served"
   with Replica.Stale msg ->
     checkb "error names the lag" true (contains msg "behind the master"));
  (* the resend heals the gap; the gate opens again *)
  converge m r;
  checkb "lag drained" true (Int64.equal (Replica.lag_bytes r) 0L);
  checki "fresh again: gated read serves" (Db.set_size mdb "S")
    (Replica.read r (fun db -> Db.set_size db "S"));
  Replica.set_max_lag r None;
  check_converged mdb (Replica.db r)

(* The full failover story: master crashes, a replica promotes into the
   next epoch, the surviving replica re-wires, the zombie master is
   fenced, and the old master rejoins as a replica by truncating its
   divergent tail.  A transaction is in flight at the fork: its updates
   were shipped (the small flush limit syncs the log mid-transaction) but
   its outcome never was, so the new master rolls it back and every node
   ends without it. *)
let test_failover_fence_rejoin () =
  let mdb = build_master ~wal_flush_limit:512 () in
  let clk = Clock.manual () in
  let clock = Clock.of_manual clk in
  let m = Master.create ~clock ~liveness:tight_liveness mdb in
  let old_wal_path = Wal.path (Option.get (Db.wal mdb)) in
  (* a checkpoint image the old master will rejoin from *)
  let img = Filename.temp_file "fieldrep_failover" ".img" in
  Db.checkpoint mdb img;
  let attach () =
    let ma, rb, fa, fb = Transport.loopback () in
    let r = Replica.connect ~clock ~liveness:tight_liveness rb in
    ignore (Master.attach ~pump:(fun () -> ignore (Replica.drain r)) m ma);
    ignore (Replica.drain r);
    (r, ma, rb, fa, fb)
  in
  let r1, _, r1b, _, _ = attach () in
  let r2, _, r2b, _, _ = attach () in
  mutate_some mdb ~seed:31 ~ops:6;
  let victim = (s_oids mdb).(1) in
  let repfield db = Db.field_value db ~set:"S" (Db.get db ~set:"S" victim) "repfield" in
  let committed = repfield mdb in
  let tx = Db.begin_txn mdb in
  for i = 1 to 40 do
    Db.update_field ~txn:tx mdb ~set:"S" victim ~field:"repfield"
      (Value.VString (Printf.sprintf "%020d" i))
  done;
  converge m r1;
  converge m r2;
  checkb "in-flight updates shipped" true
    (not (Value.equal (repfield (Replica.db r1)) committed));
  let fork = Replica.last_applied r1 in
  checkb "replicas in step before the crash" true
    (Int64.equal fork (Replica.last_applied r2));
  (* --- the master "crashes" (we stop driving it) and r1 promotes ----- *)
  Clock.advance clk ~by:30;
  Replica.tick r1;
  checkb "master declared dead before promotion" true
    (Replica.master_state r1 = Repl.Dead);
  let new_wal = Filename.temp_file "fieldrep_failover" ".wal" in
  Sys.remove new_wal;
  let m2 = Replica.promote ~clock ~liveness:tight_liveness r1 ~wal_path:new_wal in
  checki "promotion bumped the epoch" 1 (Master.epoch m2);
  checki "epoch is durable in the db" 1 (Db.epoch (Replica.db r1));
  checkb "fork point recorded" true (Int64.equal (Master.fork m2) fork);
  checkb "failover counted" true ((Db.stats (Replica.db r1)).Stats.failovers > 0);
  let m2db = Replica.db r1 in
  (* --- r2 re-wires to the new master and adopts the epoch ------------ *)
  let ma2, rb2, _, _ = Transport.loopback () in
  Replica.reconnect r2 rb2;
  ignore (Master.attach ~pump:(fun () -> ignore (Replica.drain r2)) m2 ma2);
  let s2 = s_oids m2db in
  Db.update_field m2db ~set:"S" s2.(0) ~field:"repfield"
    (Value.VString (String.make 20 'E'));
  converge m2 r2;
  checki "r2 adopted the new epoch" 1 (Replica.epoch r2);
  check_converged ~what:"re-wired replica" m2db (Replica.db r2);
  (* --- the zombie master keeps writing and gets fenced ---------------- *)
  mutate_some mdb ~seed:32 ~ops:3;  (* divergent, unreplicated history *)
  Master.pump m;  (* ships stale-epoch traffic onto the old links *)
  let fenced = Replica.fence_link r2 r2b + Replica.fence_link r1 r1b in
  checkb "zombie traffic was fenced" true (fenced > 0);
  Master.pump m;  (* the zombie drains the Fenced replies *)
  checkb "zombie master deposed" true (Master.is_deposed m);
  (* a deposed master ships nothing more *)
  mutate_some mdb ~seed:33 ~ops:1;
  Master.pump m;
  checki "no fresh zombie traffic" 0 (Replica.fence_link r2 r2b);
  (* --- the old master rejoins as a replica below the new epoch -------- *)
  let ma3, rb3, _, _ = Transport.loopback () in
  let on_reset ~fork =
    Wal.truncate_file old_wal_path ~after:fork;
    Db.recover_replica ~wal_path:old_wal_path img
  in
  (* it reopens with its full (divergent) log, then obeys the Reset *)
  let old_last =
    (Wal.read_frames old_wal_path ~after:0L).Wal.last_lsn
  in
  checkb "old master's log runs past the fork" true
    (Int64.compare old_last fork > 0);
  let r3 =
    Replica.rejoin ~clock ~liveness:tight_liveness ~on_reset
      ~db:(Db.recover_replica ~wal_path:old_wal_path img)
      ~last_applied:old_last rb3
  in
  ignore (Master.attach ~pump:(fun () -> ignore (Replica.drain r3)) m2 ma3);
  converge m2 r3;
  checki "old master adopted the new epoch" 1 (Replica.epoch r3);
  checkb "old master truncated to the fork and caught up" true
    (Int64.compare (Replica.last_applied r3) fork > 0);
  check_converged ~what:"rejoined old master" m2db (Replica.db r3);
  check_converged ~what:"surviving replica" m2db (Replica.db r2);
  List.iter
    (fun (what, db) ->
      checkb (what ^ ": in-flight transaction rolled back") true
        (Value.equal (repfield db) committed))
    [ ("new master", m2db); ("surviving replica", Replica.db r2);
      ("rejoined old master", Replica.db r3) ];
  Sys.remove img

(* ------------------------------------------------------------------ *)
(* Fan-out                                                             *)

let test_two_replicas () =
  let mdb = build_master () in
  let m = Master.create mdb in
  let attach () =
    let ma, rb, _, _ = Transport.loopback () in
    let r = Replica.connect rb in
    ignore (Master.attach ~pump:(fun () -> ignore (Replica.drain r)) m ma);
    ignore (Replica.drain r);
    r
  in
  let r1 = attach () in
  mutate_some mdb ~seed:10 ~ops:5;
  Master.pump m;
  ignore (Replica.drain r1);
  (* the second replica bootstraps later, from a newer snapshot *)
  let r2 = attach () in
  mutate_some mdb ~seed:11 ~ops:5;
  converge m r1;
  converge m r2;
  checki "both peers live" 2 (Master.peer_count m);
  check_converged ~what:"replica 1" mdb (Replica.db r1);
  check_converged ~what:"replica 2" mdb (Replica.db r2)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "repl"
    [
      ( "codec",
        [
          Alcotest.test_case "proto roundtrip" `Quick test_proto_roundtrip;
          Alcotest.test_case "proto rejects corruption" `Quick
            test_proto_rejects_corruption;
          Alcotest.test_case "wal frame codec" `Quick test_wal_frame_codec;
          Alcotest.test_case "read_frames" `Quick test_read_frames;
          Alcotest.test_case "proto decode allocates no copy" `Quick
            test_proto_decode_words;
        ] );
      ( "transport",
        [
          Alcotest.test_case "loopback faults" `Quick test_loopback_faults;
          Alcotest.test_case "socketpair" `Quick test_socket_transport;
          Alcotest.test_case "byte-at-a-time reassembly" `Quick
            test_socket_byte_at_a_time;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "bootstrap snapshot" `Quick test_bootstrap_snapshot;
          Alcotest.test_case "async streaming" `Quick test_async_streaming;
          Alcotest.test_case "abort marker in stream" `Quick
            test_abort_marker_stream;
          Alcotest.test_case "retrieve between DDLs" `Quick
            test_retrieve_between_ddls;
          Alcotest.test_case "ack mode blocks" `Quick test_ack_mode_blocks;
          Alcotest.test_case "a txn pays only its own I/O" `Quick
            test_ack_txn_io_is_its_own;
          Alcotest.test_case "ack replica reuses space" `Quick
            test_ack_replica_space_reuse;
          Alcotest.test_case "replica is read-only" `Quick test_replica_read_only;
          Alcotest.test_case "two replicas" `Quick test_two_replicas;
          Alcotest.test_case "apply words beyond the redo" `Quick
            test_replica_apply_words;
          Alcotest.test_case "shipped bytes are the log" `Quick
            (shipped_bytes_are_the_log ~lose_resend:false);
          Alcotest.test_case "a lost resend is asked again" `Quick
            (shipped_bytes_are_the_log ~lose_resend:true);
        ] );
      ( "faults",
        [
          Alcotest.test_case "corrupt frame resend" `Quick
            test_corrupt_frame_resend;
          Alcotest.test_case "drop and duplicate" `Quick test_drop_and_duplicate;
          Alcotest.test_case "truncated frame resend" `Quick
            test_truncated_frame_resend;
          Alcotest.test_case "disconnect mid-commit, rejoin" `Quick
            test_disconnect_mid_commit_and_rejoin;
          Alcotest.test_case "fuzzed faults converge" `Quick
            test_fuzzed_faults_converge;
        ] );
      ( "failover",
        [
          Alcotest.test_case "heartbeat liveness" `Quick test_heartbeat_liveness;
          Alcotest.test_case "ack demotion is bounded" `Quick
            test_ack_demotion_bounded;
          Alcotest.test_case "staleness gate" `Quick test_staleness_gate;
          Alcotest.test_case "failover, fencing, rejoin" `Quick
            test_failover_fence_rejoin;
        ] );
    ]
