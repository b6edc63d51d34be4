(* Write-ahead logging, crash injection, and recovery.

   The crash matrix is the centrepiece: a 200-operation mixed workload is
   crashed at EVERY physical write offset (alternating clean and torn
   crashing writes), recovered from the checkpoint image plus the log tail,
   resumed, and compared against an uncrashed reference — for all three
   replication strategies. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Disk = Fieldrep_storage.Disk
module Pager = Fieldrep_storage.Pager
module Wal = Fieldrep_wal.Wal
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Key = Fieldrep_btree.Key
module Engine = Fieldrep_replication.Engine
module Params = Fieldrep_costmodel.Params
module Gen = Fieldrep_workload.Gen
module Splitmix = Fieldrep_util.Splitmix
module Ast = Fieldrep_query.Ast
module Exec = Fieldrep_query.Exec

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable

let tmp name ext =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) ("fieldrep_wal_" ^ name ^ ext)
  in
  if Sys.file_exists path then Sys.remove path;
  path

(* CI re-runs the crash matrix under several fixed seeds by exporting
   FIELDREP_TEST_SEED; the offset perturbs both the generated database and
   the baked workload, so each seed crashes at a different write history. *)
let seed_base =
  match Sys.getenv_opt "FIELDREP_TEST_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Fault injection in the simulated disk                               *)

let test_failpoint_fires_and_disarms () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let f = Disk.create_file disk in
  let p = Disk.allocate_page disk f in
  let buf = Bytes.make 64 'x' in
  Disk.set_failpoint disk ~after_writes:2;
  Disk.write_page disk ~file:f ~page:p buf;
  Disk.write_page disk ~file:f ~page:p buf;
  checki "no writes left" 0 (Option.get (Disk.writes_until_crash disk));
  (try
     Disk.write_page disk ~file:f ~page:p buf;
     Alcotest.fail "expected Crash"
   with Disk.Crash _ -> ());
  checkb "disarmed after firing" true (Disk.writes_until_crash disk = None);
  (* The machine "rebooted": writes work again. *)
  Disk.write_page disk ~file:f ~page:p buf;
  checki "post-crash write counted" 3 stats.Stats.page_writes

let test_failpoint_torn_write () =
  let stats = Stats.create () in
  let disk = Disk.create ~page_size:64 stats in
  let f = Disk.create_file disk in
  let p = Disk.allocate_page disk f in
  Disk.write_page disk ~file:f ~page:p (Bytes.make 64 'o');
  Disk.set_failpoint ~torn:true disk ~after_writes:0;
  (try
     Disk.write_page disk ~file:f ~page:p (Bytes.make 64 'n');
     Alcotest.fail "expected Crash"
   with Disk.Crash _ -> ());
  let page = Disk.raw_page disk ~file:f ~page:p in
  Alcotest.(check char) "first half landed" 'n' (Bytes.get page 0);
  Alcotest.(check char) "second half did not" 'o' (Bytes.get page 63)

(* ------------------------------------------------------------------ *)
(* The log itself                                                      *)

let sample_records =
  [
    Wal.Define_type
      (Ty.make ~name:"T"
         [
           { Ty.fname = "a"; ftype = Ty.Scalar Ty.SInt };
           { Ty.fname = "b"; ftype = Ty.Scalar Ty.SString };
           { Ty.fname = "r"; ftype = Ty.Ref "T" };
         ]);
    Wal.Create_set { name = "Ts"; elem_type = "T"; reserve = 128 };
    Wal.Insert
      { set = "Ts"; values = [ Value.VInt 7; Value.VString "hello"; Value.VNull ] };
    Wal.Update
      {
        set = "Ts";
        oid = { Oid.file = 3; page = 9; slot = 2 };
        field = "r";
        value = Value.VRef { Oid.file = 1; page = 2; slot = 3 };
      };
    Wal.Delete { set = "Ts"; oid = { Oid.file = 1; page = 0; slot = 0 } };
    Wal.Replicate
      {
        path = "Ts.r.b";
        strategy = Schema.Separate;
        options =
          {
            Schema.collapse = true;
            small_link_threshold = 3;
            lazy_propagation = true;
            cluster_links = false;
          };
      };
    Wal.Build_index { name = "i"; set = "Ts"; field = "a"; clustered = true };
    Wal.Txn_op
      {
        txn = 4;
        op =
          Wal.Update
            {
              set = "Ts";
              oid = { Oid.file = 1; page = 0; slot = 1 };
              field = "a";
              value = Value.VInt 8;
            };
        before = Some [ Value.VInt 7; Value.VString "hello"; Value.VNull ];
      };
    Wal.Txn_op
      {
        txn = 4;
        op =
          Wal.Insert
            { set = "Ts"; values = [ Value.VInt 9; Value.VString ""; Value.VNull ] };
        before = None;
      };
  ]

let test_wal_roundtrip () =
  let path = tmp "roundtrip" ".wal" in
  let w = Wal.open_ path in
  let lsns = List.map (Wal.append w) sample_records in
  checkb "lsns ascend from 1" true
    (lsns = List.init (List.length lsns) (fun i -> Int64.of_int (i + 1)));
  Wal.close w;
  let w2 = Wal.open_ path in
  let back = Wal.records w2 in
  checki "all records recovered" (List.length sample_records) (List.length back);
  List.iter2
    (fun r (_, r') -> checkb "record survives the codec" true (r = r'))
    sample_records back;
  checkb "lsn counter continues" true
    (Wal.last_lsn w2 = Int64.of_int (List.length sample_records));
  Wal.close w2;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* The in-place frame codec                                            *)

module Wire = Fieldrep_util.Wire

let random_name rng =
  String.init (1 + Splitmix.int rng 10) (fun _ -> Char.chr (97 + Splitmix.int rng 26))

let random_oid rng =
  let file = Splitmix.int rng 60 in
  let page = Splitmix.int rng 5000 in
  { Oid.file; page; slot = Splitmix.int rng 200 }

let random_value rng =
  match Splitmix.int rng 4 with
  | 0 -> Value.VInt (Splitmix.int rng 2_000_001 - 1_000_000)
  | 1 ->
      Value.VString (String.init (Splitmix.int rng 40) (fun i -> Char.chr (i land 255)))
  | 2 -> Value.VRef (random_oid rng)
  | _ -> Value.VNull

let random_values rng = List.init (Splitmix.int rng 6) (fun _ -> random_value rng)

let random_replicate rng =
  let path = random_name rng in
  let strategy = if Splitmix.bool rng then Schema.Inplace else Schema.Separate in
  let collapse = Splitmix.bool rng in
  let small_link_threshold = Splitmix.int rng 100 in
  let lazy_propagation = Splitmix.bool rng in
  let cluster_links = Splitmix.bool rng in
  ( path,
    strategy,
    { Schema.collapse; small_link_threshold; lazy_propagation; cluster_links } )

(* The operations a [Txn_op] may carry. *)
let random_dml rng =
  let set = random_name rng in
  match Splitmix.int rng 4 with
  | 0 -> Wal.Insert { set; values = random_values rng }
  | 1 ->
      let oid = random_oid rng in
      let field = random_name rng in
      Wal.Update { set; oid; field; value = random_value rng }
  | 2 -> Wal.Delete { set; oid = random_oid rng }
  | _ ->
      let oid = random_oid rng in
      Wal.Insert_at { set; oid; values = random_values rng }

(* One record of every kind, picked at random. *)
let random_record rng =
  match Splitmix.int rng 18 with
  | 0 ->
      let fields =
        List.init (Splitmix.int rng 4) (fun i ->
            let ftype =
              match Splitmix.int rng 3 with
              | 0 -> Ty.Scalar Ty.SInt
              | 1 -> Ty.Scalar Ty.SString
              | _ -> Ty.Ref (random_name rng)
            in
            { Ty.fname = Printf.sprintf "f%d" i; ftype })
      in
      Wal.Define_type (Ty.make ~name:(random_name rng) fields)
  | 1 ->
      let name = random_name rng in
      let elem_type = random_name rng in
      Wal.Create_set { name; elem_type; reserve = Splitmix.int rng 1000 }
  | 2 | 3 | 4 | 5 -> random_dml rng
  | 6 ->
      let path, strategy, options = random_replicate rng in
      Wal.Replicate { path; strategy; options }
  | 7 ->
      let name = random_name rng in
      let set = random_name rng in
      let field = random_name rng in
      Wal.Build_index { name; set; field; clustered = Splitmix.bool rng }
  | 8 -> Wal.Abort (Int64.of_int (Splitmix.int rng 1_000_000))
  | 9 -> Wal.Txn_commit (Splitmix.int rng 100_000)
  | 10 -> Wal.Txn_abort (Splitmix.int rng 100_000)
  | 11 ->
      let txn = Splitmix.int rng 100_000 in
      let op = random_dml rng in
      let before = if Splitmix.bool rng then Some (random_values rng) else None in
      Wal.Txn_op { txn; op; before }
  | 12 ->
      let rep_id = Splitmix.int rng 1000 in
      Wal.Scrub_repair { rep_id; source = random_oid rng }
  | 13 ->
      let path, strategy, options = random_replicate rng in
      Wal.Replicate_online { path; strategy; options }
  | 14 -> Wal.Unreplicate { path = random_name rng }
  | 15 ->
      let job = Splitmix.int rng 100 in
      Wal.Maint_step { job; upto = Splitmix.int rng 100_000 }
  | 16 -> Wal.Maint_done { job = Splitmix.int rng 100 }
  | _ -> Wal.Epoch_change { epoch = Splitmix.int rng 1000 }

(* Append [records] to a fresh log with a tap that keeps a copy of every
   batch; the kept bytes, concatenated, and the log file's contents. *)
let shipped_and_file name records =
  let path = tmp name ".wal" in
  let w = Wal.open_ path in
  let kept = Buffer.create 1024 in
  Wal.set_tap w
    (Some (fun (b : Wal.batch) -> Buffer.add_subbytes kept b.data b.off b.len));
  List.iter (fun r -> ignore (Wal.append w r)) records;
  Wal.close w;
  let file = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (Buffer.to_bytes kept, file)

(* Walk [data] from [off] to [limit], decoding each frame in place: the
   entries decoded, and whether the walk stopped on a damaged frame. *)
let walk_in_place data off limit =
  let rec go pos acc =
    if pos >= limit then (List.rev acc, false)
    else
      match Wal.decode_frame_at data pos ~limit with
      | entry -> go (Wal.frame_end data pos) (entry :: acc)
      | exception Wire.Corrupt _ -> (List.rev acc, true)
  in
  go off []

(* The same range cut into frame copies, each decoded by [decode_frame]. *)
let decode_copies data =
  let rec go pos acc =
    if pos >= Bytes.length data then List.rev acc
    else
      let next = Wal.frame_end data pos in
      go next (Wal.decode_frame (Bytes.sub data pos (next - pos)) :: acc)
  in
  go 0 []

let test_frame_walk_property () =
  let rng = Splitmix.create (17 + seed_base) in
  for round = 1 to 300 do
    let records = List.init (1 + Splitmix.int rng 12) (fun _ -> random_record rng) in
    let shipped, file = shipped_and_file "walk" records in
    let expected = List.mapi (fun i r -> (Int64.of_int (i + 1), r)) records in
    let walked, damaged = walk_in_place shipped 0 (Bytes.length shipped) in
    if damaged || walked <> expected then
      Alcotest.failf "round %d: the in-place walk disagrees with the records" round;
    if decode_copies shipped <> walked then
      Alcotest.failf "round %d: decode_frame on copies disagrees" round;
    checks "the tap's bytes are the file's after its header"
      (String.sub file 8 (String.length file - 8))
      (Bytes.to_string shipped)
  done

(* Three frames, cut at every point and damaged at every byte: the walk
   stops at or before the damaged frame and never reads past the range. *)
let test_frame_walk_damage () =
  let records =
    [
      Wal.Txn_op
        {
          txn = 3;
          op = Wal.Insert { set = "R"; values = [ Value.VInt 1; Value.VString "pad" ] };
          before = None;
        };
      Wal.Txn_op
        {
          txn = 3;
          op =
            Wal.Update
              { set = "S"; oid = { Oid.file = 2; page = 0; slot = 4 }; field = "repfield";
                value = Value.VString "new" };
          before = Some [ Value.VInt 9; Value.VString "old" ];
        };
      Wal.Txn_commit 3;
    ]
  in
  let range, _ = shipped_and_file "damage" records in
  let len = Bytes.length range in
  let frame_ends =
    let rec go pos acc =
      if pos >= len then List.rev acc
      else
        let next = Wal.frame_end range pos in
        go next (next :: acc)
    in
    go 0 []
  in
  let whole = List.mapi (fun i r -> (Int64.of_int (i + 1), r)) records in
  let frames_before limit = List.length (List.filter (fun e -> e <= limit) frame_ends) in
  let take n = List.filteri (fun i _ -> i < n) whole in
  (* Every truncation point, with the rest of the bytes still lying past
     the limit: frames wholly inside are decoded, the cut one stops the
     walk, nothing past the limit is read. *)
  for cut = 0 to len - 1 do
    let walked, damaged = walk_in_place range 0 cut in
    let n = frames_before cut in
    if walked <> take n then Alcotest.failf "cut at %d: wrong frames decoded" cut;
    if damaged <> not (List.mem cut (0 :: frame_ends)) then
      Alcotest.failf "cut at %d: the walk did not stop on the cut frame" cut
  done;
  (* A flipped byte anywhere: the walk stops on the frame holding it. *)
  for i = 0 to len - 1 do
    let b = Bytes.copy range in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    let walked, damaged = walk_in_place b 0 len in
    let n = frames_before i in
    if not damaged then Alcotest.failf "byte %d flipped: walk did not stop" i;
    if List.length walked > n || walked <> take (List.length walked) then
      Alcotest.failf "byte %d flipped: decoded past the damaged frame" i
  done

(* Minor words allocated by [f ()], less the cost of measuring. *)
let minor_words f =
  let span g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  span f -. span ignore

(* An append encodes into the log's reused buffer: its words do not grow
   with the frame, with or without a tap keeping the batch.  A frame of
   its own would cost a word per 8 bytes (about 60 for the big one, which
   stays small enough for the minor heap, where the count sees it). *)
let test_append_words () =
  let path = tmp "append_words" ".wal" in
  let w = Wal.open_ ~flush_limit:(1 lsl 30) path in
  let insert pad =
    Wal.Txn_op
      {
        txn = 7;
        op =
          Wal.Insert
            {
              set = "R";
              values =
                [
                  Value.VInt 42;
                  Value.VString pad;
                  Value.VRef { Oid.file = 2; page = 1; slot = 3 };
                ];
            };
        before = None;
      }
  in
  let small = insert "p" and big = insert (String.make 400 'p') in
  let measure tap =
    Wal.set_tap w tap;
    (* warm the buffer up past two frames, then start an empty batch *)
    for _ = 1 to 4 do
      ignore (Wal.append w big)
    done;
    Wal.sync w;
    let ws = minor_words (fun () -> ignore (Wal.append w small)) in
    let wb = minor_words (fun () -> ignore (Wal.append w big)) in
    Alcotest.(check (float 0.)) "words do not grow with the frame" ws wb;
    checkb (Printf.sprintf "append allocates %.0f words (bound 12)" wb) true (wb <= 12.)
  in
  measure None;
  measure (Some (fun (_ : Wal.batch) -> ()));
  Wal.close w;
  Sys.remove path

let test_wal_abort_rescinds () =
  let path = tmp "abort" ".wal" in
  let w = Wal.open_ path in
  ignore (Wal.append w (Wal.Delete { set = "S"; oid = Oid.nil }));
  let l2 = Wal.append w (Wal.Insert { set = "S"; values = [ Value.VInt 1 ] }) in
  Wal.append_abort w ~aborted:l2;
  Wal.close w;
  let w2 = Wal.open_ path in
  checki "aborted record and marker filtered" 1 (List.length (Wal.records w2));
  checkb "lsn counter past the marker" true (Wal.last_lsn w2 = 3L);
  Wal.close w2;
  Sys.remove path

let test_wal_torn_tail () =
  let path = tmp "torn" ".wal" in
  let w = Wal.open_ path in
  ignore (Wal.append w (Wal.Delete { set = "A"; oid = Oid.nil }));
  ignore (Wal.append w (Wal.Delete { set = "B"; oid = Oid.nil }));
  Wal.close w;
  (* A crash tore the next append: a frame header promising more bytes than
     were ever written. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x40\x00\x00\x00GARB";
  close_out oc;
  let w2 = Wal.open_ path in
  checki "torn tail dropped" 2 (List.length (Wal.records w2));
  ignore (Wal.append w2 (Wal.Delete { set = "C"; oid = Oid.nil }));
  Wal.close w2;
  let w3 = Wal.open_ path in
  checki "new append overwrote the garbage" 3 (List.length (Wal.records w3));
  Wal.close w3;
  Sys.remove path

let read_all path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* The frame checksum of the previous log format, kept here only to write
   a genuine old log. *)
let fnv1a32 s off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code s.[i]) * 0x01000193 land 0xffffffff
  done;
  !h

(* A FREPWAL2 log (FNV-1a frame sums) is refused by name by every entry
   point, and left as it was: scanned under the current checksum, each of
   its frames would fail and the whole log would be cut as a torn tail. *)
let test_wal_refuses_old_format () =
  let path = tmp "old_format" ".wal" in
  let w = Wal.open_ path in
  ignore (Wal.append w (Wal.Insert { set = "T"; values = [ Value.VInt 1 ] }));
  ignore (Wal.append w (Wal.Insert { set = "T"; values = [ Value.VInt 2 ] }));
  Wal.close w;
  let cur = Bytes.of_string (read_all path) in
  checks "current magic" "FREPWAL3" (Bytes.sub_string cur 0 8);
  (* Rewrite it as the old format wrote it: old magic, FNV-1a frame sums. *)
  Bytes.blit_string "FREPWAL2" 0 cur 0 8;
  let rec reseal pos =
    if pos < Bytes.length cur then begin
      let flen = Int32.to_int (Bytes.get_int32_le cur pos) in
      let sum = fnv1a32 (Bytes.unsafe_to_string cur) (pos + 8) flen in
      Bytes.set_int32_le cur (pos + 4) (Int32.of_int sum);
      reseal (pos + 8 + flen)
    end
  in
  reseal 8;
  let old = Bytes.to_string cur in
  let oc = open_out_bin path in
  output_string oc old;
  close_out oc;
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s accepted a FREPWAL2 log" what
    | exception Invalid_argument msg ->
        checks (what ^ " names itself and the format")
          (Printf.sprintf
             "Wal.%s: FREPWAL2 log is an older format (FREPWAL3 expected); \
              recover it with the release that wrote it"
             what)
          msg
  in
  refused "open_" (fun () -> ignore (Wal.open_ path));
  refused "read_frames" (fun () -> ignore (Wal.read_frames path ~after:0L));
  refused "truncate_file" (fun () -> Wal.truncate_file path ~after:0L);
  checks "log untouched" old (read_all path);
  Sys.remove path

let test_wal_corrupt_frame_mid_log () =
  let path = tmp "corrupt_mid" ".wal" in
  let ins k = Wal.Insert { set = "T"; values = [ Value.VInt k ] } in
  let w = Wal.open_ path in
  ignore (Wal.append w (ins 1));
  ignore (Wal.append w (ins 2));
  Wal.close w;
  let good =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  let w = Wal.open_ path in
  ignore (Wal.append w (ins 3));
  ignore (Wal.append w (ins 4));
  Wal.close w;
  (* Flip one payload byte of frame 3 (its payload starts 8 framing bytes
     past the end of the good prefix): bit rot in the middle of the log,
     not a torn tail. *)
  let pos = good + 12 in
  let orig =
    let ic = open_in_bin path in
    seek_in ic pos;
    let c = input_char ic in
    close_in ic;
    c
  in
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc pos;
  output_char oc (Char.chr (Char.code orig lxor 0xff));
  close_out oc;
  (* The scan must stop at the CRC mismatch: frame 3 AND everything after
     it is discarded — a prefix of the log is all that can be trusted. *)
  let w2 = Wal.open_ path in
  checki "scan stops at the corrupt frame" 2 (List.length (Wal.records w2));
  checkb "lsn counter rewound to the good prefix" true (Wal.last_lsn w2 = 2L);
  ignore (Wal.append w2 (ins 5));
  Wal.close w2;
  let w3 = Wal.open_ path in
  (match List.map snd (Wal.records w3) with
  | [
   Wal.Insert { values = [ Value.VInt 1 ]; _ };
   Wal.Insert { values = [ Value.VInt 2 ]; _ };
   Wal.Insert { values = [ Value.VInt 5 ]; _ };
  ] ->
      ()
  | recs ->
      Alcotest.failf "unexpected records after corruption: %d" (List.length recs));
  Wal.close w3;
  Sys.remove path

let test_wal_duplicate_abort_markers () =
  let path = tmp "dup_abort" ".wal" in
  let w = Wal.open_ path in
  let l1 = Wal.append w (Wal.Insert { set = "T"; values = [ Value.VInt 1 ] }) in
  ignore (Wal.append w (Wal.Insert { set = "T"; values = [ Value.VInt 2 ] }));
  (* An abort retried across a crash can log its marker twice; the second
     marker must be harmless. *)
  Wal.append_abort w ~aborted:l1;
  Wal.append_abort w ~aborted:l1;
  Wal.close w;
  let w2 = Wal.open_ path in
  (match List.map snd (Wal.records w2) with
  | [ Wal.Insert { values = [ Value.VInt 2 ]; _ } ] -> ()
  | recs -> Alcotest.failf "expected one survivor, got %d" (List.length recs));
  checkb "both markers consumed lsns" true (Wal.last_lsn w2 = 4L);
  Wal.close w2;
  Sys.remove path

let test_wal_abort_marker_missing_target () =
  let path = tmp "abort_missing" ".wal" in
  let w = Wal.open_ path in
  (* A marker whose target fell off the log (e.g. the aborted record was
     itself in a torn tail): nothing to rescind, nothing to break. *)
  Wal.append_abort w ~aborted:9999L;
  ignore (Wal.append w (Wal.Insert { set = "T"; values = [ Value.VInt 7 ] }));
  Wal.close w;
  let w2 = Wal.open_ path in
  (match List.map snd (Wal.records w2) with
  | [ Wal.Insert { values = [ Value.VInt 7 ]; _ } ] -> ()
  | recs -> Alcotest.failf "expected one record, got %d" (List.length recs));
  Wal.close w2;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)

let count_on_disk path =
  let w = Wal.open_ path in
  let n = List.length (Wal.records w) in
  Wal.close w;
  n

let test_wal_sync_is_the_durability_point () =
  let path = tmp "group" ".wal" in
  let w = Wal.open_ path in
  ignore (Wal.append w (Wal.Delete { set = "A"; oid = Oid.nil }));
  ignore (Wal.append w (Wal.Delete { set = "B"; oid = Oid.nil }));
  Wal.sync w;
  ignore (Wal.append w (Wal.Delete { set = "C"; oid = Oid.nil }));
  ignore (Wal.append w (Wal.Delete { set = "D"; oid = Oid.nil }));
  checkb "appends buffered" true (Wal.pending_bytes w > 0);
  (* Only the synced prefix is on disk — a crash here loses exactly the
     unsynced tail, never an interior record. *)
  checki "synced prefix visible" 2 (count_on_disk path);
  Wal.sync w;
  checki "buffer drained" 0 (Wal.pending_bytes w);
  checki "everything visible after sync" 4 (count_on_disk path);
  checki "two physical flushes" 2 (Wal.flushes w);
  Wal.sync w;
  checki "empty sync is free" 2 (Wal.flushes w);
  Wal.close w;
  Sys.remove path

let test_wal_close_syncs () =
  let path = tmp "close_syncs" ".wal" in
  let w = Wal.open_ path in
  ignore (Wal.append w (Wal.Delete { set = "A"; oid = Oid.nil }));
  Wal.close w;
  checki "close flushed the tail" 1 (count_on_disk path);
  Sys.remove path

let test_wal_flush_limit_bounds_buffer () =
  let path = tmp "flush_limit" ".wal" in
  let w = Wal.open_ ~flush_limit:1 path in
  ignore (Wal.append w (Wal.Delete { set = "A"; oid = Oid.nil }));
  ignore (Wal.append w (Wal.Delete { set = "B"; oid = Oid.nil }));
  checki "threshold forced a flush per append" 2 (Wal.flushes w);
  checki "records on disk without explicit sync" 2 (count_on_disk path);
  Wal.close w;
  Sys.remove path

let test_txn_commit_is_one_flush () =
  let db = Db.create ~durable:true () in
  let w = Option.get (Db.wal db) in
  Db.define_type db
    (Ty.make ~name:"GT" [ { Ty.fname = "a"; ftype = Ty.Scalar Ty.SInt } ]);
  Db.create_set db ~name:"G" ~elem_type:"GT" ();
  let oids =
    List.init 8 (fun i -> Db.insert db ~set:"G" [ Value.VInt i ])
  in
  let appends0 = Wal.appended w and flushes0 = Wal.flushes w in
  let tx = Db.begin_txn db in
  List.iteri
    (fun i oid -> Db.update_field ~txn:tx db ~set:"G" oid ~field:"a" (Value.VInt (100 + i)))
    oids;
  Db.commit db tx;
  (* 8 ops (each carrying its before-image) + commit appended; one flush
     covers them all. *)
  checki "one record per op plus the commit" 9 (Wal.appended w - appends0);
  checki "single group-commit flush" 1 (Wal.flushes w - flushes0);
  (* Autocommit stays synchronous: each mutation is its own commit point. *)
  let a1 = Wal.appended w and f1 = Wal.flushes w in
  ignore (Db.insert db ~set:"G" [ Value.VInt 99 ]);
  checki "autocommit append" 1 (Wal.appended w - a1);
  checki "autocommit flush" 1 (Wal.flushes w - f1)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* A canonical observation of everything user-visible: object contents in
   physical order, full dumps of both indexes, and the replicated-field
   read of every R object.  Two databases in the same state produce the
   same string. *)
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

let test_recover_basic () =
  let img = tmp "basic" ".img" in
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 30;
        sharing = 2;
        strategy = Params.Inplace;
        page_size = 1024;
        frames = 32;
        seed = 5;
        durable = true;
      }
  in
  let db = built.Gen.db in
  Db.checkpoint db img;
  (* Post-checkpoint work lives only in the log. *)
  let s_oids = ref [] in
  Db.scan db ~set:"S" (fun oid _ -> s_oids := oid :: !s_oids);
  let s_oids = Array.of_list (List.rev !s_oids) in
  Db.update_field db ~set:"S" s_oids.(3) ~field:"repfield"
    (Value.VString (String.make 20 'z'));
  ignore
    (Db.insert db ~set:"R"
       [ Value.VInt 9999; Value.VString (String.make 65 'q'); Value.VRef s_oids.(0) ]);
  let expected = observe db in
  (* The machine dies: the in-memory disk is lost, only the checkpoint
     image and the log file survive.  [recover] finds the log through the
     path recorded in the image. *)
  Wal.close (Option.get (Db.wal db));
  let db2 = Db.recover img in
  checks "recovered state identical" expected (observe db2);
  checki "replay counted" 1 (Db.stats db2).Stats.recovery_replays;
  Db.check_integrity db2;
  (* The recovered database is durable: new mutations keep logging. *)
  let appends = Wal.appended (Option.get (Db.wal db2)) in
  Db.update_field db2 ~set:"S" s_oids.(1) ~field:"repfield"
    (Value.VString (String.make 20 'y'));
  checkb "still logging" true (Wal.appended (Option.get (Db.wal db2)) > appends);
  Sys.remove img

(* A query's output file is not logged, so it must not take an id from the
   count that log replay repeats: a retrieve between a checkpoint and a
   later [create_set] used to give the new set a different file id in the
   original run than in replay, and the replayed update of its object then
   failed ("OID from another file"). *)
let test_retrieve_keeps_ddl_file_ids () =
  let img = tmp "retrieve_ids" ".img" in
  let db = Db.create ~durable:true () in
  Db.define_type db
    (Ty.make ~name:"AT"
       [
         { Ty.fname = "k"; ftype = Ty.Scalar Ty.SInt };
         { Ty.fname = "s"; ftype = Ty.Scalar Ty.SString };
       ]);
  Db.create_set db ~name:"A" ~elem_type:"AT" ();
  for i = 1 to 20 do
    ignore (Db.insert db ~set:"A" [ Value.VInt i; Value.VString "a" ])
  done;
  Db.checkpoint db img;
  let q = { Ast.from_set = "A"; projections = [ "k" ]; where = None } in
  let result = Exec.retrieve db q in
  checki "rows" 20 result.Exec.rows;
  Exec.drop_output db result.Exec.output_file;
  Db.create_set db ~name:"B" ~elem_type:"AT" ();
  let b = Db.insert db ~set:"B" [ Value.VInt 1; Value.VString "b" ] in
  Db.update_field db ~set:"B" b ~field:"s" (Value.VString "b2");
  (* A second retrieve whose output is still live at the next checkpoint:
     the image leaves the output file out. *)
  let live = Exec.retrieve db q in
  let observe db =
    String.concat ";"
      (List.concat_map
         (fun set ->
           let rows = ref [] in
           Db.scan db ~set (fun oid record ->
               rows :=
                 (Oid.to_string oid ^ "="
                 ^ String.concat "," (List.map Value.to_string (Db.user_values db ~set record)))
                 :: !rows);
           List.rev !rows)
         [ "A"; "B" ])
  in
  let expected = observe db in
  Wal.close (Option.get (Db.wal db));
  let db2 = Db.recover img in
  checks "recovered state identical" expected (observe db2);
  Db.check_integrity db2;
  let img2 = tmp "retrieve_ids2" ".img" in
  Db.checkpoint db img2;
  Exec.drop_output db live.Exec.output_file;
  let db3 = Db.recover img2 in
  checks "image without the live output" expected (observe db3);
  checkb "output not restored" false
    (Disk.file_exists (Pager.disk (Db.pager db3)) live.Exec.output_file);
  Sys.remove img;
  Sys.remove img2

let test_recover_requeues_lazy () =
  let img = tmp "lazy" ".img" in
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 20;
        sharing = 3;
        strategy = Params.No_replication;
        page_size = 1024;
        frames = 32;
        seed = 11;
        durable = true;
      }
  in
  let db = built.Gen.db in
  let options = { Schema.default_options with Schema.lazy_propagation = true } in
  Db.replicate db ~options ~strategy:Schema.Inplace (Path.parse "R.sref.repfield");
  Db.checkpoint db img;
  (* A lazy update after the checkpoint: the hidden copies are NOT written,
     only an in-memory invalidation is queued — and then the machine dies.
     Replay must re-run the update and re-queue the invalidation. *)
  let s = ref Oid.nil in
  Db.scan db ~set:"S" (fun oid _ -> if Oid.is_nil !s then s := oid);
  let s = !s in
  Db.update_field db ~set:"S" s ~field:"repfield" (Value.VString (String.make 20 'w'));
  checkb "invalidation pending before crash" true
    (Engine.pending_count (Db.engine db) > 0);
  Wal.close (Option.get (Db.wal db));
  let db2 = Db.recover img in
  checkb "invalidation re-queued by replay" true
    (Engine.pending_count (Db.engine db2) > 0);
  let rs, _ = Db.referencers db2 ~source_set:"R" ~attr:"sref" s in
  checki "sharing preserved" 3 (List.length rs);
  List.iter
    (fun r ->
      checkv "read repairs the replayed lazy update"
        (Value.VString (String.make 20 'w'))
        (Db.deref db2 ~set:"R" r "sref.repfield"))
    rs;
  Db.check_integrity db2;
  Sys.remove img

(* ------------------------------------------------------------------ *)
(* The crash matrix                                                    *)

(* 200 concrete operations over a built R/S database: updates to the
   replicated field, key and pad updates on R, inserts of new R objects,
   and deletes from a reserved tail of R.  Everything is baked upfront —
   OIDs and values are fixed — so the same list can drive the reference
   run, every crashed run, and every resumed run. *)
let bake_ops ~s_oids ~r_oids ~count ~seed =
  let rng = Splitmix.create seed in
  let ns = Array.length s_oids in
  let n_deletable = 20 in
  let r_updatable = Array.sub r_oids 0 (Array.length r_oids - n_deletable) in
  let nu = Array.length r_updatable in
  let deletable =
    ref (Array.to_list (Array.sub r_oids (Array.length r_oids - n_deletable) n_deletable))
  in
  List.init count (fun i ->
      let i = i + 1 in
      let roll = Splitmix.int rng 100 in
      let op =
        if roll < 40 then begin
          let s = s_oids.(Splitmix.int rng ns) in
          fun db ->
            Db.update_field db ~set:"S" s ~field:"repfield"
              (Value.VString (Printf.sprintf "%020d" i))
        end
        else if roll < 60 then begin
          let r = r_updatable.(Splitmix.int rng nu) in
          fun db -> Db.update_field db ~set:"R" r ~field:"field_r" (Value.VInt (100_000 + i))
        end
        else if roll < 72 then begin
          let r = r_updatable.(Splitmix.int rng nu) in
          fun db ->
            Db.update_field db ~set:"R" r ~field:"pad"
              (Value.VString (Printf.sprintf "%-65d" i))
        end
        else if roll < 90 then begin
          let s = s_oids.(Splitmix.int rng ns) in
          fun db ->
            ignore
              (Db.insert db ~set:"R"
                 [
                   Value.VInt (200_000 + i);
                   Value.VString (String.make 65 'i');
                   Value.VRef s;
                 ])
        end
        else
          match !deletable with
          | r :: rest ->
              deletable := rest;
              fun db -> Db.delete db ~set:"R" r
          | [] ->
              let s = s_oids.(Splitmix.int rng ns) in
              fun db ->
                Db.update_field db ~set:"S" s ~field:"repfield"
                  (Value.VString (Printf.sprintf "%020d" (500_000 + i)))
      in
      (i, op))

let oids_of db set =
  let acc = ref [] in
  Db.scan db ~set (fun oid _ -> acc := oid :: !acc);
  Array.of_list (List.rev !acc)

let crash_matrix strategy () =
  let name = Fieldrep_costmodel.Sweep.strategy_name strategy in
  let spec =
    {
      Gen.default_spec with
      Gen.s_count = 40;
      sharing = 2;
      strategy;
      page_size = 1024;
      frames = 12;
      seed = 77 + seed_base;
      durable = true;
    }
  in
  let built = Gen.build spec in
  let db0 = built.Gen.db in
  let img = tmp ("matrix_" ^ name) ".img" in
  Db.checkpoint db0 img;
  let base_lsn = Wal.last_lsn (Option.get (Db.wal db0)) in
  let s_oids = oids_of db0 "S" in
  let r_oids = oids_of db0 "R" in
  let ops = bake_ops ~s_oids ~r_oids ~count:200 ~seed:(101 + seed_base) in
  Wal.close (Option.get (Db.wal db0));
  (* One log file per test, recreated empty for every simulated history. *)
  let wal_k = Filename.concat (Filename.get_temp_dir_name ())
      ("fieldrep_wal_matrix_" ^ name ^ ".wal") in
  let fresh_recover () =
    if Sys.file_exists wal_k then Sys.remove wal_k;
    Db.recover ~frames:spec.Gen.frames ~wal_path:wal_k img
  in
  (* Uncrashed reference: recover from the checkpoint (empty log tail) and
     run the whole workload. *)
  let refdb = fresh_recover () in
  let writes0 = (Db.stats refdb).Stats.page_writes in
  List.iter (fun (_, op) -> op refdb) ops;
  let total_writes = (Db.stats refdb).Stats.page_writes - writes0 in
  let reference = observe refdb in
  Wal.close (Option.get (Db.wal refdb));
  checkb "workload does physical writes" true (total_writes > 0);
  (* Crash at every write offset; odd offsets also tear the crashing
     write.  Recovery must reproduce the reference exactly each time. *)
  for k = 1 to total_writes do
    let db = fresh_recover () in
    Disk.set_failpoint ~torn:(k mod 2 = 1) (Pager.disk (Db.pager db))
      ~after_writes:(k - 1);
    let crashed =
      try
        List.iter (fun (_, op) -> op db) ops;
        false
      with Disk.Crash _ -> true
    in
    checkb (Printf.sprintf "%s: write %d/%d crashes" name k total_writes) true crashed;
    let w = Option.get (Db.wal db) in
    (* Ops 1..done_ops are in the log (the last possibly half-applied on
       the lost disk — replay completes it); resumption starts after. *)
    let done_ops = Int64.to_int (Int64.sub (Wal.last_lsn w) base_lsn) in
    Wal.close w;
    let db2 = Db.recover ~frames:spec.Gen.frames ~wal_path:wal_k img in
    List.iter (fun (i, op) -> if i > done_ops then op db2) ops;
    let obs = observe db2 in
    if not (String.equal reference obs) then
      Alcotest.failf "%s: crash at write %d/%d diverged (%d ops were durable)"
        name k total_writes done_ops;
    Db.check_integrity db2;
    Wal.close (Option.get (Db.wal db2))
  done;
  Sys.remove img;
  if Sys.file_exists wal_k then Sys.remove wal_k

(* Space reuse under crashes.  A rolling window over R deletes the oldest
   object and inserts a new one.  One turnover runs before the checkpoint,
   then the oldest half of the window is deleted, so the image holds pages
   that qualify for reuse; after it, inserts refill the window and two
   more turnovers run.  Inserts log no OID, so a recovery — which rebuilds
   the free-space map from the image's pages and replays the log tail —
   must pick the same pages and slots as the live database that kept its
   map current write by write. *)
let test_crash_space_reuse () =
  let spec =
    {
      Gen.default_spec with
      Gen.s_count = 30;
      sharing = 2;
      strategy = Params.Inplace;
      page_size = 1024;
      frames = 12;
      seed = 31 + seed_base;
      durable = true;
    }
  in
  let db0 = (Gen.build spec).Gen.db in
  let s_oids = oids_of db0 "S" in
  let live = Db.set_size db0 "R" in
  let rng = Splitmix.create (37 + seed_base) in
  let target () = s_oids.(Splitmix.int rng (Array.length s_oids)) in
  (* Each op deletes the oldest R object or inserts a new one, in one
     autocommit log record. *)
  let step db window ~insert i ~target =
    if not insert then begin
      Db.delete db ~set:"R" (Queue.pop window);
      Oid.nil
    end
    else begin
      let oid =
        Db.insert db ~set:"R"
          [ Value.VInt (300_000 + i); Value.VString (String.make 65 'w'); Value.VRef target ]
      in
      Queue.push oid window;
      oid
    end
  in
  let window0 = Queue.of_seq (Array.to_seq (oids_of db0 "R")) in
  let half = live / 2 in
  for i = 0 to (2 * live) + half - 1 do
    let insert = i < 2 * live && i mod 2 = 1 in
    ignore (step db0 window0 ~insert (i - (3 * live)) ~target:(target ()))
  done;
  let img = tmp "reuse" ".img" in
  Db.checkpoint db0 img;
  let base_lsn = Wal.last_lsn (Option.get (Db.wal db0)) in
  let start = Array.of_seq (Queue.to_seq window0) in
  let n_ops = half + (4 * live) in
  let is_insert i = i < half || (i - half) mod 2 = 1 in
  let targets = Array.init n_ops (fun _ -> target ()) in
  let ref_oids = Array.make n_ops Oid.nil in
  (* The window after the first [n] ops past the checkpoint. *)
  let window_after n =
    let w = Queue.of_seq (Array.to_seq start) in
    for i = 0 to n - 1 do
      if is_insert i then Queue.push ref_oids.(i) w else ignore (Queue.pop w)
    done;
    w
  in
  let run db ~from =
    let window = window_after from in
    for i = from to n_ops - 1 do
      let insert = is_insert i in
      let oid = step db window ~insert i ~target:targets.(i) in
      if insert && not (Oid.equal oid ref_oids.(i)) then
        Alcotest.failf "op %d inserted %s, the live database %s" i (Oid.to_string oid)
          (Oid.to_string ref_oids.(i))
    done
  in
  (* Reference: the live database carries on. *)
  let window = window_after 0 in
  for i = 0 to n_ops - 1 do
    ref_oids.(i) <- step db0 window ~insert:(is_insert i) i ~target:targets.(i)
  done;
  let reference = observe db0 in
  Db.check_integrity db0;
  Wal.close (Option.get (Db.wal db0));
  let reused = ref false and highest = ref (-1) in
  Array.iteri
    (fun i (oid : Oid.t) ->
      if is_insert i then
        if oid.Oid.page < !highest then reused := true else highest := oid.Oid.page)
    ref_oids;
  checkb "inserts land on freed pages" true !reused;
  let wal_k = tmp "reuse" ".wal" in
  let fresh_recover () =
    if Sys.file_exists wal_k then Sys.remove wal_k;
    Db.recover ~frames:spec.Gen.frames ~wal_path:wal_k img
  in
  (* An uncrashed recovery from the image allocates as the live run did. *)
  let db = fresh_recover () in
  let writes0 = (Db.stats db).Stats.page_writes in
  run db ~from:0;
  let total_writes = (Db.stats db).Stats.page_writes - writes0 in
  checks "recovered run = live run" reference (observe db);
  Wal.close (Option.get (Db.wal db));
  let sorted oids = List.sort Oid.compare (List.of_seq oids) |> List.map Oid.to_string in
  List.iter
    (fun k ->
      let db = fresh_recover () in
      Disk.set_failpoint ~torn:(k mod 2 = 1) (Pager.disk (Db.pager db)) ~after_writes:(k - 1);
      let crashed =
        try
          run db ~from:0;
          false
        with Disk.Crash _ -> true
      in
      checkb (Printf.sprintf "write %d/%d crashes" k total_writes) true crashed;
      let w = Option.get (Db.wal db) in
      let done_ops = Int64.to_int (Int64.sub (Wal.last_lsn w) base_lsn) in
      Wal.close w;
      let db2 = Db.recover ~frames:spec.Gen.frames ~wal_path:wal_k img in
      Alcotest.(check (list string))
        (Printf.sprintf "crash at write %d: replayed inserts have the live OIDs" k)
        (sorted (Queue.to_seq (window_after done_ops)))
        (sorted (Array.to_seq (oids_of db2 "R")));
      run db2 ~from:done_ops;
      checks (Printf.sprintf "crash at write %d: final state" k) reference (observe db2);
      Db.check_integrity db2;
      Wal.close (Option.get (Db.wal db2)))
    (List.sort_uniq compare (List.init 8 (fun j -> 1 + ((j + 1) * (total_writes - 1) / 9))));
  Sys.remove img;
  if Sys.file_exists wal_k then Sys.remove wal_k

(* ------------------------------------------------------------------ *)
(* Rolling back a transaction from the log alone                        *)

let copy_file src dst =
  let ic = open_in_bin src in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let built_inplace ~seed =
  (Gen.build
     {
       Gen.default_spec with
       Gen.s_count = 30;
       sharing = 2;
       strategy = Params.Inplace;
       page_size = 1024;
       frames = 32;
       seed = seed + seed_base;
       durable = true;
     })
    .Gen.db

(* One transaction's log, cut at every frame boundary: every cut without
   the commit frame must recover to the checkpoint's state (the
   transaction is a loser, rolled back from the images its records carry),
   and the full log to the live run's. *)
let test_loser_prefix_matrix () =
  let db = built_inplace ~seed:7 in
  let img = tmp "prefix" ".img" in
  Db.checkpoint db img;
  let checkpointed = observe db in
  let w = Option.get (Db.wal db) in
  let base = Wal.last_lsn w in
  let s_oids = oids_of db "S" and r_oids = oids_of db "R" in
  let tx = Db.begin_txn db in
  ignore
    (Db.insert ~txn:tx db ~set:"R"
       [ Value.VInt 777_777; Value.VString (String.make 65 'n'); Value.VRef s_oids.(1) ]);
  Db.update_field ~txn:tx db ~set:"R" r_oids.(0) ~field:"field_r" (Value.VInt 888_001);
  Db.update_field ~txn:tx db ~set:"R" r_oids.(0) ~field:"field_r" (Value.VInt 888_002);
  Db.delete ~txn:tx db ~set:"R" r_oids.(1);
  Db.update_field ~txn:tx db ~set:"S" s_oids.(2) ~field:"repfield"
    (Value.VString (String.make 20 'p'));
  Db.commit db tx;
  let committed = observe db in
  let frames = Int64.to_int (Int64.sub (Wal.last_lsn w) base) in
  Wal.close w;
  checki "one frame per operation plus the commit" 6 frames;
  let wal_k = tmp "prefix" ".wal" in
  for k = 0 to frames do
    copy_file (Wal.path w) wal_k;
    Wal.truncate_file wal_k ~after:(Int64.add base (Int64.of_int k));
    let db2 = Db.recover ~wal_path:wal_k img in
    let what = Printf.sprintf "log cut after frame %d of %d" k frames in
    checks what (if k = frames then committed else checkpointed) (observe db2);
    Db.check_integrity db2;
    checki (what ^ ": no transaction active") 0 (Db.active_txn_count db2);
    Wal.close (Option.get (Db.wal db2))
  done;
  Sys.remove img;
  Sys.remove wal_k

(* An operation that fails after its record reached the log is rescinded
   by an abort marker, and the before-image it carried with it: the
   object's next touch must log the image again, or a crash before commit
   could not roll that touch back. *)
let test_rescinded_op_keeps_image () =
  let db = built_inplace ~seed:9 in
  let img = tmp "rescind" ".img" in
  Db.checkpoint db img;
  let checkpointed = observe db in
  let s = (oids_of db "S").(0) in
  let before = Db.get db ~set:"S" s in
  let tx = Db.begin_txn db in
  (* still referenced along the replicated path: fails validation after
     its record was appended *)
  (try
     Db.delete ~txn:tx db ~set:"S" s;
     Alcotest.fail "expected a validation failure"
   with Invalid_argument _ -> ());
  Db.update_field ~txn:tx db ~set:"S" s ~field:"repfield"
    (Value.VString (String.make 20 'k'));
  (* The machine dies with the transaction undecided. *)
  Wal.close (Option.get (Db.wal db));
  let db2 = Db.recover img in
  checks "object and replicated copies back to the checkpoint" checkpointed
    (observe db2);
  checkv "repfield restored"
    (Db.field_value db ~set:"S" before "repfield")
    (Db.field_value db2 ~set:"S" (Db.get db2 ~set:"S" s) "repfield");
  Db.check_integrity db2;
  Wal.close (Option.get (Db.wal db2));
  Sys.remove img

let () =
  Alcotest.run "fieldrep_wal"
    [
      ( "failpoints",
        [
          Alcotest.test_case "fires and disarms" `Quick test_failpoint_fires_and_disarms;
          Alcotest.test_case "torn write" `Quick test_failpoint_torn_write;
        ] );
      ( "log",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "abort rescinds" `Quick test_wal_abort_rescinds;
          Alcotest.test_case "torn tail ignored" `Quick test_wal_torn_tail;
          Alcotest.test_case "FREPWAL2 log refused" `Quick test_wal_refuses_old_format;
          Alcotest.test_case "corrupt frame mid-log" `Quick
            test_wal_corrupt_frame_mid_log;
          Alcotest.test_case "duplicate abort markers" `Quick
            test_wal_duplicate_abort_markers;
          Alcotest.test_case "abort marker without target" `Quick
            test_wal_abort_marker_missing_target;
        ] );
      ( "frame codec",
        [
          Alcotest.test_case "in-place walk matches decode_frame" `Quick
            test_frame_walk_property;
          Alcotest.test_case "truncated or damaged range" `Quick
            test_frame_walk_damage;
          Alcotest.test_case "append allocates no frame" `Quick test_append_words;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "sync is the durability point" `Quick
            test_wal_sync_is_the_durability_point;
          Alcotest.test_case "close syncs" `Quick test_wal_close_syncs;
          Alcotest.test_case "flush limit bounds the buffer" `Quick
            test_wal_flush_limit_bounds_buffer;
          Alcotest.test_case "one flush per committed txn" `Quick
            test_txn_commit_is_one_flush;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "checkpoint + log tail" `Quick test_recover_basic;
          Alcotest.test_case "retrieve keeps DDL file ids" `Quick
            test_retrieve_keeps_ddl_file_ids;
          Alcotest.test_case "lazy invalidations re-queued" `Quick
            test_recover_requeues_lazy;
          Alcotest.test_case "loser prefix matrix" `Quick test_loser_prefix_matrix;
          Alcotest.test_case "rescinded op keeps the image" `Quick
            test_rescinded_op_keeps_image;
        ] );
      ( "crash matrix",
        [
          Alcotest.test_case "no replication" `Slow
            (crash_matrix Params.No_replication);
          Alcotest.test_case "in-place" `Slow (crash_matrix Params.Inplace);
          Alcotest.test_case "separate" `Slow (crash_matrix Params.Separate);
          Alcotest.test_case "space reuse" `Slow test_crash_space_reuse;
        ] );
    ]
