(* Transactions: strict two-phase locking, undo, deadlock detection —
   and the two acceptance tests of the transaction subsystem:

   - the randomized interleaved-client run is equivalent to the serial
     execution of its committed transactions in commit order, for all
     three replication strategies;
   - a crash in the middle of a multi-client run recovers to exactly the
     state produced by the transactions that committed before it. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Disk = Fieldrep_storage.Disk
module Pager = Fieldrep_storage.Pager
module Wal = Fieldrep_wal.Wal
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Ty = Fieldrep_model.Ty
module Path = Fieldrep_model.Path
module Schema = Fieldrep_model.Schema
module Key = Fieldrep_btree.Key
module Params = Fieldrep_costmodel.Params
module Lock = Fieldrep_txn.Lock
module Txn = Fieldrep_txn.Txn
module Gen = Fieldrep_workload.Gen
module Multi = Fieldrep_workload.Multi
module Splitmix = Fieldrep_util.Splitmix
module Lockdep = Fieldrep_util.Lockdep

(* CI runs the suite under several seeds; the lock-coverage property's
   database and operation stream shift with it. *)
let seed_base =
  match Sys.getenv_opt "FIELDREP_TEST_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checksl = Alcotest.(check (list string))
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable

let tmp name ext =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) ("fieldrep_txn_" ^ name ^ ext)
  in
  if Sys.file_exists path then Sys.remove path;
  path

let small_spec ?(frames = 64) ?(durable = false) strategy seed =
  {
    Gen.default_spec with
    Gen.s_count = 20;
    sharing = 3;
    strategy;
    page_size = 1024;
    frames;
    seed;
    durable;
  }

(* Resolve a generation key to its OID by scanning (keys are immutable
   identifiers of the generated objects; OIDs are run-specific). *)
let oid_of db ~set ~field key =
  let found = ref None in
  Db.scan db ~set (fun oid record ->
      match Db.field_value db ~set record field with
      | Value.VInt k when k = key -> found := Some oid
      | _ -> ());
  match !found with
  | Some oid -> oid
  | None -> Alcotest.failf "no %s object with %s = %d" set field key

let r_of db key = oid_of db ~set:"R" ~field:"field_r" key
let s_of db key = oid_of db ~set:"S" ~field:"field_s" key

let sref_of db r =
  match Db.field_value db ~set:"R" (Db.get db ~set:"R" r) "sref" with
  | Value.VRef s -> s
  | v -> Alcotest.failf "sref is not a reference: %s" (Value.to_string v)

(* ------------------------------------------------------------------ *)
(* Lock manager units                                                  *)

let test_lock_compat () =
  let l = Lock.create () in
  let t = Lock.Set "T" in
  Lock.acquire l ~txn:1 t Lock.IS;
  Lock.acquire l ~txn:2 t Lock.IX;
  (* already covered: re-acquiring a weaker mode is a no-op *)
  Lock.acquire l ~txn:2 t Lock.IS;
  checkb "IX retained" true (Lock.holds l ~txn:2 t Lock.IX);
  (match Lock.acquire l ~txn:3 t Lock.X with
  | () -> Alcotest.fail "X should block on IS+IX holders"
  | exception Lock.Would_block { txn; holders } ->
      checki "blocked txn is the requester" 3 txn;
      checki "both holders reported" 2 (List.length holders));
  Lock.release_all l ~txn:1;
  Lock.release_all l ~txn:2;
  Lock.acquire l ~txn:3 t Lock.X;
  checkb "X granted once holders release" true (Lock.holds l ~txn:3 t Lock.X);
  Lock.release_all l ~txn:3;
  checki "lock table drained" 0 (Lock.active_locks l)

let test_lock_upgrade () =
  let l = Lock.create () in
  let t = Lock.Set "T" in
  Lock.acquire l ~txn:1 t Lock.S;
  Lock.acquire l ~txn:1 t Lock.X;
  checkb "sole reader upgrades in place" true (Lock.holds l ~txn:1 t Lock.X);
  Lock.release_all l ~txn:1;
  Lock.acquire l ~txn:1 t Lock.S;
  Lock.acquire l ~txn:2 t Lock.S;
  match Lock.acquire l ~txn:1 t Lock.X with
  | () -> Alcotest.fail "upgrade should block on the second reader"
  | exception Lock.Would_block { holders; _ } ->
      checki "blocked only by the other reader" 1 (List.length holders);
      checki "the other reader" 2 (List.hd holders)

let test_lock_deadlock () =
  let stats = Stats.create () in
  let l = Lock.create ~stats () in
  let a = Lock.Set "A" and b = Lock.Set "B" in
  Lock.acquire l ~txn:1 a Lock.X;
  Lock.acquire l ~txn:2 b Lock.X;
  (try
     Lock.acquire l ~txn:1 b Lock.X;
     Alcotest.fail "t1 should block on t2"
   with Lock.Would_block _ -> ());
  (match Lock.acquire l ~txn:2 a Lock.X with
  | () -> Alcotest.fail "t2 closing the cycle should deadlock"
  | exception Lock.Deadlock { victim; cycle } ->
      checki "the requester is the victim" 2 victim;
      checkb "cycle names both parties" true (List.mem 1 cycle && List.mem 2 cycle));
  checki "deadlock counted" 1 stats.Stats.deadlocks;
  checki "not an upgrade" 0 stats.Stats.deadlock_upgrades;
  checki "both waits counted" 2 stats.Stats.lock_waits;
  (* the victim aborts; the survivor's blocked request now succeeds *)
  Lock.release_all l ~txn:2;
  Lock.acquire l ~txn:1 b Lock.X;
  checkb "survivor proceeds" true (Lock.holds l ~txn:1 b Lock.X)

(* The held list gains a resource on its first grant only: an upgrade or
   a repeated grant must neither duplicate it nor leak it at release. *)
let test_lock_held_once () =
  let l = Lock.create () in
  let o1 = Lock.Obj { Oid.file = 1; page = 0; slot = 0 } in
  let o2 = Lock.Obj { Oid.file = 1; page = 0; slot = 1 } in
  Lock.acquire l ~txn:1 o1 Lock.S;
  Lock.acquire l ~txn:1 o1 Lock.X;
  Lock.grant l ~txn:1 o2 Lock.S;
  Lock.grant l ~txn:1 o2 Lock.X;
  checki "two resources held" 2 (Lock.held_count l ~txn:1);
  checkb "upgrade kept" true (Lock.holds l ~txn:1 o1 Lock.X);
  checkb "re-grant upgraded" true (Lock.holds l ~txn:1 o2 Lock.X);
  Lock.release_all l ~txn:1;
  checki "nothing left locked" 0 (Lock.active_locks l);
  checki "nothing left held" 0 (Lock.held_count l ~txn:1)

(* Two-txn S -> X upgrade deadlock: both readers ask for X, and the second
   request closes the cycle while upgrading a lock its victim holds. *)
let test_lock_deadlock_upgrade () =
  let stats = Stats.create () in
  let l = Lock.create ~stats () in
  let a = Lock.Set "A" in
  Lock.acquire l ~txn:1 a Lock.S;
  Lock.acquire l ~txn:2 a Lock.S;
  (try
     Lock.acquire l ~txn:1 a Lock.X;
     Alcotest.fail "t1's upgrade should block on t2"
   with Lock.Would_block _ -> ());
  (match Lock.acquire l ~txn:2 a Lock.X with
  | () -> Alcotest.fail "t2's upgrade should deadlock"
  | exception Lock.Deadlock { victim; _ } -> checki "victim" 2 victim);
  checki "deadlock counted" 1 stats.Stats.deadlocks;
  checki "counted as an upgrade" 1 stats.Stats.deadlock_upgrades

(* ------------------------------------------------------------------ *)
(* Model-based check of the lock table                                 *)

(* The lock manager as it was before its table was keyed by int: one
   holders table per resource, keyed by the resource itself.  It decides
   every request, so the real manager must match it step by step. *)
module Model = struct
  type t = {
    table : (Lock.resource, (int, Lock.mode) Hashtbl.t) Hashtbl.t;
    held : (int, Lock.resource list ref) Hashtbl.t;
    waiting : (int, Lock.resource * Lock.mode) Hashtbl.t;
    stats : Stats.t;
  }

  let create stats =
    {
      table = Hashtbl.create 16;
      held = Hashtbl.create 16;
      waiting = Hashtbl.create 16;
      stats;
    }

  let holders_of t resource =
    match Hashtbl.find_opt t.table resource with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.replace t.table resource h;
        h

  let conflicts holders txn want =
    Hashtbl.fold
      (fun other m acc ->
        if other <> txn && not (Lock.compatible m want) then other :: acc
        else acc)
      holders []

  let blockers_of t w =
    match Hashtbl.find_opt t.waiting w with
    | None -> []
    | Some (resource, mode) -> (
        match Hashtbl.find_opt t.table resource with
        | None -> []
        | Some holders ->
            let want =
              match Hashtbl.find_opt holders w with
              | Some cur -> Lock.lub cur mode
              | None -> mode
            in
            conflicts holders w want)

  let find_cycle t start =
    let visited = Hashtbl.create 8 in
    let rec dfs path txn =
      if txn = start && path <> [] then Some (List.rev path)
      else if Hashtbl.mem visited txn then None
      else begin
        Hashtbl.replace visited txn ();
        List.fold_left
          (fun acc n ->
            match acc with Some _ -> acc | None -> dfs (n :: path) n)
          None (blockers_of t txn)
      end
    in
    dfs [] start

  let note_held t txn resource ~fresh =
    match Hashtbl.find_opt t.held txn with
    | Some l -> if fresh then l := resource :: !l
    | None -> Hashtbl.replace t.held txn (ref [ resource ])

  let acquire t ~txn resource mode =
    let holders = holders_of t resource in
    let cur = Hashtbl.find_opt holders txn in
    match cur with
    | Some m when Lock.covers m mode -> ()
    | _ -> (
        let want = match cur with Some m -> Lock.lub m mode | None -> mode in
        match conflicts holders txn want with
        | [] ->
            Hashtbl.replace holders txn want;
            note_held t txn resource ~fresh:(cur = None);
            Hashtbl.remove t.waiting txn
        | blocking ->
            let already =
              match Hashtbl.find_opt t.waiting txn with
              | Some (r, m) -> r = resource && m = mode
              | None -> false
            in
            Hashtbl.replace t.waiting txn (resource, mode);
            if not already then Stats.bump t.stats Stats.Lock_waits;
            (match find_cycle t txn with
            | Some cycle ->
                Hashtbl.remove t.waiting txn;
                Stats.bump t.stats Stats.Deadlocks;
                raise (Lock.Deadlock { victim = txn; cycle })
            | None -> ());
            raise (Lock.Would_block { txn; holders = blocking }))

  let grant t ~txn resource mode =
    let holders = holders_of t resource in
    let cur = Hashtbl.find_opt holders txn in
    let want = match cur with Some m -> Lock.lub m mode | None -> mode in
    Hashtbl.replace holders txn want;
    note_held t txn resource ~fresh:(cur = None)

  let holds t ~txn resource mode =
    match Hashtbl.find_opt t.table resource with
    | None -> false
    | Some holders -> (
        match Hashtbl.find_opt holders txn with
        | Some m -> Lock.covers m mode
        | None -> false)

  let release_all t ~txn =
    (match Hashtbl.find_opt t.held txn with
    | Some l ->
        List.iter
          (fun resource ->
            match Hashtbl.find_opt t.table resource with
            | Some holders ->
                Hashtbl.remove holders txn;
                if Hashtbl.length holders = 0 then
                  Hashtbl.remove t.table resource
            | None -> ())
          !l
    | None -> ());
    Hashtbl.remove t.held txn;
    Hashtbl.remove t.waiting txn

  let held_count t ~txn =
    match Hashtbl.find_opt t.held txn with
    | Some l -> List.length !l
    | None -> 0

  let active_locks t = Hashtbl.length t.table
end

type lock_op =
  | Acquire of int * int * Lock.mode  (* txn, resource, mode *)
  | Grant of int * int * Lock.mode
  | Release of int

type lock_outcome = Granted | Blocked of int list | Victim of int

let model_txns = 4
let model_modes = [ Lock.IS; Lock.IX; Lock.S; Lock.X ]

let model_resources =
  [|
    Lock.Set "A";
    Lock.Set "B";
    Lock.Obj { Oid.file = 1; page = 0; slot = 0 };
    Lock.Obj { Oid.file = 1; page = 0; slot = 1 };
    Lock.Obj { Oid.file = 2; page = 7; slot = 0 };
    Lock.Obj { Oid.file = 2; page = 70_000; slot = 3 };
  |]

let outcome f =
  match f () with
  | () -> Granted
  | exception Lock.Would_block { holders; _ } ->
      Blocked (List.sort compare holders)
  | exception Lock.Deadlock { victim; _ } -> Victim victim

let pp_outcome = function
  | Granted -> "granted"
  | Blocked h -> "blocked by " ^ String.concat "," (List.map string_of_int h)
  | Victim v -> Printf.sprintf "deadlock, victim %d" v

let pp_lock_op = function
  | Acquire (txn, r, m) ->
      Printf.sprintf "acquire %d %s %s" txn
        (Lock.resource_name model_resources.(r))
        (Lock.mode_name m)
  | Grant (txn, r, m) ->
      Printf.sprintf "grant %d %s %s" txn
        (Lock.resource_name model_resources.(r))
        (Lock.mode_name m)
  | Release txn -> Printf.sprintf "release_all %d" txn

(* Run [ops] against both managers; after every step the outcomes, every
   [holds] answer, the held counts, the table sizes and the wait and
   deadlock counts must agree.  A deadlock victim aborts, as [Db] makes
   it. *)
let run_against_model ops =
  let real_stats = Stats.create () and model_stats = Stats.create () in
  let real = Lock.create ~stats:real_stats () in
  let model = Model.create model_stats in
  List.iteri
    (fun step op ->
      let fail fmt =
        Alcotest.failf ("step %d (%s): " ^^ fmt) step (pp_lock_op op)
      in
      let got, want =
        match op with
        | Acquire (txn, r, m) ->
            let res = model_resources.(r) in
            ( outcome (fun () -> Lock.acquire real ~txn res m),
              outcome (fun () -> Model.acquire model ~txn res m) )
        | Grant (txn, r, m) ->
            let res = model_resources.(r) in
            ( outcome (fun () -> Lock.grant real ~txn res m),
              outcome (fun () -> Model.grant model ~txn res m) )
        | Release txn ->
            Lock.release_all real ~txn;
            Model.release_all model ~txn;
            (Granted, Granted)
      in
      if got <> want then
        fail "%s, the model says %s" (pp_outcome got) (pp_outcome want);
      (match got with
      | Victim txn ->
          Lock.release_all real ~txn;
          Model.release_all model ~txn
      | Granted | Blocked _ -> ());
      for txn = 1 to model_txns do
        Array.iter
          (fun res ->
            List.iter
              (fun m ->
                let a = Lock.holds real ~txn res m
                and b = Model.holds model ~txn res m in
                if a <> b then
                  fail "holds %d %s %s: %b, the model says %b" txn
                    (Lock.resource_name res) (Lock.mode_name m) a b)
              model_modes)
          model_resources;
        let a = Lock.held_count real ~txn and b = Model.held_count model ~txn in
        if a <> b then fail "held_count %d: %d, the model says %d" txn a b
      done;
      let a = Lock.active_locks real and b = Model.active_locks model in
      if a <> b then fail "active_locks %d, the model says %d" a b;
      List.iter
        (fun c ->
          let a = Stats.get real_stats c and b = Stats.get model_stats c in
          if a <> b then fail "counter %d, the model says %d" a b)
        [ Stats.Lock_waits; Stats.Deadlocks ])
    ops

(* Shared S holders where the first granted, the one held inline, leaves
   first: the next holder must take its place without losing anyone. *)
let first_holder_leaves =
  [
    Acquire (1, 2, Lock.S);
    Acquire (2, 2, Lock.S);
    Acquire (3, 2, Lock.IS);
    Acquire (4, 2, Lock.X);
    Release 1;
    Acquire (4, 2, Lock.X);
    Acquire (2, 2, Lock.X);
    Release 2;
    Acquire (4, 2, Lock.IX);
    Release 3;
    Acquire (4, 2, Lock.X);
    Acquire (1, 0, Lock.IS);
    Acquire (2, 0, Lock.IX);
    Acquire (3, 0, Lock.IS);
    Release 1;
    Acquire (2, 0, Lock.X);
    Release 3;
    Acquire (2, 0, Lock.X);
  ]

let test_lock_model () =
  run_against_model first_holder_leaves;
  let rng = Splitmix.create (seed_base + 41) in
  (* S and IS twice as likely, so shared holders are common *)
  let modes = [| Lock.IS; Lock.IS; Lock.IX; Lock.S; Lock.S; Lock.X |] in
  for _ = 1 to 400 do
    let op _ =
      let txn = 1 + Splitmix.int rng model_txns in
      let r = Splitmix.int rng (Array.length model_resources) in
      let m = modes.(Splitmix.int rng (Array.length modes)) in
      match Splitmix.int rng 10 with
      | 0 -> Grant (txn, r, m)
      | 1 | 2 -> Release txn
      | _ -> Acquire (txn, r, m)
    in
    run_against_model (List.init 40 op)
  done

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

(* Minor words allocated by [f ()], less the cost of measuring. *)
let minor_words f =
  let span g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  span f -. span ignore

let test_touched_words () =
  let tx = Txn.make 1 in
  let oids =
    Array.init 200 (fun i -> { Oid.file = 3; page = i / 7; slot = i mod 7 })
  in
  Array.iteri
    (fun i oid ->
      if i mod 2 = 0 then
        Txn.record_touch tx oid
          { Txn.u_set = "R"; u_oid = oid; u_present = true; u_values = [] })
    oids;
  let hits = ref 0 in
  let words =
    minor_words (fun () ->
        for i = 0 to 9_999 do
          if Txn.touched tx oids.(i mod 200) then incr hits
        done)
  in
  checki "half the OIDs touched" 5_000 !hits;
  Alcotest.(check (float 0.)) "words per 10 000 calls" 0. words

(* The layer probe's lock step: IX on a set, X on an object the
   transaction has not locked before, and the release.  The resources are
   built beforehand, so only the lock table's own words count; the runtime
   lock-order recorder, which CI arms for this suite, is off meanwhile. *)
let test_lock_words () =
  let recording = Lockdep.enabled () in
  Lockdep.set_enabled false;
  Fun.protect ~finally:(fun () -> Lockdep.set_enabled recording) @@ fun () ->
  let l = Lock.create () in
  let set = Lock.Set "R" in
  let objs =
    Array.init 1024 (fun i ->
        Lock.Obj { Oid.file = 3; page = i / 16; slot = i mod 16 })
  in
  let step i =
    Lock.acquire l ~txn:i set Lock.IX;
    Lock.acquire l ~txn:i objs.(i land 1023) Lock.X;
    Lock.release_all l ~txn:i
  in
  for i = 0 to 999 do
    step i
  done;
  let n = 10_000 in
  let words =
    minor_words (fun () ->
        for i = 1000 to 1000 + n - 1 do
          step i
        done)
  in
  let per_step = words /. float_of_int n in
  if per_step > 32. then
    Alcotest.failf "%.1f words per IX + X + release_all (at most 32)" per_step;
  checki "table drained" 0 (Lock.active_locks l)

(* A churn-shaped op, delete the oldest R object and insert a new one,
   costs a transaction of 50 at most 140 words more than its autocommit
   twin, and reads exactly the same objects. *)
let test_txn_words strategy () =
  let run ~txn_ops =
    let built =
      Gen.build
        {
          Gen.default_spec with
          Gen.s_count = 100;
          sharing = 2;
          strategy;
          frames = 1024;
          backend = Some Db.Mem;
          durable = true;
          wal_fsync = Some false;
          seed = seed_base + 43;
        }
    in
    let db = built.Gen.db in
    let window = Queue.create () in
    Db.scan db ~set:"R" (fun oid _ -> Queue.push oid window);
    let s = ref [] in
    Db.scan db ~set:"S" (fun oid _ -> s := oid :: !s);
    let s = Array.of_list (List.rev !s) in
    let rng = Splitmix.create (seed_base + 47) in
    let next_key = ref 1_000_000 in
    let pad = String.make Gen.default_spec.Gen.r_pad_bytes 'p' in
    let txn = ref None in
    let op g =
      if txn_ops > 1 && g mod txn_ops = 0 then txn := Some (Db.begin_txn db);
      let txn = !txn in
      Db.delete ?txn db ~set:"R" (Queue.pop window);
      incr next_key;
      let target = s.(Splitmix.int rng (Array.length s)) in
      Queue.push
        (Db.insert ?txn db ~set:"R"
           [ Value.VInt !next_key; Value.VString pad; Value.VRef target ])
        window;
      match txn with
      | Some tx when g mod txn_ops = txn_ops - 1 -> Db.commit db tx
      | Some _ | None -> ()
    in
    let warmup = 300 and ops = 500 in
    for g = 0 to warmup - 1 do
      op g
    done;
    let read0 = (Db.stats db).Stats.objects_read in
    let words =
      minor_words (fun () ->
          for g = warmup to warmup + ops - 1 do
            op g
          done)
    in
    let read = (Db.stats db).Stats.objects_read - read0 in
    Db.check_integrity db;
    Db.close db;
    (words /. float_of_int ops, read)
  in
  let auto_words, auto_read = run ~txn_ops:1 in
  let txn_words, txn_read = run ~txn_ops:50 in
  checki "objects read" auto_read txn_read;
  (* The gate bounds what a transaction adds per op, not the ratio: a cut
     to the path both modes share would otherwise raise the ratio. *)
  let extra = txn_words -. auto_words in
  if extra > 140. then
    Alcotest.failf "txn %.0f words/op, autocommit %.0f: %.0f extra (at most 140)"
      txn_words auto_words extra

(* ------------------------------------------------------------------ *)
(* Commit / abort semantics through Db                                 *)

let test_commit_applies () =
  let built = Gen.build (small_spec Params.Inplace 3) in
  let db = built.Gen.db in
  let r0 = r_of db 0 and s0 = s_of db 0 in
  let tx = Db.begin_txn db in
  checki "one active txn" 1 (Db.active_txn_count db);
  Db.update_field ~txn:tx db ~set:"S" s0 ~field:"repfield"
    (Value.VString "committed");
  Db.update_field ~txn:tx db ~set:"R" r0 ~field:"field_r" (Value.VInt 4242);
  let fresh =
    Db.insert ~txn:tx db ~set:"R"
      [ Value.VInt 777; Value.VString "new"; Value.VRef s0 ]
  in
  Db.commit db tx;
  checki "no active txn after commit" 0 (Db.active_txn_count db);
  checki "commit counted" 1 (Db.stats db).Stats.txn_commits;
  checki "all locks released" 0 (Lock.active_locks (Db.lock_manager db));
  checkv "scalar update durable" (Value.VString "committed")
    (Db.field_value db ~set:"S" (Db.get db ~set:"S" s0) "repfield");
  checkv "indexed field updated" (Value.VInt 4242)
    (Db.field_value db ~set:"R" (Db.get db ~set:"R" r0) "field_r");
  checki "index follows the update" 1
    (List.length (Db.index_lookup db ~index:Gen.r_index (Key.Int 4242)));
  checkv "insert visible through the replicated path" (Value.VString "committed")
    (Db.deref db ~set:"R" fresh "sref.repfield");
  Db.check_integrity db

(* A finished transaction is refused at every entry point, before the
   operation reads, writes or logs anything. *)
let finished_txn_refused outcome () =
  let built = Gen.build (small_spec ~durable:true Params.Inplace 11) in
  let db = built.Gen.db in
  let wal = Option.get (Db.wal db) in
  let r0 = r_of db 0 and r1 = r_of db 1 and s0 = s_of db 0 in
  let txn = Db.begin_txn db in
  Db.update_field ~txn db ~set:"S" s0 ~field:"repfield" (Value.VString "touched");
  (match outcome with `Commit -> Db.commit db txn | `Abort -> Db.abort db txn);
  let calls =
    [
      ( "insert",
        fun () ->
          ignore
            (Db.insert ~txn db ~set:"R"
               [ Value.VInt 888; Value.VString "late"; Value.VRef s0 ]) );
      ("delete", fun () -> Db.delete ~txn db ~set:"R" r1);
      ( "update_field",
        fun () -> Db.update_field ~txn db ~set:"R" r0 ~field:"field_r" (Value.VInt 999) );
      ("get", fun () -> ignore (Db.get ~txn db ~set:"R" r0));
      ("scan", fun () -> Db.scan ~txn db ~set:"R" (fun _ _ -> ()));
      ("deref", fun () -> ignore (Db.deref ~txn db ~set:"R" r0 "sref.repfield"));
      ( "index_lookup",
        fun () -> ignore (Db.index_lookup ~txn db ~index:Gen.r_index (Key.Int 0)) );
      ( "index_range",
        fun () ->
          ignore
            (Db.index_range ~txn db ~index:Gen.r_index ~lo:(Key.Int 0) ~hi:(Key.Int 10)
               ~init:0 ~f:(fun n _ _ -> n + 1)) );
    ]
  in
  List.iter
    (fun (name, call) ->
      let snap = Stats.copy (Db.stats db) and lsn = Wal.last_lsn wal in
      (match call () with
      | () -> Alcotest.failf "%s: a finished transaction was accepted" name
      | exception Invalid_argument msg ->
          Alcotest.(check string) (name ^ " refused") "Db: transaction is not active" msg);
      let d = Stats.diff (Db.stats db) snap in
      checki (name ^ ": objects read") 0 d.Stats.objects_read;
      checki (name ^ ": objects written") 0 d.Stats.objects_written;
      checkb (name ^ ": nothing logged") true (Int64.equal lsn (Wal.last_lsn wal)))
    calls;
  Db.check_integrity db

let abort_restores strategy () =
  let built = Gen.build (small_spec strategy 7) in
  let db = built.Gen.db in
  let before = Multi.observe db in
  let r0 = r_of db 0 and r1 = r_of db 1 and r2 = r_of db 2 in
  let s0 = s_of db 0 and s1 = s_of db 1 in
  let retarget = if Oid.equal (sref_of db r1) s0 then s1 else s0 in
  let tx = Db.begin_txn db in
  Db.update_field ~txn:tx db ~set:"S" s0 ~field:"repfield"
    (Value.VString "doomed");
  Db.update_field ~txn:tx db ~set:"R" r0 ~field:"field_r" (Value.VInt 999_999);
  Db.update_field ~txn:tx db ~set:"R" r1 ~field:"sref" (Value.VRef retarget);
  let fresh =
    Db.insert ~txn:tx db ~set:"R"
      [ Value.VInt 888; Value.VString "x"; Value.VRef s1 ]
  in
  Db.delete ~txn:tx db ~set:"R" r2;
  (* the deleted slot is pinned until the transaction resolves: a later
     insert cannot recycle the OID *)
  let fresh2 =
    Db.insert ~txn:tx db ~set:"R"
      [ Value.VInt 889; Value.VString "y"; Value.VRef s1 ]
  in
  checkb "tombstone pins the slot" true (not (Oid.equal fresh2 r2));
  ignore fresh;
  let snap = Stats.copy (Db.stats db) in
  Db.abort db tx;
  let d = Stats.diff (Db.stats db) snap in
  checki "abort counted" 1 d.Stats.txn_aborts;
  checkb "before-images restored" true (d.Stats.undo_applied >= 4);
  checki "no active txn after abort" 0 (Db.active_txn_count db);
  checki "all locks released" 0 (Lock.active_locks (Db.lock_manager db));
  checksl "logical state restored exactly" before (Multi.observe db);
  checkb "revived object keeps its original OID" true
    (Oid.equal (r_of db 2) r2);
  checki "index entry for the old key restored" 1
    (List.length (Db.index_lookup db ~index:Gen.r_index (Key.Int 0)));
  checki "index entry for the aborted update gone" 0
    (List.length (Db.index_lookup db ~index:Gen.r_index (Key.Int 999_999)));
  Db.check_integrity db

(* EMP.manager may name the object itself.  Deleting such an object in a
   transaction succeeds (detaching empties its own membership); undoing
   the delete must re-create it before walking its path, which reaches
   the object itself. *)
let test_abort_self_loop strategy () =
  let db = Db.create ~page_size:1024 ~frames:128 () in
  Db.define_type db
    (Ty.make ~name:"EMP"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "manager"; ftype = Ty.Ref "EMP" };
       ]);
  Db.create_set db ~name:"Emp1" ~elem_type:"EMP" ();
  Db.replicate db ~strategy (Path.parse "Emp1.manager.name");
  let x = Db.insert db ~set:"Emp1" [ Value.VString "x"; Value.VNull ] in
  Db.update_field db ~set:"Emp1" x ~field:"manager" (Value.VRef x);
  checkv "self copy" (Value.VString "x") (Db.deref db ~set:"Emp1" x "manager.name");
  let tx = Db.begin_txn db in
  Db.delete ~txn:tx db ~set:"Emp1" x;
  Db.abort db tx;
  Db.check_integrity db;
  checkv "revived self copy" (Value.VString "x")
    (Db.deref db ~set:"Emp1" x "manager.name");
  (* leaving the loop releases the S' object x owns; dropping the path
     releases the one it owns again *)
  let y = Db.insert db ~set:"Emp1" [ Value.VString "y"; Value.VNull ] in
  Db.update_field db ~set:"Emp1" x ~field:"manager" (Value.VRef y);
  Db.check_integrity db;
  Db.update_field db ~set:"Emp1" x ~field:"manager" (Value.VRef x);
  Db.unreplicate db (Path.parse "Emp1.manager.name");
  Db.check_integrity db

(* Persistent file ids only grow (a deleted file leaves a hole), so a set
   created late has a large one.  Its objects lock, and a transaction's
   insert and update on them roll back, like any other. *)
let test_high_file_id () =
  let db = Db.create ~page_size:1024 ~frames:64 () in
  Db.define_type db
    (Ty.make ~name:"EMP"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "manager"; ftype = Ty.Ref "EMP" };
       ]);
  Disk.reserve_file_ids (Pager.disk (Db.pager db)) 40_000;
  Db.create_set db ~name:"Emp1" ~elem_type:"EMP" ();
  let a = Db.insert db ~set:"Emp1" [ Value.VString "a"; Value.VNull ] in
  checkb "file id past 2^14" true (a.Oid.file >= 1 lsl 14);
  let tx = Db.begin_txn db in
  let b = Db.insert ~txn:tx db ~set:"Emp1" [ Value.VString "b"; Value.VNull ] in
  Db.update_field ~txn:tx db ~set:"Emp1" a ~field:"name" (Value.VString "a2");
  let locks = Db.lock_manager db in
  checkb "insert X-locked" true
    (Lock.holds locks ~txn:(Txn.id tx) (Lock.Obj b) Lock.X);
  checkb "update X-locked" true
    (Lock.holds locks ~txn:(Txn.id tx) (Lock.Obj a) Lock.X);
  Db.abort db tx;
  checki "all locks released" 0 (Lock.active_locks locks);
  let names = ref [] in
  Db.scan db ~set:"Emp1" (fun _ r ->
      names := Db.field_value db ~set:"Emp1" r "name" :: !names);
  Alcotest.(check (list value_testable))
    "only the committed object, unchanged" [ Value.VString "a" ] !names;
  Db.check_integrity db

let test_isolation_blocks () =
  let built = Gen.build (small_spec Params.Inplace 9) in
  let db = built.Gen.db in
  let s0 = s_of db 0 in
  (* a source reaching s0 (its hidden copy is part of the write's fan-out)
     and a bystander reaching some other S object *)
  let src = ref None and other = ref None in
  Db.scan db ~set:"R" (fun oid _ ->
      if Oid.equal (sref_of db oid) s0 then begin
        if !src = None then src := Some oid
      end
      else if !other = None then other := Some oid);
  let src = Option.get !src and other = Option.get !other in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  Db.update_field ~txn:t1 db ~set:"S" s0 ~field:"repfield"
    (Value.VString "uncommitted");
  (try
     ignore (Db.get ~txn:t2 db ~set:"S" s0);
     Alcotest.fail "reading an uncommitted write should block"
   with Lock.Would_block _ -> ());
  (try
     ignore (Db.deref ~txn:t2 db ~set:"R" src "sref.repfield");
     Alcotest.fail "reading an uncommitted hidden copy should block"
   with Lock.Would_block _ -> ());
  (* readers do not block readers *)
  ignore (Db.get ~txn:t2 db ~set:"R" other);
  ignore (Db.get ~txn:t1 db ~set:"R" other);
  checkb "waits were counted" true ((Db.stats db).Stats.lock_waits >= 2);
  Db.commit db t1;
  checkv "committed value now readable" (Value.VString "uncommitted")
    (Db.field_value db ~set:"S" (Db.get ~txn:t2 db ~set:"S" s0) "repfield");
  Db.commit db t2;
  checki "all locks released" 0 (Lock.active_locks (Db.lock_manager db))

let test_db_deadlock () =
  let built = Gen.build (small_spec Params.No_replication 11) in
  let db = built.Gen.db in
  let ra = r_of db 0 and rb = r_of db 1 in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  Db.update_field ~txn:t1 db ~set:"R" ra ~field:"field_r" (Value.VInt 100_000);
  Db.update_field ~txn:t2 db ~set:"R" rb ~field:"field_r" (Value.VInt 100_001);
  (try
     Db.update_field ~txn:t1 db ~set:"R" rb ~field:"field_r"
       (Value.VInt 100_002);
     Alcotest.fail "t1 should block on t2"
   with Lock.Would_block _ -> ());
  (match
     Db.update_field ~txn:t2 db ~set:"R" ra ~field:"field_r"
       (Value.VInt 100_003)
   with
  | () -> Alcotest.fail "t2 closing the cycle should deadlock"
  | exception Lock.Deadlock { victim; _ } ->
      checki "the requester is chosen as victim" (Txn.id t2) victim);
  checki "deadlock counted" 1 (Db.stats db).Stats.deadlocks;
  Db.abort db t2;
  (* the survivor's blocked update now goes through; strict 2PL made the
     victim's update vanish without a trace *)
  Db.update_field ~txn:t1 db ~set:"R" rb ~field:"field_r" (Value.VInt 100_002);
  Db.commit db t1;
  checkv "survivor's writes stand" (Value.VInt 100_002)
    (Db.field_value db ~set:"R" (Db.get db ~set:"R" rb) "field_r");
  Db.check_integrity db

(* Satellite: undo I/O is real I/O — counted in the global ledger and
   attributed to the aborting transaction (regression for the bug where
   rollback page writes escaped [grand_total_io]). *)
let test_abort_io_attribution () =
  let built = Gen.build (small_spec ~frames:4 Params.Inplace 13) in
  let db = built.Gen.db in
  let soids = Array.init 20 (fun k -> s_of db k) in
  let tx = Db.begin_txn db in
  Array.iteri
    (fun k s ->
      Db.update_field ~txn:tx db ~set:"S" s ~field:"repfield"
        (Value.VString (Printf.sprintf "doomed-%04d" k)))
    soids;
  let io_forward = Txn.io tx in
  checkb "forward work charged to the txn" true (io_forward > 0);
  let snap = Stats.copy (Db.stats db) in
  Db.abort db tx;
  let d = Stats.diff (Db.stats db) snap in
  checki "every image restored" 20 d.Stats.undo_applied;
  checkb "rollback performs physical I/O" true (Stats.total_io d > 0);
  checki "undo I/O attributed to the aborting txn"
    (io_forward + Stats.total_io d)
    (Txn.io tx);
  Db.check_integrity db

(* ------------------------------------------------------------------ *)
(* Randomized interleaved clients: the serializability acceptance test *)

let serializable ?(clients = 4) ?(mix = Multi.update_mix) strategy seed () =
  let spec =
    {
      Gen.default_spec with
      Gen.s_count = 40;
      sharing = 3;
      strategy;
      page_size = 1024;
      frames = 64;
      seed;
    }
  in
  let built = Gen.build spec in
  let res =
    Multi.run ~abort_prob:0.15 ~clients ~txns_per_client:6 ~ops_per_txn:5 ~mix
      ~seed:((seed * 17) + 1) built
  in
  checkb "run completed" true (not res.Multi.crashed);
  checkb "made progress" true (res.Multi.commits > 0);
  checki "every program resolved exactly once" (clients * 6)
    (res.Multi.commits + res.Multi.voluntary_aborts + res.Multi.discarded);
  checki "no transaction left active" 0 (Db.active_txn_count built.Gen.db);
  checki "no lock left behind" 0
    (Lock.active_locks (Db.lock_manager built.Gen.db));
  Db.check_integrity built.Gen.db;
  (* strict 2PL promises equivalence to the serial execution of the
     committed programs in commit order — run exactly that on a fresh
     identical database and compare the logical states *)
  let serial = Gen.build spec in
  Multi.replay_serial serial.Gen.db res.Multi.committed;
  Db.check_integrity serial.Gen.db;
  checksl "equivalent to serial commit order"
    (Multi.observe serial.Gen.db)
    (Multi.observe built.Gen.db)

(* ------------------------------------------------------------------ *)
(* Crash during a multi-client run: recovery keeps exactly the
   transactions that committed                                         *)

let test_crash_during_run () =
  let spec =
    {
      Gen.default_spec with
      Gen.s_count = 24;
      sharing = 2;
      strategy = Params.Inplace;
      page_size = 1024;
      frames = 12;
      seed = 21;
      durable = true;
    }
  in
  let built = Gen.build spec in
  let db = built.Gen.db in
  let img = tmp "crash_run" ".img" in
  Db.checkpoint db img;
  (* arm the failpoint just before the fifth commit: the crash lands
     inside or shortly after it, with other transactions in flight *)
  let res =
    Multi.run ~abort_prob:0.1 ~clients:3 ~txns_per_client:4 ~ops_per_txn:4
      ~mix:Multi.update_mix ~seed:99
      ~before_commit:(fun k ->
        if k = 4 then
          Disk.set_failpoint (Pager.disk (Db.pager db)) ~after_writes:3)
      built
  in
  checkb "the failpoint fired" true res.Multi.crashed;
  checkb "some transactions committed first" true (res.Multi.commits >= 4);
  Wal.close (Option.get (Db.wal db));
  let db2 = Db.recover ~frames:spec.Gen.frames img in
  checki "losers resolved at recovery" 0 (Db.active_txn_count db2);
  Db.check_integrity db2;
  (* reference: serial execution of exactly the committed programs *)
  let serial = Gen.build { spec with Gen.durable = false } in
  Multi.replay_serial serial.Gen.db res.Multi.committed;
  checksl "recovered state = committed transactions only"
    (Multi.observe serial.Gen.db)
    (Multi.observe db2);
  Wal.close (Option.get (Db.wal db2));
  Sys.remove img

(* ------------------------------------------------------------------ *)
(* Lock footprint = write footprint                                    *)

(* Src -> Mid -> Leaf, so one database can carry 1- and 2-level paths of
   every strategy. *)
let path_db decls seed =
  let db = Db.create ~page_size:1024 ~frames:64 () in
  let field fname ftype = { Ty.fname; ftype } in
  Db.define_type db
    (Ty.make ~name:"LEAF"
       [ field "name" (Ty.Scalar Ty.SString); field "val" (Ty.Scalar Ty.SInt) ]);
  Db.define_type db
    (Ty.make ~name:"MID"
       [ field "label" (Ty.Scalar Ty.SString); field "leaf" (Ty.Ref "LEAF") ]);
  Db.define_type db
    (Ty.make ~name:"SRC"
       [
         field "key" (Ty.Scalar Ty.SInt);
         field "mid" (Ty.Ref "MID");
         field "leaf" (Ty.Ref "LEAF");
       ]);
  List.iter
    (fun (name, elem_type) -> Db.create_set db ~name ~elem_type ())
    [ ("Leaf", "LEAF"); ("Mid", "MID"); ("Src", "SRC") ];
  let rng = Splitmix.create seed in
  let pick a = a.(Splitmix.int rng (Array.length a)) in
  let leaves =
    Array.init 12 (fun i ->
        Db.insert db ~set:"Leaf"
          [ Value.VString (Printf.sprintf "leaf-%d" i); Value.VInt i ])
  in
  let mids =
    Array.init 8 (fun i ->
        Db.insert db ~set:"Mid"
          [ Value.VString (Printf.sprintf "mid-%d" i); Value.VRef (pick leaves) ])
  in
  let srcs =
    List.init 40 (fun i ->
        Db.insert db ~set:"Src"
          [ Value.VInt i; Value.VRef (pick mids); Value.VRef (pick leaves) ])
  in
  List.iter
    (fun (path, strategy, collapse) ->
      Db.replicate db
        ~options:{ Schema.default_options with Schema.collapse }
        ~strategy (Path.parse path))
    decls;
  (db, leaves, mids, srcs)

let inplace_decl = ("Src.leaf.name", Schema.Inplace, false)
let separate_decl = ("Src.leaf.val", Schema.Separate, false)
let collapsed_decl = ("Src.mid.leaf.name", Schema.Inplace, true)
let two_level_decl = ("Src.mid.leaf.val", Schema.Inplace, false)

let snapshot db =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun set ->
      Db.scan db ~set (fun oid record ->
          Hashtbl.replace tbl (set, oid) (Record.encode record)))
    [ "Leaf"; "Mid"; "Src" ];
  tbl

(* Random inserts, deletes, scalar and reference updates inside
   transactions: after every operation, each data object it changed or
   removed must be X-locked by the transaction, or sit in a set the
   transaction X-locked (the reference-update escalation). *)
let test_lock_coverage () =
  let db, leaves, mids, srcs =
    path_db [ inplace_decl; separate_decl; collapsed_decl; two_level_decl ]
      (seed_base + 31)
  in
  let locks = Db.lock_manager db in
  let rng = Splitmix.create (seed_base + 37) in
  let pick a = a.(Splitmix.int rng (Array.length a)) in
  let ref_or_null a =
    if Splitmix.int rng 6 = 0 then Value.VNull else Value.VRef (pick a)
  in
  let live = ref srcs in
  let next_key = ref 1000 in
  for round = 1 to 4 do
    let tx = Db.begin_txn db in
    let txn = Txn.id tx in
    for step = 1 to 40 do
      let src () = List.nth !live (Splitmix.int rng (List.length !live)) in
      let before = snapshot db in
      (match Splitmix.int rng 8 with
      | 0 ->
          incr next_key;
          live :=
            Db.insert ~txn:tx db ~set:"Src"
              [ Value.VInt !next_key; ref_or_null mids; ref_or_null leaves ]
            :: !live
      | 1 when List.length !live > 4 ->
          let victim = src () in
          Db.delete ~txn:tx db ~set:"Src" victim;
          live := List.filter (fun o -> not (Oid.equal o victim)) !live
      | 2 ->
          Db.update_field ~txn:tx db ~set:"Leaf" (pick leaves) ~field:"name"
            (Value.VString (Printf.sprintf "n-%d-%d" round step))
      | 3 ->
          Db.update_field ~txn:tx db ~set:"Leaf" (pick leaves) ~field:"val"
            (Value.VInt ((100 * round) + step))
      | 4 ->
          Db.update_field ~txn:tx db ~set:"Mid" (pick mids) ~field:"label"
            (Value.VString (Printf.sprintf "m-%d-%d" round step))
      | 5 ->
          Db.update_field ~txn:tx db ~set:"Src" (src ()) ~field:"leaf"
            (ref_or_null leaves)
      | 6 ->
          Db.update_field ~txn:tx db ~set:"Src" (src ()) ~field:"mid"
            (ref_or_null mids)
      | _ ->
          (* never null: a collapsed path cannot yet find the sources
             behind an intermediate whose null reference is set *)
          Db.update_field ~txn:tx db ~set:"Mid" (pick mids) ~field:"leaf"
            (Value.VRef (pick leaves)));
      let after = snapshot db in
      Hashtbl.iter
        (fun (set, oid) bytes ->
          let changed =
            match Hashtbl.find_opt after (set, oid) with
            | Some bytes' -> not (Bytes.equal bytes bytes')
            | None -> true
          in
          if
            changed
            && not
                 (Lock.holds locks ~txn (Lock.Obj oid) Lock.X
                 || Lock.holds locks ~txn (Lock.Set set) Lock.X)
          then
            Alcotest.failf "round %d step %d wrote %s %s without an X lock"
              round step set (Oid.to_string oid))
        before
    done;
    Db.commit db tx
  done;
  Db.check_integrity db

(* The lock set is a by-product of the walk that applies the operation,
   so a transactional insert, delete or scalar update reads exactly the
   objects its autocommit twin reads. *)
let test_one_walk decl () =
  let ops =
    [
      ( "insert",
        fun ?txn db (leaves, mids, _) ->
          ignore
            (Db.insert ?txn db ~set:"Src"
               [ Value.VInt 999; Value.VRef mids.(1); Value.VRef leaves.(2) ]) );
      ( "delete",
        fun ?txn db (_, _, srcs) ->
          Db.delete ?txn db ~set:"Src" (List.nth srcs 3) );
      ( "scalar update",
        fun ?txn db (leaves, _, _) ->
          Db.update_field ?txn db ~set:"Leaf" leaves.(2) ~field:"name"
            (Value.VString "renamed") );
    ]
  in
  let reads ~in_txn (op : ?txn:Db.txn -> Db.t -> _ -> unit) =
    let db, leaves, mids, srcs = path_db [ decl ] 5 in
    let txn = if in_txn then Some (Db.begin_txn db) else None in
    let stats = Db.stats db in
    let r0 = stats.Stats.objects_read in
    op ?txn db (leaves, mids, srcs);
    let n = stats.Stats.objects_read - r0 in
    Option.iter (Db.commit db) txn;
    Db.check_integrity db;
    n
  in
  List.iter
    (fun (what, op) ->
      checki what (reads ~in_txn:false op) (reads ~in_txn:true op))
    ops

(* An autocommit update that changes nothing reads the object and walks
   no fan-out (here, the Mid objects of a 2-level inverted path). *)
let test_unchanged_update () =
  let db, _, mids, _ = path_db [ two_level_decl ] 5 in
  let get set oid field = Db.field_value db ~set (Db.get db ~set oid) field in
  let leaf = Value.as_ref (get "Mid" mids.(0) "leaf") in
  let v = get "Leaf" leaf "val" in
  let r0 = (Db.stats db).Stats.objects_read in
  Db.update_field db ~set:"Leaf" leaf ~field:"val" v;
  checki "objects read" 1 ((Db.stats db).Stats.objects_read - r0);
  let tx = Db.begin_txn db in
  Db.update_field ~txn:tx db ~set:"Leaf" leaf ~field:"val" v;
  Db.commit db tx;
  Db.check_integrity db

let () =
  Alcotest.run "fieldrep_txn"
    [
      ( "lock manager",
        [
          Alcotest.test_case "granularity compatibility" `Quick test_lock_compat;
          Alcotest.test_case "upgrade" `Quick test_lock_upgrade;
          Alcotest.test_case "deadlock detection" `Quick test_lock_deadlock;
          Alcotest.test_case "held once per resource" `Quick test_lock_held_once;
          Alcotest.test_case "upgrade deadlock counted" `Quick
            test_lock_deadlock_upgrade;
          Alcotest.test_case "matches the two-table model" `Quick
            test_lock_model;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "touched allocates nothing" `Quick
            test_touched_words;
          Alcotest.test_case "lock words per object" `Quick test_lock_words;
          Alcotest.test_case "txn words vs autocommit, in-place" `Quick
            (test_txn_words Params.Inplace);
          Alcotest.test_case "txn words vs autocommit, separate" `Quick
            (test_txn_words Params.Separate);
        ] );
      ( "lock footprint",
        [
          Alcotest.test_case "writes are X-locked" `Quick test_lock_coverage;
          Alcotest.test_case "one walk, in-place" `Quick
            (test_one_walk inplace_decl);
          Alcotest.test_case "one walk, separate" `Quick
            (test_one_walk ("Src.leaf.name", Schema.Separate, false));
          Alcotest.test_case "one walk, collapsed" `Quick
            (test_one_walk collapsed_decl);
          Alcotest.test_case "unchanged update walks nothing" `Quick
            test_unchanged_update;
        ] );
      ( "commit/abort",
        [
          Alcotest.test_case "commit applies" `Quick test_commit_applies;
          Alcotest.test_case "a committed txn is refused" `Quick
            (finished_txn_refused `Commit);
          Alcotest.test_case "an aborted txn is refused" `Quick
            (finished_txn_refused `Abort);
          Alcotest.test_case "abort restores (no replication)" `Quick
            (abort_restores Params.No_replication);
          Alcotest.test_case "abort restores (in-place)" `Quick
            (abort_restores Params.Inplace);
          Alcotest.test_case "abort restores (separate)" `Quick
            (abort_restores Params.Separate);
          Alcotest.test_case "abort revives self-managed (in-place)" `Quick
            (test_abort_self_loop Schema.Inplace);
          Alcotest.test_case "abort revives self-managed (separate)" `Quick
            (test_abort_self_loop Schema.Separate);
          Alcotest.test_case "file ids past 2^14" `Quick test_high_file_id;
          Alcotest.test_case "isolation blocks readers" `Quick
            test_isolation_blocks;
          Alcotest.test_case "deadlock through the engine" `Quick
            test_db_deadlock;
          Alcotest.test_case "abort I/O attribution" `Quick
            test_abort_io_attribution;
        ] );
      ( "interleaved serializability",
        [
          Alcotest.test_case "no replication, seed 1" `Slow
            (serializable Params.No_replication 1);
          Alcotest.test_case "no replication, seed 2" `Slow
            (serializable Params.No_replication 2);
          Alcotest.test_case "in-place, seed 1" `Slow
            (serializable Params.Inplace 1);
          Alcotest.test_case "in-place, seed 2" `Slow
            (serializable Params.Inplace 2);
          Alcotest.test_case "separate, seed 1" `Slow
            (serializable Params.Separate 1);
          Alcotest.test_case "separate, seed 2" `Slow
            (serializable Params.Separate 2);
          Alcotest.test_case "read mix, 6 clients" `Slow
            (serializable ~clients:6 ~mix:Multi.read_mix Params.Inplace 5);
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "crash during multi-client run" `Slow
            test_crash_during_run;
        ] );
    ]
