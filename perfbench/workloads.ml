(* The four workloads.  Each one builds its database from the seed, warms
   it up untimed, runs a fixed number of operations in a closed loop with
   one caller, and checks its own output afterwards.  README.md says why
   each exists and what it stresses. *)

module Db = Fieldrep.Db
module Pager = Fieldrep_storage.Pager
module Disk = Fieldrep_storage.Disk
module Stats = Fieldrep_storage.Stats
module Value = Fieldrep_model.Value
module Key = Fieldrep_btree.Key
module Splitmix = Fieldrep_util.Splitmix
module Params = Fieldrep_costmodel.Params
module Gen = Fieldrep_workload.Gen
module Mix = Fieldrep_workload.Mix
module Multi = Fieldrep_workload.Multi
module Ast = Fieldrep_query.Ast
module Exec = Fieldrep_query.Exec
module Repl = Fieldrep_repl.Repl
module Transport = Fieldrep_repl.Transport
module Clock = Fieldrep_repl.Clock

(* Counts a workload gathers during its timed phase for the per-layer
   ratios that Db.stats cannot split by operation kind. *)
type tally = {
  mutable updates : int;  (* source objects updated by propagating writes *)
  mutable fanout_writes : int;  (* objects written beyond those sources *)
  mutable rows : int;  (* rows returned by retrieves *)
  mutable row_objects_read : int;  (* objects read by those retrieves *)
  mutable frames_applied : int;  (* log frames the replica applied *)
  mutable pages_diverged : int;  (* replica pages unlike the master's *)
}

(* What a timed phase leaves behind. *)
type phase = {
  latencies : int array;  (* ns per latency sample *)
  rates : float array;  (* attempts per second, one per batch *)
  units : int;  (* completed units: ops, queries, committed txns *)
  attempts : int;  (* attempts behind them; for contended, with aborts *)
  failed : int;  (* units that failed or were refused *)
  wrong : int;  (* of those, units that raised or returned a wrong answer *)
}

type instance = {
  dbs : Db.t list;  (* every database the timed phase runs on *)
  built : Gen.built;  (* the one the layer probe prices *)
  timed : Trace.t -> phase;
  check : unit -> int * int;  (* (checks run, checks failed) *)
  close : unit -> unit;
  tally : tally;
}

type t = {
  name : string;
  per_second : int;  (* units per --seconds: the count is fixed, never timed *)
  granule : int;  (* the unit count is a multiple of this *)
  trace_cap : int;  (* most units a traced run records spans for *)
  setup : seed:int -> units:int -> instance;
}

let now = Trace.now
let batches = 20

let new_tally () =
  {
    updates = 0;
    fanout_writes = 0;
    rows = 0;
    row_objects_read = 0;
    frames_applied = 0;
    pages_diverged = 0;
  }

(* Batch throughputs from the times batch boundaries were passed:
   [marks.(k)] is when batch [k] ended, [start] when the phase began. *)
let batch_rates ~start ~sizes marks =
  Array.mapi
    (fun k t ->
      let t0 = if k = 0 then start else marks.(k - 1) in
      float_of_int sizes.(k) /. (float_of_int (max 1 (t - t0)) /. 1e9))
    marks

(* Last unit index of each of [batches] equal batches of [n] units. *)
let batch_ends n =
  let b = min batches n in
  Array.init b (fun k -> ((k + 1) * n / b) - 1)

let batch_sizes ends =
  Array.mapi (fun k e -> if k = 0 then e + 1 else e - ends.(k - 1)) ends

(* The closed loop shared by the per-operation workloads: one caller,
   one operation at a time, each timed on the monotonic clock.  [step]
   returns false when the operation's answer was wrong. *)
let run_ops tr ~units step =
  let latencies = Array.make units 0 in
  let ends = batch_ends units in
  let marks = Array.make (Array.length ends) 0 in
  let batch = ref 0 in
  let wrong = ref 0 in
  let start = now () in
  for i = 0 to units - 1 do
    let s = Trace.enter tr Trace.Op in
    let a = now () in
    (match step i with
    | true -> ()
    | false -> incr wrong
    | exception e ->
        if !wrong = 0 then
          prerr_endline ("perfbench: op raised " ^ Printexc.to_string e);
        incr wrong);
    let b = now () in
    Trace.leave tr s;
    latencies.(i) <- b - a;
    if i = ends.(!batch) then begin
      marks.(!batch) <- b;
      incr batch
    end
  done;
  {
    latencies;
    rates = batch_rates ~start ~sizes:(batch_sizes ends) marks;
    units;
    attempts = units;
    failed = !wrong;
    wrong = !wrong;
  }

let in_span tr layer f =
  let s = Trace.enter tr layer in
  match f () with
  | v ->
      Trace.leave tr s;
      v
  | exception e ->
      Trace.leave tr s;
      raise e

let count_checks checks =
  List.fold_left
    (fun (n, bad) (what, ok) ->
      if not ok then prerr_endline ("perfbench: check failed: " ^ what);
      (n + 1, if ok then bad else bad + 1))
    (0, 0) checks

let integrity db =
  match Db.check_integrity db with
  | () -> true
  | exception Failure msg ->
      prerr_endline ("perfbench: " ^ msg);
      false

(* Every object of a set with its generation key, in physical order. *)
let objects db ~set ~field =
  let acc = ref [] in
  Db.scan db ~set (fun oid record ->
      match Db.field_value db ~set record field with
      | Value.VInt k -> acc := (oid, k) :: !acc
      | _ -> invalid_arg "perfbench: non-integer key");
  Array.of_list (List.rev !acc)

let strings rng ~count ~len =
  Array.init count (fun _ ->
      String.init len (fun _ -> Char.chr (Char.code 'a' + Splitmix.int rng 26)))

let functional_join db oid =
  match Db.field_value db ~set:"R" (Db.get db ~set:"R" oid) "sref" with
  | Value.VRef s -> Db.field_value db ~set:"S" (Db.get db ~set:"S" s) "repfield"
  | v -> v

(* ------------------------------------------------------------------ *)
(* deref_hot: the paper's payoff, a replicated read with every page in
   the pool.                                                            *)

let deref_hot ~seed ~units =
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 20_000;
        sharing = 2;
        strategy = Params.Inplace;
        frames = 8192;
        backend = Some Db.Mem;
        seed;
      }
  in
  let db = built.Gen.db in
  let r = objects db ~set:"R" ~field:"field_r" in
  let n_r = Array.length r in
  let rng = Splitmix.create ((seed * 7919) + 1) in
  (* zipf rank -> object, so the hot objects are spread over the file *)
  let by_rank = Splitmix.permutation rng n_r in
  let draw () =
    let target = by_rank.(Splitmix.zipf rng ~n:n_r ~theta:0.9) in
    let roll = Splitmix.int rng 100 in
    (target * 4) + if roll < 85 then 0 else if roll < 95 then 1 else 2
  in
  let plan = Array.init units (fun _ -> draw ()) in
  let exec tr p =
    let oid, key = r.(p lsr 2) in
    in_span tr Trace.Db (fun () ->
        match p land 3 with
        | 0 -> Db.deref db ~set:"R" oid "sref.repfield" <> Value.VNull
        | 1 -> (Db.get db ~set:"R" oid).Fieldrep_model.Record.type_tag >= 0
        | _ -> Db.index_lookup db ~index:Gen.r_index (Key.Int key) = [ oid ])
  in
  (* warm-up: every object, both paths, and the index, then a run of the
     mix itself, so the timed phase starts with every page resident *)
  Array.iter
    (fun (oid, key) ->
      ignore (Db.deref db ~set:"R" oid "sref.repfield");
      ignore (Db.index_lookup db ~index:Gen.r_index (Key.Int key)))
    r;
  for _ = 1 to 200_000 do
    ignore (exec Trace.off (draw ()))
  done;
  let timed tr = run_ops tr ~units (fun i -> exec tr plan.(i)) in
  let check () =
    let rng = Splitmix.create ((seed * 7919) + 2) in
    Splitmix.sample_without_replacement rng ~n:n_r ~k:1000
    |> Array.to_list
    |> List.map (fun i ->
           let oid, _ = r.(i) in
           ( "deref = functional join",
             Value.equal
               (Db.deref db ~set:"R" oid "sref.repfield")
               (functional_join db oid) ))
    |> count_checks
  in
  let close () = Db.close db in
  { dbs = [ db ]; built; timed; check; close; tally = new_tally () }

(* ------------------------------------------------------------------ *)
(* query_mix: the paper's section 6 mix, separate replication, a pool of
   a tenth of the data on the file backend.                             *)

let read_sel = 0.001
let update_sel = 0.001

let query_mix ~seed ~units =
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 20_000;
        sharing = 2;
        strategy = Params.Separate;
        frames = 256;
        backend = Some (Db.File None);
        seed;
      }
  in
  let db = built.Gen.db in
  let stats = Db.stats db in
  let tally = new_tally () in
  let queries seed n =
    let rng = Splitmix.create seed in
    Array.init n (fun _ ->
        if Splitmix.int rng 100 < 80 then
          `Read (Mix.read_query built rng ~read_sel)
        else `Update (Mix.update_query built rng ~update_sel))
  in
  (* R holds every key 0..|R|-1, so a key range returns exactly its width *)
  let expected (q : Ast.retrieve) =
    match q.Ast.where with
    | Some { Ast.lo = Some (Value.VInt lo); hi = Some (Value.VInt hi); _ } ->
        hi - lo + 1
    | _ -> -1
  in
  let exec tr = function
    | `Read q ->
        let read0 = stats.Stats.objects_read in
        let res = in_span tr Trace.Exec (fun () -> Exec.retrieve db q) in
        tally.row_objects_read <-
          tally.row_objects_read + stats.Stats.objects_read - read0;
        tally.rows <- tally.rows + res.Exec.rows;
        in_span tr Trace.Exec (fun () ->
            Exec.drop_output db res.Exec.output_file);
        res.Exec.rows = expected q
    | `Update q ->
        let written0 = stats.Stats.objects_written in
        let n = in_span tr Trace.Exec (fun () -> Exec.replace db q) in
        tally.updates <- tally.updates + n;
        tally.fanout_writes <-
          tally.fanout_writes + stats.Stats.objects_written - written0 - n;
        n > 0
  in
  Array.iter
    (fun q -> ignore (exec Trace.off q))
    (queries ((seed * 7919) + 3) 1500);
  tally.updates <- 0;
  tally.fanout_writes <- 0;
  tally.rows <- 0;
  tally.row_objects_read <- 0;
  let plan = queries ((seed * 7919) + 4) units in
  let timed tr = run_ops tr ~units (fun i -> exec tr plan.(i)) in
  let check () = count_checks [ ("query_mix integrity", integrity db) ] in
  { dbs = [ db ]; built; timed; check; close = (fun () -> Db.close db); tally }

(* ------------------------------------------------------------------ *)
(* churn: a durable rolling window with an ack-mode loopback replica.   *)

(* Ops per transaction.  At 100, commits would be exactly 1% of the
   samples and p99 would flip between the slowest plain op and the
   fastest commit; at 50 it sits inside the commits' own distribution. *)
let churn_txn_ops = 50

(* Page digests of every file, by file id. *)
let disk_pages db =
  Pager.flush (Db.pager db);
  let disk = Pager.disk (Db.pager db) in
  Disk.file_ids disk
  |> List.map (fun id ->
         ( id,
           Array.init (Disk.page_count disk id) (fun page ->
               Digest.bytes (Disk.dump_page disk ~file:id ~page)) ))

(* Page slots, over both databases' files, that are missing on one side
   or hold different bytes. *)
let pages_diverged a b =
  let a = disk_pages a and b = disk_pages b in
  let pages id l = Option.value ~default:[||] (List.assoc_opt id l) in
  List.sort_uniq compare (List.map fst a @ List.map fst b)
  |> List.fold_left
       (fun n id ->
         let pa = pages id a and pb = pages id b in
         let slots = max (Array.length pa) (Array.length pb) in
         let differs k =
           k >= Array.length pa || k >= Array.length pb || pa.(k) <> pb.(k)
         in
         n + List.length (List.filter differs (List.init slots Fun.id)))
       0

(* Every (key, oid) entry of an index, in key order. *)
let index_entries db index =
  Db.index_range db ~index ~lo:(Key.Int min_int) ~hi:(Key.Int max_int)
    ~init:[] ~f:(fun acc k oid -> (k, oid) :: acc)
  |> List.rev

let churn_warmup_ops = 4000

let churn ~seed ~units =
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 500;
        sharing = 2;
        strategy = Params.Inplace;
        frames = 8192;
        backend = Some Db.Mem;
        durable = true;
        wal_fsync = Some false;
        seed;
      }
  in
  let db = built.Gen.db in
  let stats = Db.stats db in
  let tally = new_tally () in
  let tr = ref Trace.off in
  let clock = Clock.of_manual (Clock.manual ()) in
  let master = Repl.Master.create ~mode:Repl.Master.Ack ~clock db in
  let ma, rb, _, _ = Transport.loopback () in
  let replica = Repl.Replica.connect ~clock rb in
  let drain () =
    ignore (in_span !tr Trace.Repl (fun () -> Repl.Replica.drain replica))
  in
  ignore (Repl.Master.attach ~pump:drain master ma);
  ignore (Repl.Replica.drain replica);
  let replica_stats () = Db.stats (Repl.Replica.db replica) in
  let window = Queue.create () in
  Array.iter
    (fun (oid, _) -> Queue.push oid window)
    (objects db ~set:"R" ~field:"field_r");
  let live = Queue.length window in
  let s_oids = Array.map fst (objects db ~set:"S" ~field:"field_s") in
  let rng = Splitmix.create ((seed * 7919) + 5) in
  let pads = strings rng ~count:64 ~len:Gen.default_spec.Gen.r_pad_bytes in
  let reps = strings rng ~count:64 ~len:Gen.default_spec.Gen.rep_field_bytes in
  let total = churn_warmup_ops + units in
  let plan =
    Array.init total (fun _ -> Splitmix.int rng (Array.length s_oids))
  in
  let next_key = ref (Array.length built.Gen.r_keys) in
  let txn = ref None in
  let op g =
    let tr = !tr in
    if g mod churn_txn_ops = 0 then txn := Some (Db.begin_txn db);
    let txn = !txn in
    let old = Queue.pop window in
    in_span tr Trace.Db (fun () -> Db.delete ?txn db ~set:"R" old);
    let target = plan.(g) in
    let values =
      [
        Value.VInt !next_key;
        Value.VString pads.(g land 63);
        Value.VRef s_oids.(target);
      ]
    in
    incr next_key;
    Queue.push
      (in_span tr Trace.Db (fun () -> Db.insert ?txn db ~set:"R" values))
      window;
    if g mod 10 = 9 then begin
      let written0 = stats.Stats.objects_written in
      in_span tr Trace.Db (fun () ->
          Db.update_field ?txn db ~set:"S" s_oids.(target) ~field:"repfield"
            (Value.VString reps.(g land 63)));
      tally.updates <- tally.updates + 1;
      tally.fanout_writes <-
        tally.fanout_writes + stats.Stats.objects_written - written0 - 1
    end;
    (match txn with
    | Some tx when g mod churn_txn_ops = churn_txn_ops - 1 ->
        in_span tr Trace.Db (fun () -> Db.commit db tx)
    | _ -> ());
    true
  in
  for g = 0 to churn_warmup_ops - 1 do
    ignore (op g)
  done;
  tally.updates <- 0;
  tally.fanout_writes <- 0;
  let timed t =
    tr := t;
    let applied0 = (replica_stats ()).Stats.frames_applied in
    let p = run_ops t ~units (fun i -> op (churn_warmup_ops + i)) in
    tally.frames_applied <- (replica_stats ()).Stats.frames_applied - applied0;
    tr := Trace.off;
    p
  in
  let check () =
    Repl.Master.pump master;
    drain ();
    let rdb = Repl.Replica.db replica in
    (* The replica must answer as the master does; whether its pages are
       also byte-identical is measured, not checked (README.md, Output
       checks) *)
    tally.pages_diverged <- pages_diverged db rdb;
    let same_index index = index_entries db index = index_entries rdb index in
    count_checks
      [
        ("churn integrity", integrity db);
        ("churn live count = window", Db.set_size db "R" = live);
        ("churn replica integrity", integrity rdb);
        ( "churn replica rows = master rows",
          Multi.observe db = Multi.observe rdb );
        ("churn replica R index = master R index", same_index Gen.r_index);
        ("churn replica S index = master S index", same_index Gen.s_index);
      ]
  in
  let close () =
    Db.close (Repl.Replica.db replica);
    Db.close db
  in
  { dbs = [ db ]; built; timed; check; close; tally }

(* ------------------------------------------------------------------ *)
(* contended: eight interleaved logical clients under strict 2PL.       *)

let clients = 8

let contended_spec seed =
  {
    Gen.default_spec with
    Gen.s_count = 200;
    sharing = 4;
    strategy = Params.Inplace;
    backend = Some Db.Mem;
    durable = true;
    wal_fsync = Some false;
    seed;
  }

(* Multi's default retry bound: a program that deadlocks on 21 attempts is
   given up, and counts as failed. *)
let run_multi ?on_turn ?before_commit ~seed ~programs built =
  Multi.run ~abort_prob:0.02 ?on_turn ?before_commit ~clients
    ~txns_per_client:(programs / clients) ~ops_per_txn:6
    ~mix:Multi.update_mix ~seed built

(* The storm is chaotic: one long run's deadlock rate depends on its seed.
   The timed phase therefore runs [rounds] independent rounds, each on a
   freshly generated database of its own, and reports over all of them.
   With 8 rounds the per-op counts spread 6% across seeds; 16 halve the
   variance. *)
let rounds = 16

(* Programs of the untimed warm-up storm, whatever the run's length. *)
let warmup_programs = 1000

let contended ~seed ~units =
  (* untimed warm-up on a twin database; the timed rounds start from the
     freshly generated states that their serial replays are compared with *)
  let twin = Gen.build (contended_spec (seed + 1)) in
  ignore
    (run_multi ~seed:(seed + 1) ~programs:warmup_programs twin);
  Db.close twin.Gen.db;
  let round_seed k = (seed * 1009) + k in
  let builts =
    List.init rounds (fun k -> Gen.build (contended_spec (round_seed k)))
  in
  let committed = Array.make rounds [] in
  let timed tr =
    let turns = ref (Array.make 4096 0) and n = ref 0 in
    let commits = Array.make units 0 and c = ref 0 in
    (* one latency sample per scheduler turn: all 8 clients step once *)
    let span = ref (-1) and in_turn = ref false and last = ref 0 in
    let close_turn t =
      Trace.leave tr !span;
      if !n = Array.length !turns then
        turns := Array.append !turns (Array.make !n 0);
      !turns.(!n) <- t - !last;
      incr n;
      in_turn := false
    in
    let on_turn _ =
      let t = now () in
      if !in_turn then close_turn t;
      last := t;
      span := Trace.enter tr Trace.Op;
      in_turn := true
    in
    (* attempts (commits + deadlock aborts) finished by each commit *)
    let attempts_at = Array.make units 0 and attempts = ref 0 in
    let before_commit stats _ =
      commits.(!c) <- now ();
      attempts_at.(!c) <-
        !attempts + stats.Stats.txn_commits + stats.Stats.deadlocks + 1;
      incr c
    in
    let start = now () in
    let results =
      List.mapi
        (fun k built ->
          let before_commit = before_commit (Db.stats built.Gen.db) in
          let res =
            run_multi ~on_turn ~before_commit ~seed:(round_seed k)
              ~programs:(units / rounds) built
          in
          if !in_turn then close_turn (now ());
          attempts := !attempts + res.Multi.commits + res.Multi.deadlock_aborts;
          committed.(k) <- res.Multi.committed;
          res)
        builts
    in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
    let ends = batch_ends !c in
    let crashed = sum (fun r -> if r.Multi.crashed then 1 else 0) in
    let sizes =
      Array.mapi
        (fun k e ->
          attempts_at.(e) - if k = 0 then 0 else attempts_at.(ends.(k - 1)))
        ends
    in
    {
      latencies = Array.sub !turns 0 !n;
      rates = batch_rates ~start ~sizes (Array.map (fun e -> commits.(e)) ends);
      units = !c;
      attempts = !attempts;
      failed = sum (fun r -> r.Multi.discarded) + crashed;
      wrong = crashed;
    }
  in
  let check () =
    List.concat
      (List.mapi
         (fun k built ->
           let fresh =
             Gen.build
               { (contended_spec (round_seed k)) with Gen.durable = false }
           in
           Multi.replay_serial fresh.Gen.db committed.(k);
           let same = Multi.observe fresh.Gen.db = Multi.observe built.Gen.db in
           [
             ("contended serial replay = interleaved", same);
             ("contended integrity", integrity built.Gen.db);
           ])
         builts)
    |> count_checks
  in
  let dbs = List.map (fun b -> b.Gen.db) builts in
  {
    dbs;
    built = List.hd builts;
    timed;
    check;
    close = (fun () -> List.iter Db.close dbs);
    tally = new_tally ();
  }

let all =
  [
    {
      name = "deref_hot";
      per_second = 250_000;
      granule = 1;
      trace_cap = 400_000;
      setup = deref_hot;
    };
    {
      name = "query_mix";
      per_second = 500;
      granule = 1;
      trace_cap = max_int;
      setup = query_mix;
    };
    {
      name = "churn";
      per_second = 3_000;
      granule = churn_txn_ops;
      trace_cap = max_int;
      setup = churn;
    };
    {
      name = "contended";
      per_second = 800;
      granule = rounds * clients;
      trace_cap = max_int;
      setup = contended;
    };
  ]
