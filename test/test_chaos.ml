(* Chaos harness: long seeded runs of writes, crashes, hangs, partitions,
   promotions and rejoins over the in-process loopback transport, with the
   probabilistic fault schedules (drop/corrupt/duplicate/hang) armed on
   every established link.

   Each seeded schedule runs >= 200 write operations and forces at least
   one failover (master crash -> epoch-bumped promotion) and at least one
   zombie-master fencing event (the deposed master keeps writing and its
   stale-epoch traffic is rejected).  Time is an injected manual clock —
   no wall-clock sleeps anywhere — and every run must end with all three
   nodes byte-identical (page digests) and exactly one master per epoch. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Disk = Fieldrep_storage.Disk
module Pager = Fieldrep_storage.Pager
module Wal = Fieldrep_wal.Wal
module Value = Fieldrep_model.Value
module Key = Fieldrep_btree.Key
module Params = Fieldrep_costmodel.Params
module Gen = Fieldrep_workload.Gen
module Splitmix = Fieldrep_util.Splitmix
module Transport = Fieldrep_repl.Transport
module Clock = Fieldrep_repl.Clock
module Repl = Fieldrep_repl.Repl
module Master = Fieldrep_repl.Repl.Master
module Replica = Fieldrep_repl.Repl.Replica

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let seed_base =
  match Sys.getenv_opt "FIELDREP_TEST_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Observation helpers (as in test_repl)                               *)

let observe db =
  let b = Buffer.create 4096 in
  List.iter
    (fun set ->
      Buffer.add_string b
        (Printf.sprintf "== set %s (%d)\n" set (Db.set_size db set));
      Db.scan db ~set (fun oid record ->
          Buffer.add_string b (Oid.to_string oid);
          List.iter
            (fun v ->
              Buffer.add_char b '|';
              Buffer.add_string b (Value.to_string v))
            (Db.user_values db ~set record);
          Buffer.add_char b '\n'))
    [ "S"; "R" ];
  Buffer.contents b

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

(* ------------------------------------------------------------------ *)
(* One chaos run                                                       *)

type node = {
  r : Replica.t;
  hung : bool ref;
  mutable m_fault : Transport.faults;  (* master -> replica direction *)
  mutable r_fault : Transport.faults;  (* replica -> master direction *)
  mutable old_link : Transport.t;  (* replica endpoint of the last link *)
}

let chaos_liveness =
  { Repl.heartbeat_every = 20; suspect_after = 200; dead_after = 400 }

let run_chaos seed =
  let seed = seed + seed_base in
  let rng = Splitmix.create (0xC4A0 + (seed * 131)) in
  let clk = Clock.manual () in
  let clock = Clock.of_manual clk in
  let events = ref 0 in
  let on_event _ = incr events in
  let ops_done = ref 0 in

  (* genesis master *)
  let built =
    Gen.build
      {
        Gen.default_spec with
        Gen.s_count = 24;
        sharing = 2;
        strategy = Params.Inplace;
        page_size = 1024;
        frames = 64;
        seed = 77 + seed;
        durable = true;
      }
  in
  let mdb = built.Gen.db in
  let old_wal_path = Wal.path (Option.get (Db.wal mdb)) in
  let img = Filename.temp_file "fieldrep_chaos" ".img" in
  Db.checkpoint mdb img;
  let m1 =
    Master.create
      ~mode:(Master.Async { buffer_bytes = 2048 })
      ~clock ~liveness:chaos_liveness ~on_event mdb
  in
  (* exactly-one-master-per-epoch ledger: every engine that ever acted as
     a master claims its epoch here *)
  let claims = ref [ (Master.epoch m1, "m1") ] in

  let arm_faults node k =
    Transport.seed_schedule ~p_drop:0.05 ~p_corrupt:0.04 ~p_duplicate:0.05
      ~p_hang:0.05 ~hang_for:3 node.m_fault
      ~seed:((seed * 31) + k);
    Transport.seed_schedule ~p_drop:0.04 ~p_duplicate:0.04 node.r_fault
      ~seed:((seed * 37) + k)
  in
  let disarm_faults node =
    Transport.seed_schedule node.m_fault ~seed:0;
    Transport.seed_schedule node.r_fault ~seed:0
  in

  let attach_to m node =
    let ma, rb, fa, fb = Transport.loopback () in
    Replica.reconnect node.r rb;
    node.old_link <- rb;
    node.m_fault <- fa;
    node.r_fault <- fb;
    ignore
      (Master.attach
         ~pump:(fun () ->
           if !(node.hung) then Clock.advance clk ~by:5
           else ignore (Replica.drain node.r))
         m ma)
  in
  let fresh_node m k =
    let ma, rb, fa, fb = Transport.loopback () in
    let r = Replica.connect ~clock ~liveness:chaos_liveness rb in
    let hung = ref false in
    ignore
      (Master.attach
         ~pump:(fun () ->
           if !hung then Clock.advance clk ~by:5 else ignore (Replica.drain r))
         m ma);
    ignore (Replica.drain r);
    let node = { r; hung; m_fault = fa; r_fault = fb; old_link = rb } in
    arm_faults node k;
    node
  in

  let a = fresh_node m1 1 in
  let b = fresh_node m1 2 in

  (* one write against [db], drawn from the seeded schedule — autocommit
     only, and never validation-failing, so any prefix is promotable *)
  let s_oids db =
    let acc = ref [] in
    Db.scan db ~set:"S" (fun oid _ -> acc := oid :: !acc);
    Array.of_list (List.rev !acc)
  in
  let write db oids =
    incr ops_done;
    let i = !ops_done in
    (match Splitmix.int rng 4 with
    | 0 ->
        ignore
          (Db.insert db ~set:"R"
             [
               Value.VInt (200_000 + i);
               Value.VString (String.make 65 'c');
               Value.VRef oids.(Splitmix.int rng (Array.length oids));
             ])
    | _ ->
        Db.update_field db ~set:"S"
          oids.(Splitmix.int rng (Array.length oids))
          ~field:"repfield"
          (Value.VString (Printf.sprintf "%020d" (i + (seed * 7)))));
    Clock.advance clk ~by:1
  in
  let drain_live nodes = List.iter (fun n -> ignore (Replica.drain n.r)) nodes in
  let beat m nodes =
    Master.tick m;
    drain_live nodes;
    List.iter (fun n -> Replica.tick n.r) nodes;
    Master.pump m
  in

  (* ---- phase 1: faulty steady state under the genesis master -------- *)
  let m1_oids = s_oids mdb in
  for i = 1 to 100 do
    write mdb m1_oids;
    if Splitmix.int rng 3 = 0 then Master.pump m1;
    if Splitmix.int rng 5 = 0 then beat m1 [ a; b ];
    (* a scripted partition of B mid-phase: the link dies, the master
       counts the death, B reconnects and catches up from the file *)
    if i = 60 then begin
      b.m_fault.Transport.disconnect_after <- 1;
      Master.pump m1;
      (* the next ship killed the link *)
      attach_to m1 b;
      arm_faults b 3
    end
  done;

  (* ---- the crash: unshipped writes, then the master goes silent ----- *)
  disarm_faults a;
  disarm_faults b;
  for _ = 1 to 10 do
    beat m1 [ a; b ]
  done;
  (* divergent history: appended to m1's log but never shipped (async
     buffers are not flushed before the "crash") *)
  for _ = 1 to 6 do
    write mdb m1_oids
  done;
  Clock.advance clk ~by:500;
  Replica.tick a.r;
  Replica.tick b.r;
  checkb "successor sees the master dead" true
    (Replica.master_state a.r = Repl.Dead);
  checkb "peer replica sees the master dead" true
    (Replica.master_state b.r = Repl.Dead);

  (* ---- failover: A promotes into epoch 1 ---------------------------- *)
  let new_wal = Filename.temp_file "fieldrep_chaos" ".wal" in
  Sys.remove new_wal;
  let fork = Replica.last_applied a.r in
  let m2 =
    Replica.promote ~mode:Master.Ack ~ack_deadline:100 ~clock
      ~liveness:chaos_liveness ~on_event a.r ~wal_path:new_wal
  in
  claims := (Master.epoch m2, "m2") :: !claims;
  let m2db = Replica.db a.r in
  checki "promotion entered epoch 1" 1 (Master.epoch m2);
  checkb "fork recorded" true (Int64.equal (Master.fork m2) fork);

  (* B re-wires to the new master (snapshot or tail, depending on how far
     it got before the crash) *)
  attach_to m2 b;
  ignore (Replica.drain b.r);
  arm_faults b 4;

  (* ---- zombie fencing: the deposed-to-be master keeps writing ------- *)
  for _ = 1 to 4 do
    write mdb m1_oids
  done;
  Master.pump m1;  (* ships stale-epoch traffic onto the old links *)
  let fenced =
    Replica.fence_link b.r b.old_link + Replica.fence_link a.r a.old_link
  in
  checkb "at least one zombie payload fenced" true (fenced > 0);
  Master.pump m1;  (* drains the Fenced replies *)
  checkb "zombie master deposed" true (Master.is_deposed m1);
  write mdb m1_oids;
  (* deposed: local writes continue but nothing ships *)
  Master.pump m1;
  checki "no post-deposition zombie traffic" 0
    (Replica.fence_link b.r b.old_link);

  (* ---- phase 2: ack-mode chaos under the new master ----------------- *)
  let m2_oids = s_oids m2db in
  for i = 1 to 60 do
    write m2db m2_oids;
    (* hang windows: B stalls, the ack deadline demotes it, commits keep
       their latency bound; B is re-promoted once it catches up *)
    if i = 20 || i = 40 then b.hung := true;
    if i = 25 || i = 45 then begin
      b.hung := false;
      disarm_faults b;
      for _ = 1 to 6 do
        Master.pump m2;
        ignore (Replica.drain b.r)
      done;
      arm_faults b (5 + i)
    end;
    if Splitmix.int rng 4 = 0 && not !(b.hung) then beat m2 [ b ]
  done;
  checkb "hung ack peer was demoted (bounded commits)" true
    ((Db.stats m2db).Stats.ack_demotions > 0);

  (* ---- the old master rejoins as a replica below the new epoch ------ *)
  let old_last =
    (Wal.read_frames old_wal_path ~after:0L).Wal.last_lsn
  in
  checkb "zombie history diverged past the fork" true
    (Int64.compare old_last fork > 0);
  let on_reset ~fork =
    Wal.truncate_file old_wal_path ~after:fork;
    Db.recover_replica ~wal_path:old_wal_path img
  in
  let ma3, rb3, fa3, fb3 = Transport.loopback () in
  let c_r =
    Replica.rejoin ~clock ~liveness:chaos_liveness ~on_reset
      ~db:(Db.recover_replica ~wal_path:old_wal_path img)
      ~last_applied:old_last rb3
  in
  let c_hung = ref false in
  ignore
    (Master.attach
       ~pump:(fun () ->
         if !c_hung then Clock.advance clk ~by:5
         else ignore (Replica.drain c_r))
       m2 ma3);
  let c =
    { r = c_r; hung = c_hung; m_fault = fa3; r_fault = fb3; old_link = rb3 }
  in
  ignore (Replica.drain c.r);
  arm_faults c 9;

  (* ---- phase 3: both replicas under chaos --------------------------- *)
  for _ = 1 to 40 do
    write m2db m2_oids;
    if Splitmix.int rng 3 = 0 then beat m2 [ b; c ]
  done;

  (* ---- heal and converge -------------------------------------------- *)
  disarm_faults b;
  disarm_faults c;
  for _ = 1 to 30 do
    Clock.advance clk ~by:1;
    Master.pump m2;
    drain_live [ b; c ]
  done;
  checkb "enough operations for a chaos run" true (!ops_done >= 200);

  (* every node ends on the new epoch, byte-identical to the master *)
  checki "B adopted epoch 1" 1 (Replica.epoch b.r);
  checki "C adopted epoch 1" 1 (Replica.epoch c.r);
  checki "epoch durable on the master" 1 (Db.epoch m2db);
  checkb "B at the master's lsn" true
    (Int64.equal (Replica.last_applied b.r) (Wal.last_lsn (Option.get (Db.wal m2db))));
  checkb "C at the master's lsn" true
    (Int64.equal (Replica.last_applied c.r) (Wal.last_lsn (Option.get (Db.wal m2db))));
  checks "B observation identical" (observe m2db) (observe (Replica.db b.r));
  checks "C observation identical" (observe m2db) (observe (Replica.db c.r));
  checkb "B pages byte-identical" true
    (disk_digest m2db = disk_digest (Replica.db b.r));
  checkb "C pages byte-identical" true
    (disk_digest m2db = disk_digest (Replica.db c.r));
  Db.check_integrity (Replica.db b.r);
  Db.check_integrity (Replica.db c.r);

  (* exactly one master per epoch, and exactly one not deposed *)
  let epochs = List.map fst !claims in
  checki "one master per epoch" (List.length epochs)
    (List.length (List.sort_uniq compare epochs));
  checkb "old master deposed, new master standing" true
    (Master.is_deposed m1 && not (Master.is_deposed m2));

  (* the self-healing bookkeeping fired *)
  let st1 = Db.stats mdb and st2 = Db.stats m2db in
  checkb "failover counted" true (st2.Stats.failovers >= 1);
  checkb "peer deaths counted" true
    (st1.Stats.peer_deaths + st2.Stats.peer_deaths
     + (Db.stats (Replica.db b.r)).Stats.peer_deaths
    >= 2);
  checkb "reconnects counted" true
    ((Db.stats (Replica.db b.r)).Stats.reconnects >= 1);
  checkb "events were logged" true (!events > 0);
  Sys.remove img

let test_seeded seed () = run_chaos seed

let () =
  Alcotest.run "chaos"
    [
      ( "seeded schedules",
        [
          Alcotest.test_case "seed 101" `Quick (test_seeded 101);
          Alcotest.test_case "seed 202" `Quick (test_seeded 202);
          Alcotest.test_case "seed 303" `Quick (test_seeded 303);
        ] );
    ]
