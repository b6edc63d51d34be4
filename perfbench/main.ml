(* One benchmark run:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The untraced run (--trace 0) runs the workload as three identical
   sub-runs of S/3 seconds' worth of ops, each with its own set-up, and
   prints the median of each end-to-end metric over them.  The traced run
   (--trace 1) times one sub-run's phase untraced and then traced on a
   second set-up, and prints the per-layer metrics: Db.stats deltas per
   stated base, span self times, the untraced phase's wall-clock figures
   and the tracing overhead, and the layer probe.  The last line of stdout
   is the result object; the line before it gives the bases every ratio
   was taken over and, in the untraced run, each sub-run's wall clock. *)

module Db = Fieldrep.Db
module Pager = Fieldrep_storage.Pager
module Stats = Fieldrep_storage.Stats
module W = Workloads

(* The same collector settings on every run and every commit compared. *)
let () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

let sub_runs = 3

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map (fun w -> w.W.name) W.all)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let args () =
  let get = Hashtbl.create 4 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace get (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let int k =
    match Option.bind (Hashtbl.find_opt get k) int_of_string_opt with
    | Some v -> v
    | None -> usage ()
  in
  let workload =
    match Hashtbl.find_opt get "workload" with
    | Some n -> (
        match List.find_opt (fun w -> w.W.name = n) W.all with
        | Some w -> w
        | None -> usage ())
    | None -> usage ()
  in
  let seconds = int "seconds" and seed = int "seed" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, seed, seconds, trace = 1)

let seconds_since t0 = float_of_int (Trace.now () - t0) /. 1e9

let timed_setup (w : W.t) ~seed ~units =
  let t0 = Trace.now () in
  let inst = w.W.setup ~seed ~units in
  (inst, seconds_since t0)

(* The Db.stats counters the metrics use, summed over the databases a
   timed phase ran on.  Reading Stats fields happens here only. *)
type counts = {
  reads : int;
  writes : int;
  hits : int;
  allocated : int;
  objects_read : int;
  objects_written : int;
  wal_appends : int;
  wal_bytes : int;
  wal_flushes : int;
  commits : int;
  aborts : int;
  lock_waits : int;
  deadlocks : int;
  undo : int;
  shipped : int;
  acks : int;
}

let counts dbs =
  List.fold_left
    (fun c db ->
      let s = Db.stats db in
      {
        reads = c.reads + s.Stats.page_reads;
        writes = c.writes + s.Stats.page_writes;
        hits = c.hits + s.Stats.buffer_hits;
        allocated = c.allocated + s.Stats.pages_allocated;
        objects_read = c.objects_read + s.Stats.objects_read;
        objects_written = c.objects_written + s.Stats.objects_written;
        wal_appends = c.wal_appends + s.Stats.wal_appends;
        wal_bytes = c.wal_bytes + s.Stats.wal_bytes;
        wal_flushes = c.wal_flushes + s.Stats.wal_flushes;
        commits = c.commits + s.Stats.txn_commits;
        aborts = c.aborts + s.Stats.txn_aborts;
        lock_waits = c.lock_waits + s.Stats.lock_waits;
        deadlocks = c.deadlocks + s.Stats.deadlocks;
        undo = c.undo + s.Stats.undo_applied;
        shipped = c.shipped + s.Stats.frames_shipped;
        acks = c.acks + s.Stats.acks_waited;
      })
    {
      reads = 0;
      writes = 0;
      hits = 0;
      allocated = 0;
      objects_read = 0;
      objects_written = 0;
      wal_appends = 0;
      wal_bytes = 0;
      wal_flushes = 0;
      commits = 0;
      aborts = 0;
      lock_waits = 0;
      deadlocks = 0;
      undo = 0;
      shipped = 0;
      acks = 0;
    }
    dbs

let total_pages dbs =
  List.fold_left (fun n db -> n + Pager.total_pages (Db.pager db)) 0 dbs

(* One timed phase with everything the metrics need around it. *)
type measured = {
  phase : W.phase;
  st : counts;  (* counters over the phase alone *)
  words : float;  (* minor words allocated during the phase *)
  pages0 : int;
  pages1 : int;
  wall_s : float;
}

let measure (inst : W.instance) tr =
  let dbs = inst.W.dbs in
  Gc.compact ();
  List.iter (fun db -> Pager.reset_stats (Db.pager db)) dbs;
  let pages0 = total_pages dbs in
  let w0 = Gc.minor_words () in
  let t0 = Trace.now () in
  let phase = inst.W.timed tr in
  let wall_s = seconds_since t0 in
  let words = Gc.minor_words () -. w0 in
  { phase; st = counts dbs; words; pages0; pages1 = total_pages dbs; wall_s }

let us ns = float_of_int ns /. 1e3

let json_metrics metrics =
  metrics
  |> List.map (fun (name, v, unit) ->
         let v = if Float.is_finite v then v else 0.0 in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
  |> String.concat ", "

let result ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (json_metrics metrics)

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

let bases fields = print_endline ("{\"bases\": " ^ json_object fields ^ "}")

(* Attempted units: completed ones plus failed ones, plus the output
   checks.  A run is correct when no check failed and no unit raised or
   answered wrongly; refused units (discarded programs) only fail. *)
let checked (inst : W.instance) (m : measured) =
  let checks, bad = inst.W.check () in
  let attempted = m.phase.W.units + m.phase.W.failed + checks in
  (attempted, m.phase.W.failed + bad, m.phase.W.wrong + bad)

(* Wall-clock figures of one timed phase: the median batch rate and the
   latency percentiles.  They are printed on the bases line and in the
   traced run, not gated: README.md (Steadiness) shows why. *)
type wall = { ops_s : float; p50_us : float; p99_us : float; samples : int }

let wall (p : W.phase) =
  let sorted = Array.copy p.W.latencies in
  Array.sort compare sorted;
  {
    ops_s = Stat.median p.W.rates;
    p50_us = us (Stat.percentile sorted 50.0);
    p99_us = us (Stat.percentile sorted 99.0);
    samples = Array.length sorted;
  }

(* One untraced sub-run: set up, time the phase, check the output. *)
type sub = {
  metrics : (string * float * string) list;
  facts : (string * string) list;  (* bases, sample counts, wall clock *)
  attempted : int;
  failed : int;
  wrong : int;
}

let json_list f a =
  "[" ^ String.concat ", " (Array.to_list (Array.map f a)) ^ "]"

let sub_run (w : W.t) ~seed ~units =
  Gc.compact ();
  let inst, setup_s = timed_setup w ~seed ~units in
  let m = measure inst Trace.off in
  let attempted, failed, wrong = checked inst m in
  inst.W.close ();
  let p = m.phase and st = m.st in
  let wl = wall p in
  let touched = st.hits + st.reads + st.writes in
  (* an op is an attempt: for contended a transaction attempt, so the
     storm's chaos stays in attempts_per_commit alone *)
  let per_op x = Stat.value (Stat.ratio ~base:"op" x p.W.attempts) in
  let attempts = Stat.ratio ~base:"commit" p.W.attempts p.W.units in
  let space = Stat.ratio ~base:"start_pages" m.pages1 m.pages0 in
  let beyond = Stat.beyond ~n:wl.samples 99.0 in
  {
    metrics =
      [
        ("setup_s", setup_s, "s");
        ("pages_per_op", per_op touched, "pages/op");
        ("words_per_op", per_op (int_of_float m.words), "words/op");
        ("attempts_per_commit", Stat.value attempts, "attempts/commit");
        ("space_amp", Stat.value space, "ratio");
      ];
    facts =
      [
        ("setup_s", Printf.sprintf "%.4f" setup_s);
        ("units", string_of_int p.W.units);
        ("attempts", string_of_int p.W.attempts);
        ("ops_s", Printf.sprintf "%.1f" wl.ops_s);
        ("p50_us", Printf.sprintf "%.3f" wl.p50_us);
        ("p99_us", Printf.sprintf "%.3f" wl.p99_us);
        ("latency_samples", string_of_int wl.samples);
        ("samples_beyond_p99", string_of_int beyond);
        ("batch_rates", json_list (Printf.sprintf "%.0f") p.W.rates);
        ("phase_wall_s", Printf.sprintf "%.4f" m.wall_s);
        ("pages_touched", string_of_int touched);
        ("physical_reads", string_of_int st.reads);
        ("physical_writes", string_of_int st.writes);
        ("minor_words", Printf.sprintf "%.0f" m.words);
        ("total_pages_start", string_of_int m.pages0);
        ("total_pages_end", string_of_int m.pages1);
        ( "replica_pages_diverged",
          string_of_int inst.W.tally.W.pages_diverged );
      ];
    attempted;
    failed;
    wrong;
  }

(* The end-to-end run: [sub_runs] identical sub-runs of the same seed,
   each with its own set-up, and every metric the median of its sub-run
   values. *)
let end_to_end (w : W.t) ~seed ~units =
  let subs = List.init sub_runs (fun _ -> sub_run w ~seed ~units) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 subs in
  let median name =
    Stat.median
      (Array.of_list
         (List.map
            (fun s ->
              let _, v, _ = List.find (fun (n, _, _) -> n = name) s.metrics in
              v)
            subs))
  in
  let value (name, _, unit) = (name, median name, unit) in
  bases
    (List.mapi
       (fun k s -> (Printf.sprintf "sub_run_%d" (k + 1), json_object s.facts))
       subs);
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  result
    ~correct:(sum (fun s -> s.wrong) = 0)
    ~attempted:(sum (fun s -> s.attempted))
    ~failed:(sum (fun s -> s.failed))
    (List.map value (List.hd subs).metrics
    @ [ ("peak_heap_mb", float_of_int top *. 8.0 /. 1048576.0, "MB") ])

(* Per-structure disk I/O from Db.io_breakdown, by kind of file. *)
let io_kinds =
  [
    ("set ", "data");
    ("index ", "index");
    ("link ", "link");
    ("S' ", "sprime");
    ("output", "output");
  ]

let io_by_kind dbs =
  let tbl = Hashtbl.create 8 in
  let get kind = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl kind) in
  List.iter
    (fun (label, r, w) ->
      let prefix_of (prefix, _) = String.starts_with ~prefix label in
      match List.find_opt prefix_of io_kinds with
      | Some (_, kind) ->
          let r0, w0 = get kind in
          Hashtbl.replace tbl kind (r0 + r, w0 + w)
      | None -> ())
    (List.concat_map Db.io_breakdown dbs);
  List.map (fun (_, kind) -> (kind, get kind)) io_kinds

let per_layer (w : W.t) ~seed ~units =
  let units = min units w.W.trace_cap in
  (* untraced baseline for the overhead figure, on its own set-up *)
  let base_inst, _ = timed_setup w ~seed ~units in
  let base = measure base_inst Trace.off in
  base_inst.W.close ();
  Gc.compact ();
  let inst, _ = timed_setup w ~seed ~units in
  let tr = Trace.create ~on:true ~cap:1_000_000 in
  let m = measure inst tr in
  let io = io_by_kind inst.W.dbs in
  let attempted, failed, wrong = checked inst m in
  let p = m.phase and st = m.st and tally = inst.W.tally in
  let out = ref [] in
  let emit name v unit = out := (name, v, unit) :: !out in
  let ratio name ~what r = emit name (Stat.value r) (Stat.unit_of ~what r) in
  let per_op name x =
    ratio name ~what:"count" (Stat.ratio ~base:"op" x p.W.attempts)
  in
  let commits = st.commits in
  let per_commit name x =
    ratio name ~what:"count" (Stat.ratio ~base:"commit" x commits)
  in
  ratio "buffer_pool.hit_ratio" ~what:"hits"
    (Stat.ratio ~base:"lookup" st.hits (st.hits + st.reads));
  per_op "disk.reads_per_op" st.reads;
  per_op "disk.writes_per_op" st.writes;
  List.iter
    (fun (kind, (r, w)) ->
      per_op (Printf.sprintf "disk.%s_reads_per_op" kind) r;
      per_op (Printf.sprintf "disk.%s_writes_per_op" kind) w)
    io;
  per_op "heap_file.objects_read_per_op" st.objects_read;
  per_op "heap_file.objects_written_per_op" st.objects_written;
  per_op "heap_file.pages_allocated_per_op" st.allocated;
  ratio "engine.fanout_writes_per_update" ~what:"writes"
    (Stat.ratio ~base:"update" tally.W.fanout_writes tally.W.updates);
  ratio "exec.objects_read_per_row" ~what:"objects"
    (Stat.ratio ~base:"row" tally.W.row_objects_read tally.W.rows);
  per_commit "lock.waits_per_commit" st.lock_waits;
  per_commit "lock.deadlocks_per_commit" st.deadlocks;
  ratio "txn.undo_per_abort" ~what:"images"
    (Stat.ratio ~base:"abort" st.undo st.aborts);
  per_op "wal.appends_per_op" st.wal_appends;
  ratio "wal.bytes_per_op" ~what:"bytes"
    (Stat.ratio ~base:"op" st.wal_bytes p.W.attempts);
  per_commit "wal.flushes_per_commit" st.wal_flushes;
  per_commit "repl.frames_shipped_per_commit" st.shipped;
  per_commit "repl.acks_waited_per_commit" st.acks;
  emit "repl.pages_diverged" (float_of_int tally.W.pages_diverged) "count";
  let failed_r = Stat.ratio ~base:"attempt" failed attempted in
  ratio "checks.fail_ratio" ~what:"failed" failed_r;
  (* spans: self time per layer, and the replica's apply time per frame *)
  let self = Trace.self_ns tr in
  List.iter
    (fun (l, ns) ->
      ratio
        (Printf.sprintf "span.%s.self_ns_per_op" (Trace.layer_name l))
        ~what:"ns"
        (Stat.ratio ~base:"op" ns p.W.attempts))
    self;
  ratio "repl.apply_ns" ~what:"ns"
    (Stat.ratio ~base:"frame"
       (List.assoc Trace.Repl self)
       tally.W.frames_applied);
  let untraced = wall base.phase in
  let traced = (wall p).ops_s in
  (* a tail percentile needs samples beyond it (Stat.min_beyond) *)
  let tail_ok = Stat.supports ~n:untraced.samples 99.0 in
  if not tail_ok then prerr_endline "perfbench: too few samples for p99";
  emit "trace.untraced_ops_s" untraced.ops_s "1/s";
  emit "trace.untraced_p50_us" untraced.p50_us "us";
  emit "trace.untraced_p99_us" untraced.p99_us "us";
  emit "trace.traced_ops_s" traced "1/s";
  emit "trace.overhead"
    (if traced > 0.0 then (untraced.ops_s /. traced) -. 1.0 else 0.0)
    "ratio";
  emit "trace.spans_dropped" (float_of_int tr.Trace.dropped) "count";
  let probe = Layer_probe.run ~seed inst.W.built in
  List.iter (fun (name, v, unit) -> emit name v unit) probe;
  let spans_path = Printf.sprintf "spans_%s_%d.csv" w.W.name seed in
  Trace.write tr spans_path;
  bases
    [
      ("units", string_of_int p.W.units);
      ("commits", string_of_int commits);
      ("aborts", string_of_int st.aborts);
      ("updates", string_of_int tally.W.updates);
      ("rows", string_of_int tally.W.rows);
      ("frames_applied", string_of_int tally.W.frames_applied);
      ("spans", string_of_int tr.Trace.n);
      ("spans_file", Printf.sprintf "%S" spans_path);
    ];
  inst.W.close ();
  result ~correct:(wrong = 0 && tail_ok) ~attempted ~failed (List.rev !out)

let () =
  let w, seed, seconds, trace = args () in
  (* the units of one sub-run; a traced run times one phase of that size *)
  let g = w.W.granule in
  let units = max g (seconds * w.W.per_second / sub_runs / g * g) in
  if trace then per_layer w ~seed ~units else end_to_end w ~seed ~units
