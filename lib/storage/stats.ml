type file_io = { mutable file_reads : int; mutable file_writes : int }

module File_table = Hashtbl.Make (Int)

type t = {
  mutable page_reads : int;
  mutable page_writes : int;
  mutable buffer_hits : int;
  mutable pages_allocated : int;
  mutable objects_read : int;
  mutable objects_written : int;
  mutable wal_appends : int;
  mutable wal_bytes : int;
  mutable recovery_replays : int;
  mutable txn_commits : int;
  mutable txn_aborts : int;
  mutable lock_waits : int;
  mutable deadlocks : int;
  mutable undo_applied : int;
  mutable checksum_failures : int;
  mutable scrub_pages : int;
  mutable repairs : int;
  mutable degraded_reads : int;
  mutable read_retries : int;
  mutable failed_reads : int;
  mutable wal_flushes : int;
  mutable frames_shipped : int;
  mutable frames_applied : int;
  mutable acks_waited : int;
  mutable replica_lag_bytes : int;
  mutable maint_steps : int;
  mutable maint_pages_walked : int;
  mutable maint_lock_yields : int;
  mutable maint_backfill_pending : int;
  mutable peer_deaths : int;
  mutable ack_demotions : int;
  mutable heartbeats_missed : int;
  mutable failovers : int;
  mutable reconnects : int;
  mutable deadlock_upgrades : int;
  by_file : file_io File_table.t;
}

type counter =
  | Page_reads
  | Page_writes
  | Buffer_hits
  | Pages_allocated
  | Objects_read
  | Objects_written
  | Wal_appends
  | Wal_bytes
  | Recovery_replays
  | Txn_commits
  | Txn_aborts
  | Lock_waits
  | Deadlocks
  | Undo_applied
  | Checksum_failures
  | Scrub_pages
  | Repairs
  | Degraded_reads
  | Read_retries
  | Failed_reads
  | Wal_flushes
  | Frames_shipped
  | Frames_applied
  | Acks_waited
  | Replica_lag_bytes
  | Maint_steps
  | Maint_pages_walked
  | Maint_lock_yields
  | Maint_backfill_pending
  | Peer_deaths
  | Ack_demotions
  | Heartbeats_missed
  | Failovers
  | Reconnects
  | Deadlock_upgrades

type kind = Counter | Gauge

(* The one table of counters, in [pp] order.  Every loop below ([reset],
   [diff], [pp]) and the bench JSON walk it, so a new counter is one field
   (zeroed in [create]), one constructor, one row here and one arm in each
   of [get]/[shift]. *)
let all =
  [
    (Page_reads, "reads", Counter);
    (Page_writes, "writes", Counter);
    (Buffer_hits, "hits", Counter);
    (Pages_allocated, "allocated", Counter);
    (Objects_read, "obj_read", Counter);
    (Objects_written, "obj_written", Counter);
    (Wal_appends, "wal_appends", Counter);
    (Wal_bytes, "wal_bytes", Counter);
    (Wal_flushes, "wal_flushes", Counter);
    (Recovery_replays, "replays", Counter);
    (Txn_commits, "commits", Counter);
    (Txn_aborts, "aborts", Counter);
    (Lock_waits, "lock_waits", Counter);
    (Deadlocks, "deadlocks", Counter);
    (Undo_applied, "undone", Counter);
    (Checksum_failures, "checksum_failures", Counter);
    (Scrub_pages, "scrub_pages", Counter);
    (Repairs, "repairs", Counter);
    (Degraded_reads, "degraded_reads", Counter);
    (Read_retries, "read_retries", Counter);
    (Failed_reads, "failed_reads", Counter);
    (Frames_shipped, "frames_shipped", Counter);
    (Frames_applied, "frames_applied", Counter);
    (Acks_waited, "acks_waited", Counter);
    (Replica_lag_bytes, "replica_lag_bytes", Gauge);
    (Maint_steps, "maint_steps", Counter);
    (Maint_pages_walked, "maint_pages_walked", Counter);
    (Maint_lock_yields, "maint_lock_yields", Counter);
    (Maint_backfill_pending, "maint_backfill_pending", Gauge);
    (Peer_deaths, "peer_deaths", Counter);
    (Ack_demotions, "ack_demotions", Counter);
    (Heartbeats_missed, "heartbeats_missed", Counter);
    (Failovers, "failovers", Counter);
    (Reconnects, "reconnects", Counter);
    (Deadlock_upgrades, "deadlock_upgrades", Counter);
  ]

let[@inline] get t = function
  | Page_reads -> t.page_reads
  | Page_writes -> t.page_writes
  | Buffer_hits -> t.buffer_hits
  | Pages_allocated -> t.pages_allocated
  | Objects_read -> t.objects_read
  | Objects_written -> t.objects_written
  | Wal_appends -> t.wal_appends
  | Wal_bytes -> t.wal_bytes
  | Recovery_replays -> t.recovery_replays
  | Txn_commits -> t.txn_commits
  | Txn_aborts -> t.txn_aborts
  | Lock_waits -> t.lock_waits
  | Deadlocks -> t.deadlocks
  | Undo_applied -> t.undo_applied
  | Checksum_failures -> t.checksum_failures
  | Scrub_pages -> t.scrub_pages
  | Repairs -> t.repairs
  | Degraded_reads -> t.degraded_reads
  | Read_retries -> t.read_retries
  | Failed_reads -> t.failed_reads
  | Wal_flushes -> t.wal_flushes
  | Frames_shipped -> t.frames_shipped
  | Frames_applied -> t.frames_applied
  | Acks_waited -> t.acks_waited
  | Replica_lag_bytes -> t.replica_lag_bytes
  | Maint_steps -> t.maint_steps
  | Maint_pages_walked -> t.maint_pages_walked
  | Maint_lock_yields -> t.maint_lock_yields
  | Maint_backfill_pending -> t.maint_backfill_pending
  | Peer_deaths -> t.peer_deaths
  | Ack_demotions -> t.ack_demotions
  | Heartbeats_missed -> t.heartbeats_missed
  | Failovers -> t.failovers
  | Reconnects -> t.reconnects
  | Deadlock_upgrades -> t.deadlock_upgrades

(* The one mutation point for the counter fields (rule C1 bans bare
   [s.f <- ...] outside this module), so moving the counters to [Atomic]
   later is a change to this match, not to every call site.  It adds a
   delta rather than storing a value, so [add] costs two switches. *)
let[@inline] shift t c n =
  match c with
  | Page_reads -> t.page_reads <- t.page_reads + n
  | Page_writes -> t.page_writes <- t.page_writes + n
  | Buffer_hits -> t.buffer_hits <- t.buffer_hits + n
  | Pages_allocated -> t.pages_allocated <- t.pages_allocated + n
  | Objects_read -> t.objects_read <- t.objects_read + n
  | Objects_written -> t.objects_written <- t.objects_written + n
  | Wal_appends -> t.wal_appends <- t.wal_appends + n
  | Wal_bytes -> t.wal_bytes <- t.wal_bytes + n
  | Recovery_replays -> t.recovery_replays <- t.recovery_replays + n
  | Txn_commits -> t.txn_commits <- t.txn_commits + n
  | Txn_aborts -> t.txn_aborts <- t.txn_aborts + n
  | Lock_waits -> t.lock_waits <- t.lock_waits + n
  | Deadlocks -> t.deadlocks <- t.deadlocks + n
  | Undo_applied -> t.undo_applied <- t.undo_applied + n
  | Checksum_failures -> t.checksum_failures <- t.checksum_failures + n
  | Scrub_pages -> t.scrub_pages <- t.scrub_pages + n
  | Repairs -> t.repairs <- t.repairs + n
  | Degraded_reads -> t.degraded_reads <- t.degraded_reads + n
  | Read_retries -> t.read_retries <- t.read_retries + n
  | Failed_reads -> t.failed_reads <- t.failed_reads + n
  | Wal_flushes -> t.wal_flushes <- t.wal_flushes + n
  | Frames_shipped -> t.frames_shipped <- t.frames_shipped + n
  | Frames_applied -> t.frames_applied <- t.frames_applied + n
  | Acks_waited -> t.acks_waited <- t.acks_waited + n
  | Replica_lag_bytes -> t.replica_lag_bytes <- t.replica_lag_bytes + n
  | Maint_steps -> t.maint_steps <- t.maint_steps + n
  | Maint_pages_walked -> t.maint_pages_walked <- t.maint_pages_walked + n
  | Maint_lock_yields -> t.maint_lock_yields <- t.maint_lock_yields + n
  | Maint_backfill_pending ->
      t.maint_backfill_pending <- t.maint_backfill_pending + n
  | Peer_deaths -> t.peer_deaths <- t.peer_deaths + n
  | Ack_demotions -> t.ack_demotions <- t.ack_demotions + n
  | Heartbeats_missed -> t.heartbeats_missed <- t.heartbeats_missed + n
  | Failovers -> t.failovers <- t.failovers + n
  | Reconnects -> t.reconnects <- t.reconnects + n
  | Deadlock_upgrades -> t.deadlock_upgrades <- t.deadlock_upgrades + n

let reset t =
  List.iter (fun (c, _, _) -> shift t c (-get t c)) all;
  File_table.reset t.by_file

let create () =
  {
    page_reads = 0;
    page_writes = 0;
    buffer_hits = 0;
    pages_allocated = 0;
    objects_read = 0;
    objects_written = 0;
    wal_appends = 0;
    wal_bytes = 0;
    recovery_replays = 0;
    txn_commits = 0;
    txn_aborts = 0;
    lock_waits = 0;
    deadlocks = 0;
    undo_applied = 0;
    checksum_failures = 0;
    scrub_pages = 0;
    repairs = 0;
    degraded_reads = 0;
    read_retries = 0;
    failed_reads = 0;
    wal_flushes = 0;
    frames_shipped = 0;
    frames_applied = 0;
    acks_waited = 0;
    replica_lag_bytes = 0;
    maint_steps = 0;
    maint_pages_walked = 0;
    maint_lock_yields = 0;
    maint_backfill_pending = 0;
    peer_deaths = 0;
    ack_demotions = 0;
    heartbeats_missed = 0;
    failovers = 0;
    reconnects = 0;
    deadlock_upgrades = 0;
    by_file = File_table.create 16;
  }

(* The process-wide block: every [add] and [set] lands here too, and nothing
   resets it, so a caller measures any span of work — across every database
   it builds — as the [diff] of two [copy]s. *)
let grand = create ()

let copy_io io = { file_reads = io.file_reads; file_writes = io.file_writes }

let copy t =
  let by_file = File_table.create 16 in
  File_table.iter (fun file io -> File_table.replace by_file file (copy_io io)) t.by_file;
  { t with by_file }

let add t c n =
  shift t c n;
  shift grand c n

let bump t c = add t c 1

let set t c v =
  shift t c (v - get t c);
  shift grand c (v - get grand c)

(* A file's counters are one mutable record, made at its first I/O, so
   counting a read or a write after that allocates nothing. *)
let io_of t file =
  match File_table.find t.by_file file with
  | io -> io
  | exception Not_found ->
      let io = { file_reads = 0; file_writes = 0 } in
      File_table.replace t.by_file file io;
      io

let record_read t ~file =
  bump t Page_reads;
  let io = io_of t file in
  io.file_reads <- io.file_reads + 1

let record_write t ~file =
  bump t Page_writes;
  let io = io_of t file in
  io.file_writes <- io.file_writes + 1

let file_io t ~file =
  match File_table.find t.by_file file with
  | io -> (io.file_reads, io.file_writes)
  | exception Not_found -> (0, 0)

let diff now before =
  let d = copy now in
  File_table.iter
    (fun file io0 ->
      let io = io_of d file in
      io.file_reads <- io.file_reads - io0.file_reads;
      io.file_writes <- io.file_writes - io0.file_writes)
    before.by_file;
  List.iter
    (fun (c, _, kind) -> if kind = Counter then shift d c (-get before c))
    all;
  d

let total_io t = t.page_reads + t.page_writes

let pp fmt t =
  List.iteri
    (fun i (c, name, _) ->
      Format.fprintf fmt "%s%s=%d" (if i = 0 then "" else " ") name (get t c))
    all
