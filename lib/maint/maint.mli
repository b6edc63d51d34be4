(** Background maintenance: resumable jobs interleaved with foreground
    transactions.

    A maintenance {e job} is a cursor over a heap file that advances in
    bounded {e work quanta}.  Each quantum:

    + prepares the per-source operation of each source on the next
      [quantum] pages — one read-only walk that names the data objects
      the operation will write —
    + acquires short-duration locks through the foreground lock manager —
      [IX] on each touched set, [X] on each touched object — under a
      job-scoped lock owner,
    + logs one [Maint_step] record (via the [log_step] callback) {e before}
      mutating anything, then applies the prepared operations in source
      order,
    + releases every lock it took.

    If any lock conflicts with a foreground transaction, the quantum
    releases whatever it acquired and {e yields} — nothing was logged,
    nothing was mutated, and the same quantum retries at the next pump.
    The queue rotates on a yield so one blocked job cannot starve the
    others.  The quantum size is the throttle: small quanta bound both the
    lock footprint and the work done between foreground operations.

    Durability is inherited from the logical-recovery model: the per-source
    operations (backfill, teardown) are idempotent, and the [Maint_step]
    record is logged before the quantum mutates pages, so replaying a
    logged quantum over a crashed store — however partial its writes —
    converges on the quantum's final state.

    This library is engine-agnostic: lib/core builds jobs from closures
    over its own engine entry points, which keeps the dependency arrow
    pointing from core to maint (mirroring [Wal.Recovery]'s applier). *)

module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Heap_file = Fieldrep_storage.Heap_file
module Lock = Fieldrep_txn.Lock

type job

val walk_job :
  label:string ->
  job_id:int ->
  owner:int ->
  set:string ->
  file:Heap_file.t ->
  prepare:(Oid.t -> (string * Oid.t) list * (unit -> unit)) ->
  log_step:(upto:int -> unit) ->
  complete:(unit -> unit) ->
  job
(** A resumable page-cursor walk over [file] (the heap file of [set]),
    starting at page 0.  [prepare oid] walks the source read-only and
    returns [(targets, apply)]: the [(set, object)] pairs the per-source
    operation will write {e besides} the source itself (the source and
    its set are locked implicitly), and the operation itself.  [apply]
    runs after every source of the quantum was prepared and locked, so it
    must re-read what it rewrites; it must be idempotent — a replayed
    quantum re-runs it.  [complete] runs once, after the cursor passes the
    last page (it should log [Maint_done] and flip the declaration's
    state). *)

val custom_job :
  label:string ->
  job_id:int ->
  step:(quantum:int -> [ `More | `Yield | `Done ]) ->
  complete:(unit -> unit) ->
  job
(** A job that manages its own progress (e.g. a scrub sweep): [step] runs
    one bounded quantum and reports whether work remains.  The queue
    counts its steps and yields in [Stats] and rotates it like any other
    job. *)

(** {1 The queue} *)

type t

val create : locks:Lock.t -> stats:Stats.t -> t

val enqueue : t -> job -> unit
(** Append to the queue (FIFO).  Raises [Invalid_argument] if a job with
    the same id is already queued. *)

val pending : t -> int
(** Queued (unfinished) jobs. *)

val jobs : t -> (string * int) list
(** [(label, job_id)] of every queued job, head first. *)

val find : t -> int -> job option

val backlog : t -> int
(** Heap pages the queued walk jobs have still to process — the value the
    [maint_backfill_pending] gauge tracks. *)

val step : t -> quantum:int -> [ `Progress | `Yield | `Idle ]
(** Run one quantum of the head job.  [`Progress]: the quantum ran (the
    job may or may not have completed).  [`Yield]: a foreground lock
    conflicted; the job released everything, moved to the back of the
    queue, and will retry.  [`Idle]: the queue is empty. *)

(** {1 Replay hooks}

    Recovery re-drives queued jobs from the log instead of pumping
    {!step}: locks are pointless (replay is single-threaded) and the
    already-logged records must not be logged again. *)

val advance_to : t -> job:int -> upto:int -> unit
(** Prepare and apply the per-source operation of walk job [job] over
    pages [cursor, upto) — lock-free and without calling [log_step] — and
    move its cursor to [upto].  Raises [Failure] on an unknown job id or a
    custom job: a logged [Maint_step] must name a queued walk job. *)

val finish : t -> job:int -> unit
(** Run [complete] for job [job] and dequeue it — the replay of a
    [Maint_done] record.  Raises [Failure] on an unknown job id. *)
