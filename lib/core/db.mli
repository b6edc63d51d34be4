(** The object engine: the public face of the field-replication DBMS.

    A [Db.t] combines one pager (simulated disk + buffer pool), the catalog,
    one heap file per set, B+-tree indexes, and the replication engine.
    Every data mutation goes through this module so that indexes and
    replicated data stay consistent (paper §3–§5).

    {1 Typical session}

    {[
      let db = Db.create () in
      Db.define_type db (Ty.make ~name:"DEPT" [ ... ]);
      Db.define_type db (Ty.make ~name:"EMP" [ ... ]);
      Db.create_set db ~name:"Dept" ~elem_type:"DEPT";
      Db.create_set db ~name:"Emp1" ~elem_type:"EMP";
      ...insert objects...
      Db.replicate db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name");
      Db.deref db emp "dept.name"   (* no functional join *)
    ]} *)

module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Key = Fieldrep_btree.Key
module Txn = Fieldrep_txn.Txn
module Lock = Fieldrep_txn.Lock

type t

type txn = Txn.t
(** A transaction handle — see {!begin_txn}. *)

type backend = Fieldrep_storage.Pager.backend = Mem | File of string option
    (** Page-store backend (re-exported from the storage layer so callers
        never name [Disk]): [Mem] is the in-memory array store, [File dir]
        keeps every heap file as a real on-disk file under [dir] (a fresh
        auto-removed temp directory when [None]).  Defaults to the
        [FIELDREP_BACKEND] environment variable ([mem] when unset). *)

val create :
  ?page_size:int ->
  ?frames:int ->
  ?durable:bool ->
  ?wal_path:string ->
  ?backend:backend ->
  ?wal_fsync:bool ->
  ?wal_flush_limit:int ->
  unit ->
  t
(** [~durable:true] attaches a write-ahead log: every DDL/DML mutation
    appends a logical redo record — before touching any page — so the
    database can be rebuilt after a crash from the last checkpoint plus the
    log tail ({!recover}).  The log lives at [wal_path] when given, else at
    a fresh temp file; passing [wal_path] alone implies durability.
    [backend] selects the page store (see {!type-backend}).
    [wal_fsync] and [wal_flush_limit] are passed through to
    {!Fieldrep_wal.Wal.open_}: [wal_fsync:true] makes every WAL group
    commit an honest [fsync(2)] barrier, and [wal_flush_limit:1] defeats
    group commit (one fsync per append — the benchmark baseline). *)

val close : t -> unit
(** Close the WAL (if any) and the pager underneath: flush the buffer
    pool, release file descriptors and remove any auto-created backing
    directory.  The handle must not be used afterwards.  Optional for
    [Mem] databases (the GC reclaims them), but file-backed databases
    should be closed to bound open descriptors and temp-dir growth. *)

val batching : t -> bool
(** Whether replication propagation runs page-batched in physical order
    (the default) — see {!Fieldrep_replication.Engine.env}. *)

val set_batching : t -> bool -> unit
(** Toggle page-batched propagation; [false] restores the per-object
    reference path, used as the comparison baseline in tests and
    benchmarks. *)

val schema : t -> Schema.t
val pager : t -> Fieldrep_storage.Pager.t
val stats : t -> Stats.t
val engine : t -> Fieldrep_replication.Engine.env

val wal : t -> Fieldrep_wal.Wal.t option
(** The attached write-ahead log, when the database is durable. *)

(** {1 Transactions}

    Multi-operation ACID transactions under strict two-phase locking.
    Pass the handle as [?txn] to any DML or read entry point; the
    operation then acquires its whole hierarchical lock set (intention
    locks on sets, shared/exclusive locks on objects — including every
    object that replication propagation will touch, enumerated through
    the inverted paths) {e before} executing, so a refused operation has
    no partial effects.  Locks are held until {!commit} or {!abort}.

    Contention surfaces as exceptions from the lock manager, raised
    before the operation has done anything:

    - {!Fieldrep_txn.Lock.Would_block} — another transaction holds a
      conflicting lock; retry the operation later or abort.
    - {!Fieldrep_txn.Lock.Deadlock} — granting would close a cycle in
      the wait-for graph; the requester is the victim and should abort.

    Operations issued without [?txn] are autocommitted singletons,
    byte-identical to the pre-transactional behaviour; mixing them with
    concurrent transactions is unprotected by locks. *)

val begin_txn : t -> txn
(** Start a transaction.  Nothing is logged until its first mutation: each
    operation appends one [Txn_op] record that carries the object's
    before-image at first touch, and only a transaction that logged one
    gets a commit/abort marker, so read-only transactions leave no trace
    in the log. *)

val commit : t -> txn -> unit
(** Release the transaction's delete slots for reuse, append the
    [Txn_commit] marker, and release all its locks. *)

val abort : t -> txn -> unit
(** Roll the transaction back: every touched object is restored to its
    before-image (captured at first touch) through the normal engine
    code, so indexes, link objects, hidden copies and S' objects follow.
    The compensations are logged as plain records plus a [Txn_abort]
    marker, making the rollback itself replayable.  Lazy-propagation
    invalidations the transaction queued are repaired so no deferred
    work leaks to other transactions. *)

val active_txn_count : t -> int

val lock_manager : t -> Lock.t
(** The hierarchical lock manager (exposed for tests and benchmarks). *)

(** {1 DDL} *)

val define_type : t -> Ty.t -> unit
val create_set : t -> ?reserve:int -> name:string -> elem_type:string -> unit -> unit
(** [reserve] bytes are kept free per page during inserts so later
    replication declarations can add hidden fields without relocating
    objects (see {!Fieldrep_storage.Heap_file.create}). *)

val replicate :
  t -> ?options:Schema.rep_options -> strategy:Schema.strategy -> Path.t -> unit
(** Declare a replication path (paper §3.1).  Raises [Invalid_argument]
    if the exact path is already replicated (and not dropped).

    With no transactions active, the derived state is bulk-built before
    the call returns.  With transactions active, the declaration is
    installed {e online}: it enters the [Building] state — concurrent
    writers maintain it from that instant — and existing objects are
    backfilled by a background-maintenance job (pump {!maint_step} or
    {!maint_drain}).  Reads use the hidden copies once the declaration
    turns [Active]. *)

val unreplicate : t -> Path.t -> unit
(** Drop a replication declaration online.  The declaration enters the
    [Dropping] state — reads revert to the functional join immediately —
    and its derived state (hidden copies, link objects, S' records) is
    torn down incrementally by a background-maintenance job.  With no
    transactions active the job is drained before the call returns.
    Raises [Invalid_argument] if the path is not replicated, is still
    building (or already dropping), or an index reads it. *)

val replication_state : t -> Path.t -> Schema.rep_state option
(** Lifecycle state of the path's latest declaration ([None] if the path
    is not replicated, or every declaration of it has been dropped). *)

(** {2 Background maintenance}

    Online reconfigurations (and scrub sweeps) run as {e maintenance
    jobs}: resumable cursors over heap files that advance in bounded work
    quanta, locking through the foreground lock manager and yielding to
    conflicting transactions.  Single-threaded and cooperative — the
    application decides when maintenance runs by pumping these calls
    between its own operations.  The quantum is the throttle: pages
    walked (and locks held) per pump. *)

val maint_step : ?quantum:int -> t -> [ `Progress | `Yield | `Idle ]
(** Run one quantum (default 4 pages) of the head maintenance job.
    [`Yield] means a foreground lock conflicted: nothing was done, the
    job moved to the back of the queue and will retry. *)

val maint_drain : ?quantum:int -> t -> unit
(** Pump until the queue is empty.  Raises [Invalid_argument] if every
    queued job is blocked on locks held by active transactions. *)

val maint_pending : t -> int
(** Queued (unfinished) maintenance jobs. *)

val maint_backlog : t -> int
(** Heap pages the queued jobs have still to walk. *)

val maint_jobs : t -> (string * int) list
(** [(label, job id)] of every queued job, head first. *)

val build_index : t -> name:string -> set:string -> field:string -> clustered:bool -> unit
(** Build a B+-tree over a scalar field, or over a replicated path given as
    a path string such as ["Emp1.dept.org.name"] (paper §3.3.4).  Bulk-loads
    from existing data and is maintained incrementally afterwards. *)

(** {1 DML} *)

val insert : ?txn:txn -> t -> set:string -> Value.t list -> Oid.t
(** Values for the user fields, in declaration order.  Typechecked; [VRef]
    values are verified to point at live objects of the right type. *)

val delete : ?txn:txn -> t -> set:string -> Oid.t -> unit
(** Raises [Invalid_argument] if the object is still referenced along a
    replication path.  Inside a transaction the slot is tombstoned, not
    freed: the OID cannot be recycled until the transaction resolves, so
    an abort can revive the object in place. *)

val update_field : ?txn:txn -> t -> set:string -> Oid.t -> field:string -> Value.t -> unit
(** Update one user field.  Scalar updates propagate to replicated copies;
    reference updates restructure the inverted paths. *)

(** {1 Reads} *)

val get : ?txn:txn -> t -> set:string -> Oid.t -> Record.t
(** The raw stored record (user + hidden values). *)

val user_values : t -> set:string -> Record.t -> Value.t list
(** The user-visible fields only. *)

val field_value : t -> set:string -> Record.t -> string -> Value.t
(** A user field by name. *)

type expr
(** A field or path expression compiled against the schema: the planner's
    choice between an in-place copy (no join), the S' object (one hop) and
    the functional joins, made once.  A plan is only valid while the schema
    and the replication declarations it was compiled against stand; compile
    it per query, not per database. *)

val expr : t -> set:string -> string -> expr
(** [expr db ~set "dept.org.name"] validates and compiles a dotted path
    rooted at [set]'s objects.  A plain field (["salary"]) is a walk of
    zero hops.  Raises [Invalid_argument] if a step is not a reference
    attribute or the last part is not a field. *)

val eval : ?txn:txn -> ?oid:Oid.t -> t -> expr -> Record.t -> Value.t
(** Evaluate a compiled expression on an already-fetched record of its set.
    Uses a replicated copy when the plan has one and falls back to actual
    dereferencing otherwise; [VNull] if a reference on the way is null.
    Pass [oid] when known: lazily-propagated paths use it to consult the
    invalidation table and repair stale hidden copies on read; without it
    they fall back to evaluating the references whenever anything is
    pending. *)

val joins : expr -> int
(** Number of functional joins {!eval} performs per record: 0 for a plain
    field or a path covered in place, 1 for a path covered by separate
    replication, else one per reference step. *)

val deref : ?txn:txn -> t -> set:string -> Oid.t -> string -> Value.t
(** [deref db ~set oid "dept.org.name"] reads the object and evaluates the
    expression on it: [eval ~oid db (expr db ~set s) (get db ~set oid)].
    The compiled expression is kept per [(set, s)] until the schema's
    {!Schema.generation} moves, so a declaration or a reconfiguration
    step replans; a path that fails to compile raises on every call. *)

val deref_would_join : t -> set:string -> string -> int
(** [joins (expr db ~set s)], through {!deref}'s plan cache: the
    planner's choice, for tests and benchmarks. *)

val scan : ?txn:txn -> t -> set:string -> (Oid.t -> Record.t -> unit) -> unit
(** Physical-order scan.  A transaction is charged its whole I/O, [f]'s
    included. *)

val set_size : t -> string -> int
val set_pages : t -> string -> int

(** {1 Index access} *)

val index_lookup : ?txn:txn -> t -> index:string -> Key.t -> Oid.t list

val index_range :
  ?txn:txn ->
  t -> index:string -> lo:Key.t -> hi:Key.t -> init:'a -> f:('a -> Key.t -> Oid.t -> 'a) -> 'a

val key_of_value : Value.t -> Key.t option
(** The B+-tree key of a scalar value; [None] for references and nulls. *)

val find_index : t -> set:string -> field:string -> Schema.index_def option
(** An index usable for a predicate on [set.field], if any. *)

val set_indexes : t -> set:string -> Schema.index_def list
(** The indexes an insert, a delete or a hidden-copy update of [set]
    maintains: the per-set list kept as indexes are built. *)

type index_stats = { entries : int; height : int; leaves : int; pages : int }

val index_stats : t -> index:string -> index_stats

(** {1 Inverse references} *)

type inverse_method = Via_links | Via_scan

val referencers :
  t -> source_set:string -> attr:string -> Oid.t -> Oid.t list * inverse_method
(** [referencers db ~source_set:"Emp1" ~attr:"dept" d] is the list of
    Emp1 objects whose [dept] currently references [d] — a bidirectional
    reference attribute (paper §8).  Answered from the inverted-path link
    objects when a replication declaration maintains them ([Via_links],
    no scan), by a set scan otherwise. *)

val check_integrity : t -> unit
(** Replication invariants, index invariants and every set, link and S'
    file's free-space map ({!Fieldrep_storage.Heap_file.check}); raises
    [Failure]. *)

val scrub : t -> Fieldrep_scrub.Scrub.report
(** Online scrub and self-repair.  Verifies the checksum of every data,
    link and S' page, then compares all derived replication state (hidden
    copies, link-object memberships, S' records) against a recomputation
    from the source objects and repairs divergences in place.  Corrupt link
    and S' pages are rebuilt from scratch — they hold pure redundancy;
    corrupt {e data} pages are salvaged when possible but their source
    fields are only ever {e reported} as suspect, never silently rewritten,
    because no second authoritative copy exists.  On a durable database
    every repair is WAL-logged (as [Scrub_repair]) before it is applied, so
    {!recover} replays repairs after a crash.

    Runs alongside active transactions: the page sweep is interleaved with
    any queued maintenance jobs, and each repair takes short X locks under
    a job-scoped owner — a repair that conflicts with a transaction's
    locks is deferred (reported in [unrepairable]) for a later scrub.
    Replication declarations mid-backfill or mid-teardown are skipped;
    their maintenance job owns that state. *)

val space_report : t -> (string * int) list
(** [(category, pages)] for data sets, indexes, link files and S' files. *)

val io_breakdown : t -> (string * int * int) list
(** Per-structure (label, page reads, page writes) attribution of the I/O
    since the last stats reset: which sets, indexes, link files and S'
    files a query actually touched. *)

val dangling_references : t -> (string * Oid.t * string) list
(** Referential-integrity audit: every (set, object, field) whose reference
    attribute points at a dead object or an object of the wrong type.
    Replication paths are protected by the engine; this covers the plain
    references the paper's model leaves to the application. *)

(** {1 Database images} *)

val image : t -> string
(** The database as one sealed image: the catalog as the
    {!Fieldrep_wal.Wal} frames that would redo it, and every data, index,
    link and S' page, after lazy propagations, the log and the pool are
    flushed.  Raises [Fieldrep_storage.Disk.Corrupt_page] on a page that
    fails its checksum ({!scrub} first). *)

val save : t -> string -> unit
(** Write {!image} to a file. *)

val load : ?frames:int -> ?backend:backend -> string -> t
(** Reopen an image written by {!save}.  Raises [Invalid_argument] on a
    foreign, older-format, truncated or corrupt image.  The reopened
    database is not durable;
    use {!recover} to reattach the log.  [backend] selects the page store
    the image is restored into (images are backend-agnostic: a database
    saved from a [Mem] store can be reopened on [File] and vice versa). *)

(** {1 Checkpoints and crash recovery}

    The durability protocol is redo-from-checkpoint: a checkpoint is an
    ordinary {!save} image stamped with the log's LSN, and {!recover}
    discards the crashed in-memory disk entirely — it reopens the
    checkpoint and redoes the log tail through the normal DML code, which
    re-runs index maintenance and replication propagation (re-queuing lazy
    invalidations) exactly as the original run did.  Determinism of
    physical allocation makes the replayed state converge on the uncrashed
    one. *)

val checkpoint : t -> string -> unit
(** {!save} plus an active-transaction guard: flushes pending lazy
    propagations and the buffer pool, then writes the LSN-stamped image.
    Records at or below the stamp are never redone.  Raises
    [Invalid_argument] while transactions are active — in-flight undo
    state lives only in memory, so such an image could not be rolled
    back after a restart. *)

val recover : ?frames:int -> ?wal_path:string -> ?backend:backend -> string -> t
(** [recover path] reopens the checkpoint image at [path] and replays the
    tail of its write-ahead log ([wal_path] overrides the log location
    recorded in the image — use it when the log was moved, or to attach a
    fresh log to a copied image).  The recovered database is durable and
    keeps appending to the same log.  Ends by re-verifying every
    replication invariant; raises [Failure] if the redo did not converge.

    Transactions that were live at the crash (a logged footprint but no
    commit/abort marker) are rolled back from their logged before-images
    after the redo pass, and a [Txn_abort] marker is appended for each:
    the recovered state contains exactly the committed transactions. *)

(** {1 Streaming replication (replica side)}

    A replica is a database reopened from a master's checkpoint image that
    then applies the master's log records as they arrive over the wire
    (see {!Fieldrep_repl.Repl}), instead of generating its own.  It serves
    reads — {!get}, {!deref}, {!scan}, index access — while every mutating
    entry point raises [Invalid_argument]. *)

val open_replica : ?frames:int -> ?backend:backend -> string -> t
(** [open_replica image] opens the {!image} bytes themselves as a
    read-only replica, with the errors of {!load}.  Not durable: the
    master's log is the log; the replica redoes shipped records straight
    into its pages. *)

val is_replica : t -> bool

val replica_apply :
  t -> ((int64 -> Fieldrep_wal.Wal.record -> unit) -> 'a) -> 'a
(** [replica_apply t f] opens one replay bracket for a shipped batch and
    runs [f apply] inside it; [f] calls [apply lsn record] once per record,
    which redoes it through the streaming redo path
    ({!Fieldrep_wal.Recovery.feed}) and counts [frames_applied].  Records
    must arrive in LSN order with no gaps — ordering, gap detection and
    re-request live in the transport layer above.  [apply] raises
    [Fieldrep_wal.Recovery.Diverged] when the stream cannot be reconciled
    (the replica must re-bootstrap); [replica_apply] raises
    [Invalid_argument] on a database not opened with {!open_replica}. *)

val epoch : t -> int
(** The replication epoch this database last saw: 0 at creation, bumped
    by {!promote_replica}, adopted from replayed/applied
    [Wal.Epoch_change] records.  The fencing token of
    {!Fieldrep_repl.Repl} — frames and acks from a lower epoch are
    rejected there. *)

val promote_replica : t -> wal_path:string -> last_lsn:int64 -> int
(** Failover: turn this replica into a primary.  Attaches a fresh log at
    [wal_path] with the LSN counter raised to [last_lsn] (the fork point
    — the last record this replica applied), bumps the epoch, and appends
    + syncs the [Wal.Epoch_change] record that stamps the new epoch into
    the log stream.  Transactions the applied prefix leaves open (their
    outcome was never shipped) are then rolled back as {!recover} rolls
    back its losers: compensations and a [Txn_abort] per transaction,
    logged after the [Epoch_change], so every replica of the new epoch
    drops them too.  Returns the new epoch.  Raises [Invalid_argument] if
    the database is not a replica, or if its apply stream is parked on a
    failed record whose Abort marker never arrived (such a prefix is not
    a consistent fork point). *)

val recover_replica :
  ?frames:int -> ?wal_path:string -> ?backend:backend -> string -> t
(** {!recover}'s redo, then demote the result to a read-only replica (the
    log handle is dropped: records now arrive over the wire).  The rejoin
    path for a deposed master after its unshipped log tail has been
    truncated to the new master's fork point
    ({!Fieldrep_wal.Wal.truncate_file}).  Transactions the log leaves
    open are not rolled back: they stay open in the replica's apply
    stream until the master's stream resolves them — a promoted master
    logs their rollback after its [Epoch_change] — so no transaction is
    undone twice. *)
