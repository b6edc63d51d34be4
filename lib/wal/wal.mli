(** Write-ahead log of logical DML/DDL redo records.

    The log is the durability substrate under the replication engine: a
    single logical update may touch many pages (the object itself, hidden
    copies in every source object, link objects, S' objects, B+-tree
    nodes), and a crash mid-propagation would otherwise leave replicas and
    indexes silently inconsistent.  Instead of physical page logging, the
    engine appends one {e logical redo record} per mutation — before it
    touches any page — and recovery reopens the last checkpoint image and
    redoes the tail deterministically through the same engine code
    ({!Recovery}).

    {1 On-disk format}

    The log is an append-only file:

    {v "FREPWAL3"                                    file header
       frame*                                        one frame per record
       frame = [ len:u32 | crc:u32 | payload ]
       payload = [ lsn:i64 | kind:u8 | body ]        via Fieldrep_util.Wire v}

    [crc] is {!Fieldrep_storage.Checksum.sum32} of the payload.  {!open_}
    scans existing frames and stops at the first short or corrupt frame — a
    torn tail written during a crash is ignored, and subsequent appends
    overwrite it.  A log of an older format (["FREPWAL2"], whose frames
    carry FNV-1a sums) is refused by name, never scanned: every one of its
    frames would fail the current checksum and be cut as a torn tail.

    {1 Group commit}

    Appends accumulate in an in-memory buffer; {!sync} writes the buffer
    through to the OS in one physical flush.  The database layer syncs at
    every durability point — an autocommit mutation before it touches
    pages, [Txn_commit] / [Txn_abort], a checkpoint — so N interleaved
    clients amortise one flush over all the [Txn_op] records appended
    since the last commit (one per transactional operation: its
    before-image rides inside it).  A byte threshold
    ([?flush_limit], default 64 KiB) bounds the unflushed window, and
    {!close} syncs.  Buffering preserves append order, so the on-disk log
    is always a {e prefix} of the appended sequence: after a crash,
    recovery lands exactly on the committed prefix — records past the last
    sync belong to transactions that had not committed (their commit
    marker syncs before {!append} returns to the caller) and are rolled
    back as losers.

    {1 Aborted records}

    A record is appended before its operation runs, so an operation that
    then fails validation (e.g. deleting a still-referenced object) leaves
    a record that must not be redone.  Rather than truncating — the log is
    append-only — the engine appends an {!record.Abort} marker naming the
    failed record's LSN; {!records} filters both out.  A rescinded
    [Txn_op] takes the before-image it carried with it, so the engine logs
    the object's image again at its next touch. *)

module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema

(** Logical redo records.  Everything a record needs to be redone is
    captured by value; OIDs are physical and stable, and replay is
    deterministic, so inserted objects land on the same OIDs as in the
    original run. *)
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
  | Abort of int64  (** rescind the record with this LSN *)
  | Txn_commit of int  (** transaction boundary: txn id *)
  | Txn_abort of int
      (** the txn was rolled back — compensation records for it appear
          between its last [Txn_op] and this marker *)
  | Insert_at of { set : string; oid : Oid.t; values : Value.t list }
      (** revive a tombstoned OID with these values — the compensation
          record for an aborted delete *)
  | Txn_op of { txn : int; op : record; before : Value.t list option }
      (** a DML record executed inside transaction [txn]; redo applies
          [op], recovery uses the tag to resolve winners and losers.
          [before] is the undo half: the user values of an updated or
          deleted object at the transaction's first touch of it, [None]
          on later touches and on inserts (whose undo deletes the OID the
          redo produced). *)
  | Scrub_repair of { rep_id : int; source : Oid.t }
      (** scrub rebuilt the replicated state derived from [source] under
          replication [rep_id].  Replay re-runs the (idempotent) refresh:
          on a cleanly recovered store it is a no-op, and after a crash
          mid-repair it completes the repair. *)
  | Replicate_online of {
      path : string;
      strategy : Schema.strategy;
      options : Schema.rep_options;
    }
      (** like [Replicate] but the declaration is installed in the
          [Building] state with no bulk build: the backfill runs as a
          background-maintenance job whose progress the following
          [Maint_step] records log. *)
  | Unreplicate of { path : string }
      (** flip the path's declaration to [Dropping]: reads revert to the
          functional join immediately, derived state is torn down by the
          maintenance job behind [Maint_step] records. *)
  | Maint_step of { job : int; upto : int }
      (** one quantum of maintenance job [job] (= the rep_id being built or
          torn down) ran: its page cursor advanced to [upto] (exclusive).
          Logged {e before} the quantum mutates anything; replay re-runs
          the quantum's idempotent per-source operations, so a crash
          mid-quantum converges to the same state. *)
  | Maint_done of { job : int }
      (** the job's walk completed: replay flips the declaration
          [Building] -> [Active] or [Dropping] -> [Dropped]. *)
  | Epoch_change of { epoch : int }
      (** a replica promoted to master and bumped the replication epoch:
          the first record a new master appends, so the log stream itself
          carries the epoch history.  Replay raises the database's epoch
          (state is otherwise untouched); replicas applying the shipped
          frame adopt the epoch the same way. *)

type t

val open_ : ?stats:Stats.t -> ?flush_limit:int -> ?fsync:bool -> string -> t
(** Open (creating if absent) the log at a path.  Existing frames are
    scanned and validated; the scan stops at the first torn or corrupt
    frame, and the write position is placed just after the last good one.
    Raises [Invalid_argument] on a file that is not a fieldrep log, and
    [Invalid_argument "Wal.open_: FREPWAL2 log is an older format ..."] on
    a log of an older format, leaving the file as it was.
    [stats], when given, accrues [wal_appends] / [wal_bytes] /
    [wal_flushes].  [flush_limit] caps the bytes buffered between
    {!sync}s (default 64 KiB).  With [fsync:true] every {!sync} issues a
    real [fsync(2)] after the channel flush, so the group-commit point is
    an honest disk barrier (pass [flush_limit:1] to defeat group commit
    and pay one fsync per append — the benchmark baseline).  Defaults to
    the [FIELDREP_WAL_FSYNC] environment variable (["1"]/["true"]; off
    when unset). *)

val path : t -> string

val append : t -> record -> int64
(** Serialize, frame and buffer one record; returns its LSN.  Must be
    called {e before} the operation it describes touches any page.  The
    record reaches the OS at the next {!sync} (or when the buffered bytes
    pass the flush limit). *)

val sync : t -> unit
(** Flush every buffered record to the OS in one physical flush (a no-op
    when nothing is buffered).  The group-commit point: callers invoke it
    when a durability boundary is reached, not per append. *)

val flushes : t -> int
(** Physical flushes performed through this handle (monotonic, survives
    [Stats.reset] — benchmarks read this alongside {!appended}). *)

val fsyncs : t -> int
(** Real [fsync(2)] barriers issued through this handle (0 unless the log
    was opened with [fsync:true]).  Monotonic; the [io] bench reads this
    to show group commit amortizing {e measured} fsyncs. *)

val pending_bytes : t -> int
(** Bytes appended but not yet synced. *)

val append_abort : t -> aborted:int64 -> unit
(** Rescind a previously appended record (its operation failed). *)

val last_lsn : t -> int64
(** The most recently assigned LSN (0 for an empty log). *)

val ensure_lsn : t -> int64 -> unit
(** Raise the LSN counter to at least the given value — used when attaching
    a log to a database restored from an LSN-stamped checkpoint, so fresh
    appends sort after the checkpoint. *)

(** A run of whole frames lying back to back in [data], from [off] for
    [len] bytes: [count] frames, the last with LSN [last_lsn] — exactly the
    bytes {!append} wrote to the log file for them. *)
type batch = {
  data : Bytes.t;
  off : int;
  len : int;
  count : int;
  last_lsn : int64;
}

val set_tap : t -> (batch -> unit) option -> unit
(** Install (or clear) a frame tap.  While installed, {!append} also keeps
    each frame in one growable pending-batch buffer, and the tap fires
    inside {!sync}, {e after} the physical flush, with the batch that flush
    made durable: the frames in append order, byte-identical to the range
    just flushed to the file — so anything the observer sees can be
    re-read from the file with {!read_frames}.  The batch's bytes are valid
    only during the call: the buffer is reused by the next append, so a
    tap that keeps them must copy them.  A tap that blocks turns [sync]
    itself into a replication barrier (ack-mode shipping).  Install the
    tap before the workload starts: frames appended while no tap is
    installed are not retained.  Note the tap also fires on flush-limit
    overflow syncs, so an observer may see mid-transaction records before
    their commit marker. *)

val encode_frame : int64 -> record -> Bytes.t
(** Serialize one record into a self-validating wire frame
    ([len | crc | lsn | kind | body]) — exactly the bytes {!append} writes
    to the log file. *)

val decode_frame_at : Bytes.t -> int -> limit:int -> int64 * record
(** [decode_frame_at buf off ~limit] decodes the frame at [off] where it
    lies, without copying it.  The frame must end by [limit] (and by the
    end of [buf]); its length and checksum are checked before its body is
    read, and the body must fill the frame exactly.  Raises
    [Fieldrep_util.Wire.Corrupt] on a short, torn, checksum-failing or
    ill-formed frame.  The next frame starts at {!frame_end}. *)

val frame_end : Bytes.t -> int -> int
(** [frame_end buf off] is the offset just past the frame at [off], read
    from its length field: meaningful once {!decode_frame_at} accepted it. *)

val decode_frame : Bytes.t -> int64 * record
(** Inverse of {!encode_frame}: {!decode_frame_at} over the whole buffer,
    which the frame must fill.  Raises [Fieldrep_util.Wire.Corrupt] on a
    short, truncated, trailing-garbage or checksum-failing frame. *)

val read_frames : string -> after:int64 -> batch
(** The frames of the log file at a path with LSN strictly greater than
    [after], as one range of the file's contents: from the first such
    frame to the last well-formed one (LSNs rise along the file).  Stops
    at the first torn or corrupt frame (as {!open_} does); an empty batch
    ([count = 0], [last_lsn = after]) for a missing or empty file or when
    no frame is above [after]; raises [Invalid_argument] on a file that
    is not a fieldrep log.  Serves replica re-send and rejoin requests. *)

val truncate_file : string -> after:int64 -> unit
(** Physically discard every frame with LSN strictly greater than [after]
    from the (closed) log file at a path — the rejoin path for a deposed
    master whose unshipped tail diverged from the new epoch's history.
    Ill-formed tails are discarded too (the scan stops where {!open_}
    would).  A no-op on a missing file; raises [Invalid_argument] on a
    file that is not a fieldrep log. *)

val records : t -> (int64 * record) list
(** The valid records found at {!open_} time, in LSN order, with aborted
    records and [Abort] markers filtered out.  Records appended through
    this handle afterwards are not included. *)

val appended : t -> int
(** Records appended through this handle (monotonic, survives
    [Stats.reset] — benchmarks read this). *)

val bytes_written : t -> int
(** Bytes appended through this handle, including framing. *)

val close : t -> unit
(** {!sync}, then close the underlying channel. *)
