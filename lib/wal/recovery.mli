(** Redo-from-checkpoint recovery with transaction resolution.

    Recovery reopens the last checkpoint image (an LSN-stamped [Db.save]
    image) and redoes every log record with a larger LSN {e through the
    normal engine code}: each replayed insert/update/delete re-runs index
    maintenance and replication propagation, so hidden copies, link
    objects, S' objects and B+-trees are rebuilt exactly as the original
    run built them — including re-queuing lazy-propagation invalidations.
    Determinism of the storage layer (physical OIDs, file ids, page
    layout) makes the redo converge on the uncrashed state.

    Transactions extend the picture in two ways:

    - A [Txn_op] record redoes its [op] like a plain record, but the tag
      lets the replay reconstruct each transaction's footprint.  A tagged
      delete redoes as a pinned delete (the slot stays tombstoned, exactly
      as it was in the original run), and a [Txn_commit]/[Txn_abort]
      marker frees the transaction's still-pinned tombstones — reproducing
      the original timing of slot reuse, which OID determinism depends on.
    - The record also carries the undo half: once its redo succeeds, a
      [Txn_op] adds to its transaction's undo list the before-image it
      carries (updates and deletes at first touch) or, for an insert, the
      OID the redo produced.  Transactions with a logged footprint but no
      commit/abort marker are {e losers} — they were live at the crash.
      Their undo lists and pending tombstones are returned so the caller
      can roll them back (and append the compensations plus a [Txn_abort]
      marker, making the rollback itself replayable).

    This module is engine-agnostic: the caller (lib/core's [Db]) redoes
    each record through its own DML entry points, which keeps the
    dependency arrow pointing from core to wal. *)

type applier = {
  redo : Wal.record -> Fieldrep_storage.Oid.t option;
      (** run one record's operation through the engine (a [Txn_op]
          delete as a pinned delete); an insert returns the OID it
          produced.  Never called with a marker record. *)
  free_tombstone : set:string -> oid:Fieldrep_storage.Oid.t -> unit;
      (** release a slot pinned by a resolved transaction's delete *)
}

(** A transaction that was live at the crash: everything the caller needs
    to roll it back.  Lists are newest-first — already in undo order. *)
type loser = {
  l_txn : int;
  l_images :
    (string * Fieldrep_storage.Oid.t * bool * Fieldrep_model.Value.t list)
    list;
      (** the undo list: (set, oid, existed-before, user values); an
          insert's entry is (set, oid, [false], [[]]) *)
  l_tombstones : (string * Fieldrep_storage.Oid.t) list;
      (** slots still pinned by the transaction's deletes *)
}

(** {1 Streaming replay}

    A replication replica receives the {e unfiltered} record stream as the
    master appends it, so — unlike {!replay}, which works from
    [Wal.records] with rescinded records already filtered out — it sees a
    failed operation's record {e before} the [Abort] marker that rescinds
    it.  The stream applier handles this with a one-slot protocol: a record
    whose operation raises [Invalid_argument] or [Failure] (the engine's
    validation errors, raised before any page is touched) parks in the
    failed slot, and the very next record must be its [Abort] marker —
    which is guaranteed by the master's append discipline, where the marker
    is logged immediately after the failure with no interleaving.  Anything
    else raises {!Diverged}. *)

exception Diverged of string
(** The record stream cannot be reconciled with this store's state — the
    replica must re-bootstrap from a fresh checkpoint image. *)

type stream
(** Incremental replay state: per-transaction traces plus the failed-record
    slot.  One [stream] lives as long as the replica applies records. *)

val stream : applier -> stream

val feed : stream -> int64 -> Wal.record -> unit
(** Apply one record.  Records must arrive in LSN order with no gaps —
    gap detection and re-request is the transport layer's job.  Raises
    {!Diverged} on an irreconcilable stream (see above). *)

val pending_failure : stream -> (int64 * string) option
(** The parked failed record, if the last fed record failed validation and
    its [Abort] marker has not arrived yet. *)

val losers : stream -> loser list
(** Transactions with a logged footprint but no commit/abort marker yet —
    at a clean shutdown boundary this is the set to roll back. *)

val replay : Wal.t -> after:int64 -> applier -> stream
(** Redo, in LSN order, every record of the log (as found when it was
    opened) whose LSN is strictly greater than [after] — the checkpoint's
    LSN stamp.  Returns the stream: {!losers} names the transactions to
    roll back; a replica keeps feeding it, so the master's stream resolves
    them instead.  Raises {!Diverged} if a replayed operation fails — the
    log and the store disagree. *)
