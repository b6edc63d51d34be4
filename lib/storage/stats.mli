(** I/O accounting.

    The paper's entire evaluation is in units of page I/Os, so the storage
    layer counts every physical page read and write.  Buffer-pool hits are
    tracked separately: a hit is a logical access that costs no I/O.

    A block holds one [int] per {!counter}; the field for [Page_reads] is
    [page_reads], and so on.  Fields are read directly; they are changed
    only through {!add}/{!bump} (counters) and {!set} (the two gauges), the
    single mutation point that lint rule C1 enforces. *)

type file_io = { mutable file_reads : int; mutable file_writes : int }
(** One file's physical reads and writes (see {!file_io}). *)

module File_table : Hashtbl.S with type key = int

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
      (** per-file reads and writes, keyed by disk file id *)
}

type counter =
  | Page_reads  (** physical page reads from disk *)
  | Page_writes  (** physical page writes to disk *)
  | Buffer_hits  (** logical accesses served from the pool *)
  | Pages_allocated
  | Objects_read
  | Objects_written
  | Wal_appends  (** records appended to the write-ahead log *)
  | Wal_bytes  (** bytes written to the write-ahead log *)
  | Recovery_replays  (** log records redone by [Db.recover] *)
  | Txn_commits
  | Txn_aborts  (** transactions rolled back (any reason) *)
  | Lock_waits  (** lock requests that blocked *)
  | Deadlocks  (** wait-for cycles broken by aborting a victim *)
  | Undo_applied  (** before-images restored by abort/recovery *)
  | Checksum_failures  (** physical reads whose page checksum failed *)
  | Scrub_pages  (** pages verified by {!Scrub} sweeps *)
  | Repairs  (** replicated values / link objects rebuilt *)
  | Degraded_reads
      (** queries that fell back to the functional join because a replica
          page was quarantined *)
  | Read_retries  (** physical reads retried after a transient fault *)
  | Failed_reads
      (** pool installs whose physical read failed after retries, so
          [buffer_hits + page_reads + failed_reads] covers every lookup *)
  | Wal_flushes  (** physical log flushes (one per group-commit batch) *)
  | Frames_shipped  (** log frames shipped to peers by a master *)
  | Frames_applied  (** log frames redone by a replica *)
  | Acks_waited  (** ack-mode commit barriers that waited for replicas *)
  | Replica_lag_bytes
      (** gauge: bytes buffered for the slowest async peer *)
  | Maint_steps  (** background-maintenance quanta run (lib/maint) *)
  | Maint_pages_walked  (** heap pages processed by maintenance cursors *)
  | Maint_lock_yields
      (** maintenance quanta that backed off from a foreground lock *)
  | Maint_backfill_pending
      (** gauge: heap pages the queued maintenance jobs have still to walk *)
  | Peer_deaths  (** peers declared Dead (heartbeat or disconnect) *)
  | Ack_demotions  (** ack-mode commits that gave up on a late replica *)
  | Heartbeats_missed  (** heartbeat deadlines missed by a peer *)
  | Failovers  (** replica promotions to master (epoch bumps) *)
  | Reconnects  (** transport reconnect attempts by the backoff dialer *)
  | Deadlock_upgrades
      (** deadlocks whose victim's blocked request upgrades a lock it
          already holds *)

(** A [Counter] only grows; a [Gauge] is overwritten with {!set}, and
    {!diff} reports its current value rather than a delta. *)
type kind = Counter | Gauge

val all : (counter * string * kind) list
(** Every counter once, in {!pp} order, with its printed name. *)

val create : unit -> t

val grand : t
(** The process-wide block.  Every {!add} and {!set} on any block also lands
    here, and nothing resets it, so a caller measures work spread over
    several databases as the {!diff} of two {!copy}s.  Its [by_file] table
    stays empty. *)

val reset : t -> unit
val copy : t -> t
val get : t -> counter -> int
(** [get t c] is the field of [t] that [c] names. *)

val add : t -> counter -> int -> unit
(** [add t c n] adds [n] to [c] in [t] and in {!grand}. *)

val bump : t -> counter -> unit
(** [bump t c] is [add t c 1]. *)

val set : t -> counter -> int -> unit
(** [set t c v] sets gauge [c] to [v] in [t] and in {!grand}. *)

val diff : t -> t -> t
(** [diff now before]: counters and [by_file] are differences, gauges keep
    [now]'s value. *)

val total_io : t -> int
(** [page_reads + page_writes] — the quantity the paper's C functions
    estimate. *)

val record_read : t -> file:int -> unit
(** Count one physical read of [file]: [Page_reads] plus [by_file]. *)

val record_write : t -> file:int -> unit
(** Count one physical write of [file]: [Page_writes] plus [by_file]. *)

val file_io : t -> file:int -> int * int
(** (reads, writes) charged to one file since the last reset. *)

val pp : Format.formatter -> t -> unit
(** [name=value] for every entry of {!all}, separated by single spaces. *)
