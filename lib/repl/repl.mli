(** Master/replica streaming replication with failover and self-healing.

    The paper's field replication cheapens each read; this layer multiplies
    how many reads the system can serve, by shipping the master's
    write-ahead log to N read-only replicas (the Perst/Volante
    [TestReplic] shape).  A replica bootstraps from a checkpoint image,
    then applies raw WAL frames through the streaming redo path
    ({!Fieldrep.Db.replica_apply}) as the master's {!Fieldrep_wal.Wal.sync}
    makes them durable.  What ships is the log's own bytes: a sync's batch
    is one range of frames, copied once into the [Frames] message, and the
    replica decodes each frame where it lies in the received payload,
    applying the whole message inside one replay bracket.

    {1 Shipping modes}

    - {!Master.mode.Async}: synced frames accumulate in a bounded
      per-replica buffer, shipped when the buffer passes its byte limit or
      at an explicit {!Master.pump}.  The master never waits; replica lag
      is visible in [Stats.replica_lag_bytes].
    - {!Master.mode.Ack}: every sync ships its batch immediately and
      blocks until every live {e synchronous} replica acknowledges the
      commit barrier — bounded by the ack deadline (below).

    {1 Failure handling}

    Every message carries a [Checksum.sum32] checksum, and each WAL frame
    carries its own.  A replica that sees a corrupt or missing frame answers with
    [Resend]; the master re-reads the tail from the log file — the tap
    only ships flushed frames, so the file always has them.  A replica
    that disconnects rejoins with [Hello] carrying its last applied LSN
    and catches up from the file, without a new snapshot.  A master never
    blocks on a dead replica: transport failures mark the peer dead and
    the workload continues.

    {1 Liveness}

    Both ends run a deadline-based failure detector over an injected
    {!Clock}: the master [Ping]s its peers and walks each through
    [Live -> Suspect -> Dead] as replies go silent; replicas watch the
    master's heartbeats the same way.  Nothing here reads wall-clock time
    directly, so tests drive every deadline with a manual clock.

    {1 Graceful degradation}

    An ack-mode peer that misses the commit deadline is {e demoted} to
    async — the commit proceeds, the demotion is counted
    ([ack_demotions]) and logged — and is re-promoted once it has
    acknowledged everything.  A hung replica costs bounded latency, never
    availability.  Replicas offer a bounded-staleness read gate
    ({!Replica.set_max_lag}) that fails reads with {!Replica.Stale} when
    the replica has fallen too far behind.

    {1 Failover and fencing}

    Every message carries an epoch.  A replica promoted with
    {!Replica.promote} bumps the epoch (durably, via an [Epoch_change]
    log record); from then on, traffic from older epochs is rejected with
    [Fenced], so a {e zombie} master — one that lost its replicas but
    keeps running — can no longer advance replicated state.  A deposed
    master stops shipping the moment it sees a newer epoch.  An old
    master rejoins as a replica by truncating its unshipped log tail back
    to the new master's fork point (the [Reset] negotiation). *)

(** Peer liveness as seen by the failure detector. *)
type state = Live | Suspect | Dead

(** Failure-detector deadlines, in clock ticks; by default
    [{heartbeat_every = 50; suspect_after = 120; dead_after = 250}]. *)
type liveness = {
  heartbeat_every : int;  (** send a [Ping] when this long since the last *)
  suspect_after : int;  (** silence before [Live] decays to [Suspect] *)
  dead_after : int;  (** silence before the peer is declared [Dead] *)
}

module Master : sig
  type mode =
    | Async of { buffer_bytes : int }
        (** buffer synced frames per replica, ship on overflow or {!pump} *)
    | Ack
        (** every sync blocks until all live synchronous replicas
            acknowledge *)

  val default_mode : mode
  (** [Async { buffer_bytes = 64 * 1024 }]. *)

  type peer
  (** One attached replica, as the master sees it. *)

  type t

  val create :
    ?mode:mode ->
    ?clock:Clock.t ->
    ?liveness:liveness ->
    ?ack_deadline:int ->
    ?on_event:(string -> unit) ->
    ?fork:int64 ->
    Fieldrep.Db.t ->
    t
  (** Install the shipping tap on the database's log.  Raises
      [Invalid_argument] if the database is not durable.  Create the
      master {e before} running the workload to replicate: frames
      appended before the tap exists reach replicas only through the
      bootstrap snapshot or a file-served catch-up.

      [ack_deadline] (default 200 ticks) bounds how long an ack-mode
      commit waits for one peer before demoting it to async.  [on_event]
      receives one human-readable line per noteworthy transition (peer
      death, suspicion, demotion, deposition); the default drops them.
      [fork] is the LSN this master's log file starts above —
      {!Replica.promote} sets it; leave it [0L] for a genesis master.
      The epoch is adopted from [Fieldrep.Db.epoch]. *)

  val attach : ?pump:(unit -> unit) -> t -> Transport.t -> peer
  (** Serve the replica's [Hello] on this transport: a fresh replica
      ([last_lsn = 0]) — or one whose history predates the fork point,
      which the log file cannot serve — gets a checkpoint-image
      [Snapshot]; a rejoining one gets the log tail after its LSN.  A
      rejoiner whose log {e diverged} (it ran as a master in an older
      epoch) is first ordered to [Reset] back to the fork point and must
      re-[Hello].  [pump], for non-blocking transports only, is called
      while waiting for this peer's messages — it should let the
      in-process replica make progress ({!Replica.drain}).  Raises
      [Invalid_argument] while transactions are active (the snapshot must
      be transaction-consistent), or if the peer fences us from a newer
      epoch. *)

  val pump : t -> unit
  (** Drain replica-to-master traffic (acks, resend requests), flush async
      buffers, re-ship the durability barrier to lagging peers this round
      sent none, and re-promote caught-up demoted peers.  Call between
      workload batches; ack mode largely drives itself from [Wal.sync]. *)

  val tick : t -> unit
  (** The liveness beat: {!pump}, then advance each peer's
      [Live -> Suspect -> Dead] state from heartbeat deadlines, then send
      [Ping]s as the heartbeat interval expires.  A master that is never
      ticked never suspects anyone. *)

  val stats : t -> Fieldrep_storage.Stats.t
  val peer_count : t -> int
  (** Live (attached, not disconnected) replicas. *)

  val epoch : t -> int
  val fork : t -> int64

  val is_deposed : t -> bool
  (** True once a newer epoch fenced this master; it ships nothing more
      (local writes still run — that divergence is exactly what fencing
      protects replicas from). *)

  val acked_lsn : peer -> int64
  val peer_alive : peer -> bool
  val peer_state : peer -> state
  val peer_synchronous : peer -> bool
  (** False while demoted to async by a missed ack deadline. *)
end

module Replica : sig
  type t

  exception Stale of string
  (** Raised by the read gate when the replica lags the master's shipped
      log by more than the configured bound. *)

  val connect :
    ?frames:int ->
    ?clock:Clock.t ->
    ?liveness:liveness ->
    ?on_reset:(fork:int64 -> Fieldrep.Db.t) ->
    Transport.t ->
    t
  (** Send the initial [Hello{0}]; the snapshot bootstrap happens on the
      first {!step}/{!drain}/{!run} that sees the master's reply.
      [frames] sizes the bootstrapped database's buffer pool.  [on_reset]
      handles a [Reset] order — truncate the local log above [fork],
      reopen, and return the reopened db (see
      [Fieldrep_wal.Wal.truncate_file] and [Fieldrep.Db.recover_replica]);
      without it a [Reset] falls back to a full re-bootstrap. *)

  val rejoin :
    ?frames:int ->
    ?clock:Clock.t ->
    ?liveness:liveness ->
    ?on_reset:(fork:int64 -> Fieldrep.Db.t) ->
    db:Fieldrep.Db.t ->
    last_applied:int64 ->
    Transport.t ->
    t
  (** Wrap an existing replica-mode database — a restarted replica, or an
      old master reopened with [Fieldrep.Db.recover_replica] — and [Hello]
      the master with [last_applied] (at the db's own epoch).  The master
      ships the missing tail, re-bootstraps if the tail predates its fork
      point, or orders a [Reset] first if the log diverged. *)

  val reconnect : t -> Transport.t -> unit
  (** Resume on a fresh transport after a disconnect: sends
      [Hello{last_applied}], so the master ships only the missing tail —
      the bootstrapped database is kept, not rebuilt.  Counts one
      [reconnects] tick. *)

  val db : t -> Fieldrep.Db.t
  (** The replica database — serve reads from it.  Raises
      [Invalid_argument] before the bootstrap snapshot has arrived. *)

  val last_applied : t -> int64
  (** LSN of the last frame applied. *)

  val commit_lsn : t -> int64
  (** Highest commit barrier received — everything at or below it is
      durable on the master. *)

  val epoch : t -> int
  val master_state : t -> state

  val lag_bytes : t -> int64
  (** How far behind the master's shipped log this replica is, in WAL
      bytes — the master's cumulative byte counter (reported on
      [Snapshot]/[Commit]/[Ping]) minus bytes applied here.  Zero when
      caught up; the scale restarts at each epoch. *)

  val set_max_lag : t -> int option -> unit
  (** Arm (or disarm, with [None]) the bounded-staleness read gate. *)

  val read : t -> (Fieldrep.Db.t -> 'a) -> 'a
  (** [read r f] applies [f] to the replica database — the gated read
      entry point: it raises {!Stale} instead when the gate is armed and
      {!lag_bytes} exceeds it. *)

  val step : t -> bool
  (** Process at most one pending message; [false] when none was
      pending.  Raises [Transport.Disconnected] on a drained dead link and
      [Fieldrep_wal.Recovery.Diverged] if the stream cannot be reconciled
      (re-bootstrap on a fresh connection in that case). *)

  val drain : t -> int
  (** {!step} until nothing is pending; the number of messages processed.
      A dead link ends the drain quietly — {!reconnect} resumes later. *)

  val tick : t -> unit
  (** Advance the master's [Live -> Suspect -> Dead] state from its
      heartbeat deadline.  Any received message resets it to [Live];
      promotion decisions key off {!master_state}. *)

  val fence_link : t -> Transport.t -> int
  (** Drain a link this replica no longer follows (e.g. the old master's
      transport after a failover), answering every lower-epoch payload
      with [Fenced] and applying nothing.  Returns how many payloads were
      fenced. *)

  val promote :
    ?mode:Master.mode ->
    ?clock:Clock.t ->
    ?liveness:liveness ->
    ?ack_deadline:int ->
    ?on_event:(string -> unit) ->
    t ->
    wal_path:string ->
    Master.t
  (** Failover: make this replica the master of the next epoch.  Opens a
      fresh WAL at [wal_path] positioned at the replica's applied prefix
      (the fork point), durably logs the epoch bump ([Epoch_change]),
      counts one [failovers] tick, and returns the new master engine with
      [fork] set so rejoiners above the fork catch up from the file and
      older ones re-bootstrap.  Raises [Invalid_argument] if the
      replica's stream parked a failed record whose [Abort] marker never
      arrived — that prefix is not promotable. *)

  val run : t -> unit
  (** Blocking service loop for a socket transport: apply messages until
      the link dies or the master is declared [Dead], ticking the failure
      detector while idle. *)
end
