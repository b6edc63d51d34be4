module Wire = Fieldrep_util.Wire
module Stats = Fieldrep_storage.Stats
module Wal = Fieldrep_wal.Wal
module Db = Fieldrep.Db

(* ------------------------------------------------------------------ *)
(* Liveness: deadline-based failure detection over an injected clock   *)

type state = Live | Suspect | Dead

type liveness = {
  heartbeat_every : int;
  suspect_after : int;
  dead_after : int;
}

let default_liveness =
  { heartbeat_every = 50; suspect_after = 120; dead_after = 250 }

(* ------------------------------------------------------------------ *)
(* Master: ship WAL frames to N replicas off the log's sync tap        *)

module Master = struct
  type mode = Async of { buffer_bytes : int } | Ack

  let default_mode = Async { buffer_bytes = 64 * 1024 }

  type peer = {
    tr : Transport.t;
    pump : unit -> unit;
    buf : Bytes.t ref;
        (* async mode: the synced frames not yet shipped, back to back *)
    mutable buf_bytes : int;
    mutable buf_count : int;
    mutable buf_last : int64;
    mutable shipped_lsn : int64;
    mutable barriers : int;  (* [Commit]s sent, for [pump] *)
    mutable acked_lsn : int64;
    mutable alive : bool;
    mutable pstate : state;
    mutable synchronous : bool;  (* ack mode: commits wait for this peer *)
    mutable last_heard : int;  (* clock tick of the last message received *)
  }

  type t = {
    db : Db.t;
    wal : Wal.t;
    mode : mode;
    clock : Clock.t;
    liveness : liveness;
    ack_deadline : int;  (* ticks a commit waits for an ack before demoting *)
    fork : int64;
        (* the log file serves history only above this LSN (a promoted
           master's log starts at its fork point); peers below it must
           re-bootstrap from a snapshot *)
    epoch : int;
    mutable deposed : bool;  (* fenced by a newer epoch: shipping stopped *)
    mutable peers : peer list;
    mutable last_ping : int;
    on_event : string -> unit;
  }

  let stats m = Db.stats m.db
  let peer_count m = List.length (List.filter (fun p -> p.alive) m.peers)
  let epoch m = m.epoch
  let is_deposed m = m.deposed
  let fork m = m.fork

  let update_lag m =
    let lag =
      List.fold_left
        (fun acc p -> if p.alive then max acc p.buf_bytes else acc)
        0 m.peers
    in
    Stats.set (stats m) Stats.Replica_lag_bytes lag

  let kill_peer m peer =
    if peer.alive then begin
      peer.alive <- false;
      peer.pstate <- Dead;
      Stats.bump (stats m) Stats.Peer_deaths;
      m.on_event
        (Printf.sprintf "repl: peer %s declared dead" peer.tr.Transport.label)
    end

  let depose m =
    if not m.deposed then begin
      m.deposed <- true;
      m.on_event
        (Printf.sprintf
           "repl: master (epoch %d) fenced by a newer epoch; shipping stopped"
           m.epoch)
    end

  let demote m peer =
    if peer.synchronous then begin
      peer.synchronous <- false;
      Stats.bump (stats m) Stats.Ack_demotions;
      m.on_event
        (Printf.sprintf "repl: peer %s demoted to async (ack deadline missed)"
           peer.tr.Transport.label)
    end

  let wal_bytes m = Int64.of_int (Wal.bytes_written m.wal)

  (* Ship a batch of frames (one range, in LSN order) followed by a
     [Commit] barrier.  Any transport failure marks the peer dead (and
     counts it): a master must survive a replica that vanishes mid-commit.
     A deposed master ships nothing — fencing means its history is no
     longer authoritative. *)
  let ship_frames m peer (b : Wal.batch) =
    if peer.alive && not m.deposed then
      try
        if b.count > 0 then begin
          peer.tr.Transport.send
            (Proto.encode ~epoch:m.epoch
               (Proto.Frames { data = b.data; off = b.off; len = b.len }));
          Stats.add (stats m) Stats.Frames_shipped b.count;
          if Int64.compare b.last_lsn peer.shipped_lsn > 0 then
            peer.shipped_lsn <- b.last_lsn
        end;
        peer.tr.Transport.send
          (Proto.encode ~epoch:m.epoch
             (Proto.Commit { lsn = Wal.last_lsn m.wal; bytes = wal_bytes m }));
        peer.barriers <- peer.barriers + 1
      with Transport.Disconnected -> kill_peer m peer

  (* Bootstrap (or re-bootstrap) a peer from a database image.  [Db.image]
     syncs the log first, so the image's state and the stamped LSN agree,
     and everything after the stamp will arrive as frames. *)
  let send_snapshot m peer =
    let image = Db.image m.db in
    let lsn = Wal.last_lsn m.wal in
    try
      peer.tr.Transport.send
        (Proto.encode ~epoch:m.epoch
           (Proto.Snapshot { lsn; bytes = wal_bytes m; image }));
      peer.shipped_lsn <- lsn;
      peer.acked_lsn <- lsn
    with Transport.Disconnected -> kill_peer m peer

  let handle_peer_msg m peer payload =
    match Proto.decode payload with
    | exception Wire.Corrupt _ -> ()  (* garbage from the peer; drop *)
    | ep, msg ->
        if ep > m.epoch then
          (* Any payload from a newer epoch — typically a replica's
             [Fenced] reply — deposes this master. *)
          depose m
        else if ep < m.epoch then begin
          (* A stale peer: its acks must not release barriers and its
             requests must not be served.  Tell it so. *)
          try
            peer.tr.Transport.send (Proto.encode ~epoch:m.epoch Proto.Fenced)
          with Transport.Disconnected -> kill_peer m peer
        end
        else begin
          peer.last_heard <- Clock.now m.clock;
          if peer.alive then peer.pstate <- Live;
          match msg with
          | Proto.Ack { lsn } | Proto.Pong { lsn } ->
              if Int64.compare lsn peer.acked_lsn > 0 then peer.acked_lsn <- lsn
          | Proto.Resend { after } ->
              if Int64.compare after m.fork < 0 then
                (* The file cannot serve history below the fork point (a
                   promoted master's log starts there): re-bootstrap. *)
                (if Db.active_txn_count m.db = 0 then send_snapshot m peer)
              else
                (* Anything the tap ever shipped is already flushed (the
                   tap fires after the physical flush), so the file can
                   always serve it. *)
                ship_frames m peer (Wal.read_frames (Wal.path m.wal) ~after)
          | Proto.Hello { last_lsn } ->
              (* A mid-stream Hello is a re-bootstrap request — the peer
                 lost its snapshot (damaged in flight) or restarted: serve
                 it anew. *)
              if
                Int64.equal last_lsn 0L || Int64.compare last_lsn m.fork < 0
              then (if Db.active_txn_count m.db = 0 then send_snapshot m peer)
              else begin
                Wal.sync m.wal;
                ship_frames m peer
                  (Wal.read_frames (Wal.path m.wal) ~after:last_lsn)
              end
          | Proto.Snapshot _ | Proto.Frames _ | Proto.Commit _ | Proto.Ping _
          | Proto.Reset _ | Proto.Fenced ->
              ()  (* not a replica-to-master message at this epoch; ignore *)
        end

  let recv_peer m peer =
    try peer.tr.Transport.recv ~block:false
    with Transport.Disconnected ->
      kill_peer m peer;
      None

  (* Rounds with no message before an ack wait gives up even without clock
     progress — a backstop for callers that never advance an injected
     manual clock. *)
  let ack_stall_limit = 10_000

  (* Wait for the peer to acknowledge [lsn] — but never forever: when the
     ack deadline (in clock ticks) or the stall backstop expires, the peer
     is demoted to async and the commit proceeds without it.  Graceful
     degradation: a hung replica costs bounded latency, not availability. *)
  let await_ack m peer lsn =
    let deadline = Clock.now m.clock + m.ack_deadline in
    let stalls = ref 0 in
    while
      peer.alive && peer.synchronous && (not m.deposed)
      && Int64.compare peer.acked_lsn lsn < 0
    do
      match recv_peer m peer with
      | Some payload ->
          handle_peer_msg m peer payload;
          stalls := 0
      | None ->
          peer.pump ();
          incr stalls;
          if Clock.now m.clock >= deadline || !stalls > ack_stall_limit then
            demote m peer
          else if peer.tr.Transport.blocking then
            (* a socket peer delivers asynchronously: yield briefly instead
               of spinning on select(0) *)
            ignore (Unix.select [] [] [] 0.001)
    done

  let no_frames =
    { Wal.data = Bytes.empty; off = 0; len = 0; count = 0; last_lsn = 0L }

  let flush_peer m peer =
    let batch =
      { Wal.data = !(peer.buf); off = 0; len = peer.buf_bytes;
        count = peer.buf_count; last_lsn = peer.buf_last }
    in
    peer.buf_bytes <- 0;
    peer.buf_count <- 0;
    ship_frames m peer batch

  (* The tap: called inside [Wal.sync], after the physical flush, with the
     batch that flush made durable.  Its bytes live only for this call: ack
     mode ships them at once, an async peer copies them to its buffer. *)
  let on_sync m (batch : Wal.batch) =
    if not m.deposed then
      match m.mode with
      | Async { buffer_bytes } ->
          List.iter
            (fun peer ->
              if peer.alive then begin
                let len = peer.buf_bytes + batch.len in
                Wire.grow ~keep:true peer.buf len;
                Bytes.blit batch.data batch.off !(peer.buf) peer.buf_bytes
                  batch.len;
                peer.buf_bytes <- len;
                peer.buf_count <- peer.buf_count + batch.count;
                peer.buf_last <- batch.last_lsn;
                if peer.buf_bytes > buffer_bytes then flush_peer m peer
              end)
            m.peers;
          update_lag m
      | Ack ->
          let lsn = Wal.last_lsn m.wal in
          List.iter (fun peer -> ship_frames m peer batch) m.peers;
          if List.exists (fun p -> p.alive && p.synchronous) m.peers then
            Stats.bump (stats m) Stats.Acks_waited;
          List.iter
            (fun peer ->
              if peer.alive && peer.synchronous then await_ack m peer lsn)
            m.peers

  let create ?(mode = default_mode) ?clock ?(liveness = default_liveness)
      ?(ack_deadline = 200) ?(on_event = fun _ -> ()) ?(fork = 0L) db =
    let wal =
      match Db.wal db with
      | Some w -> w
      | None -> invalid_arg "Repl.Master.create: master must be durable"
    in
    let clock = match clock with Some c -> c | None -> Clock.wall () in
    let m =
      { db; wal; mode; clock; liveness; ack_deadline; fork;
        epoch = Db.epoch db; deposed = false; peers = [];
        last_ping = Clock.now clock; on_event }
    in
    Wal.set_tap wal (Some (on_sync m));
    m

  let wait_hello peer_tr pump =
    let stalls = ref 0 in
    let rec loop () =
      match peer_tr.Transport.recv ~block:peer_tr.Transport.blocking with
      | Some payload -> payload
      | None ->
          pump ();
          incr stalls;
          if !stalls > ack_stall_limit then
            failwith "Repl: no Hello from the connecting replica";
          loop ()
    in
    loop ()

  (* Wait out the Hello/Reset negotiation: a peer whose log runs past our
     fork point in an older epoch diverged (it was a master once) — it must
     truncate back to the fork and re-Hello before we can serve it. *)
  let rec negotiate m tr pump =
    match Proto.decode (wait_hello tr pump) with
    | exception Wire.Corrupt _ -> negotiate m tr pump
    | ep, Proto.Hello { last_lsn } ->
        if ep > m.epoch then begin
          depose m;
          invalid_arg "Repl.Master.attach: fenced by a peer from a newer epoch"
        end
        else if ep < m.epoch && Int64.compare last_lsn m.fork > 0 then begin
          tr.Transport.send
            (Proto.encode ~epoch:m.epoch (Proto.Reset { fork = m.fork }));
          negotiate m tr pump
        end
        else last_lsn
    | _, msg ->
        invalid_arg
          (Format.asprintf "Repl.Master.attach: expected Hello, got %a"
             Proto.pp msg)

  let attach ?(pump = fun () -> ()) m tr =
    if Db.active_txn_count m.db > 0 then
      invalid_arg "Repl.Master.attach: not allowed while transactions are active";
    let last_lsn = negotiate m tr pump in
    let peer =
      { tr; pump; buf = ref Bytes.empty; buf_bytes = 0; buf_count = 0;
        buf_last = 0L; shipped_lsn = 0L; barriers = 0; acked_lsn = 0L;
        alive = true; pstate = Live; synchronous = true;
        last_heard = Clock.now m.clock }
    in
    if Int64.equal last_lsn 0L || Int64.compare last_lsn m.fork < 0 then
      (* Fresh replica — or one whose history predates our fork point, which
         the file cannot serve: bootstrap from a checkpoint image. *)
      send_snapshot m peer
    else begin
      (* Rejoin: the replica stopped at [last_lsn]; ship the tail from
         the file.  Sync first so the file holds everything appended. *)
      Wal.sync m.wal;
      peer.shipped_lsn <- last_lsn;
      peer.acked_lsn <- last_lsn;
      ship_frames m peer (Wal.read_frames (Wal.path m.wal) ~after:last_lsn)
    end;
    m.peers <- m.peers @ [ peer ];
    peer

  (* Drive progress outside a sync: drain replica-to-master traffic (acks,
     resend requests), flush async buffers, re-issue the durability
     barrier to lagging peers (the anti-entropy retry: a behind replica
     answers a bare [Commit] with an [Ack] or a [Resend], even if its
     earlier [Resend] was lost) unless the drain's answer to a [Resend]
     just sent one, and re-promote caught-up demoted peers. *)
  let pump m =
    if not m.deposed then begin
      List.iter
        (fun peer ->
          if peer.alive then begin
            let barriers = peer.barriers in
            (* Poll, never wait: pump drains what has already arrived.  Only
               an ack-mode barrier ([await_ack]) may block on a peer. *)
            let continue = ref true in
            while !continue do
              match recv_peer m peer with
              | Some payload -> handle_peer_msg m peer payload
              | None -> continue := false
            done;
            if peer.buf_count > 0 then flush_peer m peer
            else if
              peer.barriers = barriers
              && Int64.compare peer.acked_lsn (Wal.last_lsn m.wal) < 0
            then ship_frames m peer no_frames;
            match m.mode with
            | Ack
              when (not peer.synchronous) && peer.alive
                   && Int64.compare peer.acked_lsn (Wal.last_lsn m.wal) >= 0
              ->
                (* The demoted peer caught all the way up: re-promote. *)
                peer.synchronous <- true;
                m.on_event
                  (Printf.sprintf "repl: peer %s re-promoted to synchronous"
                     peer.tr.Transport.label)
            | _ -> ()
          end)
        m.peers;
      update_lag m
    end

  (* The liveness beat: drain traffic, advance per-peer Live -> Suspect ->
     Dead state from heartbeat deadlines, and send [Ping]s.  Call this on
     every scheduler tick; a master that is never ticked behaves exactly
     like the pre-liveness engine (no false suspicions). *)
  let tick m =
    if not m.deposed then begin
      pump m;
      let now = Clock.now m.clock in
      List.iter
        (fun p ->
          if p.alive then begin
            let silent = now - p.last_heard in
            if silent >= m.liveness.dead_after then begin
              if p.pstate = Live then
                Stats.bump (stats m) Stats.Heartbeats_missed;
              kill_peer m p
            end
            else if silent >= m.liveness.suspect_after then begin
              if p.pstate = Live then begin
                p.pstate <- Suspect;
                Stats.bump (stats m) Stats.Heartbeats_missed;
                m.on_event
                  (Printf.sprintf "repl: peer %s suspected (silent %d ticks)"
                     p.tr.Transport.label silent)
              end
            end
            else if p.pstate = Suspect then p.pstate <- Live
          end)
        m.peers;
      if now - m.last_ping >= m.liveness.heartbeat_every then begin
        m.last_ping <- now;
        let ping =
          Proto.encode ~epoch:m.epoch
            (Proto.Ping { lsn = Wal.last_lsn m.wal; bytes = wal_bytes m })
        in
        List.iter
          (fun p ->
            if p.alive then
              try p.tr.Transport.send ping
              with Transport.Disconnected -> kill_peer m p)
          m.peers
      end
    end

  let acked_lsn peer = peer.acked_lsn
  let peer_alive peer = peer.alive
  let peer_state peer = peer.pstate
  let peer_synchronous peer = peer.synchronous
end

(* ------------------------------------------------------------------ *)
(* Replica: bootstrap from a snapshot, then apply shipped frames       *)

module Replica = struct
  exception Stale of string

  type t = {
    mutable tr : Transport.t;
    mutable db : Db.t option;
    mutable last_applied : int64;
    mutable commit_lsn : int64;
    mutable gap_pending : bool;
        (* a resend is already in flight: do not re-request per frame *)
    frames : int option;  (* buffer-pool size for the bootstrapped Db *)
    clock : Clock.t;
    liveness : liveness;
    mutable epoch : int;
    mutable last_heard : int;
    mutable mstate : state;  (* the master, as this replica sees it *)
    mutable master_bytes : int;
        (* the master's cumulative WAL bytes, from Ping/Commit/Snapshot *)
    mutable applied_bytes : int;
        (* WAL bytes applied locally, on the same scale *)
    mutable max_lag_bytes : int option;
    on_reset : (fork:int64 -> Db.t) option;
  }

  let connect ?frames ?clock ?(liveness = default_liveness) ?on_reset tr =
    let clock = match clock with Some c -> c | None -> Clock.wall () in
    tr.Transport.send (Proto.encode ~epoch:0 (Proto.Hello { last_lsn = 0L }));
    { tr; db = None; last_applied = 0L; commit_lsn = 0L; gap_pending = false;
      frames; clock; liveness; epoch = 0; last_heard = Clock.now clock;
      mstate = Live; master_bytes = 0; applied_bytes = 0;
      max_lag_bytes = None; on_reset }

  (* Wrap an existing replica-mode db — a restarted replica, or an old
     master recovered for rejoin — and [Hello] with its position.  The
     master serves the tail, or orders a [Reset] first if the log diverged
     (the db here was a master in an older epoch). *)
  let rejoin ?frames ?clock ?(liveness = default_liveness) ?on_reset ~db
      ~last_applied tr =
    let clock = match clock with Some c -> c | None -> Clock.wall () in
    let epoch = Db.epoch db in
    tr.Transport.send
      (Proto.encode ~epoch (Proto.Hello { last_lsn = last_applied }));
    { tr; db = Some db; last_applied; commit_lsn = last_applied;
      gap_pending = false; frames; clock; liveness; epoch;
      last_heard = Clock.now clock; mstate = Live; master_bytes = 0;
      applied_bytes = 0; max_lag_bytes = None; on_reset }

  let db r =
    match r.db with
    | Some db -> db
    | None -> invalid_arg "Repl.Replica.db: not bootstrapped yet"

  let note c r =
    match r.db with Some db -> Stats.bump (Db.stats db) c | None -> ()

  let reconnect r tr =
    r.tr <- tr;
    r.gap_pending <- false;
    r.mstate <- Live;
    r.last_heard <- Clock.now r.clock;
    note Stats.Reconnects r;
    tr.Transport.send
      (Proto.encode ~epoch:r.epoch (Proto.Hello { last_lsn = r.last_applied }))

  let last_applied r = r.last_applied
  let commit_lsn r = r.commit_lsn
  let epoch r = r.epoch
  let master_state r = r.mstate

  (* --- bounded-staleness read gate ------------------------------------ *)

  let lag_bytes r =
    Int64.of_int (max 0 (r.master_bytes - r.applied_bytes))

  let set_max_lag r limit = r.max_lag_bytes <- limit

  let check_staleness r =
    match r.max_lag_bytes with
    | Some max_lag when Int64.compare (lag_bytes r) (Int64.of_int max_lag) > 0
      ->
        raise
          (Stale
             (Printf.sprintf
                "Repl.Replica: %Ld bytes behind the master (max %d)"
                (lag_bytes r) max_lag))
    | _ -> ()

  let read r f =
    check_staleness r;
    f (db r)

  (* --- the apply stream ----------------------------------------------- *)

  let request_resend r =
    if not r.gap_pending then begin
      r.gap_pending <- true;
      match r.db with
      | None ->
          (* nothing to resend onto yet — the snapshot itself was lost or
             damaged; ask for the bootstrap again *)
          r.tr.Transport.send
            (Proto.encode ~epoch:r.epoch (Proto.Hello { last_lsn = 0L }))
      | Some _ ->
          r.tr.Transport.send
            (Proto.encode ~epoch:r.epoch
               (Proto.Resend { after = r.last_applied }))
    end

  (* Walk a shipped range from [pos], decoding each frame where it lies
     and applying it with [apply].  Duplicates are skipped by LSN.  A
     corrupt or short frame (damaged in flight: each frame carries its own
     checksum) or a gap (something was lost ahead of this frame) stops the
     walk before anything past it is applied: [false], and the caller
     requests the tail again.  [true] when the whole range was taken. *)
  let rec apply_range r data limit apply pos =
    pos >= limit
    ||
    match Wal.decode_frame_at data pos ~limit with
    | exception Wire.Corrupt _ -> false
    | lsn, record ->
        let next = Wal.frame_end data pos in
        if Int64.compare lsn r.last_applied <= 0 then
          apply_range r data limit apply next
        else if Int64.compare lsn (Int64.add r.last_applied 1L) > 0 then false
        else begin
          apply lsn record;
          r.last_applied <- lsn;
          r.applied_bytes <- r.applied_bytes + (next - pos);
          r.gap_pending <- false;
          apply_range r data limit apply next
        end

  (* The whole message is one replay bracket on the replica's [Db]. *)
  let apply_frames r data off len =
    match r.db with
    | None -> request_resend r  (* frames before a snapshot: re-bootstrap *)
    | Some db ->
        let whole =
          Db.replica_apply db (fun apply ->
              apply_range r data (off + len) apply off)
        in
        if not whole then request_resend r

  let note_master_bytes r bytes =
    let bytes = Int64.to_int bytes in
    if bytes > r.master_bytes then r.master_bytes <- bytes

  (* A new epoch resets the staleness scale: the new master's log (and its
     byte counter) starts at the fork point, so both sides of the lag
     subtraction restart from zero. *)
  let adopt_epoch r ep =
    if ep > r.epoch then begin
      r.epoch <- ep;
      r.master_bytes <- 0;
      r.applied_bytes <- 0
    end

  (* The master declared our log diverged above [fork] (we were a master in
     an older epoch): truncate back to the fork point and re-Hello.  The
     [on_reset] callback owns the local truncate+recover; a replica with no
     local log (never was a master) falls back to a full re-bootstrap. *)
  let do_reset r fork =
    (match r.on_reset with
    | Some f ->
        r.db <- Some (f ~fork);
        r.last_applied <- fork;
        r.commit_lsn <- fork
    | None ->
        r.db <- None;
        r.last_applied <- 0L;
        r.commit_lsn <- 0L);
    r.gap_pending <- false;
    r.applied_bytes <- 0;
    r.master_bytes <- 0;
    r.tr.Transport.send
      (Proto.encode ~epoch:r.epoch (Proto.Hello { last_lsn = r.last_applied }))

  let handle_msg r msg =
    match msg with
    | Proto.Snapshot { lsn; bytes; image } ->
        r.db <- Some (Db.open_replica ?frames:r.frames image);
        r.last_applied <- lsn;
        r.commit_lsn <- lsn;
        r.gap_pending <- false;
        r.applied_bytes <- Int64.to_int bytes;
        note_master_bytes r bytes
    | Proto.Frames { data; off; len } -> apply_frames r data off len
    | Proto.Commit { lsn; bytes } ->
        note_master_bytes r bytes;
        if Int64.compare lsn r.last_applied > 0 then begin
          (* The barrier names an LSN we never saw: frames were lost.
             Force a fresh request even if one is already in flight — the
             request itself may have been lost on the way to the master.
             Duplicated re-ships are harmless (frames at or below
             [last_applied] are skipped). *)
          r.gap_pending <- false;
          request_resend r
        end
        else r.commit_lsn <- lsn;
        (* Always acknowledge with where we actually are — an async master
           drains these to track lag, an ack master blocks on them. *)
        r.tr.Transport.send
          (Proto.encode ~epoch:r.epoch (Proto.Ack { lsn = r.last_applied }))
    | Proto.Ping { lsn = _; bytes } ->
        note_master_bytes r bytes;
        r.tr.Transport.send
          (Proto.encode ~epoch:r.epoch (Proto.Pong { lsn = r.last_applied }))
    | Proto.Reset { fork } -> do_reset r fork
    | Proto.Fenced ->
        (* Same-epoch [Fenced] — the sender fenced traffic we no longer
           emit; nothing to do (a newer-epoch one was adopted already). *)
        ()
    | Proto.Hello _ | Proto.Ack _ | Proto.Resend _ | Proto.Pong _ ->
        ()  (* not a master-to-replica message; ignore *)

  let dispatch r ep msg =
    if ep < r.epoch then begin
      (* Traffic from a fenced-off epoch — a zombie master that has not yet
         learned it was deposed.  Never apply it; answer [Fenced] so the
         zombie stops shipping. *)
      try r.tr.Transport.send (Proto.encode ~epoch:r.epoch Proto.Fenced)
      with Transport.Disconnected -> ()
    end
    else begin
      adopt_epoch r ep;
      r.last_heard <- Clock.now r.clock;
      r.mstate <- Live;
      handle_msg r msg
    end

  (* Drain a link this replica no longer follows (e.g. the old master's
     transport after a failover): every payload from a lower epoch is
     answered with [Fenced] — the zombie-fencing path — and nothing is
     applied.  Returns how many payloads were fenced. *)
  let fence_link r tr =
    let fenced = ref 0 in
    (try
       let continue = ref true in
       while !continue do
         match tr.Transport.recv ~block:false with
         | None -> continue := false
         | Some payload -> (
             match Proto.decode payload with
             | exception Wire.Corrupt _ -> ()
             | ep, _ when ep < r.epoch -> (
                 incr fenced;
                 try
                   tr.Transport.send
                     (Proto.encode ~epoch:r.epoch Proto.Fenced)
                 with Transport.Disconnected -> continue := false)
             | _, _ -> ())
       done
     with Transport.Disconnected -> ());
    !fenced

  (* Process at most one pending message; [false] when none was pending. *)
  let step r =
    match r.tr.Transport.recv ~block:false with
    | None -> false
    | Some payload ->
        (match Proto.decode payload with
        | ep, msg -> dispatch r ep msg
        | exception Wire.Corrupt _ ->
            (* The envelope failed its checksum, so the message kind itself
               is unknowable — it may have been frames.  Re-request. *)
            request_resend r);
        true

  (* Drain everything pending; the count of messages processed.  A dead
     link stops the drain quietly — [reconnect] resumes from
     [last_applied]. *)
  let drain r =
    let n = ref 0 in
    (try
       while step r do
         incr n
       done
     with Transport.Disconnected -> ());
    !n

  (* The liveness beat: advance the master's Live -> Suspect -> Dead state
     from its heartbeat deadline.  Any received message resets it to Live
     (see [dispatch]); promotion decisions key off [master_state]. *)
  let tick r =
    let now = Clock.now r.clock in
    let silent = now - r.last_heard in
    if silent >= r.liveness.dead_after then begin
      if r.mstate <> Dead then begin
        if r.mstate = Live then note Stats.Heartbeats_missed r;
        r.mstate <- Dead;
        note Stats.Peer_deaths r
      end
    end
    else if silent >= r.liveness.suspect_after then
      if r.mstate = Live then begin
        r.mstate <- Suspect;
        note Stats.Heartbeats_missed r
      end

  (* Failover: this replica becomes the master of the next epoch.  Its
     applied prefix is the fork point; the returned master serves rejoins
     above the fork from its fresh log and re-bootstraps older peers. *)
  let promote ?mode ?clock ?liveness ?ack_deadline ?on_event r ~wal_path =
    let d = db r in
    let _new_epoch : int =
      Db.promote_replica d ~wal_path ~last_lsn:r.last_applied
    in
    Stats.bump (Db.stats d) Stats.Failovers;
    r.epoch <- Db.epoch d;
    Master.create ?mode ?clock ?liveness ?ack_deadline ?on_event
      ~fork:r.last_applied d

  (* Blocking-ish service loop for the CLI: apply messages until the link
     dies, ticking the failure detector while idle. *)
  let run r =
    let live = ref true in
    while !live do
      match step r with
      | true -> ()
      | false ->
          tick r;
          if r.mstate = Dead then live := false
          else if r.tr.Transport.blocking then
            ignore (Unix.select [] [] [] 0.01)
          else
            (* a transport that cannot block (loopback) has nothing to wait
               on: the caller should use [drain] instead *)
            live := false
      | exception Transport.Disconnected -> live := false
    done
end
