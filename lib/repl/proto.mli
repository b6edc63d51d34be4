(** Replication wire protocol.

    Ten message kinds cover the whole master/replica conversation,
    including liveness and failover:

    {v replica -> master   Hello{last_lsn}      who I am, where I stopped
       master  -> replica  Snapshot{lsn;bytes;image}  bootstrap image
       master  -> replica  Frames{...}          raw WAL frames, LSN order
       master  -> replica  Commit{lsn;bytes}    durability barrier marker
       replica -> master   Ack{lsn}             applied through this LSN
       replica -> master   Resend{after}        gap or corruption: re-ship
       master  -> replica  Ping{lsn;bytes}      heartbeat + log position
       replica -> master   Pong{lsn}            heartbeat reply
       either  -> either   Fenced               your epoch is stale, stop
       master  -> replica  Reset{fork}          truncate above fork, rejoin v}

    Each message travels as one transport payload:
    [crc:u32 | epoch:u32 | tag:u8 | body], where [crc] is the same
    [Checksum.sum32] the WAL and the disk use, over epoch+tag+body.  The
    transport frames lengths; the checksum catches corruption and
    truncation inside a delivered payload.

    The {e epoch} is the fencing token (one promotion = one epoch bump).
    It lives in the envelope rather than in any message body so every
    payload is fenceable before dispatch: a receiver drops or answers
    {!Fenced} to anything from a lower epoch, which is how a zombie
    master's frames and a stale replica's acks are kept out of the state.

    A [Frames] body is {e one range of concatenated WAL frames}, the bytes
    the master's log holds for them (no count, no per-frame prefix): each
    frame carries its own length and checksum, so a replica walks the
    range frame by frame and re-validates each one after the envelope.

    [bytes] on {!Snapshot}/{!Commit}/{!Ping} is the master's cumulative
    WAL byte count at that position; replicas difference it against the
    bytes they have applied to bound read staleness. *)

type msg =
  | Hello of { last_lsn : int64 }
      (** replica's first message: [0L] asks for a {!Snapshot} bootstrap,
          a later LSN asks for catch-up from there (rejoin) *)
  | Snapshot of { lsn : int64; bytes : int64; image : string }
      (** [Db.image] bytes stamped with the log position and cumulative
          WAL bytes they reflect *)
  | Frames of { data : Bytes.t; off : int; len : int }
      (** raw WAL frames in LSN order, lying back to back in [data] from
          [off] for [len] bytes.  {!encode} copies the range into the
          envelope; {!decode} returns a read-only view of the received
          payload's frames region, valid as long as that payload. *)
  | Commit of { lsn : int64; bytes : int64 }
      (** everything through [lsn] ([bytes] cumulative WAL bytes) is
          durable on the master; the replica always answers an {!Ack} *)
  | Ack of { lsn : int64 }  (** the replica has applied through [lsn] *)
  | Resend of { after : int64 }
      (** the replica saw a gap or a corrupt frame: re-ship everything
          after [after] *)
  | Ping of { lsn : int64; bytes : int64 }
      (** master heartbeat: alive, log ends at [lsn] / [bytes] *)
  | Pong of { lsn : int64 }
      (** replica heartbeat reply: alive, applied through [lsn] *)
  | Fenced
      (** the sender's envelope epoch is newer than yours: you are stale.
          A fenced master stops shipping; a fenced replica re-syncs. *)
  | Reset of { fork : int64 }
      (** the receiver's log diverged above [fork] (it was a master in an
          older epoch): truncate everything above [fork] and re-Hello *)

val encode : epoch:int -> msg -> string
(** Raises [Invalid_argument] on a negative epoch. *)

val decode : string -> int * msg
(** [(epoch, msg)], read in place: the payload is not copied, and a
    [Frames] message allocates the same few words whatever it carries.
    Raises [Fieldrep_util.Wire.Corrupt] on a short, truncated,
    checksum-failing or trailing-garbage payload. *)

val pp : Format.formatter -> msg -> unit
