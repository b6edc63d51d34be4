(** Message transport between a master and one replica.

    A transport moves opaque payloads (encoded {!Proto} messages) in both
    directions, preserving order per direction.  Two implementations: an
    in-process {!loopback} pair with deterministic fault injection for
    tests and benchmarks, and {!of_socket} over a Unix file descriptor for
    the CLI's [master]/[replica] subcommands. *)

exception Disconnected
(** The link is gone.  [send] raises it on a dead link; [recv] raises it
    once the already-delivered backlog is drained. *)

type t = {
  send : string -> unit;  (** enqueue one payload; raises {!Disconnected} *)
  recv : block:bool -> string option;
      (** next payload, if any.  [~block:false] never waits.
          [~block:true] waits only when {!field-blocking} is [true];
          a loopback cannot wait (single process) and returns [None],
          relying on the caller to pump the peer. *)
  close : unit -> unit;
  blocking : bool;  (** whether [recv ~block:true] actually blocks *)
  label : string;  (** for diagnostics *)
}

(** Fault injection on a loopback endpoint's {e sends}, two layers:

    {b One-shot counters} ([drop], [duplicate], [corrupt], [truncate],
    [hang], [disconnect_after]) each consume one unit as payloads pass
    through — mutate mid-test to inject at an exact point.

    {b Seeded schedules} ([p_*] probabilities drawn from [rng], set via
    {!seed_schedule}) decide independently per payload, so a long run
    sees a reproducible random mix of faults.  One-shot counters take
    precedence over the probabilistic draw for the same fault kind.

    A {e hang} is a bounded delay-and-reorder, not a loss: the payload is
    held and delivered after [hang_for] further sends on the same
    endpoint (duplicates/resends keep the link moving, so held payloads
    eventually arrive late and out of order — exactly the case the
    receiver's gap/duplicate handling must absorb). *)
type faults = {
  mutable drop : int;  (** lose the next N payloads silently *)
  mutable duplicate : int;  (** deliver the next N payloads twice *)
  mutable corrupt : int;  (** flip a byte in the next N payloads *)
  mutable truncate : int;  (** deliver only half of the next N payloads *)
  mutable hang : int;  (** hold the next N payloads for [hang_for] sends *)
  mutable disconnect_after : int;
      (** after this many further sends, kill the link mid-send (that
          payload is lost); [-1] = never *)
  mutable p_drop : float;  (** per-payload drop probability *)
  mutable p_duplicate : float;  (** per-payload duplication probability *)
  mutable p_corrupt : float;  (** per-payload corruption probability *)
  mutable p_hang : float;  (** per-payload hold probability *)
  mutable hang_for : int;  (** sends a held payload waits before delivery *)
  mutable rng : Fieldrep_util.Splitmix.t option;
      (** draws for the [p_*] probabilities; [None] disables them *)
  mutable held : (int * string) list;
      (** internal: held payloads and their remaining delay *)
}

val seed_schedule :
  ?p_drop:float ->
  ?p_duplicate:float ->
  ?p_corrupt:float ->
  ?p_hang:float ->
  ?hang_for:int ->
  faults ->
  seed:int ->
  unit
(** Arm a seeded probabilistic schedule on this endpoint (probabilities
    default to 0).  Deterministic for a given seed and send sequence. *)

val loopback : unit -> t * t * faults * faults
(** [loopback ()] is [(a, b, faults_a, faults_b)]: two connected endpoints
    backed by in-process queues — what [a] sends (filtered through
    [faults_a]) arrives at [b.recv], and vice versa.  Closing either end
    kills the link for both; payloads delivered before the disconnect
    remain readable, like bytes already in a socket buffer. *)

val of_socket : ?label:string -> Unix.file_descr -> t
(** Wrap a connected stream socket: each payload travels as a u32-le
    length prefix plus the raw bytes.  EOF and socket errors surface as
    {!Disconnected}; [EINTR] is retried everywhere.  Incoming bytes are
    reassembled incrementally, so a non-blocking [recv] returns [None]
    (never blocks) while a length prefix or body is still partial — even
    if the peer delivers one byte at a time. *)
