(** Hierarchical lock manager: strict two-phase locking over a two-level
    set → object hierarchy.

    Readers and writers declare intent at the set level ([IS]/[IX]) and
    lock individual objects [S]/[X]; whole-set operations (scans, lock
    escalation for reference updates) take [S]/[X] on the set itself, which
    conflicts with any intention mode.  Upgrades combine via a least upper
    bound (no SIX mode: [S]+[IX] escalates to [X]).

    Locks are granted immediately or not at all — this is a cooperative
    single-threaded engine, so instead of parking a thread, a conflicting
    request raises {!Would_block} and the caller retries the whole
    operation later (nothing has executed yet: lock sets are acquired up
    front).  Blocked requests are remembered as wait-for edges; a request
    that would close a cycle raises {!Deadlock} naming the requester as the
    victim, which is deterministic under a deterministic scheduler.

    Strict 2PL: locks are only ever released by {!release_all} at commit or
    abort, which is what makes the commit order a valid serial order.

    The table is keyed by the resource itself, hashed and compared
    without allocating (a set by its name, an object by its OID's three
    ints).  Each entry stores its first holder and mode inline and spills
    further holders of a shared resource to a list; when the inline holder
    releases, the next one moves inline.  A transaction's held list names
    its resources.  Granting a lock on a fresh resource and releasing it
    allocates only the table entries, and re-acquiring a covered lock allocates nothing. *)

type mode = IS | IX | S | X

type resource = Set of string | Obj of Fieldrep_storage.Oid.t

exception Would_block of { txn : int; holders : int list }
exception Deadlock of { victim : int; cycle : int list }

type t

val create : ?stats:Fieldrep_storage.Stats.t -> unit -> t
(** [stats], when given, receives [lock_waits], [deadlocks] and
    [deadlock_upgrades] counts. *)

val acquire : t -> txn:int -> resource -> mode -> unit
(** Grant or upgrade, or raise {!Would_block} / {!Deadlock}.  Granted locks
    are held until {!release_all}. *)

val grant : t -> txn:int -> resource -> mode -> unit
(** Record a lock without conflict checking — for freshly allocated OIDs no
    other transaction can have seen. *)

val holds : t -> txn:int -> resource -> mode -> bool

val release_all : t -> txn:int -> unit
(** Drop every lock and any pending wait-for edge of [txn]. *)

val held_count : t -> txn:int -> int
val active_locks : t -> int
val compatible : mode -> mode -> bool
val covers : mode -> mode -> bool
val lub : mode -> mode -> mode
val mode_name : mode -> string
val resource_name : resource -> string
