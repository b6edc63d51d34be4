(** Runtime lock-order recorder ("lockdep").

    The engine is single-domain today, but the path to OCaml 5 parallelism
    (ROADMAP "True parallelism on OCaml 5 domains") needs the implicit
    acquisition order — maintenance quantum -> transaction locks ->
    buffer-pool pin -> WAL sync — made explicit and asserted before any
    [Domain.spawn] lands.  This module records the acquisition edges the
    process actually takes and fails fast the moment an observed edge
    closes a cycle in the (class-granular) lock-order graph.

    The recorder is debug-flag-gated: it costs one atomic load per
    acquisition when disabled.  Tests enable it with {!set_enabled}; the
    [FIELDREP_LOCKDEP] environment variable ([1]/[true]/[yes]) enables it
    process-wide, which is how the CI fault matrix runs the whole suite
    under lockdep.

    Granularity is the lock {e class}, not the lock instance: one edge per
    ordered pair of classes, tracked per domain ({!acquire}/{!release}
    maintain per-domain held counts via [Domain.DLS], the edge graph is
    global under a mutex).  Class granularity is deliberately strict — it
    forbids instance-level tricks (lock A1 then A2 of the same class is
    fine; class A under class B and class B under class A is not, even on
    different instances), which is the discipline the static O1 rule
    checks too. *)

type cls =
  | Maint_job  (** a background-maintenance quantum is executing *)
  | Txn_lock  (** lock-manager resources held by some transaction *)
  | Pool_pin  (** a buffer-pool frame pin (or page latch) *)
  | Wal_sync  (** the WAL flush barrier ([Wal.sync] is executing) *)

exception Cycle of string
(** Raised by {!acquire}/{!note} when recording the new edge would close a
    cycle in the acquisition-order graph: a potential deadlock under real
    parallelism.  The message names both edges of the inversion. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val acquire : cls -> unit
(** Record edges [held -> cls] for every class currently held by this
    domain, then push [cls] on the domain's held multiset.  No-op when
    disabled. *)

val note : cls -> unit
(** Record edges like {!acquire} but do not push: for re-acquisitions that
    will not get their own {!release} (e.g. a transaction adding a lock to
    a set that is released wholesale by [release_all]). *)

val release : cls -> unit
(** Pop one held count of [cls] (clamped at zero, so toggling {!enabled}
    mid-flight cannot underflow). *)

val with_held : cls -> (unit -> 'a) -> 'a
(** [with_held c f] brackets [f] between {!acquire} and {!release}. *)

val isolated : (unit -> 'a) -> 'a
(** Run [f] with a fresh, empty held multiset, restoring the current one
    afterwards.  Used at node boundaries: when an in-process transport
    delivers a frame to a {e replica} inside the {e master}'s [Wal.sync],
    the replica's pins are taken under that replica's (future) locks, not
    the master's — without the scope reset, class-granular tracking would
    conflate the two nodes into a false [Wal_sync -> Pool_pin] edge. *)

val edges : unit -> (cls * cls) list
(** Every acquisition edge observed since the last {!reset}. *)

val reset : unit -> unit
(** Clear the edge graph (held counts are left alone). *)
