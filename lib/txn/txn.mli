(** Per-transaction bookkeeping: identity, life-cycle state, the undo list
    of before-images (captured at first touch), slots pinned by deletes,
    and per-transaction cost accounting.

    The transaction manager proper lives in [Db] (which owns the lock
    manager, the WAL and the object engine); this module is the passive
    record both sides share. *)

type state = Active | Committed | Aborted

type undo_image = {
  u_set : string;
  u_oid : Fieldrep_storage.Oid.t;
  u_present : bool;
      (** [false]: the object was created by this transaction; undo deletes
          it instead of restoring fields. *)
  u_values : Fieldrep_model.Value.t list;  (** user fields, schema order *)
}

type t

val make : int -> t
val id : t -> int
val is_active : t -> bool

val touched : t -> Fieldrep_storage.Oid.t -> bool
(** Has a before-image already been captured for this object?  Allocates
    nothing. *)

val record_touch : t -> Fieldrep_storage.Oid.t -> undo_image -> unit
(** First touch wins; later touches of the same object are ignored. *)

val undo_images : t -> undo_image list
(** Newest first — already in rollback order. *)

val add_tombstone : t -> set:string -> Fieldrep_storage.Oid.t -> unit
val tombstones : t -> (string * Fieldrep_storage.Oid.t) list
val charge_io : t -> int -> unit
val io : t -> int

val begun : t -> bool
(** Has this transaction logged a [Txn_op] record yet?  Only then does it
    need a commit/abort marker, so read-only transactions leave no trace
    in the log. *)

val mark_begun : t -> unit

val pending_snapshot : t -> (int * int64) list
(** Lazy-invalidation table keys pending when the transaction began;
    entries beyond this set are repair debt the transaction created and
    must settle if it aborts. *)

val set_pending_snapshot : t -> (int * int64) list -> unit

(**/**)

val set_state : t -> state -> unit
