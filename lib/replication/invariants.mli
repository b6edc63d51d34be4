(** The one audit of replicated state.

    Hidden copies, link objects and S' records are derivable redundancy
    (paper §4, §5): consistency means that what is stored equals what the
    forward walk of {!Recompute} derives from the source objects.  This
    module is the only place that compares the two.  It returns one typed
    {!finding} per divergence, and two consumers act on them: {!check} and
    {!errors} report them (test suites and [Db.check_integrity] call these
    after every mutation pattern), and [Scrub] repairs them.

    Only [Active] declarations are audited: a path mid-backfill or
    mid-teardown is legitimately partial, and its maintenance job owns it.
    Sources with a pending lazy invalidation are legitimately stale.

    An unreadable page (a storage fault) raises out of {!findings}: nothing
    under it can be recomputed.  Objects reached through a stored
    reference that do not read or decode are {!Unreadable} findings. *)

module Oid = Fieldrep_storage.Oid
module Value = Fieldrep_model.Value

(** What is wrong with a separate source's S' reference. *)
type sref_problem =
  | Missing of Oid.t  (** null, but the path is complete to this final *)
  | Stale  (** references an S' although the path is incomplete *)
  | Wrong_owner of { owner : Oid.t; final : Oid.t }
      (** the S' replicates [owner], the path leads to [final] *)
  | Dead  (** no well-formed S' record lives at the reference *)
  | Not_a_ref  (** the slot holds a scalar *)

type finding =
  | Stale_hidden of {
      rep_id : int;
      source : Oid.t;
      slot : int;
      stored : Value.t;
      expected : Value.t;
    }  (** an in-place or collapsed hidden copy differs from the final *)
  | Stray_link of { link_id : int; target : Oid.t }
      (** a data object holds a pair of a link it is no target of (or of
          an unknown link id) *)
  | Membership of {
      link_id : int;
      target : Oid.t;
      stored : int;  (** readable entries stored, 0 when missing *)
      expected : Link_object.entry list;  (** sorted by member *)
    }  (** a target's membership is missing or differs from the walk *)
  | Shared_link of {
      link_id : int;
      target : Oid.t;
      link_oid : Oid.t;
      expected : Link_object.entry list;
    }  (** [target]'s pair names a link object an earlier target holds *)
  | Orphan_link of { link_id : int; link_oid : Oid.t }
      (** a link object no data object's pair references *)
  | Sref of {
      rep_id : int;
      source : Oid.t;
      slot : int;
      stored : Value.t;
      problem : sref_problem;
    }
  | Sprime_values of {
      rep_id : int;
      sprime : Oid.t;
      final : Oid.t;
      expected : Value.t list;  (** the final's replicated fields, in order *)
    }  (** an S' record's replicated values differ from its final's *)
  | Sprime_refcount of {
      rep_id : int;
      link_id : int;  (** the declaration's sref link *)
      sprime : Oid.t;
      stored : int option;  (** [None] when the record is unreadable *)
      claimed : int;  (** sources referencing it *)
    }  (** refcount differs from the claims, or nothing claims the S' *)
  | Sref_pair of {
      rep_id : int;
      link_id : int;
      owner : Oid.t;
      stored : Oid.t option;  (** where [owner]'s sref pair points *)
      wanted : Oid.t option;
          (** the S' it should point to; [None] when the stored pair names
              a dead S' or one [owner] does not own *)
    }
  | Unreadable of { oid : Oid.t; what : string }
      (** an object reached by reference does not read or decode *)

val findings : Engine.env -> finding list
(** Every divergence between stored derived state and the recomputation,
    in scan order; [[]] on a consistent database. *)

val describe : finding -> string

val errors : Engine.env -> string list
(** [List.map describe (findings env)]. *)

val check : Engine.env -> unit
(** Raises [Failure] describing the first finding. *)
