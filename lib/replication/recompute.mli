(** Ground-truth recomputation of all derived replication state.

    Field replication makes every replicated value {e derivable
    redundancy}: hidden copies, link-object memberships and S' contents can
    all be recomputed by walking the forward path from the source objects.
    This module performs that walk once over every source set and returns
    the expected state of every derived structure.

    {!Invariants} is its only consumer: it compares the expectation with
    what is stored and returns the divergences, which the invariant check
    reports and [Scrub] repairs. *)

module Oid = Fieldrep_storage.Oid
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record

type expected = {
  memberships : (int * Oid.t, (Oid.t, Oid.t) Hashtbl.t) Hashtbl.t;
      (** [(link_id, target oid)] -> expected entries, keyed by member oid,
          value = expected tag ([Oid.nil] when untagged) *)
  hidden : (Oid.t, (int * int * Value.t) list ref) Hashtbl.t;
      (** source oid -> [(rep_id, absolute value index, expected value)]
          for in-place and collapsed hidden copies *)
  sep_final : (int * Oid.t, Oid.t option) Hashtbl.t;
      (** [(rep_id, source oid)] -> final oid the source's S' should
          replicate, [None] when the path is incomplete *)
}

val compute : Engine.env -> expected
(** Scan every source set and recompute the expected derived state. *)
