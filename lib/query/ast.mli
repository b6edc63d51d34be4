(** Query abstract syntax: the two query classes of the paper's model
    (§6) generalised a little.

    A read query projects field and path expressions from objects of one
    set selected by a range predicate on a scalar field:

    {v retrieve (Emp1.name, Emp1.salary, Emp1.dept.name)
       where Emp1.salary > 100000 v}

    An update query assigns new values to fields of the selected objects:

    {v replace (Dept.budget = 42) where Dept.name = "toys" v} *)

module Value = Fieldrep_model.Value
module Oid = Fieldrep_storage.Oid

(** Inclusive range predicate on one scalar field; [None] bounds are open.
    Equality is [lo = hi = Some v]. *)
type predicate = { pfield : string; lo : Value.t option; hi : Value.t option }

type retrieve = {
  from_set : string;
  projections : string list;
      (** field names or dotted path expressions rooted at the set *)
  where : predicate option;  (** [None] scans the whole set *)
}

(** Right-hand side of an assignment: a constant, or a function of the
    updated object's OID (used by workload generators to write distinct
    values). *)
type rhs = Const of Value.t | Computed of (Oid.t -> Value.t)

type replace = {
  target_set : string;
  assignments : (string * rhs) list;
  rwhere : predicate option;
}

val eq : string -> Value.t -> predicate
val between : string -> Value.t -> Value.t -> predicate
