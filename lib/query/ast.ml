module Value = Fieldrep_model.Value
module Oid = Fieldrep_storage.Oid

type predicate = { pfield : string; lo : Value.t option; hi : Value.t option }

type retrieve = {
  from_set : string;
  projections : string list;
  where : predicate option;
}

type rhs = Const of Value.t | Computed of (Oid.t -> Value.t)

type replace = {
  target_set : string;
  assignments : (string * rhs) list;
  rwhere : predicate option;
}

let eq field v = { pfield = field; lo = Some v; hi = Some v }
let between field lo hi = { pfield = field; lo = Some lo; hi = Some hi }
