(** Query planning and execution.

    The planner is deliberately simple — pick an index for the predicate if
    one exists, then evaluate projections — but it is *replication-aware*
    through {!Fieldrep.Db.expr}: a projection covered by an in-place path
    reads no other object, one covered by a separate path reads only the S'
    object, and anything else performs the functional joins.  This is
    exactly the query-processing behaviour the paper's cost model prices.

    Every call compiles each expression it reads (projections, the
    file-scan predicate, the order-by and group keys, aggregate arguments)
    once, before its scan, and evaluates it per row with
    {!Fieldrep.Db.eval}.  An unknown field or a non-reference step raises
    [Invalid_argument] before any row is read. *)

module Db = Fieldrep.Db
module Value = Fieldrep_model.Value
module Oid = Fieldrep_storage.Oid

type access = Index_scan of string | File_scan

type retrieve_plan = {
  access : access;
  join_counts : (string * int) list;
      (** functional joins each projection performs per row *)
}

val explain_retrieve : Db.t -> Ast.retrieve -> retrieve_plan

type retrieve_result = {
  rows : int;
  output_file : int;  (** heap file holding the result (the model's T) *)
  output_pages : int;
}

val retrieve : Db.t -> Ast.retrieve -> retrieve_result
(** Executes the query, materialising the result into a fresh output file
    (so its generation I/O is counted, as in the model).  Nothing logs
    the output file, so its id comes from the query output range
    ({!Fieldrep_storage.Disk.create_output_file}), and the ids that sets,
    indexes and replicas get stay the same with or without queries. *)

val retrieve_values : Db.t -> Ast.retrieve -> Value.t list list
(** Convenience for tests and examples: run the query and load the result
    rows back; the output file is dropped. *)

val drop_output : Db.t -> int -> unit
(** Delete a result file produced by {!retrieve}. *)

val replace : Db.t -> Ast.replace -> int
(** Executes an update query; returns the number of objects updated.  All
    replicated copies are maintained through the usual engine paths. *)

val matching_oids : Db.t -> set:string -> Ast.predicate option -> Oid.t list
(** The OIDs a predicate selects (exposed for workload drivers). *)

(** {1 Aggregates and ordering} *)

type aggregate = Count | Sum | Avg | Min | Max

val aggregate :
  Db.t ->
  set:string ->
  where:Ast.predicate option ->
  (aggregate * string) list ->
  Value.t list
(** One pass over the selected objects computing every aggregate.  The
    expression may be a field name or a replicated/derefenced path.  [Count]
    counts non-null values; [Sum]/[Avg] require integers ([Avg] rounds
    down); [Min]/[Max] work on integers and strings.  Aggregates over an
    empty selection yield [VInt 0] for [Count] and [VNull] otherwise. *)

val group_by :
  Db.t ->
  set:string ->
  where:Ast.predicate option ->
  key:string ->
  (aggregate * string) list ->
  (Value.t * Value.t list) list
(** Grouped aggregation: partition the selected objects by the value of
    [key] (a field or path expression — grouping by a replicated path needs
    no joins), compute the aggregates within each group, and return the
    groups in ascending key order. *)

val delete_where : Db.t -> set:string -> Ast.predicate option -> int
(** Delete every selected object (replication maintenance included).
    Raises like {!Db.delete} if a selected object is still referenced along
    a replication path; objects deleted before the error stay deleted. *)

val retrieve_sorted :
  Db.t ->
  Ast.retrieve ->
  order_by:string ->
  ?descending:bool ->
  ?limit:int ->
  unit ->
  Value.t list list
(** Run the query, sort rows by the value of [order_by] (a field or path
    expression, evaluated per row whether or not it is projected), and
    optionally keep only the first [limit] rows. *)
