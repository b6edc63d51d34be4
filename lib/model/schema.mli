(** The system catalog: types, sets, indexes and replication declarations.

    The schema is purely logical — it knows nothing about files or pages.
    The engine (lib/core) binds sets to heap files and indexes to B+-trees.

    The catalog also fixes the *hidden-field layout* of each set: a stored
    record's value array is the set's user fields followed by one hidden
    slot per replication declaration (in replication-id order) — a
    replicated copy per terminal field for in-place paths, or a single
    reference to the shared S' object for separate paths (paper §4, §5). *)

type strategy = Inplace | Separate

type rep_options = {
  collapse : bool;
      (** collapse the inverted path to one level (paper §4.3.3) *)
  small_link_threshold : int;
      (** eliminate link objects with at most this many OIDs, storing the
          member OID directly in the referenced object (paper §4.3.1);
          0 disables the optimization *)
  lazy_propagation : bool;
      (** defer propagation until a replicated copy is read (the paper's §8
          "updates are not propagated until needed"): a field update only
          walks the inverted path to *invalidate* the affected sources in
          an in-memory table, and each source repairs its hidden copies by
          a forward walk the first time they are read.  In-place paths
          only, and such paths cannot carry indexes. *)
  cluster_links : bool;
      (** cluster related link objects of an n-level path together
          (paper §4.3.2): all levels of this path's inverted chain share
          one link file, laid out so that a final object's link object sits
          next to the link objects of the intermediates it reaches —
          cutting the I/O of multi-level update propagation.  Best effort
          when prefix links are already materialised by another path.
          Requires level >= 2 and is incompatible with [collapse]. *)
}

val default_options : rep_options

type replication = {
  rep_id : int;
  rpath : Path.t;
  strategy : strategy;
  options : rep_options;
}

(** Life-cycle of a replication declaration, driven by the online
    reconfiguration jobs in [lib/maint]:

    - [Building]: declared, catch-up propagation installed, backfill still
      walking the source set.  Readers ignore it (functional joins); writers
      maintain whatever derived state exists so far.
    - [Active]: fully built — the only state planners use.
    - [Dropping]: reads have flipped back to functional joins; the teardown
      job is removing derived state.  Writers still {e remove} stale
      memberships but no longer add or refresh anything for it.
    - [Dropped]: terminal.  The declaration is never physically deleted —
      its hidden slot stays in the record layout as a dead (null) slot and
      its link IDs stay allocated — so later declarations keep their layout
      and IDs. *)
type rep_state = Building | Active | Dropping | Dropped

type index_def = { iname : string; iset : string; ifield : string; clustered : bool }

type resolved_path = {
  type_chain : string list;
      (** type name at every hop; length = level + 1, head = source set's
          element type *)
  terminal_fields : (string * Ty.scalar) list;
      (** replicated scalar fields of the final type (singleton unless the
          terminal is [all]) *)
}

type t

val create : unit -> t

val generation : t -> int
(** A counter that every successful {!define_type}, {!create_set},
    {!add_index}, {!add_replication} and {!set_rep_state} advances, so a
    plan compiled against the catalog can tell whether it is still
    current. *)

(** {1 Types} *)

val define_type : t -> Ty.t -> unit
(** Raises [Invalid_argument] on redefinition. *)

val find_type : t -> string -> Ty.t
(** Raises [Not_found]. *)

val type_tag : t -> string -> int
val type_of_tag : t -> int -> Ty.t
val types : t -> Ty.t list

(** {1 Sets} *)

val create_set : t -> name:string -> elem_type:string -> unit
(** Validates that the element type and the targets of all its reference
    attributes are defined.  Raises [Invalid_argument] / [Not_found]. *)

val set_type : t -> string -> Ty.t
(** Element type of a set.  Raises [Not_found]. *)

val sets : t -> (string * string) list
(** [(set name, element type name)], in creation order. *)

(** {1 Indexes} *)

val add_index : t -> index_def -> unit
(** Validates the set and that the field is a user scalar field *or* an
    in-place-replicated hidden field named by a path string (paper §3.3.4:
    indexes on replicated data).  At most one clustered index per set. *)

val indexes : t -> index_def list
val indexes_on : t -> string -> index_def list

(** {1 Paths and replication} *)

val resolve_path : t -> Path.t -> resolved_path
(** Validates every step against the catalog.  Raises [Invalid_argument]
    with a description of the first bad hop. *)

val add_replication :
  t ->
  ?options:rep_options ->
  ?state:rep_state ->
  strategy:strategy ->
  Path.t ->
  replication
(** Registers the path (validating it) and assigns a fresh [rep_id].
    Duplicate paths are rejected ([Dropped] declarations do not count — a
    re-replicated path gets a fresh declaration).  [state] defaults to
    [Active] (the pre-reconfiguration bulk-build behaviour). *)

val replications : t -> replication list
(** Every non-[Dropped] declaration, in [rep_id] order. *)

val all_replications : t -> replication list
(** Every declaration ever made, [Dropped] included — the sequence that
    fixes hidden-slot layout and link-ID allocation. *)

val rep_state : t -> int -> rep_state
val set_rep_state : t -> int -> rep_state -> unit

val find_replication : t -> Path.t -> replication option
(** The latest non-[Dropped] declaration of this path, if any. *)

val replications_from : t -> string -> replication list
(** Non-[Dropped] declarations whose source set is the given set. *)

(** {1 Hidden layout} *)

val user_arity : t -> string -> int
val record_width : t -> string -> int

val hidden_index : t -> string -> rep_id:int -> field:string option -> int
(** Absolute value-array index of a hidden slot: the copy of [field] for an
    in-place path, or the S'-reference ([field = None]) for a separate
    path.  Raises [Not_found]. *)
