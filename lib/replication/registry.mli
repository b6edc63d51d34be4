(** Compiled replication paths: the link trie and the link-ID space.

    Replication declarations from the catalog are compiled into one trie per
    source set.  Each trie node stands for one *link* position — a prefix
    such as [Empl.dept] or [Empl.dept.org] — so paths with a common prefix
    share nodes, and therefore share links and link IDs exactly as in paper
    §4.1.4.  A node carries an inverted-path link ID when at least one path
    needs that level inverted (every level for in-place paths, all but the
    last for separate paths, none for collapsed paths, which get a single
    dedicated tagged link at their final node).

    Link-ID assignment replays declarations in [rep_id] order — including
    [Dropped] ones, which are then erased from the logical view (stripped
    from [passing]/[linked]/[terminals]/[chain], their link IDs
    deallocated from {!link_kind}, nodes whose link no live path needs left
    as inert [link_id = None] stubs) — so IDs are stable when declarations are appended {e or
    dropped}; required because the IDs are persisted inside stored
    objects. *)

type terminal_kind =
  | K_inplace
  | K_separate of int  (** its sref link id *)
  | K_collapsed of int  (** its collapsed (tagged) link id *)

type terminal = {
  rep : Fieldrep_model.Schema.replication;
  fields : (string * Fieldrep_model.Ty.scalar) list;
      (** replicated terminal fields of the final type *)
  field_indexes : int array;
      (** the value index of each of [fields] in the final type *)
  slots : int array;
      (** the source's hidden slots: a copy of each of [fields] (in-place
          and collapsed), or the one S' reference (separate) *)
  kind : terminal_kind;
}

type node = {
  node_id : int;
  parent : int option;
  source_set : string;
  step : string;  (** reference attribute followed from the parent type *)
  step_index : int;  (** value index of [step] in [from_type] *)
  prefix : string list;  (** steps from the source set up to here *)
  level : int;  (** 1-based *)
  from_type : string;
  to_type : string;
  link_id : int option;
      (** inverted link for this level ([None] e.g. for a separate path's
          final level) *)
  terminals : terminal list;  (** paths ending at this node *)
  children : int list;
  passing : Fieldrep_model.Schema.replication list;
      (** every path whose chain includes this node *)
  linked : Fieldrep_model.Schema.replication list;
      (** the paths in [passing] that need this level inverted: not a
          collapsed path, nor a separate path's last level.  The link is
          theirs to build, maintain and tear down. *)
}

(** What a link ID stored in an object's link section refers to. *)
type link_kind =
  | L_path of int  (** node id: inverted-path link of that trie node *)
  | L_sref of int  (** node id of the final node whose terminal owns it *)
  | L_collapsed of int  (** node id of the collapsed path's final node *)

type t

val compile : Fieldrep_model.Schema.t -> t
(** Raises [Invalid_argument] for unsupported combinations (a collapsed path
    must have level 2; more than 255 link IDs). *)

val node : t -> int -> node
val nodes : t -> node list
val roots : t -> string -> node list
(** Level-1 nodes of a source set. *)

val children : t -> node -> node list
val parent : t -> node -> node option
val link_kind : t -> int -> link_kind option

val chain : t -> Fieldrep_model.Schema.replication -> node list
(** The nodes of a path, level 1 first.  Raises [Not_found] for an unknown
    or dropped declaration.  Compiled once: a lookup, no allocation. *)

val terminal_of : t -> Fieldrep_model.Schema.replication -> node * terminal
(** Final node and terminal record of a declaration, compiled once like
    {!chain}. *)

val reaches_source : t -> Fieldrep_model.Schema.replication -> bool
(** Can the path lead back to an object of its source's own type, so that
    a walk from a source may reach the source itself?  Decided once per
    declaration from the types along the chain. *)
