(** Reference-path expressions: the syntax of [replicate] statements.

    A path names a source set, a chain of reference attributes, and a
    terminal — either one scalar field or [all] (full object replication,
    paper §3.3.1).  [Empl.dept.org.name] has source set [Empl], steps
    [dept; org] and terminal [Field "name"]; its *level* is 2 because it
    crosses two references. *)

type terminal = Field of string | All

type t = { source_set : string; steps : string list; terminal : terminal }

val make : source_set:string -> steps:string list -> terminal:terminal -> t
(** Requires at least one step (a path with no reference attribute needs no
    replication).  Raises [Invalid_argument]. *)

val level : t -> int
(** Number of reference attributes crossed: [List.length steps]. *)

val parse : string -> t
(** Parse ["Set.attr1.attr2.field"] / ["Set.attr.all"].  The last component
    is the terminal; [all] (case-insensitive) means {!All}.  Raises
    [Invalid_argument] on fewer than three components or empty parts. *)

val to_string : t -> string
val equal : t -> t -> bool

val prefix_length : t -> t -> int
(** Number of leading steps two paths from the same source set share; 0 when
    the source sets differ.  Link-ID sharing (paper §4.1.4) is driven by
    this. *)
