(** Total replacements for the partial [List] accessors banned by
    fieldrep-lint rule F1.

    [List.hd]/[List.nth] fail with an anonymous [Failure "hd"] that names
    neither the caller nor the invariant it relied on; these either return an
    option or raise [Invalid_argument] carrying the caller-supplied context
    string, so a broken invariant is diagnosable from the message alone. *)

val last_exn : what:string -> 'a list -> 'a
(** Raises [Invalid_argument] naming [what] on the empty list.  For call
    sites whose non-emptiness is a structural invariant (e.g. a compiled
    replication path always has at least one node). *)

val nth_exn : what:string -> 'a list -> int -> 'a
(** Raises [Invalid_argument] naming [what] and the index when out of
    bounds. *)
