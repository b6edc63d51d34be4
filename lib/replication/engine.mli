(** The field-replication engine.

    Owns every replication-specific structure — link objects / inverted
    paths, hidden fields, S' files, reference counts — and keeps them
    consistent as the database mutates.  The object engine (lib/core) calls
    in around each data mutation:

    - {!build} when a [replicate] declaration is added (bulk construction,
      link and S' files laid out in the same physical order as the sets they
      invert — paper §4.1, §5);
    - {!prepare_attach} / {!prepare_detach}, then {!on_insert} /
      {!on_delete}, for source-set membership maintenance (paper §4.1.1);
    - {!prepare_scalar}, then {!on_scalar_update}, to propagate a changed
      data field to every replicated copy (paper §4.1.3, §5.2);
    - {!on_ref_update} when a reference attribute changes anywhere on a
      path, restructuring the inverted path and refreshing affected sources
      (paper §4.1.2).

    Insert, delete and scalar update are {e prepared}: one read-only walk
    names the data objects the apply will write (a transaction X-locks
    them) and carries OIDs and user-field values for the apply, which
    re-reads every object it rewrites: an earlier write of the operation
    may have changed its link section or hidden slots.

    The engine is strategy-complete: in-place, separate, collapsed inverted
    paths (§4.3.3) and small-link elimination (§4.3.1) all live behind the
    same entry points. *)

module Oid = Fieldrep_storage.Oid
module Schema = Fieldrep_model.Schema
module Record = Fieldrep_model.Record

type editor
(** The membership editor's state and steps ({!modify_membership}). *)

type env = {
  schema : Schema.t;
  mutable registry : Registry.t;
      (** recompiled by the caller whenever declarations change *)
  store : Store.t;
  file_of_set : string -> Fieldrep_storage.Heap_file.t;
  file_of_oid : Oid.t -> Fieldrep_storage.Heap_file.t;
      (** resolve any *data* OID to its heap file *)
  mutable on_hidden_update : string -> Oid.t -> (Record.t * Record.t) option -> unit;
      (** [on_hidden_update set oid change]: a source object's hidden
          fields were rewritten.  [change] holds the decoded records before
          and after when [hidden_indexed set] (the caller maintains indexes
          built on replicated data), [None] otherwise: a fan-out rewritten
          in place decodes nothing.  Fires once per rewritten object, in
          ascending physical order within a fan-out.  Mutable so tests can
          observe propagation order. *)
  hidden_indexed : string -> bool;
      (** Does the set have an index on a hidden field? *)
  mutable batching : bool;
      (** When set (the default), propagation fan-outs are visited in
          physical OID order, grouped by page, and each page's hidden-field
          edits happen under one pin — the access-layer half of the
          paper's keep-links-in-referenced-set-order argument.  Clearing it
          restores the per-object reference path (a read pin and an update
          per source), used as the comparison baseline. *)
  pending : (int * int64, unit) Hashtbl.t;
      (** the lazy-propagation invalidation table: (rep_id, packed source
          OID) pairs whose hidden copies are stale.  Kept in memory, like
          the special invalidation locks of POSTGRES's caching schemes. *)
  editor : editor;
}

val make_env :
  schema:Schema.t ->
  store:Store.t ->
  file_of_set:(string -> Fieldrep_storage.Heap_file.t) ->
  file_of_oid:(Oid.t -> Fieldrep_storage.Heap_file.t) ->
  ?on_hidden_update:(string -> Oid.t -> (Record.t * Record.t) option -> unit) ->
  ?hidden_indexed:(string -> bool) ->
  unit ->
  env
(** Compiles the registry from the schema's current declarations. *)

val recompile : env -> unit
(** Refresh [env.registry] after the schema gained a declaration. *)

val build : env -> Schema.replication -> unit
(** Bulk-build the structures of a declaration over existing data.  Shared
    links already materialised by earlier declarations are reused, new link
    levels and S' files are created in target-set physical order, hidden
    fields are (re)computed for every source object. *)

type walk
(** A source object's forward paths under every declaration rooted at its
    set, walked once. *)

val prepare_attach : env -> set:string -> Record.t -> walk
(** Walk a record of [set] about to be inserted (or backfilled). *)

val prepare_detach : env -> set:string -> Record.t -> walk
(** Walk the stored record of an object of [set] about to be deleted (or
    torn down); also names the owners of the S' objects it will release. *)

val prepare_revive : env -> set:string -> Record.t -> walk
(** {!prepare_attach} for a record going back into its own tombstoned
    slot (undoing a delete).  A declaration whose path can reach the
    source itself ({!Registry.reaches_source}) may name that slot, so it
    is not walked here but by {!on_insert}, once the object is stored; nor
    does {!touches} name its objects.  Unlocked callers only. *)

val touches : walk -> Oid.t list
(** The data objects, sorted and deduplicated, that applying the walk may
    write besides the source itself: the objects on its paths, plus the
    S' owners of a detach.  Link and S' objects are guarded by their
    owner's lock. *)

val complete : env -> walk -> Record.t -> Record.t
(** The record an insert stores: the walked one with the hidden slots of
    every live path filled from the walk — the copies of in-place and
    collapsed paths, the S' reference of separate ones, whose S' object is
    found or created and claimed here — so the object is written once,
    born complete.  Call it inside the logged mutation, before the
    write. *)

val on_insert : env -> walk -> Oid.t -> unit
(** The {!complete}d record was just stored as this object.  Attaches it
    to every live path rooted at its set; only a declaration that
    {!prepare_revive} left for later is walked and has its hidden fields
    written here. *)

val on_delete : env -> walk -> Oid.t -> unit
(** Must be called {e before} the heap delete, with the walk of the
    object's stored record.  Detaches the object from paths rooted at its
    set.  Raises [Invalid_argument] if the object is still referenced along
    some replication path (an intermediate or final object with live link
    memberships): the paper deletes such objects only when unreferenced. *)

type fanout
(** What a scalar update of one object must rewrite: shared S' slots, and
    the sources whose hidden copies an inverted path or collapsed link
    carries. *)

val prepare_scalar : env -> Record.t -> field:string -> fanout
(** One dispatch over the link section of the object's stored record. *)

val fanout_touches : fanout -> Oid.t list
(** Source objects whose hidden copies (or lazy-invalidation entries) the
    update will write, sorted and deduplicated; includes sources of
    terminals that are not live. *)

val on_scalar_update :
  env -> fanout -> field:string -> Fieldrep_model.Value.t -> unit
(** Called {e after} the object's own record was rewritten with the new
    value: propagates it to every live terminal of the fan-out — hidden
    copies for in-place and collapsed paths (lazy ones are only marked
    stale), the shared S' object for separate paths. *)

val on_ref_update :
  env ->
  set:string ->
  Oid.t ->
  field:string ->
  old_value:Fieldrep_model.Value.t ->
  new_value:Fieldrep_model.Value.t ->
  unit
(** Called *after* the record was rewritten.  Handles all positions of the
    changed object: a source object re-attaches to the new chain; an
    intermediate object moves between link objects at the next level (with
    cascading on-path/off-path transitions) and every source object it
    carries gets its hidden values or S'-references recomputed. *)

val is_pending : env -> Schema.replication -> Oid.t -> bool
(** Is this source object's hidden data stale under lazy propagation? *)

val repair : env -> Schema.replication -> Oid.t -> unit
(** Recompute the source's hidden copies if (and only if) they are stale,
    clearing the invalidation entry: the read-side half of lazy
    propagation. *)

val refresh : env -> Schema.replication -> Oid.t -> unit
(** Unconditionally recompute one source object's replicated state (hidden
    copies or S' reference) from the current forward path, clearing any
    pending invalidation.  Idempotent — a no-op when the stored state
    already matches.  This is the repair primitive the scrub subsystem
    drives, and the operation a replayed [Scrub_repair] WAL record
    re-runs. *)

val rewrite_copy :
  env -> Oid.t -> (Oid.t -> Bytes.t -> int -> int -> Fieldrep_storage.Heap_file.edit) -> unit
(** [rewrite_copy env oid edit] lets [edit oid buf 0 len] change a copy
    of the object's bytes, with {!Record.link_size} bytes of room, and
    writes the result back: one read pin, then the update's. *)

val set_values : env -> Oid.t -> (int * Fieldrep_model.Value.t) list -> unit
(** [set_values env oid slots] sets each (index, value) of [slots] in the
    stored object with {!Record.set_value_at}, through {!rewrite_copy}. *)

(** {1 Online reconfiguration}

    Per-source primitives driven by the background-maintenance jobs
    (lib/maint), applied to a walk of the source's stored record
    ({!prepare_attach} for a backfill, {!prepare_detach} for a teardown)
    whose {!touches} the job locked.  Both are idempotent, so a
    crash-recovered job can replay a quantum it had already applied.  The
    engine's mutation hooks consult {!Schema.rep_state}: [Building]
    declarations receive the full catch-up stream (adds, removes,
    refreshes), [Dropping] ones only removals. *)

val backfill_source : env -> Schema.replication -> walk -> Oid.t -> unit
(** Attach one source object of a [Building] declaration and fill its
    hidden state — the backfill half of online [replicate].  Converges when
    the catch-up trigger already attached the object. *)

val teardown_source : env -> Schema.replication -> walk -> Oid.t -> unit
(** Remove one source object's contribution to a [Dropping] declaration:
    memberships on link levels no live path shares, the S' reference count,
    the hidden slots (nulled).  The object itself stays. *)

val link_active : env -> int -> bool
(** Is this link ID maintained by some [Active] declaration — i.e. is its
    derived state complete enough to audit or repair against?  [Building]
    links are legitimately partial, [Dropping] links legitimately stale;
    the invariant checker and scrubber skip both. *)

val rep_of_id : env -> int -> Schema.replication option
(** Look up a non-[Dropped] declaration by ID. *)

val gc_dead_derived : env -> unit
(** Unbind (and delete) link/S' files no surviving declaration reaches.
    Must run when a teardown completes: a later re-replication of the same
    path reuses the dropped declaration's link IDs, and {!build} would
    mistake the stale empty files for already-built state. *)

val flush_pending : env -> unit
(** Repair every invalidated source (e.g. before an integrity audit or a
    bulk export). *)

val pending_count : env -> int

val pending_keys : env -> (int * int64) list
(** Raw invalidation-table keys ((rep id, source OID) pairs) — snapshot
    taken at transaction begin so abort can settle only its own debt. *)

val flush_keys : env -> (int * int64) list -> unit
(** Repair exactly the given keys, where still pending. *)

val referencers_via_links :
  env -> source_set:string -> attr:string -> Oid.t -> Oid.t list option
(** Objects of [source_set] whose reference attribute [attr] points at the
    target, answered directly from a level-1 inverted-path link when some
    replication declaration maintains one ([None] otherwise).  This is the
    paper's §8 observation that inverted paths double as inverse functions
    / bidirectional reference attributes. *)

(** {1 Membership edits}

    Every change to an inverted path's membership goes through one editor
    over bytes, run under the target's one pin: the target's pair is read
    in its frame, a link object is edited under its own page's one pin
    and written back in its frame, and the target's link section is
    spliced only when the pair itself changes.  Exposed for tests. *)

type member_edit =
  | Add of Link_object.entry  (** insert, or replace the member's tag *)
  | Add_all of Link_object.entry list
  | Remove of Oid.t  (** no-op when absent *)
  | Take_tagged of Oid.t * Link_object.entry list ref
      (** remove the entries with this tag, handing them over *)

val modify_membership :
  env -> link_id:int -> threshold:int -> Oid.t -> member_edit -> bool * bool
(** [modify_membership env ~link_id ~threshold target edit] applies [edit]
    to [target]'s membership under the link and stores the result: no pair
    when empty; with [threshold >= 1], a lone untagged member's OID in the
    pair itself (small-link elimination); else a link object in the
    link's file.  Pins the target's page once and an existing link
    object's page once, so an edit inside a link object that stays is two
    pool lookups; creating or freeing a link object adds its insert's or
    delete's pins, and only an object that outgrows its page pins again.
    Leaves exactly the bytes {!Link_object.entries_into} and
    {!Record.encode} give for the edited membership.  Returns
    [(was_empty, now_empty)]. *)

(** {1 Reference-update lock scope}

    Reference updates restructure inverted paths, so they are not prepared
    but escalated. *)

val ref_update_scope : env -> set:string -> field:string -> string list
(** Source sets of declarations whose path steps through [set].[field]; a
    reference update escalates to set-level exclusive locks on these. *)

val write_set_ref_targets :
  env -> set:string -> field:string -> Oid.t list -> Oid.t list
(** Old/new reference targets plus everything reachable from them along
    the registry subtrees rooted at the step. *)

val sprime_field_offset : int
(** Value-array index of the first replicated field inside an S' object
    (slot 0 is the reference count, slot 1 the owning final object). *)
