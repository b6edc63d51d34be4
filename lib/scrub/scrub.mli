(** Online scrubbing and self-repair of replicated fields.

    Field replication stores {e derivable redundancy}: every hidden copy,
    link-object membership and S' record can be recomputed by walking the
    forward path from clean source objects.  One audit,
    {!Fieldrep_replication.Invariants}, compares what is stored with that
    walk and returns typed findings; it has two consumers, the invariant
    check (report) and scrub (repair).  Scrub runs in three phases:

    - a {b physical sweep} reads every page of the data, link and S' files
      through the checksum-verifying disk layer, counting and quarantining
      pages whose trailer no longer matches;
    - {b triage}: corrupt link and S' pages are blanked — their contents are
      pure redundancy and will be rebuilt; corrupt {e data} pages are
      re-sealed only if every record on them still decodes, because source
      fields have no second authoritative copy and can only be {e reported},
      never silently "fixed";
    - a {b logical pass} audits, repairs the findings, and audits again
      until a round repairs nothing: hidden copies and S' references are
      refreshed through {!Fieldrep_replication.Engine.refresh}, memberships
      are rebuilt as fresh link objects, stray pairs and orphan link objects
      are dropped, and S' values, reference counts and owner pairs are
      rewritten.  Findings scrub cannot repair are reported.

    Every repair that writes through a data object is announced through
    [log_repair] {e before} it writes, so a write-ahead log can persist a
    [Scrub_repair] record and recovery can replay it after a crash. *)

module Oid = Fieldrep_storage.Oid
module Heap_file = Fieldrep_storage.Heap_file
module Engine = Fieldrep_replication.Engine

type report = {
  pages_scanned : int;  (** pages whose checksums were verified *)
  checksum_failures : int;  (** pages that failed verification *)
  repairs : int;  (** logical repair actions performed *)
  quarantined : (int * int) list;
      (** (file, page) pairs still quarantined when scrub finished —
          unrepairable data pages *)
  unrepairable : string list;
      (** human-readable reports of damage scrub could not (or must not)
          repair, e.g. corrupt source fields *)
}

(** {1 Incremental driving}

    The physical sweep is resumable so a background-maintenance job can
    interleave it with foreground transactions: {!sweep_start} snapshots
    the file list, {!sweep_step} verifies a bounded number of pages, and
    {!finish} runs triage plus the logical pass and builds the report. *)

type sweep
(** In-progress physical sweep: a page cursor over the store's files plus
    the accumulated failures the later phases consume. *)

val sweep_start :
  Engine.env -> data_sets:(string * Heap_file.t) list -> sweep
(** Flush the buffer pool and begin a sweep over [data_sets] plus every
    link and S' file discovered from the engine's store. *)

val sweep_step : sweep -> budget:int -> bool
(** Verify up to [budget] pages through the checksum-checking disk layer.
    Returns [true] while pages remain, [false] once the sweep is done. *)

val finish :
  log_repair:(rep_id:int -> source:Oid.t -> unit) ->
  guard:(Oid.t -> bool) ->
  sweep ->
  report
(** Triage the sweep's corrupt pages, then audit derived state and repair
    the findings.  [log_repair] is invoked before each repair that writes
    through a data object, with the declaration and that object; wire it
    to WAL appending for durable repairs.

    [guard oid] is asked before such a repair; wire it to short-duration
    X locks to scrub alongside active transactions.  A refused repair is
    {e deferred} — reported in [unrepairable] and left for a later scrub —
    never half-applied.  (Severing a reference to a dead S' record is not
    guarded: a later refresh could recycle the slot it names.)

    Only [Active] replication declarations are audited: link state of a
    path mid-backfill or mid-teardown belongs to its maintenance job and
    is skipped. *)
