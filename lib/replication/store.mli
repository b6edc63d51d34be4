(** Storage owned by the replication engine.

    One heap file of link objects per link ID (kept separate so link objects
    never disturb the clustering of data sets — paper §4.1), and one heap
    file of replicated-value objects (S') per separate-replication
    declaration (paper §5).  Files are created on demand on the shared
    pager, so their I/O lands in the same counters as everything else. *)

type t

val create : Fieldrep_storage.Pager.t -> t
val pager : t -> Fieldrep_storage.Pager.t

val link_file : t -> int -> Fieldrep_storage.Heap_file.t
(** Heap file for a link ID (created on first use). *)

val alias_links : t -> int list -> Fieldrep_storage.Heap_file.t
(** Create (or reuse) one heap file shared by all the given link IDs — the
    co-clustering of related link objects of paper §4.3.2.  IDs that
    already have a file keep it; the remaining ones are bound to a single
    fresh file (or the file of the first bound ID, when one exists). *)

val link_file_opt : t -> int -> Fieldrep_storage.Heap_file.t option

val sprime_file : t -> int -> Fieldrep_storage.Heap_file.t
(** S' file for a separate replication's [rep_id] (created on first use). *)

val sprime_file_opt : t -> int -> Fieldrep_storage.Heap_file.t option

val is_link_oid : t -> Fieldrep_storage.Oid.t -> bool
(** Does the OID live in one of this store's link files?  Distinguishes a
    link pair that points at a link object from one that holds a direct
    member OID (the small-link elimination of paper §4.3.1). *)

val file_of_oid : t -> Fieldrep_storage.Oid.t -> Fieldrep_storage.Heap_file.t option
(** The owning link/S' file, if the OID belongs to this store. *)

val total_pages : t -> int
(** Pages across all link and S' files: the space overhead of replication. *)

val gc : t -> live_link:(int -> bool) -> live_sprime:(int -> bool) -> unit
(** Unbind every link/S' ID its predicate calls dead, deleting physical
    files once no surviving binding aliases them (clustered links share one
    file across several IDs).  Run after a teardown completes: the dead
    declaration's emptied files must not shadow a later rebuild of the
    same path, whose re-compiled registry reuses the same IDs. *)

(** {1 Image support} *)

val bindings : t -> (int * int) list * (int * int) list
(** [(link id, disk file id)] and [(rep id, disk file id)] pairs. *)

val bind_link : t -> link_id:int -> Fieldrep_storage.Heap_file.t -> unit
(** Register an existing heap file as a link file (database image load). *)

val bind_sprime : t -> rep_id:int -> Fieldrep_storage.Heap_file.t -> unit
