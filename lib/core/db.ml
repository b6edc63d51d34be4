module Oid = Fieldrep_storage.Oid
module Listx = Fieldrep_util.Listx
module Stats = Fieldrep_storage.Stats
module Pager = Fieldrep_storage.Pager
module Heap_file = Fieldrep_storage.Heap_file
module Disk = Fieldrep_storage.Disk
module Checksum = Fieldrep_storage.Checksum
module Btree = Fieldrep_btree.Btree
module Key = Fieldrep_btree.Key
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Engine = Fieldrep_replication.Engine
module Store = Fieldrep_replication.Store
module Invariants = Fieldrep_replication.Invariants
module Scrub = Fieldrep_scrub.Scrub
module Maint = Fieldrep_maint.Maint
module Wal = Fieldrep_wal.Wal
module Recovery = Fieldrep_wal.Recovery
module Lockdep = Fieldrep_util.Lockdep
module Wire = Fieldrep_util.Wire
module Lock = Fieldrep_txn.Lock
module Txn = Fieldrep_txn.Txn

type txn = Txn.t

type index_rt = {
  def : Schema.index_def;
  tree : Btree.t;
  value_index : int;  (* absolute index into the record's value array *)
}

(* An expression as written, split once: the reference attributes
   followed from [set]'s element type, then the field read at the end. *)
type path = { set : string; steps : string list; terminal : string }

type expr =
  | Hidden of int * Schema.replication * path
      (* in-place / collapsed: hidden copy at value index *)
  | Sprime of int * int * path
      (* separate: hidden sref at index, field offset in S' *)
  | Walk of int list * int
      (* functional joins: step value indices, then terminal index; a plain
         field is a walk of no steps *)

module Stbl = Hashtbl.Make (String)
module Itbl = Hashtbl.Make (Int)

type t = {
  pager : Pager.t;
  schema : Schema.t;
  sets : Heap_file.t Stbl.t;
  data_files : (string * Heap_file.t) Itbl.t;  (* file id -> set, file *)
  indexes : (string, index_rt) Hashtbl.t;
  set_indexes : index_rt list Stbl.t;
      (* each set's indexes, in [indexes]' iteration order; kept by
         [add_index_rt] *)
  store : Store.t;
  engine : Engine.env;
  mutable wal : Wal.t option;
  mutable replaying : bool;  (* suppress WAL appends while redoing the log *)
  locks : Lock.t;
  mutable next_txn : int;
  active : (int, Txn.t) Hashtbl.t;
  mutable compensating : bool;
      (* rollback in progress: operations skip locking, undo capture and
         reference-liveness validation, and log as plain (untagged) records
         so the rollback itself is replayable *)
  mutable replica_mode : bool;
      (* opened as a streaming-replication replica: reads only; mutations
         arrive exclusively through [replica_apply] *)
  mutable repl_stream : Recovery.stream option;
      (* incremental redo state for [replica_apply], created lazily *)
  mutable epoch : int;
      (* replication epoch: bumped by promotion, adopted from replayed
         [Epoch_change] records — the fencing token of lib/repl *)
  maint : Maint.t;
      (* background-maintenance queue: online backfills, teardowns and
         scrub sweeps, pumped in quanta between foreground operations *)
  plans : (string * string, int * expr) Hashtbl.t;
      (* [deref]'s compiled expressions by (set, source), each tagged with
         the schema generation it was compiled at *)
  update_buf : Bytes.t ref;
      (* the object [update_field] rewrites, copied once and spliced in
         place; per handle, since an ack-mode sync can run a replica's
         redo before the write *)
  copy_update : Bytes.t -> int -> int -> int;
      (* [Heap_file.read_with]'s step that copies into [update_buf] *)
}

let schema t = t.schema
let pager t = t.pager
let stats t = Pager.stats t.pager
let engine t = t.engine
let wal t = t.wal
let batching t = t.engine.Engine.batching
let set_batching t v = t.engine.Engine.batching <- v
let lock_manager t = t.locks
let active_txn_count t = Hashtbl.length t.active

(* ------------------------------------------------------------------ *)
(* The operation protocol: live, validate, lock, log, apply, charge   *)

let txn_check t tx =
  if not (Txn.is_active tx && Hashtbl.mem t.active (Txn.id tx)) then
    invalid_arg "Db: transaction is not active"

(* The transaction an operation locks, charges and captures undo for, once
   validated.  A rollback acts for none, as it touches only objects its
   transaction holds exclusively, and so does single-threaded replay. *)
let live t txn =
  match txn with
  | Some tx when not (t.compensating || t.replaying) ->
      txn_check t tx;
      txn
  | Some _ | None -> None

(* Run [f] as a rollback or as a redo of logged records. *)
let compensate t f =
  t.compensating <- true;
  Fun.protect ~finally:(fun () -> t.compensating <- false) f

let replay t f =
  t.replaying <- true;
  Fun.protect ~finally:(fun () -> t.replaying <- false) f

let io t = Stats.total_io (stats t)

(* Only this database's I/O: an ack-mode replica in the same process
   applies frames inside our [Wal.sync]. *)
let charge t tx io0 =
  match tx with Some tx -> Txn.charge_io tx (io t - io0) | None -> ()

(* None without a WAL or while replaying it: callers build a record only
   under [Some], and their LSN under [None] is 0, never rescinded. *)
let logging t = if t.replaying then None else t.wal

(* Write-ahead rule: the record is durable before the operation touches any
   page.  Group commit: a transactional record, carrying the object's
   first-touch image [before], and an abort's compensation stay buffered
   until their marker syncs; an autocommit record is its own commit
   point.  The first [Txn_op] marks the transaction begun, so read-only
   transactions leave no trace in the log. *)
let log_op t w tx ?before record =
  match tx with
  | Some tx ->
      Txn.mark_begun tx;
      Wal.append w (Wal.Txn_op { txn = Txn.id tx; op = record; before })
  | None ->
      let lsn = Wal.append w record in
      if not t.compensating then Wal.sync w;
      lsn

(* An operation that fails after logging (an ordinary exception) rescinds
   its record with an abort marker, so recovery will not redo it.  A
   [Disk.Crash] rescinds nothing: the record survives and replay
   *completes* the half-applied operation. *)
let rescind t lsn = function
  | Disk.Crash _ -> ()
  | _ -> (
      match logging t with
      | Some w ->
          Wal.append_abort w ~aborted:lsn;
          Wal.sync w
      | None -> ())

(* The DDL's form of the protocol: log [record], then apply [f]. *)
let log_mutation t record f =
  match logging t with
  | None -> f ()
  | Some w -> (
      let lsn = log_op t w None record in
      try f ()
      with e ->
        rescind t lsn e;
        raise e)

(* A marker, maintenance step or scrub repair: durable before anything it
   covers touches a page. *)
let log_sync t record =
  match logging t with
  | Some w ->
      ignore (Wal.append w record);
      Wal.sync w
  | None -> ()

let set_file t name =
  match Stbl.find t.sets name with
  | hf -> hf
  | exception Not_found -> invalid_arg (Printf.sprintf "Db: unknown set %s" name)

let data_file t (oid : Oid.t) =
  match Itbl.find t.data_files oid.Oid.file with
  | entry -> entry
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Db: OID %s is not a data object" (Oid.to_string oid))

let file_of_oid t oid = snd (data_file t oid)
let set_of_oid t oid = fst (data_file t oid)

(* ------------------------------------------------------------------ *)
(* Index plumbing                                                      *)

let key_of_value = function
  | Value.VInt v -> Some (Key.Int v)
  | Value.VString s -> Some (Key.String s)
  | Value.VRef _ | Value.VNull -> None

let indexes_of_set t set =
  match Stbl.find t.set_indexes set with
  | rts -> rts
  | exception Not_found -> []

let add_index_rt t name rt =
  Hashtbl.replace t.indexes name rt;
  let set = rt.def.Schema.iset in
  Stbl.replace t.set_indexes set
    (Hashtbl.fold
       (fun _ rt acc -> if rt.def.Schema.iset = set then rt :: acc else acc)
       t.indexes [])

let index_insert rt oid record =
  match key_of_value (Record.field record rt.value_index) with
  | Some key -> Btree.insert rt.tree key oid
  | None -> ()

let index_remove rt oid record =
  match key_of_value (Record.field record rt.value_index) with
  | Some key -> ignore (Btree.delete rt.tree key oid)
  | None -> ()

let index_update rt oid ~before ~after =
  let kb = key_of_value before in
  let ka = key_of_value after in
  match (kb, ka) with
  | Some a, Some b when Key.equal a b -> ()
  | _ ->
      (match kb with Some k -> ignore (Btree.delete rt.tree k oid) | None -> ());
      (match ka with Some k -> Btree.insert rt.tree k oid | None -> ())

(* Indexes on replicated data (paper §3.3.4): the engine hands over the
   records of a hidden-field rewrite only for a set that has one. *)
let rec any_hidden arity = function
  | [] -> false
  | rt :: rts -> rt.value_index >= arity || any_hidden arity rts

let hidden_indexed t set =
  match indexes_of_set t set with
  | [] -> false
  | rts -> any_hidden (Schema.user_arity t.schema set) rts

(* Hidden fields changed under an index on replicated data: keep those
   trees current. *)
let on_hidden_update t set oid = function
  | None -> ()
  | Some (before, after) ->
      let arity = Schema.user_arity t.schema set in
      List.iter
        (fun rt ->
          let i = rt.value_index in
          if i >= arity then
            index_update rt oid ~before:(Record.field before i) ~after:(Record.field after i))
        (indexes_of_set t set)

type backend = Pager.backend = Mem | File of string option

let create ?(page_size = 4096) ?(frames = 256) ?(durable = false) ?wal_path
    ?backend ?wal_fsync ?wal_flush_limit () =
  let pager = Pager.create ~page_size ~frames ?backend () in
  let schema = Schema.create () in
  let store = Store.create pager in
  let rec t =
    lazy
      (let sets = Stbl.create 8 in
       let data_files = Itbl.create 8 in
       let engine =
         Engine.make_env ~schema ~store
           ~file_of_set:(fun name -> set_file (Lazy.force t) name)
           ~file_of_oid:(fun oid -> file_of_oid (Lazy.force t) oid)
           ~on_hidden_update:(fun set oid change ->
             on_hidden_update (Lazy.force t) set oid change)
           ~hidden_indexed:(fun set -> hidden_indexed (Lazy.force t) set)
           ()
       in
       let locks = Lock.create ~stats:(Pager.stats pager) () in
       let update_buf = ref (Bytes.create 256) in
       {
         pager;
         schema;
         sets;
         data_files;
         indexes = Hashtbl.create 8;
         set_indexes = Stbl.create 8;
         store;
         engine;
         wal = None;
         replaying = false;
         locks;
         next_txn = 1;
         active = Hashtbl.create 8;
         compensating = false;
         replica_mode = false;
         repl_stream = None;
         epoch = 0;
         maint = Maint.create ~locks ~stats:(Pager.stats pager);
         plans = Hashtbl.create 8;
         update_buf;
         copy_update =
           (fun page off n ->
             Wire.grow update_buf n;
             Bytes.blit page off !update_buf 0 n;
             n);
       })
  in
  let t = Lazy.force t in
  if durable || wal_path <> None then begin
    let path =
      match wal_path with
      | Some p -> p
      | None -> Filename.temp_file "fieldrep" ".wal"
    in
    t.wal <-
      Some
        (Wal.open_ ~stats:(Pager.stats pager) ?fsync:wal_fsync
           ?flush_limit:wal_flush_limit path)
  end;
  t

let close t =
  (match t.wal with Some w -> Wal.close w | None -> ());
  t.wal <- None;
  Pager.close t.pager

(* ------------------------------------------------------------------ *)
(* DDL                                                                 *)

let no_active_txns t context =
  if Hashtbl.length t.active > 0 then
    invalid_arg (context ^ ": not allowed while transactions are active")

(* Read-only enforcement for replicas.  Replayed records come through the
   same entry points with [replaying] set, so the guard lets the redo path
   through while rejecting direct writes. *)
let check_primary t context =
  if t.replica_mode && not t.replaying then
    invalid_arg
      (context ^ ": read-only replica — writes go through the master")

let is_replica t = t.replica_mode
let epoch t = t.epoch

let define_type t ty =
  check_primary t "Db.define_type";
  no_active_txns t "Db.define_type";
  log_mutation t (Wal.Define_type ty) (fun () -> Schema.define_type t.schema ty)

let create_set t ?(reserve = 0) ~name ~elem_type () =
  check_primary t "Db.create_set";
  no_active_txns t "Db.create_set";
  log_mutation t (Wal.Create_set { name; elem_type; reserve }) (fun () ->
      Schema.create_set t.schema ~name ~elem_type;
      let hf = Heap_file.create ~reserve t.pager in
      Stbl.replace t.sets name hf;
      Itbl.replace t.data_files (Heap_file.file_id hf) (name, hf))

(* ------------------------------------------------------------------ *)
(* Background maintenance                                              *)

(* Maintenance jobs lock under their own owner id, drawn from the same
   counter as transactions so the lock manager never confuses the two. *)
let fresh_owner t =
  let id = t.next_txn in
  t.next_txn <- t.next_txn + 1;
  id

(* The job id IS the rep id: [Maint_step]/[Maint_done] records name it,
   and a declaration never has two jobs in flight (Building and Dropping
   are mutually exclusive states).  Its per-source step walks the stored
   record once: the walk names the quantum's lock targets and feeds the
   operation applied under them. *)
let enqueue_walk t (rep : Schema.replication) ~verb prepare apply ~complete =
  let set = rep.Schema.rpath.Path.source_set in
  let hf = set_file t set in
  let job = rep.Schema.rep_id in
  Maint.enqueue t.maint
    (Maint.walk_job
       ~label:(Printf.sprintf "%s %s" verb (Path.to_string rep.Schema.rpath))
       ~job_id:job ~owner:(fresh_owner t) ~set ~file:hf
       ~prepare:(fun oid ->
         let walk = prepare t.engine ~set (Heap_file.read_with hf oid Record.decode_at) in
         ( List.map (fun o -> (set_of_oid t o, o)) (Engine.touches walk),
           fun () -> apply t.engine rep walk oid ))
       ~log_step:(fun ~upto -> log_sync t (Wal.Maint_step { job; upto }))
       ~complete:(fun () ->
         log_sync t (Wal.Maint_done { job });
         complete ()))

let enqueue_backfill t (rep : Schema.replication) =
  enqueue_walk t rep ~verb:"backfill" Engine.prepare_attach Engine.backfill_source
    ~complete:(fun () -> Schema.set_rep_state t.schema rep.Schema.rep_id Schema.Active)

let enqueue_teardown t (rep : Schema.replication) =
  enqueue_walk t rep ~verb:"teardown" Engine.prepare_detach Engine.teardown_source
    ~complete:(fun () ->
      Schema.set_rep_state t.schema rep.Schema.rep_id Schema.Dropped;
      (* erase the declaration's links from the compiled registry so
         writers stop maintaining the (now dead) derived state, then
         unbind its emptied files — a re-replication of the same path
         reuses the same link IDs and must build from nothing *)
      Engine.recompile t.engine;
      Engine.gc_dead_derived t.engine)

(* Start an online reconfiguration; the entry points and log replay share
   these. *)
let start_backfill t ~options ~strategy path =
  let rep =
    Schema.add_replication t.schema ~options ~state:Schema.Building ~strategy
      path
  in
  Engine.recompile t.engine;
  enqueue_backfill t rep

let start_teardown t (rep : Schema.replication) =
  Schema.set_rep_state t.schema rep.Schema.rep_id Schema.Dropping;
  enqueue_teardown t rep

let maint_step ?(quantum = 4) t =
  check_primary t "Db.maint_step";
  Maint.step t.maint ~quantum

let maint_pending t = Maint.pending t.maint
let maint_backlog t = Maint.backlog t.maint
let maint_jobs t = Maint.jobs t.maint

let maint_drain ?(quantum = 16) t =
  check_primary t "Db.maint_drain";
  let yields = ref 0 in
  while Maint.pending t.maint > 0 do
    match Maint.step t.maint ~quantum with
    | `Progress -> yields := 0
    | `Yield ->
        incr yields;
        (* every queued job yielded in turn: only a foreground
           transaction's locks can unblock them, and draining from here
           would spin forever *)
        if !yields > Maint.pending t.maint then
          invalid_arg
            "Db.maint_drain: maintenance is blocked on locks held by \
             active transactions"
    | `Idle -> ()
  done

let replication_state t path =
  Option.map
    (fun (r : Schema.replication) -> Schema.rep_state t.schema r.Schema.rep_id)
    (Schema.find_replication t.schema path)

let replicate t ?options ~strategy path =
  check_primary t "Db.replicate";
  let options = Option.value ~default:Schema.default_options options in
  (match Schema.find_replication t.schema path with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Db.replicate: path %s is already replicated"
           (Path.to_string path))
  | None -> ());
  if Hashtbl.length t.active = 0 then
    (* Quiesced: bulk-build in one pass, as before.  (Replay always lands
       here — [active] is empty during recovery — which is exactly the
       semantics a logged [Replicate] record promises.) *)
    log_mutation t
      (Wal.Replicate { path = Path.to_string path; strategy; options })
      (fun () ->
        let rep = Schema.add_replication t.schema ~options ~strategy path in
        Engine.recompile t.engine;
        Engine.build t.engine rep)
  else
    (* Online: install the declaration as [Building] so concurrent writers
       maintain derived state from this instant (the catch-up trigger),
       then backfill existing objects behind the maintenance cursor. *)
    log_mutation t
      (Wal.Replicate_online { path = Path.to_string path; strategy; options })
      (fun () -> start_backfill t ~options ~strategy path)

let unreplicate t path =
  check_primary t "Db.unreplicate";
  let rep =
    match Schema.find_replication t.schema path with
    | Some r -> r
    | None ->
        invalid_arg
          (Printf.sprintf "Db.unreplicate: path %s is not replicated"
             (Path.to_string path))
  in
  if Schema.rep_state t.schema rep.Schema.rep_id <> Schema.Active then
    invalid_arg
      (Printf.sprintf "Db.unreplicate: path %s is being reconfigured"
         (Path.to_string path));
  (* An index compiled against this path's hidden copy would dangle. *)
  let set = rep.Schema.rpath.Path.source_set in
  let ty = Schema.set_type t.schema set in
  List.iter
    (fun (d : Schema.index_def) ->
      if d.Schema.iset = set && Ty.field_opt ty d.Schema.ifield = None then
        match Schema.find_replication t.schema (Path.parse d.Schema.ifield) with
        | Some r when r.Schema.rep_id = rep.Schema.rep_id ->
            invalid_arg
              (Printf.sprintf
                 "Db.unreplicate: index %s reads path %s; drop it first"
                 d.Schema.iname (Path.to_string path))
        | Some _ | None -> ())
    (Schema.indexes t.schema);
  (* Settle this declaration's lazy-propagation debt while it is still
     live: a [Dropping] declaration no longer repairs. *)
  Engine.flush_pending t.engine;
  log_mutation t
    (Wal.Unreplicate { path = Path.to_string path })
    (fun () -> start_teardown t rep);
  (* Quiesced callers (and replay) see the drop complete synchronously,
     mirroring the bulk [replicate] fast path. *)
  if Hashtbl.length t.active = 0 && not t.replaying then maint_drain t

(* Resolve an index field spec to an absolute value index. *)
let resolve_index_field t ~set ~field =
  let ty = Schema.set_type t.schema set in
  match Ty.field_opt ty field with
  | Some { Ty.ftype = Ty.Scalar _; _ } -> Ty.field_index ty field
  | Some { Ty.ftype = Ty.Ref _; _ } ->
      invalid_arg (Printf.sprintf "Db: cannot index reference attribute %s" field)
  | None -> (
      (* A replicated-path index: "Set.step...step.field". *)
      let path = Path.parse field in
      match Schema.find_replication t.schema path with
      | Some rep ->
          let terminal_field =
            match path.Path.terminal with
            | Path.Field f -> f
            | Path.All -> invalid_arg "Db: cannot index a .all path"
          in
          Schema.hidden_index t.schema set ~rep_id:rep.Schema.rep_id
            ~field:(Some terminal_field)
      | None ->
          invalid_arg
            (Printf.sprintf "Db: %s is neither a field of %s nor a replicated path"
               field set))

let build_index t ~name ~set ~field ~clustered =
  check_primary t "Db.build_index";
  no_active_txns t "Db.build_index";
  log_mutation t (Wal.Build_index { name; set; field; clustered }) (fun () ->
      Schema.add_index t.schema
        { Schema.iname = name; iset = set; ifield = field; clustered };
      let value_index = resolve_index_field t ~set ~field in
      let tree = Btree.create t.pager in
      let rt =
        {
          def = List.find (fun d -> d.Schema.iname = name) (Schema.indexes t.schema);
          tree;
          value_index;
        }
      in
      (* Bulk-load from existing data. *)
      let entries = ref [] in
      Heap_file.iter (set_file t set) Record.decode_at (fun oid record ->
          match key_of_value (Record.field record value_index) with
          | Some key -> entries := (key, oid) :: !entries
          | None -> ());
      Btree.bulk_load tree (Array.of_list !entries);
      add_index_rt t name rt)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let check_value t ~context (field : Ty.field) v =
  if not (Value.matches field.Ty.ftype v) then
    invalid_arg
      (Printf.sprintf "%s: field %s expects %s, got %s" context field.Ty.fname
         (Format.asprintf "%a" Ty.pp_ftype field.Ty.ftype)
         (Value.to_string v));
  match (field.Ty.ftype, v) with
  (* Compensations restore a prior state wholesale; intermediate states may
     legitimately hold references their restore order has not revived yet. *)
  | Ty.Ref target, Value.VRef oid when not t.compensating ->
      let hf = file_of_oid t oid in
      (* One pin answers both questions: [read_with] refuses a dead slot or
         a tombstone, and a dead object reads as tag -1. *)
      let tag =
        if oid.Oid.page < 0 || oid.Oid.page >= Heap_file.page_count hf then -1
        else
          match Heap_file.read_with hf oid Record.type_tag_at with
          | tag -> tag
          | exception Invalid_argument _ -> -1
      in
      if tag < 0 then
        invalid_arg
          (Printf.sprintf "%s: field %s references dead object %s" context
             field.Ty.fname (Oid.to_string oid));
      let expected = Schema.type_tag t.schema target in
      if tag <> expected then
        invalid_arg
          (Printf.sprintf "%s: field %s expects a %s object, %s is a %s" context
             field.Ty.fname target (Oid.to_string oid)
             (Schema.type_of_tag t.schema tag).Ty.tname)
  | (Ty.Ref _ | Ty.Scalar _), _ -> ()

(* ------------------------------------------------------------------ *)
(* Locking and undo-capture plumbing                                   *)

(* An operation acting for a transaction acquires its whole lock set
   before mutating anything, so a [Lock.Would_block] or [Lock.Deadlock]
   surfaces with no partial effects and the operation can simply be
   retried (or the transaction aborted).  Each helper takes the
   operation's [live] transaction and locks nothing without one. *)
let lock_set t tx set mode =
  match tx with
  | Some tx -> Lock.acquire t.locks ~txn:(Txn.id tx) (Lock.Set set) mode
  | None -> ()

let lock_obj t tx oid mode =
  match tx with
  | Some tx -> Lock.acquire t.locks ~txn:(Txn.id tx) (Lock.Obj oid) mode
  | None -> ()

let lock_read t tx ~set oid =
  lock_set t tx set Lock.IS;
  lock_obj t tx oid Lock.S

let lock_write t tx ~set oid =
  lock_set t tx set Lock.IX;
  lock_obj t tx oid Lock.X

(* A shared lock on the data object a value references. *)
let lock_ref t tx = function
  | Value.VRef oid when Option.is_some tx ->
      lock_read t tx ~set:(set_of_oid t oid) oid
  | Value.VRef _ | Value.VInt _ | Value.VString _ | Value.VNull -> ()

(* Exclusive locks on the data objects a prepared operation will write,
   each with an intention lock on its owning set. *)
let rec lock_targets t tx = function
  | oid :: oids when Option.is_some tx ->
      lock_write t tx ~set:(set_of_oid t oid) oid;
      lock_targets t tx oids
  | _ :: _ | [] -> ()

let user_values t ~set (record : Record.t) =
  List.init (Ty.arity (Schema.set_type t.schema set)) (Record.field record)

(* The object's user values if this is the transaction's first touch of
   it: the before-image its redo record carries, so crash recovery can roll
   the transaction back from the log alone. *)
let first_touch t tx ~set oid record =
  match tx with
  | Some tx when not (Txn.touched tx oid) -> Some (user_values t ~set record)
  | Some _ | None -> None

(* Record a first touch's image in memory once the operation has
   succeeded.  Not before: a failed operation's record is rescinded
   together with the image it carried, so the object's next touch must log
   the image again. *)
let note_touch tx ~set oid ~present image =
  match (tx, image) with
  | Some tx, Some values ->
      Txn.record_touch tx oid
        { Txn.u_set = set; u_oid = oid; u_present = present; u_values = values }
  | None, _ | Some _, None -> ()

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)

let make_record t (ty : Ty.t) values =
  Record.make ~type_tag:(Schema.type_tag t.schema ty.Ty.tname) (Array.of_list values)

(* Store a new object born complete from its walk, in the tombstoned
   slot [at] or, when it is nil, a fresh one: one encoding, one write,
   then its index entries and memberships. *)
let store_new t ~set walk record ~at =
  let record = Engine.complete t.engine walk record in
  let hf = set_file t set in
  let oid =
    if Oid.is_nil at then Heap_file.insert hf (Record.encode record)
    else begin
      Heap_file.insert_at hf at (Record.encode record);
      at
    end
  in
  List.iter (fun rt -> index_insert rt oid record) (indexes_of_set t set);
  Engine.on_insert t.engine walk oid;
  oid

let insert ?txn t ~set values =
  check_primary t "Db.insert";
  let tx = live t txn in
  let ty = Schema.set_type t.schema set in
  if List.length values <> Ty.arity ty then
    invalid_arg
      (Printf.sprintf "Db.insert: %s has %d fields, got %d values" set (Ty.arity ty)
         (List.length values));
  List.iter2 (fun f v -> check_value t ~context:"Db.insert" f v) ty.Ty.fields values;
  let record = make_record t ty values in
  let io0 = io t in
  lock_set t tx set Lock.IX;
  (* referenced objects stay shared-locked so validation cannot be
     invalidated by a concurrent committed delete *)
  if Option.is_some tx then List.iter (lock_ref t tx) values;
  let walk = Engine.prepare_attach t.engine ~set record in
  lock_targets t tx (Engine.touches walk);
  (* The OID is not logged: physical allocation is deterministic, so the
     replayed insert lands on the same OID as the original run. *)
  let lsn =
    match logging t with
    | Some w -> log_op t w tx (Wal.Insert { set; values })
    | None -> 0L
  in
  let oid =
    try store_new t ~set walk record ~at:Oid.nil
    with e ->
      rescind t lsn e;
      raise e
  in
  (match tx with
  | Some tx -> Lock.grant t.locks ~txn:(Txn.id tx) (Lock.Obj oid) Lock.X
  | None -> ());
  (* first touch is the creation itself: undo deletes the object *)
  note_touch tx ~set oid ~present:false (Some []);
  charge t tx io0;
  oid

(* Re-create an object in its original slot: the second half of undoing a
   delete.  The slot is still pinned by the deleting transaction's
   tombstone, so the OID cannot have been recycled. *)
let insert_at_impl t ~set oid values =
  let record = make_record t (Schema.set_type t.schema set) values in
  let lsn =
    match logging t with
    | Some w -> log_op t w None (Wal.Insert_at { set; oid; values })
    | None -> 0L
  in
  try
    let walk = Engine.prepare_revive t.engine ~set record in
    ignore (store_new t ~set walk record ~at:oid)
  with e ->
    rescind t lsn e;
    raise e

(* Locked but uncharged: the entry points charge. *)
let read t tx ~set oid =
  lock_read t tx ~set oid;
  Heap_file.read_with (set_file t set) oid Record.decode_at

let get ?txn t ~set oid =
  let tx = live t txn in
  let io0 = io t in
  let record = read t tx ~set oid in
  charge t tx io0;
  record

(* [pin]: leave a tombstone in the slot instead of freeing it, so the OID
   cannot be recycled while the deleting transaction is undecided. *)
let delete_impl t tx ~pin ~set oid =
  let io0 = io t in
  lock_write t tx ~set oid;
  let hf = set_file t set in
  (* Detaching rewrites only link sections and S' objects, so this
     one decode serves the walk, the before-image and index removal. *)
  let record = Heap_file.read_with hf oid Record.decode_at in
  let walk = Engine.prepare_detach t.engine ~set record in
  lock_targets t tx (Engine.touches walk);
  let before = first_touch t tx ~set oid record in
  let lsn =
    match logging t with
    | Some w -> log_op t w tx ?before (Wal.Delete { set; oid })
    | None -> 0L
  in
  (try
     Engine.on_delete t.engine walk oid;
     List.iter (fun rt -> index_remove rt oid record) (indexes_of_set t set);
     if pin then Heap_file.delete_pinned hf oid else Heap_file.delete hf oid
   with e ->
     rescind t lsn e;
     raise e);
  note_touch tx ~set oid ~present:true before;
  (match tx with Some tx when pin -> Txn.add_tombstone tx ~set oid | Some _ | None -> ());
  charge t tx io0

let delete ?txn t ~set oid =
  check_primary t "Db.delete";
  let tx = live t txn in
  delete_impl t tx ~pin:(Option.is_some tx) ~set oid

let rec update_indexes oid idx ~before ~after = function
  | [] -> ()
  | rt :: rts ->
      if rt.value_index = idx then index_update rt oid ~before ~after;
      update_indexes oid idx ~before ~after rts

let update_field ?txn t ~set oid ~field value =
  check_primary t "Db.update_field";
  let tx = live t txn in
  let ty = Schema.set_type t.schema set in
  let fdef =
    match Ty.field ty field with
    | fdef -> fdef
    | exception Not_found ->
        invalid_arg (Printf.sprintf "Db.update_field: %s has no field %s" set field)
  in
  let idx = Ty.field_index ty field in
  check_value t ~context:"Db.update_field" fdef value;
  let io0 = io t in
  let hf = set_file t set in
  lock_write t tx ~set oid;
  (match (tx, fdef.Ty.ftype) with
  | Some _, Ty.Ref _ ->
      (* A reference update restructures inverted paths; the set of
         affected sources is unbounded, so escalate to set-level
         exclusive locks on every source set of a path through this
         step (the inverted path names them directly). *)
      List.iter
        (fun s -> lock_set t tx s Lock.X)
        (Engine.ref_update_scope t.engine ~set ~field);
      lock_ref t tx value
  | Some _, Ty.Scalar _ | None, _ -> ());
  let len = Heap_file.read_with hf oid t.copy_update in
  let buf = t.update_buf in
  let before = Record.decode_at !buf 0 len in
  let old_value = Record.field before idx in
  let changed = not (Value.equal old_value value) in
  (* the inverted-path fan-out, locked even if the value is unchanged *)
  let fanout =
    match fdef.Ty.ftype with
    | Ty.Scalar _ when changed || Option.is_some tx ->
        Some (Engine.prepare_scalar t.engine before ~field)
    | Ty.Scalar _ | Ty.Ref _ -> None
  in
  (* A transaction's scalar update always has its fan-out, so only a
     reference update has none here (and in the apply below). *)
  (match (tx, fanout) with
  | Some _, Some f -> lock_targets t tx (Engine.fanout_touches f)
  | Some _, None ->
      let targets =
        List.filter_map
          (function Value.VRef o -> Some o | _ -> None)
          [ old_value; value ]
      in
      lock_targets t tx (Engine.write_set_ref_targets t.engine ~set ~field targets)
  | None, _ -> ());
  if changed then begin
    let image = first_touch t tx ~set oid before in
    let lsn =
      match logging t with
      | Some w -> log_op t w tx ?before:image (Wal.Update { set; oid; field; value })
      | None -> 0L
    in
    (try
       Wire.grow ~keep:true buf (len + idx + Value.encoded_size value);
       Heap_file.update ~len:(Record.set_value_at !buf 0 len idx value) hf oid !buf;
       (* User-field indexes first, then replication propagation (which may
          fire hidden-index maintenance via the engine callback). *)
       update_indexes oid idx ~before:old_value ~after:value (indexes_of_set t set);
       match fanout with
       | Some f -> Engine.on_scalar_update t.engine f ~field value
       | None -> Engine.on_ref_update t.engine ~set oid ~field ~old_value ~new_value:value
     with e ->
       rescind t lsn e;
       raise e);
    note_touch tx ~set oid ~present:true image
  end;
  charge t tx io0

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let begin_txn t =
  check_primary t "Db.begin_txn";
  if t.replaying then invalid_arg "Db.begin_txn: recovery in progress";
  let tx = Txn.make t.next_txn in
  t.next_txn <- t.next_txn + 1;
  (* Snapshot the lazy-invalidation table so abort can settle exactly the
     repair debt this transaction adds (and no other transaction's). *)
  Txn.set_pending_snapshot tx (Engine.pending_keys t.engine);
  Hashtbl.replace t.active (Txn.id tx) tx;
  tx

let free_txn_tombstones t stones =
  List.iter
    (fun (set, oid) ->
      (* a revived slot (abort path) is no longer a tombstone: left alone *)
      ignore (Heap_file.free_tombstone (set_file t set) oid))
    (List.rev stones)

(* A transaction's outcome.  Its marker is the group-commit point: one
   physical flush covers it and every record the transaction buffered. *)
let finish t tx io0 state =
  let id = Txn.id tx and committed = state = Txn.Committed in
  if Txn.begun tx then
    log_sync t (if committed then Wal.Txn_commit id else Wal.Txn_abort id);
  charge t (Some tx) io0;
  Hashtbl.remove t.active id;
  Txn.set_state tx state;
  Lock.release_all t.locks ~txn:id;
  Stats.bump (stats t) (if committed then Stats.Txn_commits else Stats.Txn_aborts)

let commit t tx =
  txn_check t tx;
  let io0 = io t in
  free_txn_tombstones t (Txn.tombstones tx);
  finish t tx io0 Txn.Committed

(* Roll one before-image back through the normal engine code, so indexes,
   link objects, hidden copies and S' objects all follow.  Runs with
   [t.compensating] set: lock-free, no fresh undo capture, logged as plain
   records (CLR-style: the rollback replays like any other work). *)
let restore_image t (img : Txn.undo_image) =
  let set = img.Txn.u_set and oid = img.Txn.u_oid in
  let present_now = Heap_file.exists (set_file t set) oid in
  (match (img.Txn.u_present, present_now) with
  | true, true ->
      let ty = Schema.set_type t.schema set in
      List.iteri
        (fun i v ->
          update_field t ~set oid
            ~field:
              (Listx.nth_exn ~what:"Db.restore_image: undo arity mismatch"
                 ty.Ty.fields i)
                .Ty.fname v)
        img.Txn.u_values
  | true, false -> insert_at_impl t ~set oid img.Txn.u_values
  | false, true -> delete t ~set oid
  | false, false -> ());
  Stats.bump (stats t) Stats.Undo_applied

let abort t tx =
  txn_check t tx;
  let io0 = io t in
  compensate t (fun () ->
      List.iter (restore_image t) (Txn.undo_images tx);
      (* Settle the lazy-propagation debt this transaction created: its
         invalidation entries must not leak repair work (and I/O) onto
         whichever innocent reader touches the source next. *)
      let snap = Txn.pending_snapshot tx in
      let added =
        List.filter (fun k -> not (List.mem k snap)) (Engine.pending_keys t.engine)
      in
      Engine.flush_keys t.engine added;
      free_txn_tombstones t (Txn.tombstones tx));
  finish t tx io0 Txn.Aborted

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)

let field_value t ~set record field =
  let ty = Schema.set_type t.schema set in
  Record.field record (Ty.field_index ty field)

let scan ?txn t ~set f =
  let tx = live t txn in
  let io0 = io t in
  lock_set t tx set Lock.S;
  Heap_file.iter (set_file t set) Record.decode_at f;
  charge t tx io0

let set_size t set = Heap_file.object_count (set_file t set)
let set_pages t set = Heap_file.page_count (set_file t set)

(* ------------------------------------------------------------------ *)
(* Compiled field and path expressions                                 *)

(* Validate and compile the plain walk: the functional joins that follow
   the references themselves, ignoring any replicated data. *)
let compile_walk t { set; steps; terminal } =
  let rec compile ty_name acc = function
    | [] -> (
        let ty = Schema.find_type t.schema ty_name in
        match Ty.field_index ty terminal with
        | idx -> Walk (List.rev acc, idx)
        | exception Not_found ->
            invalid_arg
              (Printf.sprintf "Db.expr: type %s has no field %s" ty_name terminal))
    | step :: rest -> (
        let ty = Schema.find_type t.schema ty_name in
        match Ty.field ty step with
        | { Ty.ftype = Ty.Ref target; _ } ->
            compile target (Ty.field_index ty step :: acc) rest
        | { Ty.ftype = Ty.Scalar _; _ } | (exception Not_found) ->
            invalid_arg
              (Printf.sprintf "Db.expr: %s.%s is not a reference attribute" ty_name
                 step))
  in
  compile (Schema.set_type t.schema set).Ty.tname [] steps

let expr t ~set source =
  let rev_parts =
    List.fold_left
      (fun acc part -> if part = "" then acc else part :: acc)
      [] (String.split_on_char '.' (String.trim source))
  in
  match rev_parts with
  | [] -> invalid_arg (Printf.sprintf "Db.expr: %S names no field" source)
  | terminal :: rev_steps -> (
      let path = { set; steps = List.rev rev_steps; terminal } in
      let covering =
        List.filter
          (fun (r : Schema.replication) ->
            (* Only [Active] declarations serve reads: a [Building] copy is
               not complete yet, a [Dropping] one is being torn down. *)
            Schema.rep_state t.schema r.Schema.rep_id = Schema.Active
            && r.Schema.rpath.Path.steps = path.steps
            &&
            match r.Schema.rpath.Path.terminal with
            | Path.Field f -> f = terminal
            | Path.All ->
                (* Full object replication covers every scalar field. *)
                List.mem_assoc terminal
                  (Schema.resolve_path t.schema r.Schema.rpath).Schema.terminal_fields)
          (Schema.replications_from t.schema set)
      in
      let inplace =
        List.find_opt (fun (r : Schema.replication) -> r.Schema.strategy = Schema.Inplace) covering
      in
      let separate =
        List.find_opt (fun (r : Schema.replication) -> r.Schema.strategy = Schema.Separate) covering
      in
      match (inplace, separate) with
      | Some r, _ ->
          Hidden
            ( Schema.hidden_index t.schema set ~rep_id:r.Schema.rep_id
                ~field:(Some terminal),
              r,
              path )
      | None, Some r ->
          let idx = Schema.hidden_index t.schema set ~rep_id:r.Schema.rep_id ~field:None in
          let resolved = Schema.resolve_path t.schema r.Schema.rpath in
          let offset =
            match
              List.find_index (fun (f, _) -> f = terminal) resolved.Schema.terminal_fields
            with
            | Some i -> Engine.sprime_field_offset + i
            | None -> assert false
          in
          Sprime (idx, offset, path)
      | None, None -> compile_walk t path)

let joins = function
  | Hidden _ -> 0
  | Sprime _ -> 1
  | Walk (hops, _) -> List.length hops

(* The fallbacks when a replicated copy cannot be trusted evaluate the
   functional join over the already-split [path], without locks, as a read
   of the authoritative source objects. *)
let rec eval_as t tx ?oid e record =
  match e with
  | Walk ([], idx) -> Record.field record idx
  | Walk (first :: rest, terminal_idx) ->
      (* Follow the references from [record], reading only the field each
         hop needs and read-locking each object reached for [tx]. *)
      let hop v idx =
        match v with
        | Value.VRef oid ->
            lock_ref t tx v;
            Heap_file.read_with (file_of_oid t oid) oid (fun buf off len ->
                Record.field_at buf off len idx)
        | Value.VNull -> Value.VNull
        | Value.VInt _ | Value.VString _ -> invalid_arg "Db.eval: non-reference on path"
      in
      hop (List.fold_left hop (Record.field record first) rest) terminal_idx
  | Hidden (idx, rep, path) -> (
      if not rep.Schema.options.Schema.lazy_propagation then Record.field record idx
      else
        (* Lazy propagation: repair the hidden copy on first read.  Without
           the OID we cannot consult the invalidation table, so fall back to
           the actual walk if anything at all is pending. *)
        match oid with
        | Some oid ->
            (* the repair rewrites the source object itself *)
            if Option.is_some tx && Engine.is_pending t.engine rep oid then
              lock_write t tx ~set:path.set oid;
            Engine.repair t.engine rep oid;
            let record = Heap_file.read_with (set_file t path.set) oid Record.decode_at in
            Record.field record idx
        | None ->
            if Engine.pending_count t.engine = 0 then Record.field record idx
            else (* correctness first: evaluate through the references *)
              eval_as t None (compile_walk t path) record)
  | Sprime (idx, offset, path) -> (
      match Record.field record idx with
      | Value.VRef sp -> (
          try
            let file =
              match Store.file_of_oid t.store sp with
              | Some f -> f
              | None -> invalid_arg "Db.eval: dangling S' reference"
            in
            match tx with
            | None ->
                Heap_file.read_with file sp (fun buf off len ->
                    Record.field_at buf off len offset)
            | Some _ ->
                (* The S' object is guarded by the final object that owns
                   it (named in slot 1): a shared lock there serialises
                   this read against writers of the replicated fields. *)
                let owner, v =
                  Heap_file.read_with file sp (fun buf off len ->
                      (Record.field_at buf off len 1, Record.field_at buf off len offset))
                in
                lock_ref t tx owner;
                v
          with Disk.Corrupt_page _ ->
            (* The S' page is quarantined.  The replicated value is only a
               copy: degrade gracefully to the functional join over the
               source objects, which remain authoritative. *)
            Stats.bump (stats t) Stats.Degraded_reads;
            eval_as t None (compile_walk t path) record)
      | Value.VNull -> Value.VNull
      | Value.VInt _ | Value.VString _ -> invalid_arg "Db.eval: corrupt sref slot")

let eval ?txn ?oid t e record = eval_as t (live t txn) ?oid e record

(* [deref] plans a (set, source) pair once per schema generation: a new
   declaration or a Building, Active or Dropping transition bumps the
   generation, so the next call recompiles.  Only successful compiles are
   kept, so a bad path raises on every call. *)
let plan t ~set source =
  let generation = Schema.generation t.schema in
  match Hashtbl.find_opt t.plans (set, source) with
  | Some (g, e) when g = generation -> e
  | Some _ | None ->
      let e = expr t ~set source in
      Hashtbl.replace t.plans (set, source) (generation, e);
      e

let deref ?txn t ~set oid source =
  let tx = live t txn in
  let io0 = io t in
  let e = plan t ~set source in
  let v = eval_as t tx ~oid e (read t tx ~set oid) in
  charge t tx io0;
  v

let deref_would_join t ~set source = joins (plan t ~set source)

(* ------------------------------------------------------------------ *)
(* Index access                                                        *)

let index_rt t name =
  match Hashtbl.find_opt t.indexes name with
  | Some rt -> rt
  | None -> invalid_arg (Printf.sprintf "Db: unknown index %s" name)

let index_lookup ?txn t ~index key =
  let tx = live t txn in
  let io0 = io t in
  let rt = index_rt t index in
  let set = rt.def.Schema.iset in
  lock_set t tx set Lock.IS;
  let oids = Btree.find rt.tree key in
  if Option.is_some tx then List.iter (lock_read t tx ~set) oids;
  charge t tx io0;
  oids

let index_range ?txn t ~index ~lo ~hi ~init ~f =
  let tx = live t txn in
  let io0 = io t in
  let rt = index_rt t index in
  (* range reads lock the whole set: no per-key phantom protection *)
  lock_set t tx rt.def.Schema.iset Lock.S;
  let acc = Btree.fold_range rt.tree ~lo ~hi ~init ~f in
  charge t tx io0;
  acc

type index_stats = { entries : int; height : int; leaves : int; pages : int }

let index_stats t ~index =
  let rt = index_rt t index in
  {
    entries = Btree.entry_count rt.tree;
    height = Btree.height rt.tree;
    leaves = Btree.leaf_count rt.tree;
    pages = Btree.page_count rt.tree;
  }

let find_index t ~set ~field =
  List.find_opt
    (fun d -> d.Schema.iset = set && d.Schema.ifield = field)
    (Schema.indexes t.schema)

let set_indexes t ~set = List.map (fun rt -> rt.def) (indexes_of_set t set)

(* ------------------------------------------------------------------ *)
(* Inverse references                                                  *)

type inverse_method = Via_links | Via_scan

let referencers t ~source_set ~attr target_oid =
  (* Validate the attribute. *)
  let ty = Schema.set_type t.schema source_set in
  (match Ty.field_opt ty attr with
  | Some { Ty.ftype = Ty.Ref _; _ } -> ()
  | Some _ | None ->
      invalid_arg
        (Printf.sprintf "Db.referencers: %s.%s is not a reference attribute"
           source_set attr));
  let scan () =
    let idx = Ty.field_index ty attr in
    let acc = ref [] in
    Heap_file.iter (set_file t source_set) Record.decode_at (fun oid record ->
        match Record.field record idx with
        | Value.VRef r when Oid.equal r target_oid -> acc := oid :: !acc
        | Value.VRef _ | Value.VNull | Value.VInt _ | Value.VString _ -> ());
    (List.rev !acc, Via_scan)
  in
  match Engine.referencers_via_links t.engine ~source_set ~attr target_oid with
  | Some members -> (members, Via_links)
  | None -> scan ()
  | exception Disk.Corrupt_page _ ->
      (* The level-1 link page is quarantined: the inverted path is just
         replicated data, so degrade to scanning the (authoritative) source
         set. *)
      Stats.bump (stats t) Stats.Degraded_reads;
      scan ()

(* ------------------------------------------------------------------ *)
(* Integrity and space                                                 *)

let check_integrity t =
  Invariants.check t.engine;
  Stbl.iter (fun _ hf -> Heap_file.check hf) t.sets;
  let links, sprimes = Store.bindings t.store in
  List.iter (fun (id, _) -> Option.iter Heap_file.check (Store.link_file_opt t.store id)) links;
  List.iter
    (fun (id, _) -> Option.iter Heap_file.check (Store.sprime_file_opt t.store id))
    sprimes;
  Hashtbl.iter
    (fun name rt ->
      Btree.check_invariants rt.tree;
      (* Every indexed object appears exactly once under its current key. *)
      let expected = ref 0 in
      Heap_file.iter (set_file t rt.def.Schema.iset) Record.decode_at (fun oid record ->
          match key_of_value (Record.field record rt.value_index) with
          | Some key ->
              incr expected;
              let hits = Btree.find rt.tree key in
              if not (List.exists (Oid.equal oid) hits) then
                failwith
                  (Printf.sprintf "index %s: missing entry for %s" name
                     (Oid.to_string oid))
          | None -> ());
      if Btree.entry_count rt.tree <> !expected then
        failwith
          (Printf.sprintf "index %s: %d entries, %d expected" name
             (Btree.entry_count rt.tree) !expected))
    t.indexes

let scrub t =
  check_primary t "Db.scrub";
  let data_sets =
    Stbl.fold (fun name hf acc -> (name, hf) :: acc) t.sets []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let log_repair ~rep_id ~source = log_sync t (Wal.Scrub_repair { rep_id; source }) in
  (* The physical sweep runs as a maintenance job so queued backfills and
     teardowns keep making progress while scrub reads pages.  The sweep is
     never logged: a crash mid-sweep just loses the sweep. *)
  let sw = Scrub.sweep_start t.engine ~data_sets in
  let scrub_job = -1 in
  Maint.enqueue t.maint
    (Maint.custom_job ~label:"scrub sweep" ~job_id:scrub_job
       ~step:(fun ~quantum ->
         if Scrub.sweep_step sw ~budget:(quantum * 8) then `More else `Done)
       ~complete:(fun () -> ()));
  while Maint.find t.maint scrub_job <> None do
    ignore (Maint.step t.maint ~quantum:4)
  done;
  (* Repairs lock like any other writer — IX on the set, X on the object,
     under a job-scoped owner held until the logical pass completes.  A
     conflict defers that one repair to a later scrub. *)
  let owner = fresh_owner t in
  let guard oid =
    let set = set_of_oid t oid in
    match
      Lock.acquire t.locks ~txn:owner (Lock.Set set) Lock.IX;
      Lock.acquire t.locks ~txn:owner (Lock.Obj oid) Lock.X
    with
    | () -> true
    | exception (Lock.Would_block _ | Lock.Deadlock _) ->
        Stats.bump (stats t) Stats.Maint_lock_yields;
        false
  in
  Fun.protect
    ~finally:(fun () -> Lock.release_all t.locks ~txn:owner)
    (fun () -> Scrub.finish ~log_repair ~guard sw)

(* ------------------------------------------------------------------ *)
(* Observability and referential integrity                             *)

let io_breakdown t =
  let stats = Pager.stats t.pager in
  let label_of_file =
    let tbl = Hashtbl.create 16 in
    Stbl.iter (fun name hf -> Hashtbl.replace tbl (Heap_file.file_id hf) ("set " ^ name)) t.sets;
    Hashtbl.iter
      (fun name rt -> Hashtbl.replace tbl (Btree.file_id rt.tree) ("index " ^ name))
      t.indexes;
    let links, sprimes = Store.bindings t.store in
    List.iter
      (fun (link_id, file_id) ->
        Hashtbl.replace tbl file_id (Printf.sprintf "link file #%d" link_id))
      links;
    List.iter
      (fun (rep_id, file_id) ->
        Hashtbl.replace tbl file_id (Printf.sprintf "S' file (rep %d)" rep_id))
      sprimes;
    fun file ->
      Option.value ~default:"output/other" (Hashtbl.find_opt tbl file)
  in
  let acc = Hashtbl.create 16 in
  Stats.File_table.iter
    (fun file io ->
      let label = label_of_file file in
      let r0, w0 = Option.value ~default:(0, 0) (Hashtbl.find_opt acc label) in
      Hashtbl.replace acc label
        (r0 + io.Stats.file_reads, w0 + io.Stats.file_writes))
    stats.Stats.by_file;
  Hashtbl.fold (fun label (r, w) rows -> (label, r, w) :: rows) acc []
  |> List.sort compare

let dangling_references t =
  let dangling = ref [] in
  List.iter
    (fun (set_name, elem) ->
      let ty = Schema.find_type t.schema elem in
      let ref_fields = Ty.ref_fields ty in
      if ref_fields <> [] then
        Heap_file.iter (set_file t set_name) Record.decode_at (fun oid record ->
            List.iter
              (fun (fname, target_type) ->
                match Record.field record (Ty.field_index ty fname) with
                | Value.VRef r ->
                    let ok =
                      match Itbl.find_opt t.data_files r.Oid.file with
                      | Some (_, hf) ->
                          Heap_file.exists hf r
                          && Heap_file.read_with hf r Record.type_tag_at
                             = Schema.type_tag t.schema target_type
                      | None -> false
                    in
                    if not ok then dangling := (set_name, oid, fname) :: !dangling
                | Value.VNull | Value.VInt _ | Value.VString _ -> ())
              ref_fields))
    (Schema.sets t.schema);
  List.rev !dangling

(* ------------------------------------------------------------------ *)
(* Database images                                                     *)

(* An image is
     magic | page size | checkpoint LSN | log path | file-id watermark
     | files | catalog | link bindings | S' bindings | seal
   The catalog holds one entry per type (in tag order, so replay reassigns
   identical tags), set, replication declaration (in rep-id order,
   [Dropped] ones included: the full sequence fixes hidden-slot layout and
   link-id allocation) and index: the [Wal.encode_frame] frame of the
   record that would redo it, then the bindings that record does not
   carry.  The seal is [Checksum.sum32] of every byte before it. *)
let image_magic = "FREPIMG4"

let rep_states = [| Schema.Building; Schema.Active; Schema.Dropping; Schema.Dropped |]

let image t =
  (* Make the on-disk state complete and self-describing first.  The log
     must reach the OS before its LSN is stamped into the image: a
     checkpoint is a durability point. *)
  Engine.flush_pending t.engine;
  (match t.wal with Some w -> Wal.sync w | None -> ());
  Pager.flush t.pager;
  let disk = Pager.disk t.pager in
  let page_size = Pager.page_size t.pager in
  let buf = Buffer.create ((page_size * Disk.total_pages disk) + 4096) in
  let put_u16 v = Buffer.add_uint16_le buf v in
  let put_u32 v = Buffer.add_int32_le buf (Int32.of_int v) in
  let put_str s =
    put_u16 (String.length s);
    Buffer.add_string buf s
  in
  let entry record = Buffer.add_bytes buf (Wal.encode_frame 0L record) in
  Buffer.add_string buf image_magic;
  put_u32 page_size;
  Buffer.add_int64_le buf (match t.wal with Some w -> Wal.last_lsn w | None -> 0L);
  put_str (match t.wal with Some w -> Wal.path w | None -> "");
  put_u32 (Disk.next_file_id disk);
  (* Every page, verified: a rotten one raises here rather than be re-sealed
     by the load.  A query's output file is a transient result that no log
     record makes, so the image leaves it out, as recovery would. *)
  let file_ids =
    List.filter (fun id -> not (Disk.is_output_file disk id)) (Disk.file_ids disk)
  in
  put_u32 (List.length file_ids);
  List.iter
    (fun id ->
      put_u32 id;
      let npages = Disk.page_count disk id in
      put_u32 npages;
      for page = 0 to npages - 1 do
        Buffer.add_bytes buf (Disk.dump_page disk ~file:id ~page)
      done)
    file_ids;
  let types =
    Schema.types t.schema
    |> List.map (fun ty -> (Schema.type_tag t.schema ty.Ty.tname, ty))
    |> List.sort compare
  in
  let sets = Schema.sets t.schema in
  let reps = Schema.all_replications t.schema in
  let index_defs = Schema.indexes t.schema in
  put_u16
    (List.length types + List.length sets + List.length reps + List.length index_defs);
  List.iter
    (fun (tag, ty) ->
      entry (Wal.Define_type ty);
      put_u16 tag)
    types;
  List.iter
    (fun (name, elem_type) ->
      let hf = set_file t name in
      entry (Wal.Create_set { name; elem_type; reserve = Heap_file.reserve hf });
      put_u32 (Heap_file.file_id hf))
    sets;
  List.iter
    (fun { Schema.rep_id; rpath; strategy; options } ->
      entry (Wal.Replicate { path = Path.to_string rpath; strategy; options });
      put_u16 rep_id;
      let state = Schema.rep_state t.schema rep_id in
      let rec index i = if rep_states.(i) = state then i else index (i + 1) in
      Buffer.add_uint8 buf (index 0))
    reps;
  List.iter
    (fun { Schema.iname; iset; ifield; clustered } ->
      let tree = (index_rt t iname).tree in
      entry (Wal.Build_index { name = iname; set = iset; field = ifield; clustered });
      put_u32 (Btree.file_id tree);
      put_u32 (Btree.root tree);
      Buffer.add_int64_le buf (Int64.of_int (Btree.entry_count tree));
      let free = Btree.free_pages tree in
      put_u32 (List.length free);
      List.iter put_u32 free)
    index_defs;
  let links, sprimes = Store.bindings t.store in
  List.iter
    (fun bindings ->
      put_u16 (List.length bindings);
      List.iter
        (fun (id, file_id) ->
          put_u16 id;
          put_u32 file_id)
        bindings)
    [ links; sprimes ];
  put_u32 0;
  let data = Buffer.to_bytes buf in
  let sealed = Bytes.length data - 4 in
  ignore (Wire.put_u32 data sealed (Checksum.sum32 data 0 sealed));
  Bytes.unsafe_to_string data

(* The image is built before the file is opened: a save that fails leaves
   an earlier image at [path] as it was. *)
let save t path =
  let image = image t in
  Out_channel.with_open_bin path (fun oc -> output_string oc image)

let read_image path = In_channel.with_open_bin path In_channel.input_all

(* Restore a database from image bytes, returning the checkpoint's
   durability header alongside it: (db, checkpoint lsn, wal path recorded
   at save). *)
let load_image ?(frames = 256) ?backend image =
  let corrupt () = invalid_arg "Db.load: truncated or corrupt image" in
  let data = Bytes.unsafe_of_string image in
  let n_magic = String.length image_magic in
  let sealed = Bytes.length data - 4 in
  if sealed < n_magic then corrupt ();
  if String.sub image 0 n_magic <> image_magic then
    invalid_arg "Db.load: not a fieldrep FREPIMG4 database image";
  if Checksum.sum32 data 0 sealed <> Wire.u32_at data sealed then corrupt ();
  let pos = ref n_magic in
  let next get =
    match get data !pos with
    | v, off ->
        pos := off;
        v
    | exception Wire.Corrupt _ -> corrupt ()
  in
  let get_u16 () = next Wire.get_u16 in
  let get_u32 () = next Wire.get_u32 in
  let page_size = get_u32 () in
  let checkpoint_lsn = next Wire.get_i64 in
  let saved_wal_path = next Wire.get_string in
  let next_file_id = get_u32 () in
  let t = create ~page_size ~frames ?backend () in
  let disk = Pager.disk t.pager in
  for _ = 1 to get_u32 () do
    let id = get_u32 () in
    let pages =
      Array.init (get_u32 ()) (fun _ ->
          next (fun data off ->
              Wire.check_bounds data off page_size;
              (Bytes.sub data off page_size, off + page_size)))
    in
    Disk.restore_file disk ~id pages
  done;
  (* Re-establish the file-id watermark: files created and later deleted
     before the checkpoint left holes, and replayed allocations must not
     re-fill them or every subsequent file id would diverge. *)
  Disk.reserve_file_ids disk next_file_id;
  for _ = 1 to get_u16 () do
    let record =
      next (fun data off ->
          let _, record = Wal.decode_frame_at data off ~limit:sealed in
          (record, Wal.frame_end data off))
    in
    match record with
    | Wal.Define_type ty ->
        Schema.define_type t.schema ty;
        if Schema.type_tag t.schema ty.Ty.tname <> get_u16 () then
          invalid_arg "Db.load: type tag replay mismatch"
    | Wal.Create_set { name; elem_type; reserve } ->
        Schema.create_set t.schema ~name ~elem_type;
        let file = get_u32 () in
        let hf = Heap_file.attach ~reserve t.pager ~file in
        Stbl.replace t.sets name hf;
        Itbl.replace t.data_files file (name, hf)
    | Wal.Replicate { path; strategy; options } ->
        let rep_id = get_u16 () in
        let state = rep_states.(next Wire.get_u8) in
        let rep =
          Schema.add_replication t.schema ~options ~state ~strategy (Path.parse path)
        in
        if rep.Schema.rep_id <> rep_id then invalid_arg "Db.load: rep id replay mismatch"
    | Wal.Build_index { name = iname; set = iset; field = ifield; clustered } ->
        let def = { Schema.iname; iset; ifield; clustered } in
        Schema.add_index t.schema def;
        let file = get_u32 () in
        let root = get_u32 () in
        let count = next Wire.get_int in
        let free_pages = List.init (get_u32 ()) (fun _ -> get_u32 ()) in
        let tree = Btree.attach t.pager ~file ~root ~count ~free_pages in
        let value_index = resolve_index_field t ~set:iset ~field:ifield in
        add_index_rt t iname { def; tree; value_index }
    | _ -> corrupt ()
  done;
  for _ = 1 to get_u16 () do
    let link_id = get_u16 () in
    Store.bind_link t.store ~link_id (Heap_file.attach t.pager ~file:(get_u32 ()))
  done;
  for _ = 1 to get_u16 () do
    let rep_id = get_u16 () in
    Store.bind_sprime t.store ~rep_id (Heap_file.attach t.pager ~file:(get_u32 ()))
  done;
  if !pos <> sealed then corrupt ();
  Engine.recompile t.engine;
  (* Re-queue in-flight reconfigurations at cursor 0: the image may have
     been taken mid-job, and re-walking already-processed pages is safe
     because the per-source operations are idempotent.  Logged [Maint_step]
     records (if this load is the front half of a recovery) then fast-
     forward the cursor through [advance_to]. *)
  List.iter
    (fun (r : Schema.replication) ->
      match Schema.rep_state t.schema r.Schema.rep_id with
      | Schema.Building -> enqueue_backfill t r
      | Schema.Dropping -> enqueue_teardown t r
      | Schema.Active | Schema.Dropped -> ())
    (Schema.replications t.schema);
  (t, checkpoint_lsn, saved_wal_path)

let load ?frames ?backend path =
  let t, _, _ = load_image ?frames ?backend (read_image path) in
  t

(* ------------------------------------------------------------------ *)
(* Checkpoints and crash recovery                                      *)

let checkpoint t path =
  (* A checkpoint is a transaction-consistent image: in-flight undo state
     lives only in memory, so an image taken mid-transaction could not be
     rolled back after a restart. *)
  check_primary t "Db.checkpoint";
  no_active_txns t "Db.checkpoint";
  save t path

(* Redo one logged record through the normal entry points; an insert
   returns the OID it produced.  A transactional delete leaves its slot
   pinned until the transaction's marker, as the original run did. *)
let rec redo t record =
  match record with
  | Wal.Define_type ty ->
      define_type t ty;
      None
  | Wal.Create_set { name; elem_type; reserve } ->
      create_set t ~reserve ~name ~elem_type ();
      None
  | Wal.Insert { set; values } -> Some (insert t ~set values)
  | Wal.Update { set; oid; field; value } ->
      update_field t ~set oid ~field value;
      None
  | Wal.Delete { set; oid } ->
      delete_impl t None ~pin:false ~set oid;
      None
  | Wal.Txn_op { op = Wal.Delete { set; oid }; _ } ->
      delete_impl t None ~pin:true ~set oid;
      None
  | Wal.Txn_op { op; _ } -> redo t op
  | Wal.Insert_at { set; oid; values } ->
      insert_at_impl t ~set oid values;
      None
  | Wal.Replicate { path; strategy; options } ->
      replicate t ~options ~strategy (Path.parse path);
      None
  | Wal.Build_index { name; set; field; clustered } ->
      build_index t ~name ~set ~field ~clustered;
      None
  | Wal.Scrub_repair { rep_id; source } ->
      (* Re-run the logged repair.  The record carries the replication and
         the source (or membership-target) object; if the object no longer
         exists at this point in the log, or the repair was a membership
         rebuild whose "source" lives in another set, refreshing is either
         impossible or a no-op — skip silently, replay continues to a
         consistent state either way. *)
      (match Engine.rep_of_id t.engine rep_id with
      | None -> ()
      | Some rep ->
          let set = rep.Schema.rpath.Path.source_set in
          if Stbl.mem t.sets set && Heap_file.exists (set_file t set) source
          then Engine.refresh t.engine rep source);
      None
  | Wal.Replicate_online { path; strategy; options } ->
      start_backfill t ~options ~strategy (Path.parse path);
      None
  | Wal.Unreplicate { path } ->
      (match Schema.find_replication t.schema (Path.parse path) with
      | None -> ()
      | Some rep -> start_teardown t rep);
      None
  | Wal.Maint_step { job; upto } ->
      Maint.advance_to t.maint ~job ~upto;
      None
  | Wal.Maint_done { job } ->
      Maint.finish t.maint ~job;
      None
  | Wal.Epoch_change { epoch } ->
      if epoch > t.epoch then t.epoch <- epoch;
      None
  | Wal.Abort _ | Wal.Txn_commit _ | Wal.Txn_abort _ ->
      invalid_arg "Db.redo: a marker record has no operation to redo"

let recovery_applier t =
  {
    Recovery.redo = redo t;
    free_tombstone = (fun ~set ~oid -> free_txn_tombstones t [ (set, oid) ]);
  }

(* Roll back the losers of a log stream: transactions with a logged
   footprint and no outcome.  Their operations are applied and their
   delete slots tombstoned; undo them newest first from the images their
   records carried (an insert's entry deletes the OID its redo produced).
   The compensations are logged as plain records plus a final [Txn_abort]
   marker, so a crash during (or after) rollback recovers to the same
   state, and a replica of this log resolves the transaction the same
   way. *)
let rollback_losers t losers =
  List.iter
    (fun (l : Recovery.loser) ->
      compensate t (fun () ->
          List.iter
            (fun (set, oid, present, values) ->
              restore_image t
                { Txn.u_set = set; u_oid = oid; u_present = present; u_values = values })
            l.Recovery.l_images;
          free_txn_tombstones t l.Recovery.l_tombstones);
      log_sync t (Wal.Txn_abort l.Recovery.l_txn);
      Stats.bump (stats t) Stats.Txn_aborts)
    losers

(* Reopen a checkpoint image and redo its log tail; the returned stream
   still holds the transactions the tail leaves open. *)
let replay_log ?frames ?wal_path ?backend path =
  let t, checkpoint_lsn, saved_wal_path = load_image ?frames ?backend (read_image path) in
  let wal_file =
    match wal_path with
    | Some p -> p
    | None ->
        if saved_wal_path = "" then
          invalid_arg
            "Db.recover: image was not checkpointed from a durable database \
             and no ~wal_path was given"
        else saved_wal_path
  in
  let w = Wal.open_ ~stats:(Pager.stats t.pager) wal_file in
  Wal.ensure_lsn w checkpoint_lsn;
  t.wal <- Some w;
  let stream =
    replay t (fun () -> Recovery.replay w ~after:checkpoint_lsn (recovery_applier t))
  in
  Stats.bump (Pager.stats t.pager) Stats.Recovery_replays;
  (t, w, stream)

(* The losers are the transactions live at the crash. *)
let recover ?frames ?wal_path ?backend path =
  let t, _, stream = replay_log ?frames ?wal_path ?backend path in
  rollback_losers t (Recovery.losers stream);
  Invariants.check t.engine;
  t

(* ------------------------------------------------------------------ *)
(* Streaming replication (replica side)                                *)

let open_replica ?frames ?backend image =
  let t, _, _ = load_image ?frames ?backend image in
  t.replica_mode <- true;
  t

(* One bracket per shipped batch, not per record.  The apply runs under
   [Lockdep.isolated]: a replica is a distinct node, so locks held by the
   caller (e.g. the master's [Wal_sync] when an ack-mode tap drives this
   loopback) must not combine with the replica's own acquisition stack
   into cross-node lock-order edges. *)
let replica_apply t f =
  if not t.replica_mode then invalid_arg "Db.replica_apply: not a replica";
  Lockdep.isolated @@ fun () ->
  let s =
    match t.repl_stream with
    | Some s -> s
    | None ->
        let s = Recovery.stream (recovery_applier t) in
        t.repl_stream <- Some s;
        s
  in
  let stats = Pager.stats t.pager in
  (* Records redo through the normal entry points; [replaying] both
     suppresses (nonexistent) WAL appends and opens the [check_primary]
     gate for the duration of the apply. *)
  replay t (fun () ->
      f (fun lsn record ->
          Recovery.feed s lsn record;
          Stats.bump stats Stats.Frames_applied))

(* Failover: turn this replica into the epoch's new master.  Its applied
   prefix becomes the authoritative history — a fresh log is attached at
   [wal_path] with the LSN counter raised to [last_lsn] (the fork point),
   and the first record the new master appends is the [Epoch_change] that
   stamps the bumped epoch into the log stream, so every surviving replica
   adopts the epoch through the ordinary redo path. *)
let promote_replica t ~wal_path ~last_lsn =
  if not t.replica_mode then invalid_arg "Db.promote_replica: not a replica";
  let losers =
    match t.repl_stream with
    | Some s -> (
        match Recovery.pending_failure s with
        | Some (lsn, msg) ->
            invalid_arg
              (Printf.sprintf
                 "Db.promote_replica: record %Ld failed (%s) and its Abort \
                  marker never arrived — this replica's prefix is not \
                  promotable"
                 lsn msg)
        | None -> Recovery.losers s)
    | None -> []
  in
  t.replica_mode <- false;
  t.repl_stream <- None;
  (match t.wal with Some w -> Wal.close w | None -> ());
  let w = Wal.open_ ~stats:(Pager.stats t.pager) wal_path in
  Wal.ensure_lsn w last_lsn;
  t.wal <- Some w;
  t.epoch <- t.epoch + 1;
  log_sync t (Wal.Epoch_change { epoch = t.epoch });
  (* The transactions still open at the fork lost their master: roll them
     back in the new epoch, where every replica of this log sees the
     compensations and the [Txn_abort]. *)
  rollback_losers t losers;
  t.epoch

(* Rejoin: redo a deposed master's (truncated) image + log, then demote
   the result to a replica — the log handle is dropped, because from here
   on records arrive over the wire, not from local appends.  Transactions
   the log leaves open are not rolled back here: the master's stream
   resolves them (a promoted master logs their compensations and
   [Txn_abort] after its [Epoch_change]), so the replay's stream carries
   on as the replica's apply stream. *)
let recover_replica ?frames ?wal_path ?backend path =
  let t, w, stream = replay_log ?frames ?wal_path ?backend path in
  Invariants.check t.engine;
  Wal.close w;
  t.wal <- None;
  t.replica_mode <- true;
  t.repl_stream <- Some stream;
  t

let space_report t =
  let sets =
    Stbl.fold (fun name hf acc -> (("set " ^ name), Heap_file.page_count hf) :: acc) t.sets []
  in
  let indexes =
    Hashtbl.fold (fun name rt acc -> (("index " ^ name), Btree.page_count rt.tree) :: acc) t.indexes []
  in
  let store = [ ("replication structures", Store.total_pages t.store) ] in
  List.sort compare (sets @ indexes) @ store

