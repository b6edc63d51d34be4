(* Linted as lib/core/fixture.ml: acquisitions along the canonical order,
   plus a node boundary that resets the held-context. *)
module Lockdep = Fieldrep_util.Lockdep

(* Forward order: Maint_job, then Txn_lock, then Pool_pin, then sync. *)
let forward () =
  Lockdep.with_held Lockdep.Maint_job @@ fun () ->
  Lockdep.acquire Lockdep.Txn_lock;
  Lockdep.acquire Lockdep.Pool_pin;
  Lockdep.with_held Lockdep.Wal_sync (fun () -> ());
  Lockdep.release Lockdep.Pool_pin;
  Lockdep.release Lockdep.Txn_lock

(* A release ends the span: Pool_pin is gone before Txn_lock arrives. *)
let released () =
  Lockdep.acquire Lockdep.Pool_pin;
  Lockdep.release Lockdep.Pool_pin;
  Lockdep.acquire Lockdep.Txn_lock;
  Lockdep.release Lockdep.Txn_lock

(* A replica apply is another node: locks held here must not combine
   with what it acquires inside. *)
let takes_txn locks = Lockdep.acquire Lockdep.Txn_lock; ignore locks

let loopback locks =
  Lockdep.with_held Lockdep.Wal_sync @@ fun () ->
  Lockdep.isolated @@ fun () ->
  takes_txn locks

(* A named step under a pin may sync the log: a pin covers a WAL sync
   (commit writes the log while the page is still pinned). *)
module Pager = Fieldrep_storage.Pager

let sync_step wal _buf =
  Lockdep.with_held Lockdep.Wal_sync (fun () -> ignore wal)

let pinned_sync pager wal =
  Pager.with_pin_arg pager ~file:3 ~page:0 ~dirty:true sync_step wal
