module Oid = Fieldrep_storage.Oid
module Value = Fieldrep_model.Value

type state = Active | Committed | Aborted

(* A before-image, captured the first time a transaction touches an object
   for writing.  [present = false] means the object did not exist before the
   transaction (it was created by it), so undo deletes it. *)
type undo_image = {
  u_set : string;
  u_oid : Oid.t;
  u_present : bool;
  u_values : Value.t list;
}

type t = {
  id : int;
  mutable state : state;
  mutable undo : undo_image list;  (* newest first *)
  touched : (string * string, unit) Hashtbl.t;  (* (set, oid) first-touch *)
  mutable tombstones : (string * Oid.t) list;
      (* slots pinned by this txn's deletes, resolved at commit/abort *)
  mutable ops : int;
  mutable io : int;  (* physical page I/O charged to this txn *)
  mutable begun : bool;  (* has a Txn_op record been logged? *)
  mutable snapshot : (int * int64) list;
      (* lazy-invalidation keys pending at begin: entries beyond this set
         are repair debt this transaction created *)
}

let make id =
  {
    id;
    state = Active;
    undo = [];
    touched = Hashtbl.create 8;
    tombstones = [];
    ops = 0;
    io = 0;
    begun = false;
    snapshot = [];
  }

let id t = t.id
let state t = t.state
let is_active t = t.state = Active

let key set oid = (set, Oid.to_string oid)

let touched t ~set oid = Hashtbl.mem t.touched (key set oid)

let record_touch t ~set oid image =
  if not (touched t ~set oid) then begin
    Hashtbl.replace t.touched (key set oid) ();
    t.undo <- image :: t.undo
  end

let undo_images t = t.undo
let add_tombstone t ~set oid = t.tombstones <- (set, oid) :: t.tombstones
let tombstones t = t.tombstones
let charge_io t n = t.io <- t.io + n
let io t = t.io
let bump_ops t = t.ops <- t.ops + 1
let ops t = t.ops
let set_state t s = t.state <- s
let begun t = t.begun
let mark_begun t = t.begun <- true
let pending_snapshot t = t.snapshot
let set_pending_snapshot t keys = t.snapshot <- keys
