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

(* First touches keyed by the OID alone (its file names the set), hashed
   from its three ints so that a lookup allocates nothing. *)
module Touched = Hashtbl.Make (struct
  type t = Oid.t

  let equal = Oid.equal
  let hash = Oid.hash_fields
end)
type t = {
  id : int;
  mutable state : state;
  mutable undo : undo_image list;  (* newest first *)
  touched : unit Touched.t;
  mutable tombstones : (string * Oid.t) list;
      (* slots pinned by this txn's deletes, resolved at commit/abort *)
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
    touched = Touched.create 8;
    tombstones = [];
    io = 0;
    begun = false;
    snapshot = [];
  }

let id t = t.id
let is_active t = t.state = Active

let touched t oid = Touched.mem t.touched oid

let record_touch t oid image =
  if not (touched t oid) then begin
    Touched.replace t.touched oid ();
    t.undo <- image :: t.undo
  end

let undo_images t = t.undo
let add_tombstone t ~set oid = t.tombstones <- (set, oid) :: t.tombstones
let tombstones t = t.tombstones
let charge_io t n = t.io <- t.io + n
let io t = t.io
let set_state t s = t.state <- s
let begun t = t.begun
let mark_begun t = t.begun <- true
let pending_snapshot t = t.snapshot
let set_pending_snapshot t keys = t.snapshot <- keys
