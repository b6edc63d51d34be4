module Oid = Fieldrep_storage.Oid
module Value = Fieldrep_model.Value

type applier = {
  redo : Wal.record -> Oid.t option;
  free_tombstone : set:string -> oid:Oid.t -> unit;
}

type loser = {
  l_txn : int;
  l_images : (string * Oid.t * bool * Value.t list) list;  (* newest first *)
  l_tombstones : (string * Oid.t) list;
}

(* Replay-time trace of one logged transaction. *)
type trace = {
  mutable t_images : (string * Oid.t * bool * Value.t list) list;
  mutable t_tombs : (string * Oid.t) list;
}

exception Diverged of string

type stream = {
  s_applier : applier;
  s_txns : (int, trace) Hashtbl.t;
  mutable s_failed : (int64 * string) option;
      (* a record whose operation raised; the next record must be the
         master's [Abort] marker rescinding it *)
}

let stream applier = { s_applier = applier; s_txns = Hashtbl.create 8; s_failed = None }

let pending_failure s = s.s_failed

let trace s txn =
  match Hashtbl.find_opt s.s_txns txn with
  | Some t -> t
  | None ->
      let t = { t_images = []; t_tombs = [] } in
      Hashtbl.replace s.s_txns txn t;
      t

(* A tombstone revived by a compensation record is no longer pending. *)
let unpin s set oid =
  Hashtbl.iter
    (fun _ t -> t.t_tombs <- List.filter (fun e -> e <> (set, oid)) t.t_tombs)
    s.s_txns

let resolve s txn =
  match Hashtbl.find_opt s.s_txns txn with
  | None -> ()
  | Some t ->
      List.iter
        (fun (set, oid) -> s.s_applier.free_tombstone ~set ~oid)
        (List.rev t.t_tombs);
      Hashtbl.remove s.s_txns txn

let apply s record =
  match record with
  | Wal.Txn_commit txn | Wal.Txn_abort txn -> resolve s txn
  | record -> (
      let produced = s.s_applier.redo record in
      (* The undo half is recorded only once the redo succeeded: a failed
         operation's record, image included, is rescinded by its [Abort]
         marker. *)
      match record with
      | Wal.Insert_at { set; oid; values = _ } -> unpin s set oid
      | Wal.Txn_op { txn; op; before } -> (
          let t = trace s txn in
          (match (op, before, produced) with
          | Wal.Insert { set; values = _ }, _, Some oid ->
              t.t_images <- (set, oid, false, []) :: t.t_images
          | (Wal.Update { set; oid; _ } | Wal.Delete { set; oid }), Some values, _ ->
              t.t_images <- (set, oid, true, values) :: t.t_images
          | _ -> ());
          match op with
          | Wal.Delete { set; oid } -> t.t_tombs <- (set, oid) :: t.t_tombs
          | _ -> ())
      | _ -> ())

let feed s lsn record =
  match (s.s_failed, record) with
  | Some (flsn, _), Wal.Abort rescinded when Int64.equal rescinded flsn ->
      (* The master's operation failed validation after its record was
         appended; ours failed identically and left no effects, so the
         marker simply clears the slot. *)
      s.s_failed <- None
  | Some (flsn, msg), _ ->
      raise
        (Diverged
           (Printf.sprintf
              "record %Ld failed (%s) but the next record is not its Abort \
               marker"
              flsn msg))
  | None, Wal.Abort rescinded ->
      raise
        (Diverged
           (Printf.sprintf
              "master rescinded record %Ld, which this replica applied"
              rescinded))
  | None, record -> (
      (* The write-ahead contract means a validation failure raises before
         the operation touches any page, so catching it here leaves the
         store exactly as it was — matching the master, whose own attempt
         failed the same validation and appended the Abort marker that
         must arrive next. *)
      try apply s record
      with Invalid_argument msg | Failure msg -> s.s_failed <- Some (lsn, msg))

let losers s =
  Hashtbl.fold
    (fun txn t acc ->
      {
        l_txn = txn;
        l_images = t.t_images;
        l_tombstones = t.t_tombs;
      }
      :: acc)
    s.s_txns []
  |> List.sort (fun a b -> compare a.l_txn b.l_txn)

let replay wal ~after applier =
  let s = stream applier in
  List.iter
    (fun (lsn, record) ->
      if Int64.compare lsn after > 0 then feed s lsn record)
    (Wal.records wal);
  (* [Wal.records] filters rescinded records and their markers out, so a
     pending failure here means the log redid an operation that failed —
     the store and the log genuinely disagree. *)
  (match s.s_failed with
  | Some (lsn, msg) ->
      raise
        (Diverged (Printf.sprintf "replay of record %Ld failed: %s" lsn msg))
  | None -> ());
  s
