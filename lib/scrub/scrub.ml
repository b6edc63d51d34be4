module Oid = Fieldrep_storage.Oid
module Wire = Fieldrep_util.Wire
module Disk = Fieldrep_storage.Disk
module Pager = Fieldrep_storage.Pager
module Page = Fieldrep_storage.Page
module Stats = Fieldrep_storage.Stats
module Heap_file = Fieldrep_storage.Heap_file
module Schema = Fieldrep_model.Schema
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Engine = Fieldrep_replication.Engine
module Registry = Fieldrep_replication.Registry
module Store = Fieldrep_replication.Store
module Link_object = Fieldrep_replication.Link_object
module Invariants = Fieldrep_replication.Invariants

type report = {
  pages_scanned : int;
  checksum_failures : int;
  repairs : int;
  quarantined : (int * int) list;
  unrepairable : string list;
}

let max_read_attempts = 3

type file_kind = Fdata of string | Flink of int list | Fsprime of int

(* Resumable physical-sweep state: a page cursor over the store's files,
   plus everything the logical pass will need — accumulated failures and
   notes travel with it so [finish] produces the same report the old
   monolithic run did. *)
type sweep = {
  sw_env : Engine.env;
  sw_data_sets : (string * Heap_file.t) list;
  sw_link_files : (int, int list) Hashtbl.t;
  mutable sw_todo : (file_kind * int) list;  (* files not yet fully swept *)
  mutable sw_page : int;  (* next page of the head file *)
  mutable sw_scanned : int;
  mutable sw_failures : int;
  mutable sw_corrupt : (file_kind * int * int) list;  (* newest first *)
  mutable sw_notes : string list;  (* newest first *)
  sw_scratch : Bytes.t;
}

let sweep_start (env : Engine.env) ~data_sets =
  let store = env.Engine.store in
  let pager = Store.pager store in
  (* Every link and S' file backing the store; several link ids may alias one
     disk file (small-link clustering), so group them. *)
  let link_bindings, sprime_bindings = Store.bindings store in
  let link_files = Hashtbl.create 8 in
  List.iter
    (fun (link_id, fid) ->
      let ids = Option.value ~default:[] (Hashtbl.find_opt link_files fid) in
      Hashtbl.replace link_files fid (link_id :: ids))
    link_bindings;
  let files =
    List.map (fun (name, hf) -> (Fdata name, Heap_file.file_id hf)) data_sets
    @ Hashtbl.fold (fun fid ids acc -> (Flink ids, fid) :: acc) link_files []
    @ List.map (fun (rep_id, fid) -> (Fsprime rep_id, fid)) sprime_bindings
  in
  (* Push every dirty frame out so the disk reflects the logical state the
     sweep is about to verify. *)
  Pager.flush pager;
  {
    sw_env = env;
    sw_data_sets = data_sets;
    sw_link_files = link_files;
    sw_todo = files;
    sw_page = 0;
    sw_scanned = 0;
    sw_failures = 0;
    sw_corrupt = [];
    sw_notes = [];
    sw_scratch = Bytes.create (Pager.page_size pager);
  }

(* Physical sweep, [budget] pages at a time.  Verified reads straight from
   the disk: the buffer pool would happily serve a cached frame and mask
   bit-rot. *)
let rec sweep_step sw ~budget =
  if budget <= 0 then sw.sw_todo <> []
  else
    match sw.sw_todo with
    | [] -> false
    | (kind, fid) :: rest ->
        let pager = Store.pager sw.sw_env.Engine.store in
        let disk = Pager.disk pager in
        if sw.sw_page >= Disk.page_count disk fid then begin
          sw.sw_todo <- rest;
          sw.sw_page <- 0;
          sweep_step sw ~budget
        end
        else begin
          let page = sw.sw_page in
          sw.sw_page <- page + 1;
          sw.sw_scanned <- sw.sw_scanned + 1;
          Stats.bump (Pager.stats pager) Stats.Scrub_pages;
          let rec attempt n =
            match Disk.read_page disk ~file:fid ~page sw.sw_scratch with
            | () -> ()
            | exception Disk.Read_error _ when n < max_read_attempts ->
                Stats.bump (Pager.stats pager) Stats.Read_retries;
                attempt (n + 1)
            | exception Disk.Read_error _ ->
                sw.sw_notes <-
                  Printf.sprintf
                    "file %d page %d: persistent read errors; page skipped"
                    fid page
                  :: sw.sw_notes
            | exception Disk.Corrupt_page _ ->
                sw.sw_failures <- sw.sw_failures + 1;
                sw.sw_corrupt <- (kind, fid, page) :: sw.sw_corrupt
          in
          attempt 1;
          sweep_step sw ~budget:(budget - 1)
        end

(* A link id's declaration, named in the repair record of a link rebuild. *)
let rep_of_link registry link_id =
  match Registry.link_kind registry link_id with
  | Some (Registry.L_path node_id) -> (
      match (Registry.node registry node_id).Registry.linked with
      | rep :: _ -> Some rep.Schema.rep_id
      | [] -> None)
  | Some (Registry.L_collapsed node_id) ->
      List.find_map
        (fun (t : Registry.terminal) ->
          match t.Registry.kind with
          | Registry.K_collapsed id when id = link_id ->
              Some t.Registry.rep.Schema.rep_id
          | _ -> None)
        (Registry.node registry node_id).Registry.terminals
  | Some (Registry.L_sref _) | None -> None

(* Repair order.  Each round repairs only the first tier that has work,
   then audits again, so every later tier sees the state the earlier ones
   left: link structure first; then severing references to dead S'
   records, before any refresh can recycle their slots; then refreshes
   and S' values; then S' refcounts and owner pairs, which the refreshes
   move.  Tier 4 is reported, never repaired. *)
let tier : Invariants.finding -> int = function
  | Stray_link _ | Membership _ | Shared_link _ | Orphan_link _ -> 0
  | Sref { problem = Dead; _ } | Sref_pair { wanted = None; _ } -> 1
  | Stale_hidden _ | Sref _ | Sprime_values _ -> 2
  | Sprime_refcount _ | Sref_pair { stored = None; _ } -> 3
  | Sref_pair _ | Unreadable _ -> 4

(* A round that still repairs after this many audits is reported as not
   converging rather than looping. *)
let max_rounds = 16

let finish ~log_repair ~guard (sw : sweep) =
  let env = sw.sw_env in
  let data_sets = sw.sw_data_sets in
  let link_files = sw.sw_link_files in
  let store = env.Engine.store in
  let pager = Store.pager store in
  let disk = Pager.disk pager in
  let stats = Pager.stats pager in
  let page_size = Pager.page_size pager in
  let registry = env.Engine.registry in
  let _, sprime_bindings = Store.bindings store in
  let repairs = ref 0 in
  let unrepairable = ref sw.sw_notes in
  let note fmt =
    Printf.ksprintf (fun s -> unrepairable := s :: !unrepairable) fmt
  in
  (* Repairs write through foreground-visible objects, so each one asks the
     guard first (lib/core wires it to short X locks under a job-scoped
     owner).  A refused repair is deferred, not lost: the divergence
     survives untouched for the next scrub, after the conflicting
     transaction has resolved. *)
  let deferred = Oid.Table.create 8 in
  let locked oid =
    if guard oid then true
    else begin
      if not (Oid.Table.mem deferred oid) then begin
        Oid.Table.replace deferred oid ();
        note "object %s: repair deferred (locked by an active transaction)"
          (Oid.to_string oid)
      end;
      false
    end
  in
  (* Phase 2: triage.  Link and S' pages hold pure redundancy: blank them and
     let the logical pass rebuild their contents.  Data pages hold source
     fields with no second copy — salvage the page only if every record on it
     still decodes, and even then report the possibility of silent source
     corruption rather than pretending the page is known-good. *)
  let blank_page fid page =
    let buf = Bytes.make page_size '\000' in
    Page.init buf;
    Disk.write_page disk ~file:fid ~page buf;
    Pager.invalidate pager ~file:fid ~page
  in
  let touched_files = Hashtbl.create 4 in
  List.iter
    (fun (kind, fid, page) ->
      match kind with
      | Flink _ ->
          blank_page fid page;
          Hashtbl.replace touched_files fid ()
      | Fsprime _ ->
          blank_page fid page;
          Hashtbl.replace touched_files fid ()
      | Fdata set_name -> (
          let dump = Disk.raw_page disk ~file:fid ~page in
          let slots =
            (* Pure decoding of an already-corrupt image: only malformed-
               bytes exceptions can arise, no storage faults to swallow. *)
            try Some (Page.fold (fun acc slot _ -> slot :: acc) [] dump)
            with Invalid_argument _ | Failure _ | Wire.Corrupt _ -> None
          in
          match slots with
          | None ->
              note
                "set %s: data page %d is undecodable and stays quarantined \
                 (source fields are not derivable)"
                set_name page
          | Some slots ->
              (* Re-seal: writing the salvaged image back recomputes the
                 trailer and lifts the quarantine. *)
              Disk.write_page disk ~file:fid ~page dump;
              Pager.invalidate pager ~file:fid ~page;
              let hf = List.assoc set_name data_sets in
              let broken =
                (* Any failure at all — including a Corrupt_page raised by a
                   continuation chain crossing another bad page — means the
                   salvage attempt failed and the page must stay
                   quarantined; swallowing wide here is the point. *)
                (List.exists
                   (fun slot ->
                     let oid = { Oid.file = fid; page; slot } in
                     match Heap_file.exists hf oid with
                     | false -> false
                     | true -> (
                         try
                           ignore (Heap_file.read_with hf oid Record.decode_at);
                           false
                         with _ -> true)
                     | exception _ -> true)
                   slots [@lint.allow "E1"])
              in
              if broken then begin
                Disk.quarantine disk ~file:fid ~page;
                Pager.invalidate pager ~file:fid ~page;
                note
                  "set %s: data page %d holds undecodable objects and stays \
                   quarantined"
                  set_name page
              end
              else
                note
                  "set %s: data page %d failed its checksum; derived fields \
                   were re-verified, but source fields are not derivable and \
                   may be silently corrupt"
                  set_name page))
    (List.rev sw.sw_corrupt);
  (* Blanked pages dropped heads without going through [delete]; restore
     accurate object counts on the affected handles. *)
  Hashtbl.iter
    (fun fid () ->
      (match Hashtbl.find_opt link_files fid with
      | Some (id :: _) -> (
          match Store.link_file_opt store id with
          | Some hf -> Heap_file.recount hf
          | None -> ())
      | _ -> ());
      List.iter
        (fun (rep_id, f) ->
          if f = fid then
            match Store.sprime_file_opt store rep_id with
            | Some hf -> Heap_file.recount hf
            | None -> ())
        sprime_bindings)
    touched_files;
  (* Phase 3: logical repair.  {!Invariants} audits the derived state
     against the recomputed ground truth; scrub repairs its findings, a
     tier per round, until a round repairs nothing.  Only derived state
     is written, each repair as one stored object's bytes edited in a
     copy ({!Engine.rewrite_copy}): no record is decoded or re-encoded. *)
  let rewrite oid edit = Engine.rewrite_copy env oid (fun _ buf _ len -> edit buf len) in
  (* The link OID of the pair for [link_id] in the copy [rewrite] edits. *)
  let pair_in buf len link_id =
    let at = Record.link_at buf 0 len link_id in
    if at < 0 then None else Some (Oid.decode buf at)
  in
  (* Per round: link objects rebuilt this round, and refreshes already
     run.  A purge never frees an OID a rebuild claimed — freed slots are
     recycled, so a stale pair may now name another target's fresh link
     object. *)
  let claimed = Oid.Table.create 16 in
  let refreshed = Hashtbl.create 16 in
  let repaired () =
    incr repairs;
    Stats.bump stats Stats.Repairs;
    `Repaired
  in
  (* A repair writing through data object [subject]: guarded, and
     announced before anything is written. *)
  let fix rep_id subject write =
    if not (locked subject) then `Skipped
    else begin
      Option.iter (fun rep_id -> log_repair ~rep_id ~source:subject) rep_id;
      write ();
      repaired ()
    end
  in
  let refresh rep_id source before =
    match Engine.rep_of_id env rep_id with
    | Some rep when not (Hashtbl.mem refreshed (rep_id, source)) ->
        Hashtbl.replace refreshed (rep_id, source) ();
        fix (Some rep_id) source (fun () ->
            before ();
            Engine.refresh env rep source)
    | Some _ -> `Skipped
    | None -> `Left
  in
  let purge_link link_oid =
    if Store.is_link_oid store link_oid && not (Oid.Table.mem claimed link_oid)
    then
      Option.iter
        (fun lf -> Heap_file.purge lf link_oid)
        (Store.file_of_oid store link_oid)
  in
  let rebuild ~purge link_id target (expected : Link_object.entry list) =
    let stored_as =
      match (Store.link_file_opt store link_id, expected) with
      | Some lf, _ ->
          Some
            (fun () ->
              let buf = ref Bytes.empty in
              let len = Link_object.entries_into buf expected in
              let loid = Heap_file.insert ~len lf !buf in
              Oid.Table.replace claimed loid ();
              loid)
      | None, [ e ] ->
          (* No link file was ever materialised for this id: store the
             single member as a direct pair, as small-link elimination
             would. *)
          Some (fun () -> e.Link_object.member)
      | None, _ -> None
    in
    match stored_as with
    | None -> `Left
    | Some stored_as ->
        fix (rep_of_link registry link_id) target (fun () ->
            rewrite target (fun buf len ->
                (match pair_in buf len link_id with
                | Some link_oid when purge -> purge_link link_oid
                | Some _ | None -> ());
                Heap_file.Rewrite
                  (buf, Record.set_link_at buf len { Record.link_oid = stored_as (); link_id })))
  in
  (* The owner an S' record names, when it still decodes. *)
  let sprime_owner hf sp =
    match Heap_file.read_with hf sp (fun buf off len -> Record.field_at buf off len 1) with
    | Value.VRef owner -> Some owner
    | _ -> None
    | exception _ -> None
  in
  (* Drop [owner]'s sref pair if it still names [sp]; an owner read from
     a damaged S' record may be no data object at all. *)
  let drop_pair owner link_id sp =
    match
      ignore (env.Engine.file_of_oid owner);
      rewrite owner (fun buf len ->
          match pair_in buf len link_id with
          | Some pair when Oid.equal pair sp ->
              Heap_file.Rewrite (buf, Record.remove_link_at buf len link_id)
          | Some _ | None -> Heap_file.Keep)
    with
    | () -> ()
    | exception _ -> ()
  in
  let repair : Invariants.finding -> _ = function
    | Stale_hidden { rep_id; source; _ } -> refresh rep_id source ignore
    (* Severing a reference to a dead or foreign S' record is neither
       guarded nor logged: left in place, it would alias whatever S' a
       later refresh puts in the freed slot, and the refresh that follows
       is logged. *)
    | Sref { source; slot; problem = Dead; _ } ->
        Engine.set_values env source [ (slot, Value.VNull) ];
        repaired ()
    | Sref_pair { link_id; owner; stored = Some sp; wanted = None; _ } ->
        drop_pair owner link_id sp;
        repaired ()
    | Sref { rep_id; source; slot; problem = Not_a_ref; _ } ->
        refresh rep_id source (fun () ->
            Engine.set_values env source [ (slot, Value.VNull) ])
    | Sref { rep_id; source; _ } -> refresh rep_id source ignore
    | Sprime_values { rep_id; sprime; final; expected } -> (
        match Store.sprime_file_opt store rep_id with
        | Some hf when sprime_owner hf sprime = Some final ->
            (* The owner check guards against a slot recycled by a refresh
               earlier in the round. *)
            fix (Some rep_id) final (fun () ->
                Engine.set_values env sprime
                  (List.mapi (fun i v -> (Engine.sprime_field_offset + i, v)) expected))
        | Some _ | None -> `Skipped)
    | Sprime_refcount { rep_id; link_id; sprime; stored; claimed } -> (
        match Store.sprime_file_opt store rep_id with
        | Some hf when claimed = 0 ->
            (* Nothing claims it: drop it, and its owner's pair naming it. *)
            Option.iter
              (fun owner -> drop_pair owner link_id sprime)
              (sprime_owner hf sprime);
            Heap_file.purge hf sprime;
            repaired ()
        | Some _ when stored <> None ->
            Engine.set_values env sprime [ (0, Value.VInt claimed) ];
            repaired ()
        | Some _ | None -> `Left)
    | Sref_pair { rep_id; link_id; owner; stored = None; wanted = Some sp } ->
        fix (Some rep_id) owner (fun () ->
            rewrite owner (fun buf len ->
                Heap_file.Rewrite
                  (buf, Record.set_link_at buf len { Record.link_oid = sp; link_id })))
    | Stray_link { link_id; target } ->
        fix (rep_of_link registry link_id) target (fun () ->
            rewrite target (fun buf len ->
                Option.iter purge_link (pair_in buf len link_id);
                Heap_file.Rewrite (buf, Record.remove_link_at buf len link_id)))
    | Membership { link_id; target; expected; _ } ->
        rebuild ~purge:true link_id target expected
    | Shared_link { link_id; target; expected; _ } ->
        rebuild ~purge:false link_id target expected
    | Orphan_link { link_id; link_oid } -> (
        match Store.link_file_opt store link_id with
        | Some lf when not (Oid.Table.mem claimed link_oid) ->
            Heap_file.purge lf link_oid;
            repaired ()
        | Some _ | None -> `Left)
    | Sref_pair _ | Unreadable _ -> `Left
  in
  let rec round n =
    match Invariants.findings env with
    | exception
        (( Disk.Corrupt_page _ | Disk.Read_error _ | Invalid_argument _
         | Failure _ | Wire.Corrupt _ ) as e) ->
        note "logical scrub skipped: ground truth cannot be recomputed (%s)"
          (Printexc.to_string e)
    | findings ->
        Oid.Table.reset claimed;
        Hashtbl.reset refreshed;
        let left = ref [] in
        let run t =
          List.fold_left
            (fun any f ->
              if tier f <> t then any
              else
                match repair f with
                | `Repaired -> true
                | `Skipped -> any
                | `Left ->
                    left := f :: !left;
                    any)
            false findings
        in
        if List.exists run [ 0; 1; 2; 3 ] then begin
          if n < max_rounds then round (n + 1)
          else note "logical repair did not converge in %d rounds" max_rounds
        end
        else begin
          ignore (run 4);
          List.iter
            (fun f -> note "unrepaired: %s" (Invariants.describe f))
            (List.rev !left)
        end
  in
  round 1;
  Pager.flush pager;
  {
    pages_scanned = sw.sw_scanned;
    checksum_failures = sw.sw_failures;
    repairs = !repairs;
    quarantined = Disk.quarantined_pages disk;
    unrepairable = List.rev !unrepairable;
  }
