module Oid = Fieldrep_storage.Oid
module Listx = Fieldrep_util.Listx
module Wire = Fieldrep_util.Wire
module Disk = Fieldrep_storage.Disk
module Pager = Fieldrep_storage.Pager
module Page = Fieldrep_storage.Page
module Stats = Fieldrep_storage.Stats
module Heap_file = Fieldrep_storage.Heap_file
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Engine = Fieldrep_replication.Engine
module Registry = Fieldrep_replication.Registry
module Store = Fieldrep_replication.Store
module Link_object = Fieldrep_replication.Link_object
module Recompute = Fieldrep_replication.Recompute

type report = {
  pages_scanned : int;
  checksum_failures : int;
  repairs : int;
  quarantined : (int * int) list;
  unrepairable : string list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>scanned %d pages, %d checksum failure(s), %d repair(s), %d page(s) \
     quarantined@,"
    r.pages_scanned r.checksum_failures r.repairs
    (List.length r.quarantined);
  List.iter (fun s -> Format.fprintf ppf "unrepairable: %s@," s) r.unrepairable;
  Format.fprintf ppf "@]"

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

let finish ?(log_repair = fun ~rep_id:_ ~source:_ -> ())
    ?(guard = fun (_ : Oid.t) -> true) (sw : sweep) =
  let env = sw.sw_env in
  let data_sets = sw.sw_data_sets in
  let link_files = sw.sw_link_files in
  let store = env.Engine.store in
  let pager = Store.pager store in
  let disk = Pager.disk pager in
  let stats = Pager.stats pager in
  let page_size = Pager.page_size pager in
  let schema = env.Engine.schema in
  let registry = env.Engine.registry in
  let _, sprime_bindings = Store.bindings store in
  let repairs = ref 0 in
  let unrepairable = ref sw.sw_notes in
  let note fmt =
    Printf.ksprintf (fun s -> unrepairable := s :: !unrepairable) fmt
  in
  let repair_done () =
    incr repairs;
    Stats.bump stats Stats.Repairs
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
          let dump = Disk.dump_page disk ~file:fid ~page in
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
                           ignore (Record.decode (Heap_file.read hf oid));
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
  (* Phase 3: logical verify and repair against the recomputed ground
     truth.  Only [Active] declarations are audited: a path mid-backfill or
     mid-teardown is intentionally divergent, and its maintenance job — not
     scrub — is responsible for converging it. *)
  (match
     try Some (Recompute.compute env)
     with Disk.Corrupt_page { file; page } ->
       note
         "logical scrub skipped: page %d of file %d is unreadable, ground \
          truth cannot be recomputed"
         page file;
       None
   with
  | None -> ()
  | Some exp ->
      let find_rep rep_id =
        List.find_opt
          (fun (r : Schema.replication) -> r.Schema.rep_id = rep_id)
          (Schema.replications schema)
      in
      let refreshed = Hashtbl.create 32 in
      let do_refresh (rep : Schema.replication) source_oid =
        let key = (rep.Schema.rep_id, Oid.to_int64 source_oid) in
        if (not (Hashtbl.mem refreshed key)) && locked source_oid then begin
          Hashtbl.replace refreshed key ();
          log_repair ~rep_id:rep.Schema.rep_id ~source:source_oid;
          Engine.refresh env rep source_oid;
          repair_done ()
        end
      in
      let pending rep_id oid =
        Hashtbl.mem env.Engine.pending (rep_id, Oid.to_int64 oid)
      in
      let rep_of_link link_id =
        match Registry.link_kind registry link_id with
        | Some (Registry.L_path node_id) -> (
            match (Registry.node registry node_id).Registry.passing with
            | rep :: _ -> Some rep
            | [] -> None)
        | Some (Registry.L_collapsed node_id) ->
            List.find_map
              (fun (t : Registry.terminal) ->
                match t.Registry.kind with
                | Registry.K_collapsed id when id = link_id ->
                    Some t.Registry.rep
                | _ -> None)
              (Registry.node registry node_id).Registry.terminals
        | Some (Registry.L_sref _) | None -> None
      in
      (* Tolerant head iteration: skip quarantined pages, report objects
         whose chains were severed by one. *)
      let iter_live hf f =
        let fid = Heap_file.file_id hf in
        for page = 0 to Pager.page_count pager fid - 1 do
          if not (Disk.quarantined disk ~file:fid ~page) then begin
            let slots =
              Pager.with_page_read pager ~file:fid ~page (fun buf ->
                  Page.fold (fun acc slot _ -> slot :: acc) [] buf)
            in
            List.iter
              (fun slot ->
                let oid = { Oid.file = fid; page; slot } in
                if Heap_file.exists hf oid then
                  match Heap_file.read hf oid with
                  | bytes -> f oid bytes
                  | exception _ ->
                      note "object %s: unreadable (chain severed by a corrupt page)"
                        (Oid.to_string oid))
              (List.rev slots)
          end
        done
      in
      let read_data oid =
        Record.decode (Heap_file.read (env.Engine.file_of_oid oid) oid)
      in
      let write_data oid record =
        Heap_file.update (env.Engine.file_of_oid oid) oid (Record.encode record)
      in
      (* Pass A: hidden copies and stray link pairs on data objects. *)
      List.iter
        (fun (set_name, hf) ->
          iter_live hf (fun oid bytes ->
              match Record.decode bytes with
              | exception _ ->
                  note "set %s: object %s does not decode; unrepairable"
                    set_name (Oid.to_string oid)
              | record ->
                  (match Hashtbl.find_opt exp.Recompute.hidden oid with
                  | Some slot ->
                      List.iter
                        (fun (rep_id, idx, v) ->
                          if
                            (not (pending rep_id oid))
                            && not
                                 (Value.equal
                                    (Recompute.value_or_null record idx)
                                    v)
                          then
                            match find_rep rep_id with
                            | Some rep -> do_refresh rep oid
                            | None -> ())
                        !slot
                  | None -> ());
                  List.iter
                    (fun (pair : Record.link) ->
                      let link_id = pair.Record.link_id in
                      match Registry.link_kind registry link_id with
                      | Some (Registry.L_path _ | Registry.L_collapsed _)
                        when not (Engine.link_active env link_id) ->
                          (* Mid-reconfiguration: the maintenance job owns
                             this link's state; scrub must not judge it. *)
                          ()
                      | Some (Registry.L_path _ | Registry.L_collapsed _) ->
                          let expected_there =
                            match
                              Hashtbl.find_opt exp.Recompute.memberships
                                (link_id, oid)
                            with
                            | Some tbl -> Hashtbl.length tbl > 0
                            | None -> false
                          in
                          if (not expected_there) && locked oid then begin
                            (match rep_of_link link_id with
                            | Some rep ->
                                log_repair ~rep_id:rep.Schema.rep_id
                                  ~source:oid
                            | None -> ());
                            if Store.is_link_oid store pair.Record.link_oid
                            then (
                              match
                                Store.file_of_oid store pair.Record.link_oid
                              with
                              | Some lf ->
                                  Heap_file.purge lf pair.Record.link_oid
                              | None -> ());
                            let fresh = read_data oid in
                            write_data oid (Record.remove_link fresh link_id);
                            repair_done ()
                          end
                      | Some (Registry.L_sref _) | None -> ())
                    record.Record.links))
        data_sets;
      (* Pass B: every expected membership is stored, with the right
         members.  Anything divergent is rebuilt from a fresh link object. *)
      let referenced = Oid.Table.create 64 in
      Hashtbl.iter
        (fun (link_id, target) tbl ->
          if Hashtbl.length tbl > 0 then
            match Registry.link_kind registry link_id with
            | Some (Registry.L_sref _) | None -> ()
            | Some (Registry.L_path _ | Registry.L_collapsed _) -> (
                match read_data target with
                | exception _ ->
                    note "link %d: target %s unreadable; membership not verified"
                      link_id (Oid.to_string target)
                | target_rec -> (
                    let expected_entries =
                      Hashtbl.fold
                        (fun member tag acc ->
                          { Link_object.member; tag } :: acc)
                        tbl []
                      |> List.sort (fun (a : Link_object.entry) b ->
                             Oid.compare a.Link_object.member
                               b.Link_object.member)
                    in
                    let stored = Record.find_link target_rec link_id in
                    let lf_opt = Store.link_file_opt store link_id in
                    let ok =
                      match stored with
                      | None -> false
                      | Some pair ->
                          if Store.is_link_oid store pair.Record.link_oid then
                            (* A rebuilt link object of ANOTHER target may
                               have landed in this (freed) slot: a stored
                               OID someone else already claimed is never
                               ours, however plausible its entries look. *)
                            (not (Oid.Table.mem referenced pair.Record.link_oid))
                            &&
                            match lf_opt with
                            | None -> false
                            | Some lf -> (
                                match
                                  Link_object.entries
                                    (Link_object.decode
                                       (Heap_file.read lf pair.Record.link_oid))
                                with
                                | entries ->
                                    List.length entries
                                    = List.length expected_entries
                                    && List.for_all2
                                         (fun (a : Link_object.entry)
                                              (e : Link_object.entry) ->
                                           Oid.equal a.Link_object.member
                                             e.Link_object.member
                                           && (Oid.is_nil a.Link_object.tag
                                              || Oid.equal a.Link_object.tag
                                                   e.Link_object.tag))
                                         entries expected_entries
                                | exception _ -> false)
                          else
                            (match expected_entries with
                            | [ e ] ->
                                Oid.equal pair.Record.link_oid
                                  e.Link_object.member
                            | _ -> false)
                    in
                    if ok then (
                      match stored with
                      | Some pair
                        when Store.is_link_oid store pair.Record.link_oid ->
                          Oid.Table.replace referenced pair.Record.link_oid ()
                      | _ -> ())
                    else if not (locked target) then (
                      (* Deferred: keep the stored link object off the orphan
                         list — [target] still references it. *)
                      match stored with
                      | Some pair
                        when Store.is_link_oid store pair.Record.link_oid ->
                          Oid.Table.replace referenced pair.Record.link_oid ()
                      | _ -> ())
                    else begin
                      (match rep_of_link link_id with
                      | Some rep ->
                          log_repair ~rep_id:rep.Schema.rep_id ~source:target
                      | None -> ());
                      (match stored with
                      | Some pair
                        when Store.is_link_oid store pair.Record.link_oid
                             && not
                                  (Oid.Table.mem referenced
                                     pair.Record.link_oid) -> (
                          (* Only purge what no earlier rebuild claimed —
                             freed slots get recycled, so this OID may now
                             hold another target's fresh link object. *)
                          match lf_opt with
                          | Some lf -> Heap_file.purge lf pair.Record.link_oid
                          | None -> ())
                      | _ -> ());
                      let fresh = read_data target in
                      let fresh = Record.remove_link fresh link_id in
                      (match (lf_opt, expected_entries) with
                      | Some lf, _ ->
                          let loid =
                            Heap_file.insert lf
                              (Link_object.encode
                                 (Link_object.of_entries expected_entries))
                          in
                          write_data target
                            (Record.add_link fresh
                               { Record.link_oid = loid; link_id });
                          Oid.Table.replace referenced loid ();
                          repair_done ()
                      | None, [ e ] ->
                          (* No link file was ever materialised for this id:
                             store the single member as a direct pair, as the
                             engine's small-link elimination would. *)
                          write_data target
                            (Record.add_link fresh
                               {
                                 Record.link_oid = e.Link_object.member;
                                 link_id;
                               });
                          repair_done ()
                      | None, _ ->
                          note
                            "link %d of %s: no link file exists to rebuild a \
                             %d-member membership"
                            link_id (Oid.to_string target)
                            (List.length expected_entries))
                    end)))
        exp.Recompute.memberships;
      (* Orphan link objects: purge what no expected membership references.
         Skipped whenever a data page is still quarantined — the pairs of its
         unreadable objects are unknown, so nothing is provably orphaned.
         Also skipped per file when any of its link ids belongs to a path
         mid-reconfiguration: a half-backfilled (or half-torn-down) link
         file is full of entries the Active-only expectation cannot see. *)
      let data_fids =
        List.map (fun (_, hf) -> Heap_file.file_id hf) data_sets
      in
      let data_quarantined =
        List.exists
          (fun (f, _) -> List.mem f data_fids)
          (Disk.quarantined_pages disk)
      in
      if data_quarantined then
        note "orphan link-object sweep skipped: a data page is quarantined"
      else
        Hashtbl.iter
          (fun _fid ids ->
            match ids with
            | [] -> ()
            | id :: _ -> (
                if List.for_all (Engine.link_active env) ids then
                  match Store.link_file_opt store id with
                  | None -> ()
                  | Some hf ->
                      let orphans = ref [] in
                      Heap_file.iter_oids hf (fun loid ->
                          if not (Oid.Table.mem referenced loid) then
                            orphans := loid :: !orphans);
                      List.iter
                        (fun loid ->
                          Heap_file.purge hf loid;
                          repair_done ())
                        !orphans))
          link_files;
      (* Pass C: separate replications — the source's S' reference, the S'
         record's owner, values and reference count. *)
      List.iter
        (fun (rep : Schema.replication) ->
          match rep.Schema.strategy with
          | Schema.Inplace -> ()
          | Schema.Separate -> (
              let set = rep.Schema.rpath.Path.source_set in
              let nodes = Registry.chain registry rep in
              let _, term = Registry.terminal_of registry rep in
              let sref_link =
                match term.Registry.kind with
                | Registry.K_separate id -> id
                | Registry.K_inplace | Registry.K_collapsed _ -> assert false
              in
              let idx =
                Schema.hidden_index schema set ~rep_id:rep.Schema.rep_id
                  ~field:None
              in
              let src_file = env.Engine.file_of_set set in
              let sp_file_opt = Store.sprime_file_opt store rep.Schema.rep_id in
              let final_ty =
                Schema.find_type schema
                  (Listx.last_exn ~what:"Scrub: empty chain" nodes)
                    .Registry.to_type
              in
              let detach_dead_sref source_oid sp =
                (* The S' object died with a blanked page.  Null the slot and
                   drop the owner's sref pair by hand so [refresh] does not
                   try to decrement a reference count that no longer
                   exists. *)
                let fresh = read_data source_oid in
                if idx < Array.length fresh.Record.values then
                  write_data source_oid (Record.set_field fresh idx Value.VNull);
                match
                  Option.join
                    (Hashtbl.find_opt exp.Recompute.sep_final
                       (rep.Schema.rep_id, source_oid))
                with
                | None -> ()
                | Some f -> (
                    match read_data f with
                    | exception _ -> ()
                    | f_rec -> (
                        match Record.find_link f_rec sref_link with
                        | Some pair when Oid.equal pair.Record.link_oid sp ->
                            write_data f (Record.remove_link f_rec sref_link)
                        | _ -> ()))
              in
              (* Before any refresh runs, sever every reference to an S'
                 object that died with a blanked page — both the sources'
                 hidden slots and the owning finals' sref pairs.  Refresh
                 recycles freed slots, so a stale reference left in place
                 would alias a freshly rebuilt S' of some other final
                 object (and refresh itself would try to decrement a
                 reference count through it). *)
              let sp_dead sp =
                match sp_file_opt with
                | None -> true
                | Some sp_file -> (
                    match Record.decode (Heap_file.read sp_file sp) with
                    | _ -> false
                    | exception _ -> true)
              in
              let finals = Oid.Table.create 16 in
              Hashtbl.iter
                (fun (rid, _) fo ->
                  if rid = rep.Schema.rep_id then
                    match fo with
                    | Some f -> Oid.Table.replace finals f ()
                    | None -> ())
                exp.Recompute.sep_final;
              Oid.Table.iter
                (fun f () ->
                  match read_data f with
                  | exception _ -> ()
                  | f_rec -> (
                      match Record.find_link f_rec sref_link with
                      | Some pair when sp_dead pair.Record.link_oid ->
                          write_data f (Record.remove_link f_rec sref_link)
                      | _ -> ()))
                finals;
              iter_live src_file (fun source_oid bytes ->
                  match Record.decode bytes with
                  | exception _ -> ()
                  | record -> (
                      match Recompute.value_or_null record idx with
                      | Value.VRef sp when sp_dead sp ->
                          if idx < Array.length record.Record.values then
                            write_data source_oid
                              (Record.set_field record idx Value.VNull)
                      | _ -> ()));
              let value_checked = Oid.Table.create 8 in
              iter_live src_file (fun source_oid bytes ->
                  match Record.decode bytes with
                  | exception _ -> ()
                  | record ->
                      if not (pending rep.Schema.rep_id source_oid) then begin
                        let exp_final =
                          Option.join
                            (Hashtbl.find_opt exp.Recompute.sep_final
                               (rep.Schema.rep_id, source_oid))
                        in
                        match (Recompute.value_or_null record idx, exp_final)
                        with
                        | Value.VNull, None -> ()
                        | Value.VNull, Some _ -> do_refresh rep source_oid
                        | Value.VRef sp, None ->
                            (match sp_file_opt with
                            | Some sp_file
                              when not (Heap_file.exists sp_file sp) ->
                                detach_dead_sref source_oid sp
                            | _ -> ());
                            do_refresh rep source_oid
                        | Value.VRef sp, Some f -> (
                            match sp_file_opt with
                            | None ->
                                detach_dead_sref source_oid sp;
                                do_refresh rep source_oid
                            | Some sp_file -> (
                                match
                                  Record.decode (Heap_file.read sp_file sp)
                                with
                                | exception _ ->
                                    detach_dead_sref source_oid sp;
                                    do_refresh rep source_oid
                                | sp_rec -> (
                                    match Record.field sp_rec 1 with
                                    | Value.VRef owner when Oid.equal owner f
                                      ->
                                        (* Right S'; verify its replicated
                                           values once. *)
                                        if
                                          not
                                            (Oid.Table.mem value_checked sp)
                                        then begin
                                          Oid.Table.replace value_checked sp
                                            ();
                                          match read_data f with
                                          | exception _ -> ()
                                          | final_rec ->
                                              let updated = ref sp_rec in
                                              let dirty = ref false in
                                              List.iteri
                                                (fun i (fname, _) ->
                                                  let want =
                                                    Recompute.value_or_null
                                                      final_rec
                                                      (Ty.field_index final_ty
                                                         fname)
                                                  in
                                                  let at =
                                                    Engine.sprime_field_offset
                                                    + i
                                                  in
                                                  if
                                                    not
                                                      (Value.equal
                                                         (Record.field
                                                            !updated at)
                                                         want)
                                                  then begin
                                                    updated :=
                                                      Record.set_field
                                                        !updated at want;
                                                    dirty := true
                                                  end)
                                                term.Registry.fields;
                                              if !dirty && locked f then begin
                                                log_repair
                                                  ~rep_id:rep.Schema.rep_id
                                                  ~source:source_oid;
                                                Heap_file.update sp_file sp
                                                  (Record.encode !updated);
                                                repair_done ()
                                              end
                                        end
                                    | _ -> do_refresh rep source_oid)))
                        | (Value.VInt _ | Value.VString _), _ ->
                            if locked source_oid then begin
                              let fresh = read_data source_oid in
                              write_data source_oid
                                (Record.set_field fresh idx Value.VNull);
                              do_refresh rep source_oid
                            end
                      end);
              (* Reference-count and orphan audit over the S' file. *)
              match sp_file_opt with
              | None -> ()
              | Some sp_file ->
                  let claims = Oid.Table.create 32 in
                  iter_live src_file (fun _ bytes ->
                      match Record.decode bytes with
                      | exception _ -> ()
                      | r -> (
                          match Recompute.value_or_null r idx with
                          | Value.VRef sp ->
                              Oid.Table.replace claims sp
                                (1
                                + Option.value ~default:0
                                    (Oid.Table.find_opt claims sp))
                          | _ -> ()));
                  let to_purge = ref [] in
                  let to_fix = ref [] in
                  let to_pair = ref [] in
                  Heap_file.iter_oids sp_file (fun sp ->
                      match Record.decode (Heap_file.read sp_file sp) with
                      | exception _ -> to_purge := (sp, None) :: !to_purge
                      | sp_rec -> (
                          let claimed =
                            Option.value ~default:0
                              (Oid.Table.find_opt claims sp)
                          in
                          if claimed = 0 then
                            to_purge := (sp, Some sp_rec) :: !to_purge
                          else begin
                            if Value.as_int (Record.field sp_rec 0) <> claimed
                            then to_fix := (sp, sp_rec, claimed) :: !to_fix;
                            match Record.field sp_rec 1 with
                            | Value.VRef owner -> (
                                match read_data owner with
                                | exception _ -> ()
                                | o_rec -> (
                                    match Record.find_link o_rec sref_link with
                                    | Some pair
                                      when Oid.equal pair.Record.link_oid sp ->
                                        ()
                                    | _ -> to_pair := (sp, owner) :: !to_pair))
                            | _ -> ()
                          end));
                  List.iter
                    (fun (sp, sp_rec) ->
                      (match sp_rec with
                      | Some r -> (
                          match Record.field r 1 with
                          | Value.VRef owner -> (
                              match read_data owner with
                              | exception _ -> ()
                              | o_rec -> (
                                  match Record.find_link o_rec sref_link with
                                  | Some pair
                                    when Oid.equal pair.Record.link_oid sp ->
                                      write_data owner
                                        (Record.remove_link o_rec sref_link)
                                  | _ -> ()))
                          | _ -> ())
                      | None -> ());
                      Heap_file.purge sp_file sp;
                      repair_done ())
                    !to_purge;
                  List.iter
                    (fun (sp, sp_rec, claimed) ->
                      Heap_file.update sp_file sp
                        (Record.encode
                           (Record.set_field sp_rec 0 (Value.VInt claimed)));
                      repair_done ())
                    !to_fix;
                  List.iter
                    (fun (sp, owner) ->
                      match read_data owner with
                      | exception _ -> ()
                      | o_rec ->
                          write_data owner
                            (Record.add_link
                               (Record.remove_link o_rec sref_link)
                               { Record.link_oid = sp; link_id = sref_link });
                          repair_done ())
                    !to_pair))
        (List.filter
           (fun (r : Schema.replication) ->
             Schema.rep_state schema r.Schema.rep_id = Schema.Active)
           (Schema.replications schema));
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
        touched_files);
  Pager.flush pager;
  {
    pages_scanned = sw.sw_scanned;
    checksum_failures = sw.sw_failures;
    repairs = !repairs;
    quarantined = Disk.quarantined_pages disk;
    unrepairable = List.rev !unrepairable;
  }

let run ?log_repair ?guard (env : Engine.env) ~data_sets =
  let sw = sweep_start env ~data_sets in
  while sweep_step sw ~budget:64 do () done;
  finish ?log_repair ?guard sw
