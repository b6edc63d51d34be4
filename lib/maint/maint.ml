module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Heap_file = Fieldrep_storage.Heap_file
module Lock = Fieldrep_txn.Lock
module Lockdep = Fieldrep_util.Lockdep

(* A walk job's mutable state is just the page cursor: everything else —
   what to lock, what to log, what to do per source — arrives as closures
   from lib/core, so this library never sees the engine. *)
type walk = {
  owner : int;
  set : string;
  file : Heap_file.t;
  mutable cursor : int;
  prepare : Oid.t -> (string * Oid.t) list * (unit -> unit);
  log_step : upto:int -> unit;
}

type custom = { custom_step : quantum:int -> [ `More | `Yield | `Done ] }

type body = Walk of walk | Custom of custom

type job = {
  label : string;
  job_id : int;
  body : body;
  complete : unit -> unit;
}

let walk_job ~label ~job_id ~owner ~set ~file ~prepare ~log_step ~complete =
  {
    label;
    job_id;
    body = Walk { owner; set; file; cursor = 0; prepare; log_step };
    complete;
  }

let custom_job ~label ~job_id ~step ~complete =
  { label; job_id; body = Custom { custom_step = step }; complete }

type t = {
  locks : Lock.t;
  stats : Stats.t;
  mutable queue : job list;  (* FIFO: head runs next *)
}

let create ~locks ~stats = { locks; stats; queue = [] }

let pending t = List.length t.queue
let jobs t = List.map (fun j -> (j.label, j.job_id)) t.queue
let find t id = List.find_opt (fun j -> j.job_id = id) t.queue

let remaining_pages j =
  match j.body with
  | Walk w -> max 0 (Heap_file.page_count w.file - w.cursor)
  | Custom _ -> 0

let backlog t = List.fold_left (fun acc j -> acc + remaining_pages j) 0 t.queue

let note_backlog t = Stats.set t.stats Stats.Maint_backfill_pending (backlog t)

let count_step t ~pages =
  Stats.bump t.stats Stats.Maint_steps;
  Stats.add t.stats Stats.Maint_pages_walked pages

let enqueue t j =
  if find t j.job_id <> None then
    invalid_arg (Printf.sprintf "Maint: job %d is already queued" j.job_id);
  t.queue <- t.queue @ [ j ];
  note_backlog t

let dequeue t j =
  t.queue <- List.filter (fun j' -> j' != j) t.queue;
  note_backlog t

let rotate t =
  match t.queue with [] | [ _ ] -> () | j :: rest -> t.queue <- rest @ [ j ]

(* One quantum of a walk job.  Every source is prepared and locked before
   any is applied: the engine is cooperative and single-threaded, so the
   prepare walks cannot race a foreground writer, and a conflict surfaces
   with no partial effects — release and retry later. *)
let step_walk t j w ~quantum =
  let pages = Heap_file.page_count w.file in
  if w.cursor >= pages then begin
    j.complete ();
    dequeue t j;
    `Progress
  end
  else begin
    let from = w.cursor in
    let upto = min pages (from + quantum) in
    let oids =
      List.concat_map
        (fun page -> Heap_file.oids_on_page w.file ~page)
        (List.init (upto - from) (fun i -> from + i))
    in
    match
      Lock.acquire t.locks ~txn:w.owner (Lock.Set w.set) Lock.IX;
      List.map
        (fun oid ->
          Lock.acquire t.locks ~txn:w.owner (Lock.Obj oid) Lock.X;
          let targets, apply = w.prepare oid in
          List.iter
            (fun (set, target) ->
              Lock.acquire t.locks ~txn:w.owner (Lock.Set set) Lock.IX;
              Lock.acquire t.locks ~txn:w.owner (Lock.Obj target) Lock.X)
            targets;
          apply)
        oids
    with
    | exception (Lock.Would_block _ | Lock.Deadlock _) ->
        Lock.release_all t.locks ~txn:w.owner;
        Stats.bump t.stats Stats.Maint_lock_yields;
        rotate t;
        `Yield
    | applies ->
        (* Write-ahead: the quantum is durable before it mutates a page,
           so a crash anywhere past this point replays it (idempotently)
           to completion. *)
        w.log_step ~upto;
        List.iter (fun apply -> apply ()) applies;
        w.cursor <- upto;
        Lock.release_all t.locks ~txn:w.owner;
        count_step t ~pages:(upto - from);
        if w.cursor >= Heap_file.page_count w.file then begin
          j.complete ();
          dequeue t j
        end
        else note_backlog t;
        `Progress
  end

(* A maintenance step is its own logical task: the cooperative scheduler
   calls it between foreground operations, while open transactions still
   hold their strict-2PL locks.  Those locks belong to *other* tasks —
   conflicts surface as a yield, never a deadlock — so the step starts from
   an empty held-context ([Lockdep.isolated]) and only then scopes its own
   work under [Maint_job]. *)
let step t ~quantum =
  Lockdep.isolated @@ fun () ->
  Lockdep.with_held Lockdep.Maint_job @@ fun () ->
  match t.queue with
  | [] -> `Idle
  | j :: _ -> (
      match j.body with
      | Walk w -> step_walk t j w ~quantum
      | Custom c -> (
          match c.custom_step ~quantum with
          | `More ->
              count_step t ~pages:quantum;
              `Progress
          | `Yield ->
              Stats.bump t.stats Stats.Maint_lock_yields;
              rotate t;
              `Yield
          | `Done ->
              j.complete ();
              dequeue t j;
              `Progress))

let advance_to t ~job ~upto =
  Lockdep.isolated @@ fun () ->
  Lockdep.with_held Lockdep.Maint_job @@ fun () ->
  match find t job with
  | None -> failwith (Printf.sprintf "Maint: Maint_step for unknown job %d" job)
  | Some j -> (
      match j.body with
      | Custom _ ->
          failwith (Printf.sprintf "Maint: Maint_step for custom job %d" job)
      | Walk w ->
          let last = min upto (Heap_file.page_count w.file) in
          for page = w.cursor to last - 1 do
            List.iter
              (fun oid -> snd (w.prepare oid) ())
              (Heap_file.oids_on_page w.file ~page)
          done;
          if upto > w.cursor then
            count_step t ~pages:(upto - w.cursor);
          w.cursor <- max w.cursor upto;
          note_backlog t)

let finish t ~job =
  match find t job with
  | None -> failwith (Printf.sprintf "Maint: Maint_done for unknown job %d" job)
  | Some j ->
      j.complete ();
      dequeue t j
