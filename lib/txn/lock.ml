module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Lockdep = Fieldrep_util.Lockdep

type mode = IS | IX | S | X

type resource = Set of string | Obj of Oid.t

exception Would_block of { txn : int; holders : int list }
exception Deadlock of { victim : int; cycle : int list }

let mode_name = function IS -> "IS" | IX -> "IX" | S -> "S" | X -> "X"

let resource_name = function
  | Set s -> Printf.sprintf "set:%s" s
  | Obj oid -> Printf.sprintf "obj:%s" (Oid.to_string oid)

(* Classic multi-granularity compatibility (no SIX: the lub of S and IX is
   modelled as X, which is safe, merely coarser). *)
let compatible a b =
  match (a, b) with
  | IS, (IS | IX | S) | (IX | S), IS -> true
  | IX, IX -> true
  | S, S -> true
  | _, X | X, _ -> false
  | IX, S | S, IX -> false

(* Does holding [held] already satisfy a request for [want]? *)
let covers held want =
  match (held, want) with
  | X, _ -> true
  | S, (S | IS) -> true
  | IX, (IX | IS) -> true
  | IS, IS -> true
  | _ -> false

(* Least mode at least as strong as both (upgrade target). *)
let lub a b =
  if covers a b then a
  else if covers b a then b
  else match (a, b) with IS, IX | IX, IS -> IX | _ -> X

type t = {
  table : (resource, (int, mode) Hashtbl.t) Hashtbl.t;
  held : (int, resource list ref) Hashtbl.t;
  waiting : (int, resource * mode) Hashtbl.t;
  stats : Stats.t option;
}

let create ?stats () =
  {
    table = Hashtbl.create 256;
    held = Hashtbl.create 16;
    waiting = Hashtbl.create 16;
    stats;
  }

let holders_of t resource =
  match Hashtbl.find_opt t.table resource with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      Hashtbl.replace t.table resource h;
      h

(* Transactions other than [txn] holding a mode incompatible with [want]. *)
let conflicts holders txn want =
  Hashtbl.fold
    (fun other m acc ->
      if other <> txn && not (compatible m want) then other :: acc else acc)
    holders []

(* Wait-for edges of a waiting transaction: the current holders blocking
   its pending request.  Recomputed from live state on every check so
   released locks never leave stale edges. *)
let blockers_of t w =
  match Hashtbl.find_opt t.waiting w with
  | None -> []
  | Some (resource, mode) -> (
      match Hashtbl.find_opt t.table resource with
      | None -> []
      | Some holders ->
          let want =
            match Hashtbl.find_opt holders w with
            | Some cur -> lub cur mode
            | None -> mode
          in
          conflicts holders w want)

(* Is [start] reachable from itself through wait-for edges?  Returns the
   cycle (as a txn list) when it is. *)
let find_cycle t start =
  let visited = Hashtbl.create 8 in
  let rec dfs path txn =
    if txn = start && path <> [] then Some (List.rev path)
    else if Hashtbl.mem visited txn then None
    else begin
      Hashtbl.replace visited txn ();
      let nexts = blockers_of t txn in
      List.fold_left
        (fun acc n -> match acc with Some _ -> acc | None -> dfs (n :: path) n)
        None nexts
    end
  in
  dfs [] start

(* Lockdep pairing: one [Txn_lock] push per transaction (its first grant),
   popped by [release_all]; later grants only record edges, since they get
   no release of their own.  [fresh]: [txn] did not hold [resource] before
   this grant, so it joins the held list (an upgrade is already there). *)
let note_held t txn resource ~fresh =
  match Hashtbl.find_opt t.held txn with
  | Some l ->
      Lockdep.note Lockdep.Txn_lock;
      if fresh then l := resource :: !l
  | None ->
      Lockdep.acquire Lockdep.Txn_lock;
      Hashtbl.replace t.held txn (ref [ resource ])

let acquire t ~txn resource mode =
  let holders = holders_of t resource in
  let cur = Hashtbl.find_opt holders txn in
  match cur with
  | Some m when covers m mode -> ()
  | _ -> (
      let want = match cur with Some m -> lub m mode | None -> mode in
      match conflicts holders txn want with
      | [] ->
          Hashtbl.replace holders txn want;
          note_held t txn resource ~fresh:(cur = None);
          Hashtbl.remove t.waiting txn
      | blocking ->
          (* Count a wait only when the request transitions into blocking on
             this resource, not on every retry of the same request. *)
          let already =
            match Hashtbl.find_opt t.waiting txn with
            | Some (r, m) -> r = resource && m = mode
            | None -> false
          in
          Hashtbl.replace t.waiting txn (resource, mode);
          if not already then
            Option.iter (fun s -> Stats.bump s Stats.Lock_waits) t.stats;
          (match find_cycle t txn with
          | Some cycle ->
              Hashtbl.remove t.waiting txn;
              Option.iter (fun s -> Stats.bump s Stats.Deadlocks) t.stats;
              raise (Deadlock { victim = txn; cycle })
          | None -> ());
          raise (Would_block { txn; holders = blocking }))

(* Grant without checking conflicts: used for freshly allocated OIDs, which
   no other transaction can possibly have seen. *)
let grant t ~txn resource mode =
  let holders = holders_of t resource in
  let cur = Hashtbl.find_opt holders txn in
  let want = match cur with Some m -> lub m mode | None -> mode in
  Hashtbl.replace holders txn want;
  note_held t txn resource ~fresh:(cur = None)

let holds t ~txn resource mode =
  match Hashtbl.find_opt t.table resource with
  | None -> false
  | Some holders -> (
      match Hashtbl.find_opt holders txn with
      | Some m -> covers m mode
      | None -> false)

let release_all t ~txn =
  (match Hashtbl.find_opt t.held txn with
  | Some l ->
      Lockdep.release Lockdep.Txn_lock;
      List.iter
        (fun resource ->
          match Hashtbl.find_opt t.table resource with
          | Some holders ->
              Hashtbl.remove holders txn;
              if Hashtbl.length holders = 0 then Hashtbl.remove t.table resource
          | None -> ())
        !l
  | None -> ());
  Hashtbl.remove t.held txn;
  Hashtbl.remove t.waiting txn

let held_count t ~txn =
  match Hashtbl.find_opt t.held txn with Some l -> List.length !l | None -> 0

let active_locks t = Hashtbl.length t.table

let pp fmt t =
  Hashtbl.iter
    (fun resource holders ->
      Format.fprintf fmt "%s:" (resource_name resource);
      Hashtbl.iter
        (fun txn m -> Format.fprintf fmt " %d=%s" txn (mode_name m))
        holders;
      Format.fprintf fmt "@.")
    t.table
