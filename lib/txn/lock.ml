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

(* Hashing and comparing a resource allocates nothing: a set by its
   name's string hash, an object by its OID's three ints. *)
let same a b =
  match (a, b) with
  | Set x, Set y -> String.equal x y
  | Obj x, Obj y -> Oid.equal x y
  | _ -> false

module Tbl = Hashtbl.Make (struct
  type t = resource

  let equal = same

  let hash = function Set s -> Hashtbl.hash s | Obj o -> Oid.hash_fields o
end)

module Txns = Hashtbl.Make (Int)

(* One locked resource.  Nearly every resource has a single holder, so
   the first is stored inline; [others] holds the rest when it is shared.
   An entry is in the table only while it has a holder. *)
type entry = {
  mutable txn : int;
  mutable mode : mode;
  mutable others : (int * mode) list;
}

type t = {
  table : entry Tbl.t;
  held : resource list Txns.t;  (* txn -> the resources it holds *)
  waiting : (resource * mode) Txns.t;  (* txn -> its blocked request *)
  stats : Stats.t option;
}

let create ?stats () =
  {
    table = Tbl.create 256;
    held = Txns.create 16;
    waiting = Txns.create 16;
    stats;
  }

(* [txn]'s mode on [e], if it holds one. *)
let mode_of e txn =
  if e.txn = txn then Some e.mode else List.assoc_opt txn e.others

(* The mode a request for [mode] asks for, given the mode [cur] held. *)
let target cur mode = match cur with Some m -> lub m mode | None -> mode

(* Holders other than [txn] whose modes are incompatible with [want]. *)
let rec blocking_others txn want acc = function
  | [] -> acc
  | (other, m) :: rest ->
      let acc =
        if other <> txn && not (compatible m want) then other :: acc else acc
      in
      blocking_others txn want acc rest

let conflicts e txn want =
  let first =
    if e.txn <> txn && not (compatible e.mode want) then [ e.txn ] else []
  in
  blocking_others txn want first e.others

(* Record [txn] as holding [e] in [want]: an upgrade in place, or a new
   holder joining a shared resource. *)
let set_mode e txn want =
  if e.txn = txn then e.mode <- want
  else if List.mem_assoc txn e.others then
    e.others <-
      List.map (fun (o, m) -> if o = txn then (o, want) else (o, m)) e.others
  else e.others <- (txn, want) :: e.others

(* Wait-for edges of a waiting transaction: the current holders blocking
   its pending request.  Recomputed from live state on every check so
   released locks never leave stale edges. *)
let blockers_of t w =
  match Txns.find t.waiting w with
  | exception Not_found -> []
  | k, mode -> (
      match Tbl.find t.table k with
      | exception Not_found -> []
      | e -> conflicts e w (target (mode_of e w) mode))

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
   no release of their own.  [k] is a resource [txn] did not hold before:
   an upgrade is already on the held list. *)
let note_fresh t txn k =
  match Txns.find t.held txn with
  | held ->
      Lockdep.note Lockdep.Txn_lock;
      Txns.replace t.held txn (k :: held)
  | exception Not_found ->
      Lockdep.acquire Lockdep.Txn_lock;
      Txns.add t.held txn [ k ]

(* [txn] becomes the only holder of the unheld resource [k]. *)
let add t ~txn k mode =
  Tbl.add t.table k { txn; mode; others = [] };
  note_fresh t txn k

(* [txn], which holds [cur] on [e] (or nothing), takes it in [want]. *)
let take t e ~txn k cur want =
  set_mode e txn want;
  if cur = None then note_fresh t txn k else Lockdep.note Lockdep.Txn_lock

let bump t c = Option.iter (fun s -> Stats.bump s c) t.stats

let acquire t ~txn k mode =
  match Tbl.find t.table k with
  | exception Not_found ->
      add t ~txn k mode;
      Txns.remove t.waiting txn
  | e when e.txn = txn && covers e.mode mode -> ()
  | e -> (
      let cur = mode_of e txn in
      match cur with
      | Some m when covers m mode -> ()
      | _ -> (
          let want = target cur mode in
          match conflicts e txn want with
          | [] ->
              take t e ~txn k cur want;
              Txns.remove t.waiting txn
          | blocking ->
              (* Count a wait only when the request transitions into
                 blocking on this resource, not on every retry of it. *)
              let already =
                match Txns.find t.waiting txn with
                | r, m -> same r k && m = mode
                | exception Not_found -> false
              in
              Txns.replace t.waiting txn (k, mode);
              if not already then bump t Stats.Lock_waits;
              (match find_cycle t txn with
              | Some cycle ->
                  Txns.remove t.waiting txn;
                  bump t Stats.Deadlocks;
                  if cur <> None then bump t Stats.Deadlock_upgrades;
                  raise (Deadlock { victim = txn; cycle })
              | None -> ());
              raise (Would_block { txn; holders = blocking })))

(* Grant without checking conflicts: used for freshly allocated OIDs, which
   no other transaction can possibly have seen. *)
let grant t ~txn k mode =
  match Tbl.find t.table k with
  | exception Not_found -> add t ~txn k mode
  | e ->
      let cur = mode_of e txn in
      take t e ~txn k cur (target cur mode)

let holds t ~txn resource mode =
  match Tbl.find t.table resource with
  | exception Not_found -> false
  | e -> ( match mode_of e txn with Some m -> covers m mode | None -> false)

(* Drop [txn]'s hold on the resource [k]; the next holder moves inline. *)
let drop t txn k =
  match Tbl.find t.table k with
  | exception Not_found -> ()
  | e when e.txn = txn -> (
      match e.others with
      | [] -> Tbl.remove t.table k
      | (o, m) :: rest ->
          e.txn <- o;
          e.mode <- m;
          e.others <- rest)
  | e -> e.others <- List.filter (fun (o, _) -> o <> txn) e.others

let rec drop_all t txn = function
  | [] -> ()
  | k :: rest ->
      drop t txn k;
      drop_all t txn rest

let release_all t ~txn =
  (match Txns.find t.held txn with
  | held ->
      Lockdep.release Lockdep.Txn_lock;
      drop_all t txn held;
      Txns.remove t.held txn
  | exception Not_found -> ());
  Txns.remove t.waiting txn

let held_count t ~txn =
  match Txns.find t.held txn with
  | held -> List.length held
  | exception Not_found -> 0

let active_locks t = Tbl.length t.table
