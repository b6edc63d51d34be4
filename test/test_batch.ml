(* Batched physically-ordered propagation.

   The engine's page-batched propagation path must be a pure access-layer
   optimisation: identical final state to the per-object reference path,
   strictly fewer page reads on the paper's 1-level update mix, and a
   physical visit order that ascends by (file, page) so each fan-out
   touches every data page exactly once. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Pager = Fieldrep_storage.Pager
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Engine = Fieldrep_replication.Engine
module Params = Fieldrep_costmodel.Params
module Gen = Fieldrep_workload.Gen
module Mix = Fieldrep_workload.Mix
module Exec = Fieldrep_query.Exec
module Splitmix = Fieldrep_util.Splitmix

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* A deliberately small pool over an unclustered layout: index-order update
   targets are physically random, so the per-object path re-fetches pages
   the sorted path reads once. *)
let spec strategy seed =
  {
    Gen.default_spec with
    Gen.s_count = 400;
    sharing = 2;
    clustering = Params.Unclustered;
    strategy;
    frames = 12;
    seed;
  }

(* Canonical image of every stored byte that matters: raw records (user
   AND hidden values) of both sets, in physical order. *)
let observe db =
  let b = Buffer.create 8192 in
  List.iter
    (fun set ->
      Buffer.add_string b (Printf.sprintf "== %s (%d)\n" set (Db.set_size db set));
      Db.scan db ~set (fun oid record ->
          Buffer.add_string b (Oid.to_string oid);
          Array.iter
            (fun v ->
              Buffer.add_char b '|';
              Buffer.add_string b (Value.to_string v))
            record.Record.values;
          Buffer.add_char b '\n'))
    [ "S"; "R" ];
  Buffer.contents b

(* The same seeded 1-level update mix against a database, cold, returning
   the page reads it cost and its pool lookups (hits + reads): one per
   pin, whatever the clock keeps.  Identical specs + identical [qseed]
   produce identical query sequences, so two databases are directly
   comparable. *)
let run_update_mix built ~qseed ~queries =
  let db = built.Gen.db in
  let rng = Splitmix.create qseed in
  Pager.run_cold (Db.pager db) (fun () ->
      for _ = 1 to queries do
        ignore (Exec.replace db (Mix.update_query built rng ~update_sel:0.2))
      done);
  let s = Db.stats db in
  (s.Stats.page_reads, s.Stats.page_reads + s.Stats.buffer_hits)

let fewer_reads strategy () =
  let batched = Gen.build (spec strategy 21) in
  let reference = Gen.build (spec strategy 21) in
  Db.set_batching reference.Gen.db false;
  checkb "baseline build is batched" true (Db.batching batched.Gen.db);
  let r_batched, _ = run_update_mix batched ~qseed:5 ~queries:6 in
  let r_reference, _ = run_update_mix reference ~qseed:5 ~queries:6 in
  checkb
    (Printf.sprintf "strictly fewer reads (%d < %d)" r_batched r_reference)
    true
    (r_batched < r_reference);
  checks "identical final state" (observe reference.Gen.db) (observe batched.Gen.db);
  Db.check_integrity batched.Gen.db

(* ------------------------------------------------------------------ *)
(* Physical visit order                                                *)

(* One scalar update fanning out to many sources: the hidden-update hook
   must observe them in strictly ascending (file, page, slot) order, and
   the fan-out must span several pages for the ordering to mean anything. *)
let test_propagation_ascending_order () =
  let built =
    Gen.build
      { (spec Params.Inplace 3) with Gen.s_count = 48; sharing = 8; frames = 64 }
  in
  let db = built.Gen.db in
  let eng = Db.engine db in
  let visited = ref [] in
  let orig = eng.Engine.on_hidden_update in
  eng.Engine.on_hidden_update <-
    (fun set oid change ->
      visited := oid :: !visited;
      orig set oid change);
  let target = ref None in
  Db.scan db ~set:"S" (fun oid _ -> if !target = None then target := Some oid);
  let target = Option.get !target in
  Db.update_field db ~set:"S" target ~field:"repfield"
    (Value.VString (String.make built.Gen.spec.Gen.rep_field_bytes 'z'));
  let visited = List.rev !visited in
  checki "whole fan-out observed" built.Gen.spec.Gen.sharing (List.length visited);
  let pages =
    List.sort_uniq compare
      (List.map (fun o -> (o.Oid.file, o.Oid.page)) visited)
  in
  checkb "fan-out spans several pages" true (List.length pages >= 2);
  let rec ascending = function
    | a :: (b :: _ as rest) -> Oid.compare a b < 0 && ascending rest
    | [ _ ] | [] -> true
  in
  checkb "visited in ascending physical order" true (ascending visited);
  List.iter
    (fun src ->
      Alcotest.check
        (Alcotest.testable Value.pp Value.equal)
        "hidden copy refreshed"
        (Value.VString (String.make built.Gen.spec.Gen.rep_field_bytes 'z'))
        (Db.deref db ~set:"R" src "sref.repfield"))
    visited

(* ------------------------------------------------------------------ *)
(* Property: batching is invisible except in the I/O counters           *)

(* Aggregated over every property case: physical order must win overall
   in page reads.  Per case the clock policy makes reads order-sensitive
   in both directions (a sorted visit can evict a page the random order
   happened to keep), so each case is held to its pool lookups instead:
   one per pin, which no eviction order changes, and batching never adds
   a pin. *)
let total_batched = ref 0
let total_reference = ref 0

let batching_invisible (seed, si) =
  let strategy =
    match si with
    | 0 -> Params.No_replication
    | 1 -> Params.Inplace
    | _ -> Params.Separate
  in
  let small s = { s with Gen.s_count = 200; frames = 10 } in
  let batched = Gen.build (small (spec strategy seed)) in
  let reference = Gen.build (small (spec strategy seed)) in
  Db.set_batching reference.Gen.db false;
  let r_batched, l_batched = run_update_mix batched ~qseed:(seed + 1) ~queries:3 in
  let r_reference, l_reference = run_update_mix reference ~qseed:(seed + 1) ~queries:3 in
  total_batched := !total_batched + r_batched;
  total_reference := !total_reference + r_reference;
  if observe batched.Gen.db <> observe reference.Gen.db then
    QCheck.Test.fail_report "batched and per-object states diverged";
  if l_batched > l_reference then
    QCheck.Test.fail_reportf "batching cost extra pool lookups: %d > %d" l_batched
      l_reference;
  Db.check_integrity batched.Gen.db;
  true

let test_property_aggregate () =
  if !total_reference > 0 then
    checkb
      (Printf.sprintf "fewer reads in aggregate (%d < %d)" !total_batched
         !total_reference)
      true
      (!total_batched < !total_reference)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~count:6 ~name:"batched = per-object state, never more reads"
      (pair (int_bound 1000) (int_bound 2))
      batching_invisible;
  ]

let () =
  Alcotest.run "fieldrep_batch"
    [
      ( "update mix reads",
        [
          Alcotest.test_case "no replication" `Quick
            (fewer_reads Params.No_replication);
          Alcotest.test_case "in-place" `Quick (fewer_reads Params.Inplace);
          Alcotest.test_case "separate" `Quick (fewer_reads Params.Separate);
        ] );
      ( "visit order",
        [
          Alcotest.test_case "ascending (file, page)" `Quick
            test_propagation_ascending_order;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
        @ [
            Alcotest.test_case "fewer reads in aggregate" `Quick
              test_property_aggregate;
          ] );
    ]
