(* Self-tests for fieldrep_lint: each rule must fire on its bad fixture and
   stay quiet on the good one, under the virtual path that puts the fixture
   in the rule's scope.  Fixtures only need to parse, not typecheck. *)

module Core = Fieldrep_lint_core
module Driver = Core.Driver
module Diag = Core.Diag
module Allowlist = Core.Allowlist

let lint ?(allow = Allowlist.empty) ~as_path fixture =
  Driver.lint_file ~as_path ~allow (Filename.concat "fixtures" fixture)

let count rule ds =
  List.length (List.filter (fun (d : Diag.t) -> d.Diag.rule = rule) ds)

let check_count what expected rule ds = Alcotest.(check int) what expected (count rule ds)

let check_clean what ds =
  Alcotest.(check (list string)) what [] (List.map Diag.to_string ds)

(* ---------------- L1 ---------------- *)

let test_l1_bad () =
  let ds = lint ~as_path:"lib/replication/fixture.ml" "l1_bad.ml" in
  (* Three alias definitions plus three use sites. *)
  check_count "guarded internals flagged" 6 "L1" ds

let test_l1_open_bad () =
  let ds = lint ~as_path:"lib/query/fixture.ml" "l1_open_bad.ml" in
  Alcotest.(check bool) "open-based access flagged" true (count "L1" ds >= 1)

let test_l1_txn_edge () =
  let ds = lint ~as_path:"lib/txn/fixture.ml" "l1_txn_bad.ml" in
  Alcotest.(check bool) "txn back-edge flagged" true (count "L1" ds >= 1)

let test_l1_good () =
  check_clean "owning directory may use internals"
    (lint ~as_path:"lib/storage/fixture.ml" "l1_good.ml")

let test_l1_out_of_scope () =
  (* The same violations outside lib/ are not L1's business. *)
  let ds = lint ~as_path:"bench/fixture.ml" "l1_bad.ml" in
  check_count "bench is out of L1 scope" 0 "L1" ds

(* ---------------- P1 ---------------- *)

let test_p1_bad () =
  let ds = lint ~as_path:"lib/storage/fixture.ml" "p1_bad.ml" in
  check_count "leaked pins flagged" 2 "P1" ds

let test_p1_good () =
  check_clean "all release shapes accepted"
    (lint ~as_path:"lib/storage/fixture.ml" "p1_good.ml")

(* ---------------- D1 ---------------- *)

let test_d1_bad () =
  let ds = lint ~as_path:"lib/core/fixture.ml" "d1_bad.ml" in
  check_count "unsynced commit append flagged" 1 "D1" ds

let test_d1_good () =
  check_clean "synced append and plain records accepted"
    (lint ~as_path:"lib/core/fixture.ml" "d1_good.ml")

(* ---------------- E1 ---------------- *)

let test_e1_bad () =
  let ds = lint ~as_path:"lib/core/fixture.ml" "e1_bad.ml" in
  check_count "catch-alls flagged" 3 "E1" ds

let test_e1_good () =
  check_clean "specific and re-raising handlers accepted"
    (lint ~as_path:"lib/core/fixture.ml" "e1_good.ml")

(* ---------------- F1 ---------------- *)

let test_f1_bad () =
  let ds = lint ~as_path:"lib/core/fixture.ml" "f1_bad.ml" in
  (* hd, nth, Option.get, unsafe_get, Hashtbl.find, Obj.magic, %identity *)
  check_count "partial operations flagged" 7 "F1" ds

let test_f1_good () =
  check_clean "total spellings accepted"
    (lint ~as_path:"lib/core/fixture.ml" "f1_good.ml")

let test_f1_out_of_scope () =
  let ds = lint ~as_path:"bench/fixture.ml" "f1_bad.ml" in
  check_count "bench is out of F1 scope" 0 "F1" ds

(* ---------------- S1 ---------------- *)

let test_s1_bad () =
  let ds = lint ~as_path:"lib/storage/fixture.ml" "s1_bad.ml" in
  (* mutable field, Hashtbl field, module-level ref, module-level table *)
  check_count "shared mutable state flagged" 4 "S1" ds

let test_s1_good () =
  check_clean "Atomic/Mutex/DLS and locals accepted"
    (lint ~as_path:"lib/storage/fixture.ml" "s1_good.ml")

let test_s1_out_of_scope () =
  let ds = lint ~as_path:"bench/fixture.ml" "s1_bad.ml" in
  check_count "bench is out of S1 scope" 0 "S1" ds

let test_s1_protected_by () =
  let allow =
    Allowlist.parse_string
      "[protected_by]\nPool_latch = [\"lib/storage/fixture.ml\"]\n"
  in
  let ds = lint ~allow ~as_path:"lib/storage/fixture.ml" "s1_bad.ml" in
  check_count "a protected_by claim answers S1" 0 "S1" ds

let test_s1_protected_by_wrong_rule () =
  (* A protected_by entry is an S1 answer only — it must not leak into
     suppressing other rules on the same file. *)
  let allow =
    Allowlist.parse_string
      "[protected_by]\nPool_latch = [\"lib/core/fixture.ml\"]\n"
  in
  let ds = lint ~allow ~as_path:"lib/core/fixture.ml" "f1_bad.ml" in
  Alcotest.(check bool) "F1 still fires" true (count "F1" ds > 0)

(* ---------------- O1 ---------------- *)

let test_o1_bad () =
  let ds = lint ~as_path:"lib/core/fixture.ml" "o1_bad.ml" in
  (* one direct inversion, one through the call graph *)
  check_count "reverse-order acquisitions flagged" 2 "O1" ds

let test_o1_step_bad () =
  let ds = lint ~as_path:"lib/core/fixture.ml" "o1_step_bad.ml" in
  check_count "a lock taken in a step run under with_pin_arg flagged" 1 "O1" ds

let test_o1_good () =
  check_clean "forward order, release spans and isolated boundary accepted"
    (lint ~as_path:"lib/core/fixture.ml" "o1_good.ml")

(* ---------------- C1 ---------------- *)

let test_c1_bad () =
  let ds = lint ~as_path:"lib/core/fixture.ml" "c1_bad.ml" in
  check_count "bare counter increments flagged" 2 "C1" ds

let test_c1_good () =
  check_clean "Stats.bump/add and non-Stats fields accepted"
    (lint ~as_path:"lib/core/fixture.ml" "c1_good.ml")

let test_c1_stats_exempt () =
  (* The blessed mutation point itself is the one file allowed to assign
     counter fields. *)
  let ds = lint ~as_path:"lib/storage/stats.ml" "c1_bad.ml" in
  check_count "stats.ml is the blessed mutation point" 0 "C1" ds

(* C1's field list is kept by hand: it must name exactly the
   [mutable _ : int] fields of [Stats.t] and [Stats.file_io], as
   lib/storage/stats.mli declares them. *)
let stats_int_fields (d : Parsetree.type_declaration) =
  match (d.ptype_name.txt, d.ptype_kind) with
  | ("t" | "file_io"), Ptype_record labels ->
      List.filter_map
        (fun (l : Parsetree.label_declaration) ->
          match (l.pld_mutable, l.pld_type.ptyp_desc) with
          | Mutable, Ptyp_constr ({ txt = Lident "int"; _ }, []) ->
              Some l.pld_name.txt
          | _ -> None)
        labels
  | _ -> []

let test_c1_fields_match_stats () =
  let ic = open_in_bin "../../../lib/storage/stats.mli" in
  let sg =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Parse.interface (Lexing.from_channel ic))
  in
  let fields =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_type (_, decls) -> List.concat_map stats_int_fields decls
        | _ -> [])
      sg
  in
  Alcotest.(check (list string))
    "C1 guards every Stats counter field" (List.sort compare fields)
    (List.sort compare Core.Rules.c1_stats_fields)

(* ---------------- R1 ---------------- *)

let test_r1_bad () =
  let ds = lint ~as_path:"lib/core/fixture.ml" "r1_bad.ml" in
  check_count "re-encoded updates flagged" 2 "R1" ds

let test_r1_good () =
  check_clean "byte splices and fresh inserts accepted"
    (lint ~as_path:"lib/core/fixture.ml" "r1_good.ml")

let test_r1_out_of_scope () =
  (* Tests corrupt stored records by re-encoding them on purpose. *)
  let ds = lint ~as_path:"test/fixture.ml" "r1_bad.ml" in
  check_count "test is out of R1 scope" 0 "R1" ds

(* ---------------- A1: unused allowlist entries ---------------- *)

let test_allowlist_unused () =
  let allow =
    Allowlist.parse_string
      "F1 = [\"lib/core/fixture.ml\"]\nP1 = [\"lib/storage/other.ml\"]\n"
  in
  let ds = lint ~allow ~as_path:"lib/core/fixture.ml" "f1_bad.ml" in
  check_count "live entry suppresses" 0 "F1" ds;
  match Driver.unused_diags allow with
  | [ d ] ->
      Alcotest.(check string) "rule" "A1" d.Diag.rule;
      Alcotest.(check int) "stale entry's lint.toml line" 2 (Diag.line d)
  | ds ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one unused entry, got %d" (List.length ds))

(* ---------------- suppression and allowlist ---------------- *)

let test_suppress_site () =
  let ds = lint ~as_path:"lib/core/fixture.ml" "suppress.ml" in
  check_count "only the wrong-rule site survives" 1 "F1" ds;
  match ds with
  | [ d ] -> Alcotest.(check int) "surviving site line" 7 (Diag.line d)
  | _ -> Alcotest.fail "expected exactly one diagnostic"

let test_suppress_file () =
  check_clean "floating attribute silences the whole file"
    (lint ~as_path:"lib/core/fixture.ml" "suppress_file.ml")

let test_allowlist_file () =
  let allow = Allowlist.parse_string {|F1 = ["lib/core/fixture.ml"]|} in
  let ds = lint ~allow ~as_path:"lib/core/fixture.ml" "f1_bad.ml" in
  check_count "whole-file allowlist entry" 0 "F1" ds

let test_allowlist_line () =
  let allow = Allowlist.parse_string {|F1 = ["lib/core/fixture.ml:3"]|} in
  let ds = lint ~allow ~as_path:"lib/core/fixture.ml" "f1_bad.ml" in
  check_count "line-scoped entry spares one site" 6 "F1" ds

let test_allowlist_multiline () =
  let allow =
    Allowlist.parse_string
      "# header\n[allow]\nF1 = [\n  \"lib/core/fixture.ml\", # why\n]\n"
  in
  let ds = lint ~allow ~as_path:"lib/core/fixture.ml" "f1_bad.ml" in
  check_count "multi-line list entry parses" 0 "F1" ds

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fieldrep_lint"
    [
      ( "L1",
        [
          tc "bad" test_l1_bad;
          tc "open-bad" test_l1_open_bad;
          tc "txn-edge" test_l1_txn_edge;
          tc "good" test_l1_good;
          tc "out-of-scope" test_l1_out_of_scope;
        ] );
      ("P1", [ tc "bad" test_p1_bad; tc "good" test_p1_good ]);
      ("D1", [ tc "bad" test_d1_bad; tc "good" test_d1_good ]);
      ("E1", [ tc "bad" test_e1_bad; tc "good" test_e1_good ]);
      ( "F1",
        [
          tc "bad" test_f1_bad;
          tc "good" test_f1_good;
          tc "out-of-scope" test_f1_out_of_scope;
        ] );
      ( "S1",
        [
          tc "bad" test_s1_bad;
          tc "good" test_s1_good;
          tc "out-of-scope" test_s1_out_of_scope;
          tc "protected-by" test_s1_protected_by;
          tc "protected-by-wrong-rule" test_s1_protected_by_wrong_rule;
        ] );
      ( "O1",
        [
          tc "bad" test_o1_bad;
          tc "step under with_pin_arg" test_o1_step_bad;
          tc "good" test_o1_good;
        ] );
      ( "C1",
        [
          tc "bad" test_c1_bad;
          tc "good" test_c1_good;
          tc "stats-exempt" test_c1_stats_exempt;
          tc "fields match stats.mli" test_c1_fields_match_stats;
        ] );
      ( "R1",
        [ tc "bad" test_r1_bad; tc "good" test_r1_good; tc "out-of-scope" test_r1_out_of_scope ]
      );
      ( "suppression",
        [
          tc "site-attribute" test_suppress_site;
          tc "file-attribute" test_suppress_file;
          tc "allowlist-file" test_allowlist_file;
          tc "allowlist-line" test_allowlist_line;
          tc "allowlist-multiline" test_allowlist_multiline;
          tc "allowlist-unused" test_allowlist_unused;
        ] );
    ]
