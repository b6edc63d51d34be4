(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6), runs the empirical validation the paper never could,
   and ablates the §4.3 optimizations.  Per-operation machine cost (ns and
   allocated words per layer) lives in perfbench's layer probe.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- figure-11 table-12 figure-13 table-14
     dune exec bench/main.exe -- validate ablate-small-links ablate-collapse
     dune exec bench/main.exe -- path-index space
*)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Pager = Fieldrep_storage.Pager
module Stats = Fieldrep_storage.Stats
module Heap_file = Fieldrep_storage.Heap_file
module Key = Fieldrep_btree.Key
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ast = Fieldrep_query.Ast
module Exec = Fieldrep_query.Exec
module Params = Fieldrep_costmodel.Params
module Cost = Fieldrep_costmodel.Cost
module Sweep = Fieldrep_costmodel.Sweep
module Gen = Fieldrep_workload.Gen
module Mix = Fieldrep_workload.Mix
module Multi = Fieldrep_workload.Multi
module Wal = Fieldrep_wal.Wal
module Disk = Fieldrep_storage.Disk
module Scrub = Fieldrep_scrub.Scrub
module T = Fieldrep_util.Tableprint
module Splitmix = Fieldrep_util.Splitmix

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let strategy_label = Sweep.strategy_name

let clustering_label = function
  | Params.Unclustered -> "unclustered"
  | Params.Clustered -> "clustered"

(* ------------------------------------------------------------------ *)
(* Figures 11 and 13: % difference in C_total vs update probability    *)

let figure clustering number =
  section
    (Printf.sprintf
       "Figure %d: %% difference in C_total vs no replication (%s indexes)" number
       (clustering_label clustering));
  Printf.printf
    "(paper: |S|=10000, f_s=.001; series cut off at +50%% in the paper's plots)\n";
  let data = Sweep.figure Params.default clustering in
  List.iter
    (fun (f, series) ->
      Printf.printf "\n--- f = %d, |R| = %d ---\n" f (10_000 * f);
      let probs = List.map fst (List.hd series).Sweep.points in
      let header =
        "P(update)"
        :: List.map
             (fun s ->
               Printf.sprintf "%s fr=%.3f"
                 (match s.Sweep.strategy with
                 | Params.Inplace -> "inpl"
                 | Params.Separate -> "sep"
                 | Params.No_replication -> "none")
                 s.Sweep.read_sel)
             series
      in
      let rows =
        List.mapi
          (fun i prob ->
            T.fixed 2 prob
            :: List.map (fun s -> T.fixed 1 (snd (List.nth s.Sweep.points i))) series)
          probs
      in
      T.print ~header rows)
    data;
  (* The crossovers the paper calls out in §6.6. *)
  Printf.printf "\nCrossover update probabilities (in-place stops beating separate):\n";
  List.iter
    (fun f ->
      let p = { Params.default with Params.sharing = f; Params.read_sel = 0.002 } in
      match Sweep.crossover p clustering Params.Inplace Params.Separate with
      | Some x -> Printf.printf "  f=%-3d: %.3f\n" f x
      | None -> Printf.printf "  f=%-3d: never\n" f)
    [ 1; 10; 20; 50 ]

(* ------------------------------------------------------------------ *)
(* Figures 12 and 14: selected C_read / C_update values                *)

let table clustering number =
  section
    (Printf.sprintf "Figure %d (table): selected values for C_read and C_update (%s)"
       number (clustering_label clustering));
  let cells = Sweep.table Params.default clustering in
  let paper =
    match clustering with
    | Params.Unclustered ->
        [ (1, "no replication", 43, 22); (1, "in-place", 23, 42); (1, "separate", 41, 42);
          (20, "no replication", 691, 22); (20, "in-place", 407, 427); (20, "separate", 509, 42) ]
    | Params.Clustered ->
        [ (1, "no replication", 24, 4); (1, "in-place", 4, 24); (1, "separate", 23, 6);
          (20, "no replication", 316, 4); (20, "in-place", 32, 400); (20, "separate", 133, 6) ]
  in
  let rows =
    List.map
      (fun c ->
        let name = strategy_label c.Sweep.t_strategy in
        let _, _, pr, pu =
          List.find (fun (f, n, _, _) -> f = c.Sweep.t_sharing && n = name) paper
        in
        [
          Printf.sprintf "f=%d, %s" c.Sweep.t_sharing name;
          string_of_int c.Sweep.c_read;
          string_of_int pr;
          string_of_int c.Sweep.c_update;
          string_of_int pu;
        ])
      cells
  in
  T.print
    ~header:[ "strategy (fr=.002)"; "C_read"; "paper"; "C_update"; "paper" ]
    rows

(* ------------------------------------------------------------------ *)
(* V1: empirical validation (model vs measured on the real engine)     *)

let validate () =
  section "V1: analytical model vs measured I/O of this implementation";
  Printf.printf
    "(|S|=2000 scaled from the paper's 10000 for runtime; fr=.002, fs=.001;\n\
    \ each query runs cold so measured I/O = distinct pages touched)\n\n";
  let rows = ref [] in
  List.iter
    (fun clustering ->
      List.iter
        (fun sharing ->
          List.iter
            (fun strategy ->
              let spec =
                {
                  Gen.default_spec with
                  Gen.sharing;
                  strategy;
                  clustering;
                  s_count = 2000;
                  seed = 17;
                }
              in
              let c = Mix.validate spec ~read_sel:0.002 ~update_sel:0.001 ~queries:12 () in
              rows :=
                [
                  clustering_label clustering;
                  string_of_int sharing;
                  strategy_label strategy;
                  T.fixed 1 c.Mix.measured_read;
                  T.fixed 1 c.Mix.model_read;
                  T.fixed 1 c.Mix.measured_update;
                  T.fixed 1 c.Mix.model_update;
                ]
                :: !rows)
            [ Params.No_replication; Params.Inplace; Params.Separate ])
        [ 1; 10; 20 ])
    [ Params.Unclustered; Params.Clustered ];
  T.print
    ~header:
      [ "indexes"; "f"; "strategy"; "read meas"; "read model"; "upd meas"; "upd model" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* V2: a measured miniature of Figure 11                               *)

let figure11_measured () =
  section "V2: measured % difference in C_total (miniature Figure 11)";
  Printf.printf
    "(|S|=1000, fr=.002, fs=.001, unclustered; real page I/O per query mix,\n\
    \ mirroring the analytical Figure 11 series at f in {1, 10})\n\n";
  List.iter
    (fun sharing ->
      Printf.printf "\n--- f = %d ---\n" sharing;
      let measure strategy =
        let spec =
          { Gen.default_spec with Gen.sharing; strategy; s_count = 1000; seed = 97 }
        in
        Mix.measure (Gen.build spec) ~read_sel:0.002 ~update_sel:0.001 ~queries:10 ()
      in
      let none = measure Params.No_replication in
      let inplace = measure Params.Inplace in
      let separate = measure Params.Separate in
      let pct m prob =
        let base = Mix.mixed_cost none ~update_prob:prob in
        100.0 *. (Mix.mixed_cost m ~update_prob:prob -. base) /. base
      in
      let probs = List.init 11 (fun i -> float_of_int i /. 10.0) in
      T.print
        ~header:[ "P(update)"; "in-place %"; "separate %" ]
        (List.map
           (fun p -> [ T.fixed 1 p; T.fixed 1 (pct inplace p); T.fixed 1 (pct separate p) ])
           probs))
    [ 1; 10 ]

(* ------------------------------------------------------------------ *)
(* A1: small-link elimination ablation (§4.3.1)                        *)

let ablate_small_links () =
  section "A1: small-link elimination (paper 4.3.1), in-place updates";
  Printf.printf
    "(update-propagation I/O per query and link-file size, threshold 1 vs 0)\n\n";
  let rows = ref [] in
  List.iter
    (fun sharing ->
      List.iter
        (fun threshold ->
          let spec =
            {
              Gen.default_spec with
              Gen.sharing;
              strategy = Params.Inplace;
              s_count = 1500;
              seed = 23;
            }
          in
          (* Build manually to control the threshold. *)
          let built =
            Gen.build { spec with Gen.strategy = Params.No_replication }
          in
          let options = { Schema.default_options with Schema.small_link_threshold = threshold } in
          Db.replicate built.Gen.db ~options ~strategy:Schema.Inplace
            (Path.parse "R.sref.repfield");
          let m = Mix.measure built ~read_sel:0.002 ~update_sel:0.001 ~queries:10 () in
          let eng = Db.engine built.Gen.db in
          let link_pages =
            Fieldrep_replication.Store.total_pages eng.Fieldrep_replication.Engine.store
          in
          rows :=
            [
              string_of_int sharing;
              string_of_int threshold;
              T.fixed 1 m.Mix.avg_update_io;
              string_of_int link_pages;
            ]
            :: !rows)
        [ 0; 1 ])
    [ 1; 2; 4 ];
  T.print ~header:[ "f"; "threshold"; "update I/O"; "link pages" ] (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* A2: collapsed inverted paths ablation (§4.3.3)                      *)

let ablate_collapse () =
  section "A2: collapsed inverted paths (paper 4.3.3), 2-level path";
  Printf.printf
    "(field updates get cheaper — one link hop instead of two — while\n\
    \ reference updates on the intermediate get dearer: entries must move)\n\n";
  let build collapse =
    let db = Gen.employee_db ~norgs:8 ~ndepts:60 ~nemps:3000 ~seed:31 () in
    let options = { Schema.default_options with Schema.collapse } in
    Db.replicate db ~options ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
    db
  in
  let io db f = Pager.run_cold (Db.pager db) f; float_of_int (Stats.total_io (Db.stats db)) in
  let orgs db = Exec.matching_oids db ~set:"Org" None |> Array.of_list in
  let depts db = Exec.matching_oids db ~set:"Dept" None |> Array.of_list in
  let rows = ref [] in
  List.iter
    (fun collapse ->
      let db = build collapse in
      let rng = Splitmix.create 5 in
      let orgs = orgs db and depts = depts db in
      let field_io = ref 0.0 and ref_io = ref 0.0 in
      let trials = 12 in
      for i = 1 to trials do
        let o = orgs.(Splitmix.int rng (Array.length orgs)) in
        field_io :=
          !field_io
          +. io db (fun () ->
                 Db.update_field db ~set:"Org" o ~field:"name"
                   (Value.VString (Printf.sprintf "org-upd-%d-%b" i collapse)));
        let d = depts.(Splitmix.int rng (Array.length depts)) in
        let target = orgs.(Splitmix.int rng (Array.length orgs)) in
        ref_io :=
          !ref_io
          +. io db (fun () ->
                 Db.update_field db ~set:"Dept" d ~field:"org" (Value.VRef target))
      done;
      Db.check_integrity db;
      rows :=
        [
          (if collapse then "collapsed" else "two-level");
          T.fixed 1 (!field_io /. float_of_int trials);
          T.fixed 1 (!ref_io /. float_of_int trials);
        ]
        :: !rows)
    [ false; true ];
  T.print
    ~header:[ "inverted path"; "org.name update I/O"; "dept.org ref-update I/O" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* A3: index on a replicated 2-level path (§3.3.4)                     *)

let path_index () =
  section "A3: associative lookup on Emp1.dept.org.name (paper 3.3.4)";
  Printf.printf
    "(replicated-path B+-tree vs evaluating the path by scan + functional joins)\n\n";
  let db = Gen.employee_db ~norgs:10 ~ndepts:80 ~nemps:8000 ~seed:41 () in
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
  Db.build_index db ~name:"emp_by_orgname" ~set:"Emp1" ~field:"Emp1.dept.org.name"
    ~clustered:false;
  let io f = Pager.run_cold (Db.pager db) f; Stats.total_io (Db.stats db) in
  let target = Value.VString "org-03" in
  let via_index = ref 0 in
  let hits_index =
    let res = ref [] in
    via_index :=
      io (fun () -> res := Db.index_lookup db ~index:"emp_by_orgname" (Key.String "org-03"));
    List.length !res
  in
  let via_scan = ref 0 in
  let hits_scan =
    let count = ref 0 in
    via_scan :=
      io (fun () ->
          Db.scan db ~set:"Emp1" (fun _ record ->
              (* The honest baseline walks the actual references. *)
              let v =
                match Db.field_value db ~set:"Emp1" record "dept" with
                | Value.VRef d -> (
                    match Db.field_value db ~set:"Dept" (Db.get db ~set:"Dept" d) "org" with
                    | Value.VRef o -> Db.field_value db ~set:"Org" (Db.get db ~set:"Org" o) "name"
                    | _ -> Value.VNull)
                | _ -> Value.VNull
              in
              if Value.equal v target then incr count));
    !count
  in
  T.print
    ~header:[ "method"; "matching emps"; "page I/O" ]
    [
      [ "B+-tree on replicated path"; string_of_int hits_index; string_of_int !via_index ];
      [ "scan + functional joins"; string_of_int hits_scan; string_of_int !via_scan ];
    ]

(* ------------------------------------------------------------------ *)
(* A6: co-clustered link objects (§4.3.2)                              *)

let ablate_cluster_links () =
  section "A6: clustering related link objects (paper 4.3.2), 2-level path";
  Printf.printf
    "(propagating an org.name update reads the org's link object and then the\n\
    \ link objects of its depts; co-clustering them in one file makes those\n\
    \ reads adjacent)\n\n";
  let build clustered =
    let db = Gen.employee_db ~norgs:40 ~ndepts:400 ~nemps:6000 ~seed:71 () in
    let options =
      { Schema.default_options with Schema.cluster_links = clustered;
        Schema.small_link_threshold = 0 }
    in
    Db.replicate db ~options ~strategy:Schema.Inplace (Path.parse "Emp1.dept.org.name");
    db
  in
  let rows = ref [] in
  List.iter
    (fun clustered ->
      let db = build clustered in
      let orgs = Exec.matching_oids db ~set:"Org" None |> Array.of_list in
      let rng = Splitmix.create 3 in
      let trials = 15 in
      let total = ref 0.0 in
      for i = 1 to trials do
        let o = orgs.(Splitmix.int rng (Array.length orgs)) in
        Pager.run_cold (Db.pager db) (fun () ->
            Db.update_field db ~set:"Org" o ~field:"name"
              (Value.VString (Printf.sprintf "org-%d-%b" i clustered)));
        total := !total +. float_of_int (Stats.total_io (Db.stats db))
      done;
      Db.check_integrity db;
      rows :=
        [
          (if clustered then "co-clustered" else "per-level files");
          T.fixed 1 (!total /. float_of_int trials);
        ]
        :: !rows)
    [ false; true ];
  T.print ~header:[ "link layout"; "org.name update I/O" ] (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* A4: lazy vs eager propagation (paper §8 future work)                *)

let ablate_lazy () =
  section "A4: eager vs lazy propagation (paper 8, 'not propagated until needed')";
  Printf.printf
    "(f=16: updates to a dept name hit 16 employees eagerly; lazily they\n\
    \ only mark an in-memory invalidation entry, and reads repair on demand)\n\n";
  let build lazy_ =
    let spec =
      { Gen.default_spec with Gen.sharing = 16; strategy = Params.No_replication; s_count = 800; seed = 91 }
    in
    let built = Gen.build spec in
    let options = { Schema.default_options with Schema.lazy_propagation = lazy_ } in
    Db.replicate built.Gen.db ~options ~strategy:Schema.Inplace (Path.parse "R.sref.repfield");
    built
  in
  let io db f =
    Pager.run_cold (Db.pager db) f;
    float_of_int (Stats.total_io (Db.stats db))
  in
  let rows = ref [] in
  List.iter
    (fun lazy_ ->
      let built = build lazy_ in
      let db = built.Gen.db in
      let rng = Splitmix.create 7 in
      let trials = 10 in
      let upd = ref 0.0 and first_read = ref 0.0 and second_read = ref 0.0 in
      for i = 1 to trials do
        let lo = Splitmix.int rng 700 in
        let uq =
          {
            Ast.target_set = "S";
            assignments =
              [ ("repfield", Ast.Const (Value.VString (Printf.sprintf "%020d" i))) ];
            rwhere = Some (Ast.eq "field_s" (Value.VInt lo));
          }
        in
        upd := !upd +. io db (fun () -> ignore (Exec.replace db uq));
        (* Read queries over R keys likely touching the invalidated rows. *)
        let rq =
          {
            Ast.from_set = "R";
            projections = [ "field_r"; "sref.repfield" ];
            where = Some (Ast.between "field_r" (Value.VInt (lo * 16)) (Value.VInt ((lo * 16) + 31)));
          }
        in
        first_read :=
          !first_read
          +. io db (fun () ->
                 let res = Exec.retrieve db rq in
                 Exec.drop_output db res.Exec.output_file);
        second_read :=
          !second_read
          +. io db (fun () ->
                 let res = Exec.retrieve db rq in
                 Exec.drop_output db res.Exec.output_file)
      done;
      Db.check_integrity db;
      rows :=
        [
          (if lazy_ then "lazy" else "eager");
          T.fixed 1 (!upd /. float_of_int trials);
          T.fixed 1 (!first_read /. float_of_int trials);
          T.fixed 1 (!second_read /. float_of_int trials);
        ]
        :: !rows)
    [ false; true ];
  T.print
    ~header:[ "propagation"; "update I/O"; "first read I/O"; "re-read I/O" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* A5: read cost vs path depth                                         *)

let depth_sweep () =
  section "A5: read I/O vs reference-path depth (per strategy)";
  Printf.printf
    "(chain of 4 types, fanout 4 per level; 20-object read queries projecting\n\
    \ a path of depth d: no replication pays d joins, separate one, in-place none)\n\n";
  (* A generic chain: L3 -> L2 -> L1 -> L0 (depth up to 3). *)
  let build strategy depth =
    let db = Db.create ~page_size:4096 ~frames:512 () in
    let rng = Splitmix.create 13 in
    for lvl = 0 to 3 do
      let fields =
        [
          { Ty.fname = "key"; ftype = Ty.Scalar Ty.SInt };
          { Ty.fname = "payload"; ftype = Ty.Scalar Ty.SString };
        ]
        @ (if lvl > 0 then [ { Ty.fname = "next"; ftype = Ty.Ref (Printf.sprintf "L%d" (lvl - 1)) } ] else [])
      in
      Db.define_type db (Ty.make ~name:(Printf.sprintf "L%d" lvl) fields)
    done;
    for lvl = 0 to 3 do
      Db.create_set db ~reserve:800
        ~name:(Printf.sprintf "Set%d" lvl)
        ~elem_type:(Printf.sprintf "L%d" lvl) ()
    done;
    let counts = [| 50; 200; 800; 3200 |] in
    let oids = Array.make 4 [||] in
    for lvl = 0 to 3 do
      (* Shuffled reference assignment: adjacent objects reference scattered
         targets ("relatively unclustered", the model's 6.2 assumption). *)
      let refs =
        if lvl = 0 then [||]
        else begin
          let r = Array.init counts.(lvl) (fun i -> oids.(lvl - 1).(i mod counts.(lvl - 1))) in
          Splitmix.shuffle rng r;
          r
        end
      in
      oids.(lvl) <-
        Array.init counts.(lvl) (fun i ->
            let base =
              [
                Value.VInt i;
                Value.VString (String.init 60 (fun _ -> Char.chr (97 + Splitmix.int rng 26)));
              ]
            in
            let values = if lvl = 0 then base else base @ [ Value.VRef refs.(i) ] in
            Db.insert db ~set:(Printf.sprintf "Set%d" lvl) values)
    done;
    Db.build_index db ~name:"top_key" ~set:"Set3" ~field:"key" ~clustered:false;
    let path_str =
      "Set3." ^ String.concat "." (List.init depth (fun _ -> "next")) ^ ".payload"
    in
    let expr = String.concat "." (List.init depth (fun _ -> "next")) ^ ".payload" in
    (match strategy with
    | Params.No_replication -> ()
    | Params.Inplace -> Db.replicate db ~strategy:Schema.Inplace (Path.parse path_str)
    | Params.Separate -> Db.replicate db ~strategy:Schema.Separate (Path.parse path_str));
    (db, expr)
  in
  let rows = ref [] in
  List.iter
    (fun depth ->
      List.iter
        (fun strategy ->
          let db, expr = build strategy depth in
          let rng = Splitmix.create 3 in
          let trials = 8 in
          let total = ref 0.0 in
          for _ = 1 to trials do
            let lo = Splitmix.int rng 3000 in
            let q =
              {
                Ast.from_set = "Set3";
                projections = [ "key"; expr ];
                where = Some (Ast.between "key" (Value.VInt lo) (Value.VInt (lo + 19)));
              }
            in
            Pager.run_cold (Db.pager db) (fun () ->
                let res = Exec.retrieve db q in
                Exec.drop_output db res.Exec.output_file);
            total := !total +. float_of_int (Stats.total_io (Db.stats db))
          done;
          rows :=
            [
              string_of_int depth;
              strategy_label strategy;
              T.fixed 1 (!total /. float_of_int trials);
            ]
            :: !rows)
        [ Params.No_replication; Params.Inplace; Params.Separate ])
    [ 1; 2; 3 ];
  T.print ~header:[ "depth"; "strategy"; "read I/O (20 objects)" ] (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* S1: sensitivity to the replicated-field size k                      *)

let k_sweep () =
  section "S1: sensitivity of the analytical benefit to k (replicated field size)";
  Printf.printf
    "(%% difference in C_total vs no replication at P(update)=0.05, f=10,\n\
    \ fr=.002; bigger replicated fields bloat R and erode in-place's edge,\n\
    \ while separate also pays through a bigger S')\n\n";
  let rows =
    List.map
      (fun k ->
        let p =
          { Params.default with Params.sharing = 10; read_sel = 0.002; rep_field_bytes = k }
        in
        let pct strategy =
          Cost.percent_vs_no_replication p strategy Params.Unclustered ~update_prob:0.05
        in
        [
          string_of_int k;
          T.fixed 1 (pct Params.Inplace);
          T.fixed 1 (pct Params.Separate);
        ])
      [ 4; 10; 20; 50; 100; 150 ]
  in
  T.print ~header:[ "k (bytes)"; "in-place %"; "separate %" ] rows

(* ------------------------------------------------------------------ *)
(* S2: warm buffer pool (outside the model's cold assumption)          *)

let warm_cache () =
  section "S2: warm vs cold buffer pool (outside the model's assumptions)";
  Printf.printf
    "(the model prices cold queries; a warm pool absorbs repeated reads —\n\
    \ the same read query run twice without clearing the pool)\n\n";
  let built =
    Gen.build { Gen.default_spec with Gen.s_count = 1000; sharing = 10; seed = 3 }
  in
  let db = built.Gen.db in
  let q lo =
    {
      Ast.from_set = "R";
      projections = [ "field_r"; "sref.repfield" ];
      where = Some (Ast.between "field_r" (Value.VInt lo) (Value.VInt (lo + 19)));
    }
  in
  (* Keep the output files until the end, so each run finds the pool as
     the run before left it, output pages included: dropping a file frees
     its frames. *)
  let outputs = ref [] in
  let run query =
    let before = Stats.copy (Db.stats db) in
    let res = Exec.retrieve db query in
    outputs := res.Exec.output_file :: !outputs;
    let after = Stats.copy (Db.stats db) in
    ( after.Stats.page_reads - before.Stats.page_reads,
      after.Stats.buffer_hits - before.Stats.buffer_hits )
  in
  Pager.run_cold (Db.pager db) (fun () -> ());
  let cold_reads, cold_hits = run (q 100) in
  let warm_reads, warm_hits = run (q 100) in
  let nearby_reads, nearby_hits = run (q 110) in
  T.print
    ~header:[ "run"; "physical reads"; "buffer hits" ]
    [
      [ "cold"; string_of_int cold_reads; string_of_int cold_hits ];
      [ "same query, warm"; string_of_int warm_reads; string_of_int warm_hits ];
      [ "overlapping query"; string_of_int nearby_reads; string_of_int nearby_hits ];
    ];
  List.iter (fun f -> Exec.drop_output db f) !outputs

(* ------------------------------------------------------------------ *)
(* Space overhead (§4.2 discussion)                                    *)

let space () =
  section "Space overhead per strategy (paper 4.2 discussion)";
  Printf.printf
    "(measured pages of this implementation next to the model's P_r / P_s /\n\
    \ auxiliary pages at the paper's nominal object sizes; measured R runs\n\
    \ larger because of per-value tags and the PCTFREE growth reserve)\n\n";
  let rows = ref [] in
  List.iter
    (fun (sharing, strategy) ->
      let spec =
        { Gen.default_spec with Gen.sharing; strategy; s_count = 2000; seed = 53 }
      in
      let b = Gen.build spec in
      let db = b.Gen.db in
      let eng = Db.engine db in
      let store_pages =
        Fieldrep_replication.Store.total_pages eng.Fieldrep_replication.Engine.store
      in
      let model =
        Cost.space { Params.default with Params.sharing; s_count = 2000 } strategy
      in
      rows :=
        [
          Printf.sprintf "f=%d %s" sharing (strategy_label strategy);
          string_of_int (Db.set_pages db "R");
          string_of_int model.Cost.r_pages;
          string_of_int (Db.set_pages db "S");
          string_of_int model.Cost.s_pages;
          string_of_int store_pages;
          string_of_int model.Cost.aux_pages;
        ]
        :: !rows)
    [
      (1, Params.No_replication); (1, Params.Inplace); (1, Params.Separate);
      (10, Params.No_replication); (10, Params.Inplace); (10, Params.Separate);
    ];
  T.print
    ~header:
      [ "configuration"; "R meas"; "R model"; "S meas"; "S model"; "aux meas"; "aux model" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* W1: write-ahead logging overhead on the paper's update mixes        *)

let wal_overhead () =
  section "W1: write-ahead logging overhead on the 6 update mixes";
  Printf.printf
    "(the same update mix run on a plain and on a durable database; the log\n\
    \ adds one logical redo record per update, so its cost is the appended\n\
    \ bytes — expressed below as incremental page I/O per update query)\n\n";
  let page_size = Gen.default_spec.Gen.page_size in
  let rows = ref [] in
  List.iter
    (fun strategy ->
      let spec =
        {
          Gen.default_spec with
          Gen.strategy;
          s_count = 1000;
          sharing = 4;
          seed = 19;
        }
      in
      let plain = Gen.build spec in
      let m_plain = Mix.measure plain ~read_sel:0.002 ~update_sel:0.001 ~queries:10 () in
      let durable = Gen.build { spec with Gen.durable = true } in
      let w = Option.get (Db.wal durable.Gen.db) in
      let appends0 = Wal.appended w and bytes0 = Wal.bytes_written w in
      let m_durable =
        Mix.measure durable ~read_sel:0.002 ~update_sel:0.001 ~queries:10 ()
      in
      let queries = float_of_int m_durable.Mix.update_queries in
      let appends = float_of_int (Wal.appended w - appends0) /. queries in
      let bytes = float_of_int (Wal.bytes_written w - bytes0) /. queries in
      let log_pages = bytes /. float_of_int page_size in
      rows :=
        [
          strategy_label strategy;
          T.fixed 1 m_plain.Mix.avg_update_io;
          T.fixed 1 m_durable.Mix.avg_update_io;
          T.fixed 1 appends;
          T.fixed 0 bytes;
          T.fixed 3 log_pages;
        ]
        :: !rows)
    [ Params.No_replication; Params.Inplace; Params.Separate ];
  T.print
    ~header:
      [
        "strategy";
        "upd I/O plain";
        "upd I/O durable";
        "log recs/upd";
        "log bytes/upd";
        "log pages/upd";
      ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Gate metrics: named scalars a bench wants surfaced in the JSON       *)
(* output for CI regression gates, beyond the generic per-bench         *)
(* counters the driver collects.                                        *)

let gate_metrics : (string * (string * int) list) list ref = ref []

let add_gate_metrics bench kvs =
  gate_metrics :=
    (bench, (try List.assoc bench !gate_metrics with Not_found -> []) @ kvs)
    :: List.remove_assoc bench !gate_metrics

(* ------------------------------------------------------------------ *)
(* P1: batched physically-ordered propagation                         *)

let p1 () =
  section "P1: batched propagation (physical order) vs per-object reference path";
  Printf.printf
    "(the same seeded 1-level update mix, cold, against identical databases;\n\
    \ batching sorts every update fan-out by physical OID and rewrites each\n\
    \ page's hidden copies under one pin, so unclustered index-order target\n\
    \ lists stop re-fetching pages)\n\n";
  let queries = 12 in
  let run built =
    let db = built.Gen.db in
    let rng = Splitmix.create 77 in
    Pager.run_cold (Db.pager db) (fun () ->
        for _ = 1 to queries do
          ignore (Exec.replace db (Mix.update_query built rng ~update_sel:0.05))
        done);
    let s = Db.stats db in
    (s.Stats.page_reads, s.Stats.page_writes)
  in
  let rows = ref [] in
  let batched_io = ref 0 in
  List.iter
    (fun strategy ->
      let spec =
        {
          Gen.default_spec with
          Gen.strategy;
          s_count = 1000;
          sharing = 4;
          frames = 16;
          seed = 59;
        }
      in
      let batched = Gen.build spec in
      let reference = Gen.build spec in
      Db.set_batching reference.Gen.db false;
      let br, bw = run batched in
      let rr, rw = run reference in
      batched_io := !batched_io + br + bw;
      rows :=
        [
          strategy_label strategy;
          string_of_int rr;
          string_of_int br;
          T.fixed 1 (100.0 *. float_of_int (rr - br) /. float_of_int (max 1 rr));
          string_of_int rw;
          string_of_int bw;
        ]
        :: !rows)
    [ Params.No_replication; Params.Inplace; Params.Separate ];
  T.print
    ~header:
      [
        "strategy";
        "reads per-obj";
        "reads batched";
        "reads saved %";
        "writes per-obj";
        "writes batched";
      ]
    (List.rev !rows);
  add_gate_metrics "p1" [ ("p1_update_io", !batched_io) ]

(* ------------------------------------------------------------------ *)
(* T1: transaction throughput under contention                         *)

let txn_bench () =
  section "T1: interleaved transactions under contention (strict 2PL)";
  Printf.printf
    "(N round-robin clients run 64 transactions of 6 operations each over an\n\
    \ |S|=200, f=4 database with a 24-frame pool; the total work is the\n\
    \ same at every client count, so the deltas are pure concurrency-\n\
    \ control effects: blocked turns, deadlock aborts, and the retries\n\
    \ they cause; the databases are durable, and group commit amortises\n\
    \ one WAL flush over a whole transaction's records)\n\n";
  let total_txns = 64 and ops_per_txn = 6 in
  let appends_8c = ref 0 and flushes_8c = ref 0 in
  let rows = ref [] in
  List.iter
    (fun (mix_name, mix) ->
      List.iter
        (fun strategy ->
          List.iter
            (fun clients ->
              let spec =
                {
                  Gen.default_spec with
                  Gen.s_count = 200;
                  sharing = 4;
                  strategy;
                  frames = 24;
                  seed = 29;
                  durable = true;
                }
              in
              let built = Gen.build spec in
              let w = Option.get (Db.wal built.Gen.db) in
              let wa0 = Wal.appended w and wf0 = Wal.flushes w in
              let before = Stats.copy (Db.stats built.Gen.db) in
              let t0 = Unix.gettimeofday () in
              let res =
                Multi.run ~abort_prob:0.02 ~clients
                  ~txns_per_client:(total_txns / clients) ~ops_per_txn ~mix
                  ~seed:(41 + clients) built
              in
              let wall = Unix.gettimeofday () -. t0 in
              let wa = Wal.appended w - wa0 and wf = Wal.flushes w - wf0 in
              if clients = 8 then begin
                appends_8c := !appends_8c + wa;
                flushes_8c := !flushes_8c + wf
              end;
              let d = Stats.diff (Db.stats built.Gen.db) before in
              let io_per_txn =
                if res.Multi.commits = 0 then 0.0
                else
                  float_of_int res.Multi.committed_io
                  /. float_of_int res.Multi.commits
              in
              rows :=
                [
                  mix_name;
                  strategy_label strategy;
                  string_of_int clients;
                  string_of_int res.Multi.commits;
                  T.fixed 0 (float_of_int res.Multi.commits /. wall);
                  T.fixed 1 io_per_txn;
                  string_of_int res.Multi.blocked_turns;
                  string_of_int d.Stats.lock_waits;
                  string_of_int res.Multi.deadlock_aborts;
                  string_of_int res.Multi.discarded;
                  string_of_int wa;
                  string_of_int wf;
                ]
                :: !rows)
            [ 1; 2; 4; 8; 16 ])
        [ Params.No_replication; Params.Inplace; Params.Separate ])
    [ ("read", Multi.read_mix); ("update", Multi.update_mix) ];
  T.print
    ~header:
      [
        "mix";
        "strategy";
        "clients";
        "commits";
        "txn/s";
        "I/O per txn";
        "blocked";
        "lock waits";
        "dl aborts";
        "discarded";
        "wal app";
        "wal fl";
      ]
    (List.rev !rows);
  add_gate_metrics "txn"
    [ ("wal_appends_8c", !appends_8c); ("wal_flushes_8c", !flushes_8c) ]

(* ------------------------------------------------------------------ *)
(* R1: corruption scrubbing and degraded reads                         *)

let scrub_bench () =
  section "R1: checksum scrub, self-repair, and degraded reads";
  Printf.printf
    "(every auxiliary page — link objects and S' — gets bit-rot injected;\n\
    \ reads before the scrub detour through functional joins, the scrub\n\
    \ rebuilds the replicated state from the source objects, and a second\n\
    \ sweep confirms the repair converged)\n\n";
  let rows = ref [] and unconverged = ref [] in
  List.iter
    (fun (label, strategy, collapse) ->
      let db = Gen.employee_db ~norgs:6 ~ndepts:40 ~nemps:2500 ~seed:83 () in
      let options = { Schema.default_options with Schema.collapse } in
      Db.replicate db ~options ~strategy (Path.parse "Emp1.dept.org.name");
      let pager = Db.pager db in
      let disk = Pager.disk pager in
      Pager.flush pager;
      (* Bit-rot every auxiliary page (link objects and, for the separate
         strategy, the S' file). *)
      let eng = Db.engine db in
      let links, sprimes =
        Fieldrep_replication.Store.bindings eng.Fieldrep_replication.Engine.store
      in
      let ps = Disk.page_size disk in
      let corrupted = ref 0 in
      List.iter
        (fun (_, fid) ->
          for page = 0 to Disk.page_count disk fid - 1 do
            Disk.corrupt_page disk ~file:fid ~page [ ps / 8; ps / 3 ];
            incr corrupted
          done)
        (links @ sprimes);
      (* Cold reads against the corrupted replicas: every deref that lands on
         a quarantined page must detour through the functional join. *)
      let emps = Exec.matching_oids db ~set:"Emp1" None |> Array.of_list in
      Pager.run_cold pager (fun () ->
          for i = 0 to 199 do
            ignore (Db.deref db ~set:"Emp1" emps.(i * 7 mod Array.length emps) "dept.org.name")
          done);
      let degraded = (Db.stats db).Stats.degraded_reads in
      let t0 = Unix.gettimeofday () in
      let report = Db.scrub db in
      let wall = Unix.gettimeofday () -. t0 in
      Db.check_integrity db;
      let second = Db.scrub db in
      let residue = second.Scrub.checksum_failures + second.Scrub.repairs in
      if residue <> 0 then unconverged := label :: !unconverged;
      rows :=
        [
          label;
          string_of_int !corrupted;
          string_of_int report.Scrub.pages_scanned;
          string_of_int report.Scrub.checksum_failures;
          string_of_int report.Scrub.repairs;
          string_of_int degraded;
          T.fixed 1 (wall *. 1000.0);
          string_of_int residue;
        ]
        :: !rows)
    [
      ("in-place", Schema.Inplace, false);
      ("separate", Schema.Separate, false);
      ("collapsed", Schema.Inplace, true);
    ];
  T.print
    ~header:
      [
        "strategy";
        "rotted";
        "scanned";
        "failures";
        "repairs";
        "degraded reads";
        "scrub ms";
        "2nd sweep";
      ]
    (List.rev !rows);
  (* A second scrub that still finds work means the repair did not
     converge: fail the run. *)
  if !unconverged <> [] then begin
    Printf.eprintf "scrub did not converge for: %s\n"
      (String.concat ", " (List.rev !unconverged));
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Repl: read capacity vs replica count over WAL shipping              *)

let repl_bench () =
  section "Repl: WAL shipping - read capacity vs replica count";
  Printf.printf
    "(a master runs an update workload while its WAL streams to N replicas\n\
    \ over the in-process loopback transport; after catch-up, each node's\n\
    \ warm read rate on the replicated path is measured independently and\n\
    \ summed — the aggregate capacity a read farm of that size serves)\n\n";
  let module Repl = Fieldrep_repl.Repl in
  let module Transport = Fieldrep_repl.Transport in
  let r_oids db =
    let acc = ref [] in
    Db.scan db ~set:"R" (fun oid _ -> acc := oid :: !acc);
    Array.of_list !acc
  in
  (* Warm reads/second on one node: every R object's replicated-field read,
     repeated enough to be measurable; best of three trials, so one noisy
     wall-clock sample does not misprice a node. *)
  let node_rate db =
    let oids = r_oids db in
    Array.iter (fun oid -> ignore (Db.deref db ~set:"R" oid "sref.repfield")) oids;
    (* pay outstanding GC debt now, not inside a timed trial *)
    Gc.major ();
    let passes = 50 in
    let best = ref 0.0 in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to passes do
        Array.iter
          (fun oid -> ignore (Db.deref db ~set:"R" oid "sref.repfield"))
          oids
      done;
      let dt = Unix.gettimeofday () -. t0 in
      best := Float.max !best (float_of_int (passes * Array.length oids) /. dt)
    done;
    !best
  in
  let run_config mode nreplicas =
    let built =
      Gen.build
        {
          Gen.default_spec with
          Gen.s_count = 500;
          sharing = 2;
          strategy = Params.Inplace;
          page_size = 1024;
          frames = 256;
          seed = 31;
          durable = true;
        }
    in
    let db = built.Gen.db in
    let m = Repl.Master.create ~mode db in
    let replicas =
      List.init nreplicas (fun _ ->
          let ma, rb, _, _ = Transport.loopback () in
          let r = Repl.Replica.connect rb in
          ignore
            (Repl.Master.attach ~pump:(fun () -> ignore (Repl.Replica.drain r)) m ma);
          ignore (Repl.Replica.drain r);
          r)
    in
    let s_oids =
      let acc = ref [] in
      Db.scan db ~set:"S" (fun oid _ -> acc := oid :: !acc);
      Array.of_list !acc
    in
    let rng = Splitmix.create 83 in
    for i = 1 to 100 do
      let oid = s_oids.(Splitmix.int rng (Array.length s_oids)) in
      Db.update_field db ~set:"S" oid ~field:"repfield"
        (Value.VString (Printf.sprintf "%020d" i));
      if i mod 10 = 0 then begin
        Repl.Master.pump m;
        List.iter (fun r -> ignore (Repl.Replica.drain r)) replicas
      end
    done;
    for _ = 1 to 3 do
      Repl.Master.pump m;
      List.iter (fun r -> ignore (Repl.Replica.drain r)) replicas
    done;
    let target =
      match Db.wal db with Some w -> Wal.last_lsn w | None -> 0L
    in
    let caught_up =
      List.for_all
        (fun r -> Int64.equal (Repl.Replica.last_applied r) target)
        replicas
    in
    let capacity =
      List.fold_left
        (fun acc r -> acc +. node_rate (Repl.Replica.db r))
        0.0 replicas
    in
    let st = Db.stats db in
    (capacity, caught_up, st.Stats.frames_shipped, st.Stats.acks_waited)
  in
  let rows = ref [] in
  List.iter
    (fun (mode_name, mode) ->
      let base = ref 0.0 in
      List.iter
        (fun n ->
          let capacity, caught_up, shipped, acks = run_config mode n in
          if n = 1 then base := capacity;
          add_gate_metrics "repl"
            [ (Printf.sprintf "repl_%s_reads_%d" mode_name n, int_of_float capacity) ];
          rows :=
            [
              mode_name;
              string_of_int n;
              (if caught_up then "yes" else "NO");
              T.fixed 0 capacity;
              T.fixed 2 (capacity /. !base);
              string_of_int shipped;
              string_of_int acks;
            ]
            :: !rows)
        [ 1; 2; 4 ])
    [ ("async", Repl.Master.default_mode); ("ack", Repl.Master.Ack) ];
  T.print
    ~header:
      [
        "mode"; "replicas"; "caught up"; "agg reads/s"; "speedup";
        "frames shipped"; "acks waited";
      ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* M1: background maintenance - foreground cost of online reconfig     *)

let maint_bench () =
  section "M1: online reconfiguration - foreground degradation vs throttle";
  Printf.printf
    "(4 clients run the update mix over a replicated |S|=200, f=4 durable\n\
    \ database while reconfiguration churns in the background: whenever the\n\
    \ maintenance queue drains, the path is online-unreplicated or online\n\
    \ re-replicated, so teardown and backfill jobs run for the whole bench;\n\
    \ one job quantum of q pages is pumped per client turn.  q=0 is the\n\
    \ baseline: no maintenance, the declaration just stays active.  The\n\
    \ foreground columns show what the churn costs concurrent writers)\n\n";
  let rep_path = Path.parse "R.sref.repfield" in
  let rows = ref [] in
  let fg_io = ref [] and cycles_done = ref [] in
  let pages_q1 = ref 0 and yields_total = ref 0 in
  List.iter
    (fun quantum ->
      let spec =
        {
          Gen.default_spec with
          Gen.s_count = 200;
          sharing = 4;
          strategy = Params.Inplace;
          frames = 24;
          seed = 31;
          durable = true;
        }
      in
      let built = Gen.build spec in
      let db = built.Gen.db in
      let cycles = ref 0 in
      let on_turn _ =
        if quantum > 0 then
          if Db.maint_pending db > 0 then ignore (Db.maint_step ~quantum db)
          else if Db.active_txn_count db > 0 then
            (* queue drained mid-run: issue the next reconfiguration (the
               open transactions force the online paths) *)
            match Db.replication_state db rep_path with
            | Some Schema.Active -> Db.unreplicate db rep_path
            | None ->
                incr cycles;
                Db.replicate db ~strategy:Schema.Inplace rep_path
            | Some _ -> ()
      in
      let before = Stats.copy (Db.stats db) in
      let t0 = Unix.gettimeofday () in
      let res =
        Multi.run ~abort_prob:0.02 ~on_turn ~clients:4 ~txns_per_client:32
          ~ops_per_txn:6 ~mix:Multi.update_mix ~seed:53 built
      in
      let wall = Unix.gettimeofday () -. t0 in
      Db.maint_drain db;
      Db.check_integrity db;
      let d = Stats.diff (Db.stats db) before in
      fg_io := (quantum, res.Multi.committed_io) :: !fg_io;
      cycles_done := (quantum, !cycles) :: !cycles_done;
      if quantum = 1 then pages_q1 := d.Stats.maint_pages_walked;
      yields_total := !yields_total + d.Stats.maint_lock_yields;
      rows :=
        [
          (if quantum = 0 then "0 (idle)" else string_of_int quantum);
          string_of_int res.Multi.commits;
          T.fixed 0 (float_of_int res.Multi.commits /. wall);
          string_of_int res.Multi.committed_io;
          string_of_int res.Multi.blocked_turns;
          string_of_int !cycles;
          string_of_int d.Stats.maint_steps;
          string_of_int d.Stats.maint_pages_walked;
          string_of_int d.Stats.maint_lock_yields;
        ]
        :: !rows)
    [ 0; 1; 4; 16 ];
  T.print
    ~header:
      [
        "quantum";
        "commits";
        "txn/s";
        "fg I/O";
        "blocked";
        "cycles";
        "steps";
        "pages";
        "yields";
      ]
    (List.rev !rows);
  add_gate_metrics "maint"
    ([ ("maint_pages_q1", !pages_q1); ("maint_yields", !yields_total) ]
    @ List.map
        (fun (q, io) -> (Printf.sprintf "maint_fg_io_q%d" q, io))
        !fg_io
    @ List.map
        (fun (q, c) -> (Printf.sprintf "maint_cycles_q%d" q, c))
        (List.filter (fun (q, _) -> q > 0) !cycles_done))

(* ------------------------------------------------------------------ *)
(* F1: failover - write-unavailability blip vs detector deadline       *)

let chaos_bench () =
  section "F1: failover - write-unavailability blip vs detector deadline";
  Printf.printf
    "(a genesis master streams to a successor and one more replica over a\n\
    \ manual clock; after a steady phase the master crashes with its async\n\
    \ buffer unflushed.  Every op-slot advances the clock one tick; the\n\
    \ blip is the count of slots in which no live master could accept the\n\
    \ write - detection, bounded by the successor's dead_after deadline,\n\
    \ plus an O(1) promotion slot.  The survivor then re-attaches to the\n\
    \ promoted master and both nodes must converge byte-identical)\n\n";
  let module Repl = Fieldrep_repl.Repl in
  let module Transport = Fieldrep_repl.Transport in
  let module Clock = Fieldrep_repl.Clock in
  let digest db =
    Pager.flush (Db.pager db);
    let disk = Pager.disk (Db.pager db) in
    Disk.file_ids disk
    |> List.sort compare
    |> List.map (fun id ->
           let n = Disk.page_count disk id in
           let b = Buffer.create 64 in
           for page = 0 to n - 1 do
             Buffer.add_string b
               (Digest.to_hex
                  (Digest.bytes (Disk.dump_page disk ~file:id ~page)))
           done;
           (id, n, Digest.to_hex (Digest.string (Buffer.contents b))))
  in
  let run_failover dead_after =
    let clk = Clock.manual () in
    let clock = Clock.of_manual clk in
    let liveness =
      {
        Repl.heartbeat_every = max 1 (dead_after / 5);
        suspect_after = dead_after / 2;
        dead_after;
      }
    in
    let built =
      Gen.build
        {
          Gen.default_spec with
          Gen.s_count = 64;
          sharing = 2;
          strategy = Params.Inplace;
          page_size = 1024;
          frames = 64;
          seed = 41;
          durable = true;
        }
    in
    let mdb = built.Gen.db in
    let img = Filename.temp_file "fieldrep_bench_chaos" ".img" in
    Db.checkpoint mdb img;
    let m1 =
      Repl.Master.create
        ~mode:(Repl.Master.Async { buffer_bytes = 2048 })
        ~clock ~liveness mdb
    in
    let mk_replica m =
      let ma, rb, _, _ = Transport.loopback () in
      let r = Repl.Replica.connect ~clock ~liveness rb in
      ignore
        (Repl.Master.attach ~pump:(fun () -> ignore (Repl.Replica.drain r)) m ma);
      ignore (Repl.Replica.drain r);
      r
    in
    let a = mk_replica m1 in
    let b = mk_replica m1 in
    let s_oids db =
      let acc = ref [] in
      Db.scan db ~set:"S" (fun oid _ -> acc := oid :: !acc);
      Array.of_list !acc
    in
    let rng = Splitmix.create (91 + dead_after) in
    let write db oids i =
      Db.update_field db ~set:"S"
        oids.(Splitmix.int rng (Array.length oids))
        ~field:"repfield"
        (Value.VString (Printf.sprintf "%020d" i));
      Clock.advance clk ~by:1
    in
    let oids1 = s_oids mdb in
    for i = 1 to 100 do
      write mdb oids1 i;
      if i mod 5 = 0 then begin
        Repl.Master.tick m1;
        ignore (Repl.Replica.drain a);
        ignore (Repl.Replica.drain b);
        Repl.Replica.tick a;
        Repl.Replica.tick b
      end
    done;
    (* the crash: the master goes silent; each op-slot with no live master
       counts toward the blip until the successor's detector fires and the
       promotion lands *)
    let blip = ref 0 in
    let m2 = ref None in
    while !m2 = None do
      incr blip;
      Clock.advance clk ~by:1;
      Repl.Replica.tick a;
      Repl.Replica.tick b;
      if Repl.Replica.master_state a = Repl.Dead then begin
        let walf = Filename.temp_file "fieldrep_bench_chaos" ".wal" in
        Sys.remove walf;
        m2 :=
          Some
            (Repl.Replica.promote ~mode:Repl.Master.default_mode ~clock
               ~liveness a ~wal_path:walf)
      end
    done;
    let m2 = Option.get !m2 in
    let m2db = Repl.Replica.db a in
    let ma, rb, _, _ = Transport.loopback () in
    Repl.Replica.reconnect b rb;
    ignore
      (Repl.Master.attach ~pump:(fun () -> ignore (Repl.Replica.drain b)) m2 ma);
    ignore (Repl.Replica.drain b);
    let oids2 = s_oids m2db in
    for i = 101 to 200 do
      write m2db oids2 i;
      if i mod 5 = 0 then begin
        Repl.Master.pump m2;
        ignore (Repl.Replica.drain b)
      end
    done;
    for _ = 1 to 5 do
      Repl.Master.pump m2;
      ignore (Repl.Replica.drain b)
    done;
    let converged = digest m2db = digest (Repl.Replica.db b) in
    let st = Db.stats m2db in
    Sys.remove img;
    ( !blip,
      converged,
      st.Stats.failovers,
      (Db.stats (Repl.Replica.db b)).Stats.reconnects )
  in
  let rows = ref [] in
  let tight_blip = ref 0 in
  List.iter
    (fun dead_after ->
      let blip, converged, failovers, reconnects = run_failover dead_after in
      if dead_after = 40 then tight_blip := blip;
      add_gate_metrics "chaos"
        [ (Printf.sprintf "chaos_blip_da%d" dead_after, blip) ];
      rows :=
        [
          string_of_int dead_after;
          string_of_int blip;
          T.fixed 2 (float_of_int blip /. float_of_int dead_after);
          (if converged then "yes" else "NO");
          string_of_int failovers;
          string_of_int reconnects;
        ]
        :: !rows)
    [ 40; 80; 160 ];
  add_gate_metrics "chaos" [ ("chaos_blip_ops", !tight_blip) ];
  T.print
    ~header:
      [
        "dead_after"; "blip (op-slots)"; "blip/deadline"; "converged";
        "failovers"; "reconnects";
      ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* IO1: real-file backend — measured fsyncs and million-object scale   *)

let io_bench () =
  section "IO1: real files — fsync amortization and million-object zipf scale";
  Printf.printf
    "(pages live in real on-disk files and every WAL group commit is an\n\
    \ honest fsync(2), so the numbers below are measured wall-clock I/O\n\
    \ costs, not simulated counters)\n\n";
  (* Part 1: the same 8-client transactional workload, once with group
     commit (one fsync per durability point) and once with the WAL flush
     limit dropped to a single byte so every append pays its own fsync —
     the baseline a database without group commit would live with. *)
  Printf.printf "--- WAL group commit vs fsync-per-append (8 clients) ---\n";
  let run_mode ~label ~wal_flush_limit =
    let spec =
      {
        Gen.default_spec with
        Gen.s_count = 200;
        sharing = 4;
        frames = 24;
        seed = 29;
        durable = true;
        backend = Some (Db.File None);
        wal_fsync = Some true;
        wal_flush_limit;
      }
    in
    let built = Gen.build spec in
    let w = Option.get (Db.wal built.Gen.db) in
    let wa0 = Wal.appended w and ws0 = Wal.fsyncs w in
    let t0 = Unix.gettimeofday () in
    let res =
      Multi.run ~abort_prob:0.02 ~clients:8 ~txns_per_client:8 ~ops_per_txn:6
        ~mix:Multi.update_mix ~seed:49 built
    in
    let wall = Unix.gettimeofday () -. t0 in
    let wa = Wal.appended w - wa0 and ws = Wal.fsyncs w - ws0 in
    Db.close built.Gen.db;
    (label, res.Multi.commits, wa, ws, wall)
  in
  let grouped = run_mode ~label:"group commit" ~wal_flush_limit:None in
  let solo = run_mode ~label:"fsync per append" ~wal_flush_limit:(Some 1) in
  let row (label, commits, wa, ws, wall) =
    [
      label;
      string_of_int commits;
      string_of_int wa;
      string_of_int ws;
      T.fixed 2 (float_of_int ws /. float_of_int (max 1 commits));
      T.fixed 1 (wall *. 1000.0);
      T.fixed 0 (float_of_int commits /. wall);
    ]
  in
  T.print
    ~header:
      [
        "mode"; "commits"; "wal appends"; "fsyncs"; "fsync/txn"; "wall ms";
        "txn/s";
      ]
    [ row grouped; row solo ];
  let (_, _, wa_grouped, ws_grouped, _) = grouped in
  let (_, _, _, ws_solo, _) = solo in
  add_gate_metrics "io"
    [
      ("io_appends_grouped", wa_grouped);
      ("io_fsyncs_grouped", ws_grouped);
      ("io_fsyncs_solo", ws_solo);
    ];
  (* Part 2: a zipf(0.9)-skewed read mix over a million objects with the
     buffer pool capped far below the data — the regime the in-memory
     backend could never make honest, because "misses" cost nothing. *)
  Printf.printf "\n--- zipf(0.9) reads over 10^6 objects, pool << data ---\n";
  let count = 1_000_000 and frames = 1024 and reads = 200_000 in
  let t0 = Unix.gettimeofday () in
  let db, oids = Gen.build_large ~count ~frames ~backend:(Db.File None) () in
  let build_wall = Unix.gettimeofday () -. t0 in
  let data_pages = Db.set_pages db "Big" in
  let stats = Db.stats db in
  let before = Stats.copy stats in
  let rng = Splitmix.create 91 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reads do
    ignore (Db.get db ~set:"Big" oids.(Splitmix.zipf rng ~n:count ~theta:0.9))
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let d = Stats.diff stats before in
  let phys = d.Stats.page_reads in
  let hit_rate =
    float_of_int d.Stats.buffer_hits
    /. float_of_int (max 1 (d.Stats.buffer_hits + phys))
  in
  T.print
    ~header:
      [
        "objects"; "data pages"; "pool frames"; "pool %"; "build s"; "reads";
        "phys reads"; "hit rate"; "wall ms"; "reads/s";
      ]
    [
      [
        string_of_int count;
        string_of_int data_pages;
        string_of_int frames;
        T.fixed 1 (100.0 *. float_of_int frames /. float_of_int data_pages);
        T.fixed 1 build_wall;
        string_of_int reads;
        string_of_int phys;
        T.fixed 3 hit_rate;
        T.fixed 1 (wall *. 1000.0);
        T.fixed 0 (float_of_int reads /. wall);
      ];
    ];
  Db.close db;
  add_gate_metrics "io"
    [
      ("io_zipf_objects", count);
      ("io_zipf_data_pages", data_pages);
      ("io_zipf_pool_frames", frames);
      ("io_zipf_phys_reads", phys);
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let all_benches =
  [
    ("figure-11", fun () -> figure Params.Unclustered 11);
    ("table-12", fun () -> table Params.Unclustered 12);
    ("figure-13", fun () -> figure Params.Clustered 13);
    ("table-14", fun () -> table Params.Clustered 14);
    ("validate", validate);
    ("figure-11-measured", figure11_measured);
    ("ablate-small-links", ablate_small_links);
    ("ablate-collapse", ablate_collapse);
    ("ablate-lazy", ablate_lazy);
    ("ablate-cluster-links", ablate_cluster_links);
    ("depth-sweep", depth_sweep);
    ("path-index", path_index);
    ("k-sweep", k_sweep);
    ("warm-cache", warm_cache);
    ("space", space);
    ("wal", wal_overhead);
    ("txn", txn_bench);
    ("scrub", scrub_bench);
    ("p1", p1);
    ("repl", repl_bench);
    ("maint", maint_bench);
    ("chaos", chaos_bench);
    ("io", io_bench);
  ]

(* Machine-readable results: one object per scenario run, with wall time,
   [total_io] and every counter of [Stats.all] by name.  The counts are
   deltas of [Stats.grand], which sums every database the scenario builds. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path results =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n  \"benchmarks\": [\n";
      List.iteri
        (fun i (name, wall, d) ->
          let kvs =
            (("total_io", Stats.total_io d)
            :: List.map (fun (c, key, _) -> (key, Stats.get d c)) Stats.all)
            @ Option.value ~default:[] (List.assoc_opt name !gate_metrics)
          in
          Printf.fprintf oc
            "    {\"name\": \"%s\", \"wall_seconds\": %.6f%s}%s\n"
            (json_escape name) wall
            (String.concat ""
               (List.map (fun (k, v) -> Printf.sprintf ", \"%s\": %d" k v) kvs))
            (if i = List.length results - 1 then "" else ","))
        results;
      output_string oc "  ]\n}\n")

let () =
  let rec parse names json = function
    | [] -> (List.rev names, json)
    | "--json" :: path :: rest -> parse names (Some path) rest
    | [ "--json" ] ->
        prerr_endline "--json requires a path";
        exit 1
    | name :: rest -> parse (name :: names) json rest
  in
  let names, json_path = parse [] None (List.tl (Array.to_list Sys.argv)) in
  let requested = if names = [] then List.map fst all_benches else names in
  Printf.printf
    "Field replication in an object-oriented DBMS - benchmark harness\n\
     Reproduces Shekita & Carey (1989), TR #817.\n";
  let results =
    List.map
      (fun name ->
        match List.assoc_opt name all_benches with
        | Some f ->
            let t0 = Unix.gettimeofday () in
            let before = Stats.copy Stats.grand in
            f ();
            ( name,
              Unix.gettimeofday () -. t0,
              Stats.diff Stats.grand before )
        | None ->
            Printf.eprintf "unknown bench %S; available: %s\n" name
              (String.concat ", " (List.map fst all_benches));
            exit 1)
      requested
  in
  Option.iter (fun path -> write_json path results) json_path
