(* Tests for the data-model layer: type definitions, values, stored-record
   serialization, path expressions, and the catalog (including hidden-field
   layout and link-related validation). *)

module Oid = Fieldrep_storage.Oid
module Pager = Fieldrep_storage.Pager
module Heap_file = Fieldrep_storage.Heap_file
module Page = Fieldrep_storage.Page
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Wire = Fieldrep_util.Wire

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable

let oid i = { Oid.file = 1; page = i; slot = i mod 7 }

(* ------------------------------------------------------------------ *)
(* Ty                                                                  *)

let emp_ty =
  Ty.make ~name:"EMP"
    [
      { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
      { Ty.fname = "salary"; ftype = Ty.Scalar Ty.SInt };
      { Ty.fname = "dept"; ftype = Ty.Ref "DEPT" };
    ]

let test_ty_basics () =
  checki "arity" 3 (Ty.arity emp_ty);
  checki "field index" 1 (Ty.field_index emp_ty "salary");
  checkb "is_ref" true (Ty.is_ref (Ty.field emp_ty "dept"));
  checkb "scalar not ref" false (Ty.is_ref (Ty.field emp_ty "name"));
  Alcotest.(check (list (pair string string)))
    "ref fields" [ ("dept", "DEPT") ] (Ty.ref_fields emp_ty);
  checki "scalar fields" 2 (List.length (Ty.scalar_fields emp_ty))

let test_ty_validation () =
  (try
     ignore (Ty.make ~name:"" [ ]);
     Alcotest.fail "empty name accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Ty.make ~name:"X"
         [
           { Ty.fname = "a"; ftype = Ty.Scalar Ty.SInt };
           { Ty.fname = "a"; ftype = Ty.Scalar Ty.SInt };
         ]);
    Alcotest.fail "duplicate field accepted"
  with Invalid_argument _ -> ()

let test_ty_missing_field () =
  (try
     ignore (Ty.field emp_ty "nope");
     Alcotest.fail "expected Not_found"
   with Not_found -> ());
  checkb "field_opt" true (Ty.field_opt emp_ty "nope" = None)

(* A lookup walks the fields with a top-level function that takes the
   name, so a warm one builds no closure and allocates nothing. *)
let test_ty_lookup_allocates_nothing () =
  let name = "dept" in
  ignore (Ty.field_index emp_ty name);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Ty.field_index emp_ty name));
    ignore (Sys.opaque_identity (Ty.field emp_ty name))
  done;
  checki "words for 1000 warm lookups" 0 (int_of_float (Gc.minor_words () -. before))

(* ------------------------------------------------------------------ *)
(* Value                                                               *)

let test_value_roundtrip () =
  let buf = Bytes.create 128 in
  List.iter
    (fun v ->
      let off = Value.encode buf 0 v in
      checki "size matches" (Value.encoded_size v) off;
      let v' = Value.decode buf 0 in
      checkv "roundtrip" v v';
      checki "read size" off (Value.encoded_size v'))
    [
      Value.VNull;
      Value.VInt 0;
      Value.VInt (-12345);
      Value.VInt max_int;
      Value.VString "";
      Value.VString "hello";
      Value.VRef (oid 9);
      Value.VRef Oid.nil;
    ]

let test_value_typing () =
  checkb "int matches" true (Value.matches (Ty.Scalar Ty.SInt) (Value.VInt 1));
  checkb "string mismatch" false (Value.matches (Ty.Scalar Ty.SInt) (Value.VString "x"));
  checkb "null ref ok" true (Value.matches (Ty.Ref "D") Value.VNull);
  checkb "null scalar not ok" false (Value.matches (Ty.Scalar Ty.SString) Value.VNull);
  checkb "ref matches" true (Value.matches (Ty.Ref "D") (Value.VRef (oid 1)))

let test_value_accessors () =
  checki "as_int" 5 (Value.as_int (Value.VInt 5));
  checks "as_string" "x" (Value.as_string (Value.VString "x"));
  (try
     ignore (Value.as_int (Value.VString "x"));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_value_order_total () =
  let values =
    [ Value.VNull; Value.VInt 1; Value.VInt 2; Value.VString "a"; Value.VRef (oid 1) ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          checkb "antisymmetric" true ((c1 = 0 && c2 = 0) || c1 * c2 < 0))
        values)
    values

(* ------------------------------------------------------------------ *)
(* Record                                                              *)

let sample_record () =
  Record.make ~type_tag:7
    [| Value.VString "alice"; Value.VInt 99; Value.VRef (oid 3) |]

let test_record_roundtrip () =
  let r =
    {
      (sample_record ()) with
      Record.links =
        [ { Record.link_oid = oid 12; link_id = 1 }; { Record.link_oid = oid 11; link_id = 2 } ];
    }
  in
  let bytes = Record.encode r in
  let r' = Record.decode bytes in
  checki "tag" 7 r'.Record.type_tag;
  checki "links" 2 (List.length r'.Record.links);
  checkv "field 0" (Value.VString "alice") (Record.field r' 0);
  checkv "field 2" (Value.VRef (oid 3)) (Record.field r' 2);
  checkv "null past the width" Value.VNull (Record.field r' 3);
  (match Record.field r' (-1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  checki "encoded size" (Record.encoded_size r) (Bytes.length bytes);
  checki "peek tag" 7 (Record.type_tag_at bytes 0 (Bytes.length bytes))

(* A record whose length is cut short, with a live neighbour right after
   it on the page, is corrupt: decoding it in the frame stops at its own
   end instead of reading the neighbour's bytes. *)
let test_record_truncated_in_frame () =
  let pager = Pager.create ~page_size:512 ~frames:4 () in
  let hf = Heap_file.create pager in
  let r =
    {
      Record.type_tag = 3;
      links = [ { Record.link_oid = oid 9; link_id = 4 } ];
      values = [| Value.VInt 5; Value.VRef (oid 2); Value.VString "a string that ends it" |];
    }
  in
  let enc = Record.encode r in
  let target = Heap_file.insert hf enc in
  let neighbour =
    Heap_file.insert hf (Record.encode (Record.make ~type_tag:3 [| Value.VString "next" |]))
  in
  checki "same page" target.Oid.page neighbour.Oid.page;
  for cut = 1 to Bytes.length enc do
    Heap_file.update hf target (Bytes.sub enc 0 (Bytes.length enc - cut));
    (* close the hole the shrink left, so the neighbour follows at once *)
    Pager.with_page_write pager ~file:target.Oid.file ~page:target.Oid.page Page.compact;
    (match Heap_file.read_with hf target Record.decode_at with
    | _ -> Alcotest.failf "cut by %d: decoded" cut
    | exception Wire.Corrupt _ -> ());
    match Heap_file.read_with hf target (fun b o l -> Record.field_at b o l 2) with
    | _ -> Alcotest.failf "cut by %d: field 2 decoded" cut
    | exception Wire.Corrupt _ -> ()
  done;
  checkv "neighbour intact" (Value.VString "next")
    (Heap_file.read_with hf neighbour (fun b o l -> Record.field_at b o l 0))

(* ------------------------------------------------------------------ *)
(* Path                                                                *)

let test_path_parse () =
  let p = Path.parse "Emp1.dept.org.name" in
  checks "set" "Emp1" p.Path.source_set;
  Alcotest.(check (list string)) "steps" [ "dept"; "org" ] p.Path.steps;
  checkb "terminal" true (p.Path.terminal = Path.Field "name");
  checki "level" 2 (Path.level p);
  checks "to_string" "Emp1.dept.org.name" (Path.to_string p)

let test_path_parse_all () =
  let p = Path.parse "Emp1.dept.all" in
  checkb "all terminal" true (p.Path.terminal = Path.All);
  checki "level" 1 (Path.level p);
  let p2 = Path.parse "Emp1.dept.ALL" in
  checkb "case-insensitive all" true (p2.Path.terminal = Path.All)

let test_path_parse_errors () =
  List.iter
    (fun s ->
      try
        ignore (Path.parse s);
        Alcotest.failf "accepted %S" s
      with Invalid_argument _ -> ())
    [ ""; "Emp1"; "Emp1.name"; "Emp1..name" ]

let test_path_prefix () =
  let a = Path.parse "Emp1.dept.org.name" in
  let b = Path.parse "Emp1.dept.budget" in
  let c = Path.parse "Emp2.dept.name" in
  checki "shared prefix" 1 (Path.prefix_length a b);
  checki "different sets" 0 (Path.prefix_length a c);
  checki "self" 2 (Path.prefix_length a a)

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)

let mk_schema () =
  let s = Schema.create () in
  Schema.define_type s
    (Ty.make ~name:"ORG"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "budget"; ftype = Ty.Scalar Ty.SInt };
       ]);
  Schema.define_type s
    (Ty.make ~name:"DEPT"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "budget"; ftype = Ty.Scalar Ty.SInt };
         { Ty.fname = "org"; ftype = Ty.Ref "ORG" };
       ]);
  Schema.define_type s
    (Ty.make ~name:"EMP"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "salary"; ftype = Ty.Scalar Ty.SInt };
         { Ty.fname = "dept"; ftype = Ty.Ref "DEPT" };
       ]);
  Schema.create_set s ~name:"Org" ~elem_type:"ORG";
  Schema.create_set s ~name:"Dept" ~elem_type:"DEPT";
  Schema.create_set s ~name:"Emp1" ~elem_type:"EMP";
  s

let test_schema_types_and_tags () =
  let s = mk_schema () in
  checki "three types" 3 (List.length (Schema.types s));
  let tag = Schema.type_tag s "DEPT" in
  checks "tag roundtrip" "DEPT" (Schema.type_of_tag s tag).Ty.tname;
  (try
     Schema.define_type s (Ty.make ~name:"DEPT" []);
     Alcotest.fail "redefinition accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Schema.type_tag s "NOPE");
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

let test_schema_sets () =
  let s = mk_schema () in
  checki "three sets" 3 (List.length (Schema.sets s));
  checks "set type" "EMP" (Schema.set_type s "Emp1").Ty.tname;
  (try
     Schema.create_set s ~name:"Emp1" ~elem_type:"EMP";
     Alcotest.fail "duplicate set accepted"
   with Invalid_argument _ -> ());
  try
    Schema.create_set s ~name:"Bad" ~elem_type:"NOPE";
    Alcotest.fail "unknown type accepted"
  with Not_found -> ()

let test_schema_set_with_dangling_ref_type () =
  let s = Schema.create () in
  Schema.define_type s
    (Ty.make ~name:"A" [ { Ty.fname = "b"; ftype = Ty.Ref "MISSING" } ]);
  try
    Schema.create_set s ~name:"As" ~elem_type:"A";
    Alcotest.fail "dangling ref accepted"
  with Invalid_argument _ -> ()

let test_schema_resolve_path () =
  let s = mk_schema () in
  let r = Schema.resolve_path s (Path.parse "Emp1.dept.org.name") in
  Alcotest.(check (list string)) "type chain" [ "EMP"; "DEPT"; "ORG" ] r.Schema.type_chain;
  checki "one terminal field" 1 (List.length r.Schema.terminal_fields);
  let r_all = Schema.resolve_path s (Path.parse "Emp1.dept.all") in
  checki "all scalar fields" 2 (List.length r_all.Schema.terminal_fields)

let test_schema_resolve_path_errors () =
  let s = mk_schema () in
  List.iter
    (fun p ->
      try
        ignore (Schema.resolve_path s (Path.parse p));
        Alcotest.failf "accepted %s" p
      with Invalid_argument _ -> ())
    [
      "Nope.dept.name";  (* unknown set *)
      "Emp1.salary.name";  (* step through a scalar *)
      "Emp1.nope.name";  (* unknown step *)
      "Emp1.dept.nope";  (* unknown terminal *)
      "Emp1.dept.org";  (* ref-valued terminal *)
    ]

let test_schema_replication_and_hidden_layout () =
  let s = mk_schema () in
  let r1 = Schema.add_replication s ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name") in
  let r2 = Schema.add_replication s ~strategy:Schema.Separate (Path.parse "Emp1.dept.budget") in
  let r3 = Schema.add_replication s ~strategy:Schema.Inplace (Path.parse "Emp1.dept.all") in
  checkb "distinct ids" true
    (r1.Schema.rep_id <> r2.Schema.rep_id && r2.Schema.rep_id <> r3.Schema.rep_id);
  (* Layout: user arity 3, then [copy name; sref; copy name; copy budget]. *)
  checki "user arity" 3 (Schema.user_arity s "Emp1");
  checki "record width" 7 (Schema.record_width s "Emp1");
  checki "r1 hidden" 3
    (Schema.hidden_index s "Emp1" ~rep_id:r1.Schema.rep_id ~field:(Some "name"));
  checki "r2 sref" 4 (Schema.hidden_index s "Emp1" ~rep_id:r2.Schema.rep_id ~field:None);
  checki "r3 name copy" 5
    (Schema.hidden_index s "Emp1" ~rep_id:r3.Schema.rep_id ~field:(Some "name"));
  checki "r3 budget copy" 6
    (Schema.hidden_index s "Emp1" ~rep_id:r3.Schema.rep_id ~field:(Some "budget"));
  (try
     ignore (Schema.hidden_index s "Emp1" ~rep_id:r1.Schema.rep_id ~field:(Some "budget"));
     Alcotest.fail "expected Not_found"
   with Not_found -> ());
  (* Duplicate path rejected. *)
  try
    ignore (Schema.add_replication s ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name"));
    Alcotest.fail "duplicate replication accepted"
  with Invalid_argument _ -> ()

let test_schema_rep_options_validation () =
  let s = mk_schema () in
  (try
     ignore
       (Schema.add_replication s
          ~options:{ Schema.default_options with Schema.small_link_threshold = -1 }
          ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name"));
     Alcotest.fail "negative threshold accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Schema.add_replication s
         ~options:{ Schema.default_options with Schema.collapse = true }
         ~strategy:Schema.Separate (Path.parse "Emp1.dept.name"));
    Alcotest.fail "separate+collapse accepted"
  with Invalid_argument _ -> ()

let test_schema_indexes () =
  let s = mk_schema () in
  Schema.add_index s { Schema.iname = "i1"; iset = "Emp1"; ifield = "salary"; clustered = true };
  checki "one index" 1 (List.length (Schema.indexes_on s "Emp1"));
  (try
     Schema.add_index s
       { Schema.iname = "i2"; iset = "Emp1"; ifield = "name"; clustered = true };
     Alcotest.fail "second clustered index accepted"
   with Invalid_argument _ -> ());
  (try
     Schema.add_index s
       { Schema.iname = "i3"; iset = "Emp1"; ifield = "dept"; clustered = false };
     Alcotest.fail "ref index accepted"
   with Invalid_argument _ -> ());
  (* A replicated path can be indexed once declared. *)
  (try
     Schema.add_index s
       { Schema.iname = "i4"; iset = "Emp1"; ifield = "Emp1.dept.name"; clustered = false };
     Alcotest.fail "unreplicated path index accepted"
   with Invalid_argument _ -> ());
  ignore (Schema.add_replication s ~strategy:Schema.Inplace (Path.parse "Emp1.dept.name"));
  Schema.add_index s
    { Schema.iname = "i4"; iset = "Emp1"; ifield = "Emp1.dept.name"; clustered = false };
  checki "path index added" 2 (List.length (Schema.indexes_on s "Emp1"))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let qcheck_tests =
  let open QCheck in
  let value_gen =
    Gen.(
      oneof
        [
          return Value.VNull;
          map (fun i -> Value.VInt i) int;
          map (fun s -> Value.VString s) (string_size (0 -- 50));
          map (fun (a, b) -> Value.VRef { Oid.file = a mod 100; page = b mod 1000; slot = (a + b) mod 50 })
            (pair nat nat);
        ])
  in
  let oid_gen =
    Gen.map
      (fun (a, b) -> { Oid.file = a mod 100; page = b mod 1000; slot = (a + b) mod 50 })
      Gen.(pair nat nat)
  in
  (* A link section as a record holds it: sorted by id, one pair per id. *)
  let sorted_pairs links =
    List.sort_uniq (fun (a : Record.link) b -> Int.compare a.Record.link_id b.Record.link_id) links
  in
  let links_gen n =
    Gen.(
      list_size (0 -- n)
        (map
           (fun (link_oid, link_id) -> { Record.link_oid; link_id })
           (pair oid_gen (int_bound 255))))
  in
  (* Records with a link section and values of all four kinds. *)
  let record_gen =
    Gen.(
      let* tag = int_bound 1000 in
      let* values = list_size (0 -- 12) value_gen in
      let* links = links_gen 6 in
      return { Record.type_tag = tag; links = sorted_pairs links; values = Array.of_list values })
  in
  let record_equal (a : Record.t) (b : Record.t) =
    a.Record.type_tag = b.Record.type_tag
    && List.equal
         (fun (x : Record.link) (y : Record.link) ->
           x.Record.link_id = y.Record.link_id && Oid.equal x.Record.link_oid y.Record.link_oid)
         a.Record.links b.Record.links
    && Array.length a.Record.values = Array.length b.Record.values
    && Array.for_all2 Value.equal a.Record.values b.Record.values
  in
  let record_arb = make ~print:(Format.asprintf "%a" Record.pp) record_gen in
  (* Stored records: 0-3 links, 0-8 values of every kind, and strings long
     enough that some objects chain across 256-byte pages. *)
  let stored_gen =
    Gen.(
      let* tag = int_bound 1000 in
      let* values =
        list_size (0 -- 8)
          (oneof
             [
               value_gen;
               map (fun s -> Value.VString s) (string_size (100 -- 400));
             ])
      in
      let* links = links_gen 3 in
      return { Record.type_tag = tag; links = sorted_pairs links; values = Array.of_list values })
  in
  (* A value of the kind and encoded size of [v]. *)
  let same_size_gen = function
    | Value.VNull -> Gen.return Value.VNull
    | Value.VInt _ -> Gen.map (fun i -> Value.VInt i) Gen.int
    | Value.VString s ->
        Gen.map (fun s -> Value.VString s) (Gen.string_size (Gen.return (String.length s)))
    | Value.VRef _ -> Gen.map (fun o -> Value.VRef o) oid_gen
  in
  (* A record of 0-8 values and 0-3 pairs, an index inside it, at its end
     or 1-3 past it, a new value that grows, shrinks or keeps the stored
     one's size, and the record's offset in its buffer. *)
  let splice_gen =
    Gen.(
      let* tag = int_bound 1000 in
      let* values = map Array.of_list (list_size (0 -- 8) value_gen) in
      let* links = links_gen 3 in
      let n = Array.length values in
      let* i = int_range 0 (n + 3) in
      let* v = oneof [ value_gen; same_size_gen (if i < n then values.(i) else Value.VNull) ] in
      let* off = int_bound 8 in
      return ({ Record.type_tag = tag; links = sorted_pairs links; values }, i, v, off))
  in
  let splice_print (r, i, v, off) =
    Format.asprintf "%a; values.(%d) <- %a at offset %d" Record.pp r i Value.pp v off
  in
  [
    (* The splice leaves the bytes [encode] gives for the record with the
       value replaced (nulls padding it out), in place when the sizes
       match, touches nothing before the record, and refuses a record cut
       short before a byte moves. *)
    Test.make ~name:"set_value_at equals encoding the edited record" ~count:500
      (make ~print:splice_print splice_gen) (fun (r, i, v, off) ->
        let enc = Record.encode r in
        let len = Bytes.length enc in
        let n = Array.length r.Record.values in
        let values = Array.init (max n (i + 1)) (Record.field r) in
        values.(i) <- v;
        let expected = Record.encode { r with Record.values } in
        let in_buffer p =
          let buf = Bytes.make (off + len + Value.encoded_size v + i) '\xff' in
          Bytes.blit enc 0 buf off p;
          buf
        in
        let buf = in_buffer len in
        let len' = Record.set_value_at buf off len i v in
        let same_size =
          i < n && Value.encoded_size v = Value.encoded_size r.Record.values.(i)
        in
        Bytes.equal (Bytes.sub buf off len') expected
        && ((not same_size) || len' = len)
        && Bytes.equal (Bytes.sub buf 0 off) (Bytes.make off '\xff')
        && List.for_all
             (fun p ->
               let cut = in_buffer p in
               match Record.set_value_at cut off p i v with
               | _ -> false
               | exception Wire.Corrupt _ -> Bytes.equal cut (in_buffer p))
             (List.init len Fun.id));
    Test.make ~name:"record with links roundtrip" ~count:300 record_arb (fun r ->
        record_equal r (Record.decode (Record.encode r)));
    (* A truncated record is a corrupt record: never an index error. *)
    Test.make ~name:"every proper prefix raises Corrupt" ~count:100 record_arb
      (fun r ->
        let enc = Record.encode r in
        List.for_all
          (fun len ->
            match Record.decode (Bytes.sub enc 0 len) with
            | _ -> false
            | exception Wire.Corrupt _ -> true)
          (List.init (Bytes.length enc) Fun.id));
    (* Decoding in the pinned frame gives what decoding a copy gives, and
       one field decoded alone is that field. *)
    Test.make ~name:"in-frame decode equals decode of a copy" ~count:100
      (make ~print:(fun rs -> String.concat "; " (List.map (Format.asprintf "%a" Record.pp) rs))
         Gen.(list_size (1 -- 6) stored_gen))
      (fun rs ->
        let pager = Pager.create ~page_size:256 ~frames:8 () in
        let hf = Heap_file.create pager in
        let oids = List.map (fun r -> Heap_file.insert hf (Record.encode r)) rs in
        List.for_all2
          (fun r oid ->
            let copy = Record.decode (Heap_file.read hf oid) in
            let in_frame = Heap_file.read_with hf oid Record.decode_at in
            let n = Array.length r.Record.values in
            record_equal r copy && record_equal copy in_frame
            && List.for_all
                 (fun i ->
                   Value.equal
                     (if i < n then r.Record.values.(i) else Value.VNull)
                     (Heap_file.read_with hf oid (fun b o l -> Record.field_at b o l i)))
                 (List.init (n + 2) Fun.id))
          rs oids);
    Test.make ~name:"value roundtrip" ~count:300 (make value_gen) (fun v ->
        let buf = Bytes.create (Value.encoded_size v) in
        ignore (Value.encode buf 0 v);
        Value.equal v (Value.decode buf 0));
    Test.make ~name:"record roundtrip" ~count:200
      (make Gen.(pair (int_bound 1000) (list_size (0 -- 12) value_gen)))
      (fun (tag, values) ->
        let r = Record.make ~type_tag:tag (Array.of_list values) in
        let r' = Record.decode (Record.encode r) in
        r'.Record.type_tag = tag
        && Array.for_all2 Value.equal r.Record.values r'.Record.values);
    Test.make ~name:"path parse/print roundtrip" ~count:100
      (make
         Gen.(
           let ident = map (fun n -> Printf.sprintf "id%d" (abs n mod 50)) int in
           let* set = ident in
           let* steps = list_size (1 -- 4) ident in
           let* field = ident in
           return (set, steps, field)))
      (fun (set, steps, field) ->
        let p = Path.make ~source_set:set ~steps ~terminal:(Path.Field field) in
        Path.equal p (Path.parse (Path.to_string p)));
  ]

let () =
  Alcotest.run "fieldrep_model"
    [
      ( "ty",
        [
          Alcotest.test_case "basics" `Quick test_ty_basics;
          Alcotest.test_case "validation" `Quick test_ty_validation;
          Alcotest.test_case "missing field" `Quick test_ty_missing_field;
          Alcotest.test_case "lookup allocates nothing" `Quick
            test_ty_lookup_allocates_nothing;
        ] );
      ( "value",
        [
          Alcotest.test_case "roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "typing" `Quick test_value_typing;
          Alcotest.test_case "accessors" `Quick test_value_accessors;
          Alcotest.test_case "total order" `Quick test_value_order_total;
        ] );
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "truncated in the frame" `Quick test_record_truncated_in_frame;
        ] );
      ( "path",
        [
          Alcotest.test_case "parse" `Quick test_path_parse;
          Alcotest.test_case "parse all" `Quick test_path_parse_all;
          Alcotest.test_case "parse errors" `Quick test_path_parse_errors;
          Alcotest.test_case "prefix length" `Quick test_path_prefix;
        ] );
      ( "schema",
        [
          Alcotest.test_case "types and tags" `Quick test_schema_types_and_tags;
          Alcotest.test_case "sets" `Quick test_schema_sets;
          Alcotest.test_case "dangling ref type" `Quick test_schema_set_with_dangling_ref_type;
          Alcotest.test_case "resolve path" `Quick test_schema_resolve_path;
          Alcotest.test_case "resolve errors" `Quick test_schema_resolve_path_errors;
          Alcotest.test_case "replication + hidden layout" `Quick
            test_schema_replication_and_hidden_layout;
          Alcotest.test_case "replication options" `Quick test_schema_rep_options_validation;
          Alcotest.test_case "indexes" `Quick test_schema_indexes;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
