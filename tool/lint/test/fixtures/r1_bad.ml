(* Linted as lib/core/fixture.ml: stored objects rewritten by re-encoding. *)
module Heap_file = Fieldrep_storage.Heap_file
module Record = Fieldrep_model.Record

let set_name hf oid r = Heap_file.update hf oid (Record.encode r)

(* The fully qualified spelling is the same call. *)
let set_all hf oid r =
  Fieldrep_storage.Heap_file.update ~len:3 hf oid (Fieldrep_model.Record.encode r)
