(* Linted as lib/core/fixture.ml: stored bytes spliced and written with
   ~len; a fresh object encoded for its insert. *)
module Heap_file = Fieldrep_storage.Heap_file
module Record = Fieldrep_model.Record

let set_value hf oid buf len i v =
  Heap_file.update ~len:(Record.set_value_at buf 0 len i v) hf oid buf

let insert hf r = Heap_file.insert hf (Record.encode r)
