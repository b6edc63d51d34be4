(* Linted as lib/core/fixture.ml: a named step passed to
   [Pager.with_pin_arg] runs under the pin it takes (Pool_pin), so what the
   step acquires is acquired under that pin. *)
module Pager = Fieldrep_storage.Pager
module Lock = Fieldrep_txn.Lock

(* Txn_lock taken inside a pinned step: against the canonical order. *)
let lock_step locks _buf = Lock.acquire locks ~txn:1 (Lock.Set "R") Lock.IX

let pinned_lock pager locks =
  Pager.with_pin_arg pager ~file:3 ~page:0 ~dirty:false lock_step locks
