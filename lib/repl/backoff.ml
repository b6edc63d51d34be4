(* Exponential backoff with full seeded jitter, for reconnect loops.

   The delay for attempt n is drawn uniformly from [0, min (base * 2^n)
   cap] ("full jitter", the AWS-recommended variant: it decorrelates a
   thundering herd of reconnecting replicas better than equal or
   decorrelated jitter).  Delays are in clock ticks, so deterministic
   tests drive the same schedule the CLI does. *)

type t = {
  rng : Fieldrep_util.Splitmix.t;
  base : int;
  cap : int;
  mutable attempt : int;
}

let create ?(base = 10) ?(cap = 5_000) ~seed () =
  let base = max 1 base in
  { rng = Fieldrep_util.Splitmix.create seed; base; cap = max base cap; attempt = 0 }

let next_delay t =
  (* 2^attempt without overflow: cap the shift, then the product. *)
  let shift = min t.attempt 20 in
  let ceiling = min t.cap (t.base * (1 lsl shift)) in
  t.attempt <- t.attempt + 1;
  Fieldrep_util.Splitmix.int t.rng (ceiling + 1)

let reset t = t.attempt <- 0
