(* The benchmark's arithmetic: percentiles, medians and ratios.  Kept
   apart from the workloads so test_stat.ml can check it on its own. *)

(* 1-based nearest rank of the [p]-th percentile of [n] samples.  The
   epsilon keeps 99.9% of 10 000 at rank 9 990: in floating point the
   product is a hair above it. *)
let rank ~n p =
  int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile: the smallest sample with at least [p] percent
   of the samples at or below it.  [sorted] must be sorted ascending. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  if p <= 0.0 || p > 100.0 then
    invalid_arg "Stat.percentile: p outside (0, 100]";
  sorted.(max 0 (min (n - 1) (rank ~n p - 1)))

(* Samples strictly above the nearest-rank [p]-th percentile of [n]. *)
let beyond ~n p = n - rank ~n p

(* A tail percentile is reported only when at least this many samples lie
   beyond it; fewer would make it the maximum of a handful of samples. *)
let min_beyond = 10

let supports ~n p = beyond ~n p >= min_beyond

let sorted_floats a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let median a = percentile (sorted_floats a) 50.0

(* A ratio always carries the name of what it is divided by, and the unit
   the benchmark prints for it names that base ("count/op",
   "count/commit"), so no per-op figure can silently change its
   denominator.  An empty base reads 0, never NaN: JSON has no NaN. *)
type ratio = { num : float; den : float; base : string }

let ratio ~base num den =
  { num = float_of_int num; den = float_of_int den; base }

let value r = if r.den = 0.0 then 0.0 else r.num /. r.den
let unit_of ~what r = what ^ "/" ^ r.base
