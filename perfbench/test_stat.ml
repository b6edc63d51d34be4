(* Self-tests of the benchmark's own arithmetic (stat.ml). *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..1000 is 500" (Stat.percentile a 50.0 = 500.0);
  check "p99 of 1..1000 is 990" (Stat.percentile a 99.0 = 990.0);
  check "p100 is the maximum" (Stat.percentile a 100.0 = 1000.0);
  check "one sample is every percentile" (Stat.percentile [| 7.0 |] 1.0 = 7.0);
  check "median of an unsorted array" (Stat.median [| 3.0; 1.0; 2.0 |] = 2.0);
  (* a tail percentile needs ten samples beyond it *)
  check "1000 samples leave 10 beyond p99" (Stat.beyond ~n:1000 99.0 = 10);
  check "1000 samples support p99" (Stat.supports ~n:1000 99.0);
  check "999 samples do not support p99" (not (Stat.supports ~n:999 99.0));
  (* ratios name their base, and an empty base reads 0, not NaN *)
  let r = Stat.ratio ~base:"commit" 30 10 in
  check "ratio value" (Stat.value r = 3.0);
  check "ratio unit names its base"
    (Stat.unit_of ~what:"count" r = "count/commit");
  check "empty base reads 0" (Stat.value (Stat.ratio ~base:"abort" 5 0) = 0.0);
  check "percentile rejects no samples"
    (match Stat.percentile [||] 50.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  if !failures > 0 then exit 1;
  print_endline "perfbench stat self-tests: ok"
