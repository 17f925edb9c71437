(* Tests for the statistics substrate. *)

module Rng = Stats.Rng
module Dist = Stats.Dist
module Histogram = Stats.Histogram
module Ewma = Stats.Ewma
module Welford = Stats.Welford
module Sliding_window = Stats.Sliding_window
module Summary = Stats.Summary
module Time_series = Stats.Time_series

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_different_seeds () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_copy_and_split () =
  let a = Rng.create ~seed:3 in
  let c = Rng.copy a in
  Alcotest.(check int) "copy same" (Rng.bits a) (Rng.bits c);
  let s = Rng.split a in
  Alcotest.(check bool) "split differs" true (Rng.bits s <> Rng.bits a)

let qcheck_rng_int_range =
  QCheck.Test.make ~name:"Rng.int stays in range" ~count:500
    QCheck.(pair (int_bound 1000) small_int)
    (fun (bound, seed) ->
      QCheck.assume (bound > 0);
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_float_range () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
  done

let test_rng_uniformity () =
  let rng = Rng.create ~seed:5 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d count %d too far from %d" i c expected)
    buckets

let test_exponential_mean () =
  let rng = Rng.create ~seed:13 in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Dist.exponential rng ~rate:2.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check (float 0.02)) "mean 1/rate" 0.5 mean

let test_pareto_minimum () =
  let rng = Rng.create ~seed:17 in
  for _ = 1 to 1000 do
    let x = Dist.pareto rng ~shape:1.5 ~scale:100. in
    if x < 100. then Alcotest.failf "pareto below scale: %f" x
  done

let test_normal_moments () =
  let rng = Rng.create ~seed:19 in
  let w = Welford.create () in
  for _ = 1 to 50_000 do
    Welford.add w (Dist.normal rng ~mean:10. ~std:2.)
  done;
  Alcotest.(check (float 0.05)) "mean" 10. (Welford.mean w);
  Alcotest.(check (float 0.05)) "std" 2. (Welford.std w)

let test_zipf_skew () =
  let rng = Rng.create ~seed:23 in
  let z = Dist.zipf ~n:100 ~alpha:1.1 in
  let counts = Array.make 101 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let r = Dist.zipf_draw rng z in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank1 most popular" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank1 heavier than rank50" true (counts.(1) > 10 * max 1 counts.(50));
  (* Empirical frequency of rank 1 close to pmf. *)
  let freq1 = float_of_int counts.(1) /. float_of_int n in
  let pmf1 = Dist.zipf_pmf z 1 in
  Alcotest.(check (float 0.03)) "pmf matches" pmf1 freq1

let test_zipf_pmf_sums_to_one () =
  let z = Dist.zipf ~n:50 ~alpha:0.9 in
  let total = ref 0. in
  for r = 1 to 50 do
    total := !total +. Dist.zipf_pmf z r
  done;
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 !total

let test_geometric () =
  let rng = Rng.create ~seed:29 in
  let w = Welford.create () in
  for _ = 1 to 20_000 do
    Welford.add w (float_of_int (Dist.geometric rng ~p:0.25))
  done;
  Alcotest.(check (float 0.15)) "mean 1/p" 4.0 (Welford.mean w)

let test_histogram_linear () =
  let h = Histogram.linear ~lo:0. ~hi:10. ~buckets:10 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -1.; 12. ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 1 (Histogram.overflow h);
  Alcotest.(check (float 1e-9)) "max" 12. (Histogram.max_seen h)

let test_histogram_percentile () =
  let h = Histogram.linear ~lo:0. ~hi:100. ~buckets:100 in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i -. 0.5)
  done;
  let p50 = Histogram.percentile h 0.5 in
  Alcotest.(check bool) "p50 near 50" true (p50 >= 49. && p50 <= 51.);
  let p99 = Histogram.percentile h 0.99 in
  Alcotest.(check bool) "p99 near 99" true (p99 >= 98. && p99 <= 99.5)

let test_histogram_log2 () =
  let h = Histogram.log2 ~max_exponent:10 in
  List.iter (Histogram.add h) [ 0.; 0.5; 1.; 3.; 1000. ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  let buckets = Histogram.buckets h in
  Alcotest.(check int) "four non-empty buckets" 4 (List.length buckets)

let test_histogram_clear () =
  let h = Histogram.log2 ~max_exponent:5 in
  Histogram.add h 3.;
  Histogram.clear h;
  Alcotest.(check int) "cleared" 0 (Histogram.count h)

let test_ewma () =
  let e = Ewma.create ~alpha:0.5 in
  Alcotest.(check (float 1e-9)) "first sample primes" 10. (Ewma.update e 10.);
  Alcotest.(check (float 1e-9)) "second" 15. (Ewma.update e 20.);
  Ewma.decay e;
  Alcotest.(check (float 1e-9)) "decay" 7.5 (Ewma.value e)

let test_welford_merge () =
  let rng = Rng.create ~seed:31 in
  let all = Welford.create () and a = Welford.create () and b = Welford.create () in
  for i = 1 to 1000 do
    let x = Rng.float rng in
    Welford.add all x;
    if i mod 2 = 0 then Welford.add a x else Welford.add b x
  done;
  let merged = Welford.merge a b in
  Alcotest.(check (float 1e-9)) "mean" (Welford.mean all) (Welford.mean merged);
  Alcotest.(check (float 1e-9)) "var" (Welford.variance all) (Welford.variance merged);
  Alcotest.(check int) "count" (Welford.count all) (Welford.count merged)

let test_sliding_window () =
  let w = Sliding_window.create ~slots:4 ~slot_width:10. in
  Sliding_window.add w 100.;
  Sliding_window.rotate w;
  Sliding_window.add w 200.;
  Alcotest.(check (float 1e-9)) "sum" 300. (Sliding_window.sum w);
  Alcotest.(check (float 1e-9)) "rate over window 40" 7.5 (Sliding_window.rate w);
  (* Rotate enough to expire the first slot. *)
  Sliding_window.rotate w;
  Sliding_window.rotate w;
  Sliding_window.rotate w;
  Alcotest.(check (float 1e-9)) "oldest expired" 200. (Sliding_window.sum w);
  Sliding_window.rotate w;
  Alcotest.(check (float 1e-9)) "all expired" 0. (Sliding_window.sum w)

let qcheck_sliding_window_sum =
  QCheck.Test.make ~name:"sliding window sum equals sum of live slots" ~count:200
    QCheck.(list (pair (int_bound 100) bool))
    (fun ops ->
      let w = Sliding_window.create ~slots:8 ~slot_width:1. in
      List.iter
        (fun (v, rot) ->
          if rot then Sliding_window.rotate w else Sliding_window.add w (float_of_int v))
        ops;
      let slots = Sliding_window.slots w in
      let expect = Array.fold_left ( +. ) 0. slots in
      abs_float (expect -. Sliding_window.sum w) < 1e-9)

let test_summary_percentile () =
  let xs = Array.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "p50" 50. (Summary.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "p0" 0. (Summary.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Summary.percentile xs 1.)

let test_jain () =
  Alcotest.(check (float 1e-9)) "equal is 1" 1. (Summary.jain_fairness [| 5.; 5.; 5. |]);
  let one_hog = Summary.jain_fairness [| 10.; 0.; 0.; 0. |] in
  Alcotest.(check (float 1e-9)) "one hog is 1/n" 0.25 one_hog

let test_nrmse () =
  let actual = [| 10.; 10.; 10. |] in
  Alcotest.(check (float 1e-9)) "perfect" 0.
    (Summary.normalized_rmse ~predicted:actual ~actual);
  let off = Summary.normalized_rmse ~predicted:[| 11.; 11.; 11. |] ~actual in
  Alcotest.(check (float 1e-9)) "10%% off" 0.1 off

let test_time_series () =
  let ts = Time_series.create ~capacity:2 () in
  for i = 1 to 10 do
    Time_series.add ts ~time:(float_of_int i) ~value:(float_of_int (i * i))
  done;
  Alcotest.(check int) "length" 10 (Time_series.length ts);
  Alcotest.(check (pair (float 0.) (float 0.))) "nth" (3., 9.) (Time_series.nth ts 2);
  Alcotest.(check (float 1e-9)) "max" 100. (Time_series.max_value ts);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "last" (Some (10., 100.))
    (Time_series.last ts)

(* The generator is splitmix64: the first draws of seed 7, computed
   independently of this code, pin the stream bit for bit. *)
let test_rng_stream_pinned () =
  let r = Rng.create ~seed:7 in
  Alcotest.(check (list int))
    "bits" [ 2418118848055258963; 1393370355107282181; 4339579163232964052 ]
    (List.init 3 (fun _ -> Rng.bits r));
  Alcotest.(check (float 0.)) "float" 0.8832292678334052 (Rng.float r)

(* Draws keep the 64-bit state unboxed and build no closure, so
   [Rng.int] allocates nothing. A float returned across a module
   boundary is boxed unless the caller inlines the draw, as optimised
   builds do; the tests' dev profile compiles with [-opaque], so
   [Rng.float] is allowed its result's own 2-word box and nothing
   more. *)
let test_rng_draws_zero_alloc () =
  let r = Rng.create ~seed:5 in
  let sum = ref 0 and low = ref 0 in
  Zero_alloc.check "Rng.int" ~iters:10_000 (fun () -> sum := !sum + Rng.int r 1_000);
  Zero_alloc.check ~words_per_cycle:2 "Rng.float" ~iters:10_000 (fun () ->
      if Rng.float r < 0.5 then incr low);
  Alcotest.(check bool) "draws land on both sides" true (!low > 0 && !low < 20_000 && !sum > 0)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_different_seeds;
    Alcotest.test_case "rng copy/split" `Quick test_rng_copy_and_split;
    Alcotest.test_case "rng stream is splitmix64" `Quick test_rng_stream_pinned;
    Alcotest.test_case "zero-alloc rng draws" `Quick test_rng_draws_zero_alloc;
    QCheck_alcotest.to_alcotest qcheck_rng_int_range;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "pareto minimum" `Quick test_pareto_minimum;
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf pmf normalised" `Quick test_zipf_pmf_sums_to_one;
    Alcotest.test_case "geometric mean" `Quick test_geometric;
    Alcotest.test_case "histogram linear" `Quick test_histogram_linear;
    Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
    Alcotest.test_case "histogram log2" `Quick test_histogram_log2;
    Alcotest.test_case "histogram clear" `Quick test_histogram_clear;
    Alcotest.test_case "ewma" `Quick test_ewma;
    Alcotest.test_case "welford merge" `Quick test_welford_merge;
    Alcotest.test_case "sliding window" `Quick test_sliding_window;
    QCheck_alcotest.to_alcotest qcheck_sliding_window_sum;
    Alcotest.test_case "summary percentile" `Quick test_summary_percentile;
    Alcotest.test_case "jain fairness" `Quick test_jain;
    Alcotest.test_case "normalized rmse" `Quick test_nrmse;
    Alcotest.test_case "time series" `Quick test_time_series;
  ]
