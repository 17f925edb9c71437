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
    Alcotest.(check int) "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_different_seeds () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int a max_int = Rng.int b max_int then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_split () =
  let a = Rng.create ~seed:3 in
  let s = Rng.split a in
  Alcotest.(check bool) "split differs" true (Rng.int s max_int <> Rng.int a max_int)

(* [split] hands the child the parent's next draw as its state: equal
   parents give equal children, and the split costs the parent exactly
   one draw. *)
let test_rng_split_repeats () =
  let a = Rng.create ~seed:9 and b = Rng.create ~seed:9 and fresh = Rng.create ~seed:9 in
  let ca = Rng.split a and cb = Rng.split b in
  Alcotest.(check (list (float 0.)))
    "equal parents, equal children"
    (List.init 5 (fun _ -> Rng.float ca))
    (List.init 5 (fun _ -> Rng.float cb));
  ignore (Rng.float fresh : float);
  Alcotest.(check (float 0.)) "the parent moved one draw" (Rng.float fresh) (Rng.float a)

let test_rng_int_in () =
  let r = Rng.create ~seed:13 in
  let seen = Array.make 5 0 in
  for _ = 1 to 2_000 do
    let x = Rng.int_in r (-2) 2 in
    if x < -2 || x > 2 then Alcotest.failf "int_in out of range: %d" x;
    seen.(x + 2) <- seen.(x + 2) + 1
  done;
  (* 400 expected per value. *)
  Alcotest.(check bool) "both ends and the middle drawn" true (Array.for_all (fun c -> c > 300) seen);
  Alcotest.(check int) "one-point range" 7 (Rng.int_in r 7 7);
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range") (fun () ->
      ignore (Rng.int_in r 3 2 : int))

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
  (* Empirical frequency of rank 1 close to its mass 1 / H(100, 1.1). *)
  let freq1 = float_of_int counts.(1) /. float_of_int n in
  let h = ref 0. in
  for k = 1 to 100 do
    h := !h +. (1. /. (float_of_int k ** 1.1))
  done;
  Alcotest.(check (float 0.03)) "pmf matches" (1. /. !h) freq1

(* A Zipf sampler is built once per (n, alpha) and shared, from any
   domain; its draws stay in [1, n]. *)
let test_zipf_shared () =
  let z = Dist.zipf ~n:64 ~alpha:0.9 in
  Alcotest.(check bool) "same (n, alpha), same sampler" true (z == Dist.zipf ~n:64 ~alpha:0.9);
  Alcotest.(check bool) "another domain gets the same sampler" true
    (Domain.join (Domain.spawn (fun () -> Dist.zipf ~n:64 ~alpha:0.9)) == z);
  Alcotest.(check bool) "another alpha, another sampler" false (z == Dist.zipf ~n:64 ~alpha:1.2);
  let rng = Rng.create ~seed:41 in
  for _ = 1 to 1_000 do
    let r = Dist.zipf_draw rng z in
    if r < 1 || r > 64 then Alcotest.failf "zipf rank out of range: %d" r
  done;
  Alcotest.check_raises "n must be positive" (Invalid_argument "Dist.zipf: n must be positive")
    (fun () -> ignore (Dist.zipf ~n:0 ~alpha:1.))

let test_histogram_percentile () =
  (* 0.5, 1.5, ..., 99.5: the 50th sample lies in [32, 64), which holds
     samples 33..64, so the estimate is that bucket's upper bound; the
     99th lies in [64, 128) and is capped at the largest sample. *)
  let h = Histogram.log2 ~max_exponent:10 in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i -. 0.5)
  done;
  Alcotest.(check (float 0.)) "p50" 64. (Histogram.percentile h 0.5);
  Alcotest.(check (float 0.)) "p99" 99.5 (Histogram.percentile h 0.99)

let test_histogram_log2 () =
  let h = Histogram.log2 ~max_exponent:10 in
  List.iter (Histogram.add h) [ 0.; 0.5; 1.; 3.; 1000. ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  (* Buckets [0,1): 2, [1,2): 1, [2,4): 1, [512,1024): 1. *)
  Alcotest.(check (list (float 0.)))
    "bucket upper bounds" [ 1.; 2.; 4.; 1000. ]
    (List.map (Histogram.percentile h) [ 0.4; 0.6; 0.8; 1.0 ]);
  Histogram.add h (-1.);
  Alcotest.(check (float 0.)) "underflow counts below the first bucket" 1.
    (Histogram.percentile h (3. /. 6.))

(* Samples past the last bucket count toward [count], [mean] and
   [max_seen] but land in no bucket; a quantile that reaches them
   reports the exact maximum. *)
let test_histogram_past_last_bucket () =
  (* Buckets [0,1), [1,2), [2,4), [4,8). *)
  let h = Histogram.log2 ~max_exponent:3 in
  List.iter (Histogram.add h) [ 1.; 3.; 100.; 500. ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 151. (Histogram.mean h);
  Alcotest.(check (float 0.)) "max" 500. (Histogram.max_seen h);
  Alcotest.(check (float 0.)) "p50 in [2, 4)" 4. (Histogram.percentile h 0.5);
  Alcotest.(check (float 0.)) "p100 past the buckets" 500. (Histogram.percentile h 1.)

let test_histogram_empty () =
  let h = Histogram.log2 ~max_exponent:4 in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check bool) "percentile is nan" true (Float.is_nan (Histogram.percentile h 0.5));
  Alcotest.(check bool) "max_seen is neg_infinity" true (Histogram.max_seen h = neg_infinity);
  Alcotest.check_raises "exponent must be positive" (Invalid_argument "Histogram.log2") (fun () ->
      ignore (Histogram.log2 ~max_exponent:0))

let test_ewma () =
  let e = Ewma.create ~alpha:0.5 in
  Alcotest.(check (float 1e-9)) "first sample primes" 10. (Ewma.update e 10.);
  Alcotest.(check (float 1e-9)) "second" 15. (Ewma.update e 20.);
  Alcotest.(check (float 1e-9)) "value" 15. (Ewma.value e)

let test_welford_moments () =
  (* Population mean 5 and standard deviation 2. *)
  let w = Welford.create () in
  List.iter (Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Welford.count w);
  Alcotest.(check (float 1e-9)) "mean" 5. (Welford.mean w);
  Alcotest.(check (float 1e-9)) "std" 2. (Welford.std w);
  Alcotest.(check (pair (float 0.) (float 0.))) "extrema" (2., 9.) (Welford.min w, Welford.max w)

let test_sliding_window () =
  let w = Sliding_window.create ~slots:4 ~slot_width:10. in
  Sliding_window.add w 100.;
  Sliding_window.rotate w;
  Sliding_window.add w 200.;
  Alcotest.(check (float 1e-9)) "completed slots over 30" (100. /. 30.)
    (Sliding_window.completed_rate w);
  (* Rotate enough to expire the first slot. *)
  Sliding_window.rotate w;
  Sliding_window.rotate w;
  Sliding_window.rotate w;
  Alcotest.(check (float 1e-9)) "oldest expired" (200. /. 30.) (Sliding_window.completed_rate w);
  Sliding_window.rotate w;
  Alcotest.(check (float 1e-9)) "all expired" 0. (Sliding_window.completed_rate w)

let qcheck_sliding_window_sum =
  QCheck.Test.make ~name:"sliding window sum equals sum of live slots" ~count:200
    QCheck.(list (pair (int_bound 100) bool))
    (fun ops ->
      let w = Sliding_window.create ~slots:8 ~slot_width:1. in
      (* Model: the eight slots, newest first. *)
      let model = ref (List.init 8 (fun _ -> 0.)) in
      List.iter
        (fun (v, rot) ->
          if rot then begin
            Sliding_window.rotate w;
            model := 0. :: List.filteri (fun i _ -> i < 7) !model
          end
          else begin
            Sliding_window.add w (float_of_int v);
            model := (List.hd !model +. float_of_int v) :: List.tl !model
          end)
        ops;
      let expect = List.fold_left ( +. ) 0. (List.tl !model) /. 7. in
      abs_float (expect -. Sliding_window.completed_rate w) < 1e-9)

(* Population moments over a batch; fewer than two samples have no
   spread, and an empty batch has mean 0. *)
let test_summary_moments () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Alcotest.(check (float 1e-9)) "mean" 5. (Summary.mean xs);
  Alcotest.(check (float 1e-9)) "std" 2. (Summary.std xs);
  Alcotest.(check (float 0.)) "one sample has no spread" 0. (Summary.std [| 3. |]);
  Alcotest.(check (float 0.)) "empty mean" 0. (Summary.mean [||])

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
  (* 200 points: the arrays grow twice past their first 64. *)
  let ts = Time_series.create () in
  for i = 1 to 200 do
    Time_series.add ts ~time:(float_of_int i) ~value:(float_of_int (i * i))
  done;
  Alcotest.(check int) "length" 200 (Time_series.length ts);
  Alcotest.(check (pair (float 0.) (float 0.))) "nth" (3., 9.) (Time_series.nth ts 2);
  Alcotest.(check (float 1e-9)) "max" 40000. (Time_series.max_value ts);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "last" (Some (200., 40000.))
    (Time_series.last ts)

(* The generator is splitmix64: the first draws of seed 7, computed
   independently of this code, pin the stream bit for bit. Each is the
   draw's top 62 bits, which [Rng.int r max_int] returns unchanged
   whenever they are below [max_int]. *)
let test_rng_stream_pinned () =
  let r = Rng.create ~seed:7 in
  Alcotest.(check (list int))
    "bits" [ 2418118848055258963; 1393370355107282181; 4339579163232964052 ]
    (List.init 3 (fun _ -> Rng.int r max_int));
  Alcotest.(check (float 0.)) "float" 0.8832292678334052 (Rng.float r)

(* Draws keep the 64-bit state unboxed and build no closure, so
   [Rng.int] allocates nothing. A float returned across a module
   boundary is boxed unless the caller inlines the draw, as the release
   profile does; the dev profile compiles with [-opaque], so there
   [Rng.float] is allowed its result's own 2-word box and nothing
   more. *)
let test_rng_draws_zero_alloc () =
  let r = Rng.create ~seed:5 in
  let sum = ref 0 and low = ref 0 in
  Zero_alloc.check "Rng.int" ~iters:10_000 (fun () -> sum := !sum + Rng.int r 1_000);
  Zero_alloc.check
    ~words_per_cycle:(if Build_profile.name = "dev" then 2 else 0)
    (Printf.sprintf "Rng.float (%s profile)" Build_profile.name)
    ~iters:10_000
    (fun () -> if Rng.float r < 0.5 then incr low);
  Alcotest.(check bool) "draws land on both sides" true (!low > 0 && !low < 20_000 && !sum > 0)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_different_seeds;
    Alcotest.test_case "rng split" `Quick test_rng_split;
    Alcotest.test_case "rng split repeats per seed" `Quick test_rng_split_repeats;
    Alcotest.test_case "rng int_in inclusive range" `Quick test_rng_int_in;
    Alcotest.test_case "rng stream is splitmix64" `Quick test_rng_stream_pinned;
    Alcotest.test_case "zero-alloc rng draws" `Quick test_rng_draws_zero_alloc;
    QCheck_alcotest.to_alcotest qcheck_rng_int_range;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "pareto minimum" `Quick test_pareto_minimum;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf sampler shared per (n, alpha)" `Quick test_zipf_shared;
    Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
    Alcotest.test_case "histogram log2" `Quick test_histogram_log2;
    Alcotest.test_case "histogram past the last bucket" `Quick test_histogram_past_last_bucket;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "ewma" `Quick test_ewma;
    Alcotest.test_case "welford moments" `Quick test_welford_moments;
    Alcotest.test_case "sliding window" `Quick test_sliding_window;
    QCheck_alcotest.to_alcotest qcheck_sliding_window_sum;
    Alcotest.test_case "summary moments" `Quick test_summary_moments;
    Alcotest.test_case "jain fairness" `Quick test_jain;
    Alcotest.test_case "normalized rmse" `Quick test_nrmse;
    Alcotest.test_case "time series" `Quick test_time_series;
  ]
