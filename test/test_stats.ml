open Wmm_util

let close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let test_mean () = close "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty sample array") (fun () ->
      ignore (Stats.mean [||]))

let test_geometric_mean () =
  close "gmean" 4. (Stats.geometric_mean [| 2.; 8. |]);
  close "gmean singleton" 7. (Stats.geometric_mean [| 7. |])

let test_geometric_mean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive sample") (fun () ->
      ignore (Stats.geometric_mean [| 1.; 0. |]))

let test_variance () =
  (* Sample variance of 2,4,4,4,5,5,7,9 is 32/7. *)
  close "variance" (32. /. 7.) (Stats.variance [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_median_percentile () =
  close "median odd" 3. (Stats.median [| 1.; 3.; 9. |]);
  close "median even" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |]);
  close "p0" 1. (Stats.percentile [| 3.; 1.; 2. |] 0.);
  close "p100" 3. (Stats.percentile [| 3.; 1.; 2. |] 100.);
  close "p50 interpolated" 2. (Stats.percentile [| 3.; 1.; 2. |] 50.)

let test_min_max () =
  close "min" 1. (Stats.minimum [| 3.; 1.; 2. |]);
  close "max" 3. (Stats.maximum [| 3.; 1.; 2. |])

let test_mad () =
  close "mad" 1. (Stats.mad [| 1.; 2.; 3.; 4.; 5. |]);
  close "mad constant" 0. (Stats.mad [| 7.; 7.; 7. |]);
  (* MAD is immune to a single wild value where std is not. *)
  close "mad with outlier" 1. (Stats.mad [| 1.; 2.; 3.; 4.; 1000. |])

let test_reject_outliers () =
  let clean = [| 10.; 10.5; 9.8; 10.2; 9.9; 10.1 |] in
  Alcotest.(check int) "clean data untouched" (Array.length clean)
    (Array.length (Stats.reject_outliers clean));
  let dirty = Array.append clean [| 100. |] in
  let kept = Stats.reject_outliers dirty in
  Alcotest.(check int) "outlier rejected" (Array.length clean) (Array.length kept);
  Alcotest.(check bool) "outlier gone" true (Array.for_all (fun x -> x < 50.) kept);
  (* Degenerate inputs pass through rather than emptying the sample. *)
  Alcotest.(check int) "tiny samples untouched" 3
    (Array.length (Stats.reject_outliers [| 1.; 2.; 1000. |]));
  Alcotest.(check int) "zero MAD untouched" 4
    (Array.length (Stats.reject_outliers [| 5.; 5.; 5.; 900. |]))

let test_log_gamma () =
  (* gamma(5) = 24, gamma(0.5) = sqrt(pi). *)
  close ~eps:1e-10 "log_gamma 5" (log 24.) (Stats.log_gamma 5.);
  close ~eps:1e-10 "log_gamma 0.5" (0.5 *. log Float.pi) (Stats.log_gamma 0.5)

let test_incomplete_beta () =
  (* I_x(1,1) = x; I_x(2,2) = 3x^2 - 2x^3. *)
  close ~eps:1e-9 "I_x(1,1)" 0.3 (Stats.incomplete_beta ~a:1. ~b:1. ~x:0.3);
  close ~eps:1e-9 "I_x(2,2)" (3. *. 0.49 -. (2. *. 0.343))
    (Stats.incomplete_beta ~a:2. ~b:2. ~x:0.7)

let test_t_cdf () =
  (* t-distribution with df=1 is Cauchy: CDF(1) = 3/4. *)
  close ~eps:1e-9 "cauchy" 0.75 (Stats.t_cdf ~df:1. 1.);
  close ~eps:1e-9 "symmetry" 0.25 (Stats.t_cdf ~df:1. (-1.))

let test_t_critical () =
  (* Standard table values. *)
  close ~eps:1e-3 "df=1" 12.706 (Stats.t_critical ~confidence:0.95 ~df:1.);
  close ~eps:1e-3 "df=5" 2.5706 (Stats.t_critical ~confidence:0.95 ~df:5.);
  close ~eps:1e-3 "df=30" 2.0423 (Stats.t_critical ~confidence:0.95 ~df:30.);
  close ~eps:1e-3 "99%, df=10" 3.1693 (Stats.t_critical ~confidence:0.99 ~df:10.)

let test_confidence_interval () =
  let samples = [| 10.; 12.; 11.; 9.; 13.; 11. |] in
  let ci = Stats.confidence_interval samples in
  let m = Stats.mean samples in
  Alcotest.(check bool) "contains mean" true (ci.Stats.lo < m && m < ci.Stats.hi);
  (* Half-width = t * sem. *)
  let half = Stats.t_critical ~confidence:0.95 ~df:5. *. Stats.std_error samples in
  close ~eps:1e-9 "half width" half ((ci.Stats.hi -. ci.Stats.lo) /. 2.)

let test_summary_and_ratio () =
  let base = Stats.summarise [| 100.; 102.; 98. |] in
  let test = Stats.summarise [| 50.; 51.; 49. |] in
  let rel = Stats.ratio_summary ~test ~base in
  Alcotest.(check bool) "ratio near 0.5" true (abs_float (rel.Stats.gmean -. 0.5) < 0.01);
  (* Pessimistic compounding per the paper. *)
  close ~eps:1e-9 "comparative min" (49. /. 102.) rel.Stats.smin;
  close ~eps:1e-9 "comparative max" (51. /. 98.) rel.Stats.smax

let prop_beta_symmetry =
  QCheck.Test.make ~name:"I_x(a,b) + I_1-x(b,a) = 1" ~count:200
    QCheck.(triple (float_range 0.5 5.) (float_range 0.5 5.) (float_range 0.01 0.99))
    (fun (a, b, x) ->
      let lhs = Stats.incomplete_beta ~a ~b ~x +. Stats.incomplete_beta ~a:b ~b:a ~x:(1. -. x) in
      abs_float (lhs -. 1.) < 1e-8)

let prop_gmean_le_amean =
  QCheck.Test.make ~name:"geometric mean <= arithmetic mean" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.1 100.))
    (fun l ->
      let a = Array.of_list l in
      Stats.geometric_mean a <= Stats.mean a +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(
      pair (list_of_size (Gen.int_range 2 20) (float_range 0. 100.)) (float_range 0. 99.))
    (fun (l, p) ->
      let a = Array.of_list l in
      Stats.percentile a p <= Stats.percentile a (p +. 1.) +. 1e-9)

let prop_ci_widens_with_confidence =
  QCheck.Test.make ~name:"CI widens with confidence" ~count:50
    QCheck.(list_of_size (Gen.int_range 3 15) (float_range 1. 10.))
    (fun l ->
      let a = Array.of_list l in
      if Stats.std a < 1e-12 then true
      else begin
        let c90 = Stats.confidence_interval ~confidence:0.9 a in
        let c99 = Stats.confidence_interval ~confidence:0.99 a in
        c99.Stats.hi -. c99.Stats.lo >= c90.Stats.hi -. c90.Stats.lo -. 1e-9
      end)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "mean empty" `Quick test_mean_empty;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "geometric mean non-positive" `Quick
      test_geometric_mean_rejects_nonpositive;
    Alcotest.test_case "variance" `Quick test_variance;
    Alcotest.test_case "median and percentiles" `Quick test_median_percentile;
    Alcotest.test_case "min max" `Quick test_min_max;
    Alcotest.test_case "mad" `Quick test_mad;
    Alcotest.test_case "reject outliers" `Quick test_reject_outliers;
    Alcotest.test_case "log gamma" `Quick test_log_gamma;
    Alcotest.test_case "incomplete beta" `Quick test_incomplete_beta;
    Alcotest.test_case "t cdf" `Quick test_t_cdf;
    Alcotest.test_case "t critical values" `Quick test_t_critical;
    Alcotest.test_case "confidence interval" `Quick test_confidence_interval;
    Alcotest.test_case "summary and ratio compounding" `Quick test_summary_and_ratio;
    QCheck_alcotest.to_alcotest prop_beta_symmetry;
    QCheck_alcotest.to_alcotest prop_gmean_le_amean;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_ci_widens_with_confidence;
  ]
