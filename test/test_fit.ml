open Wmm_util

(* Eq. 1 least-squares fits --------------------------------------- *)

let true_k = 0.004

(* Cost-function sizes 2^0 .. 2^(n-1) ns, as the figures sweep them. *)
let sizes n = Array.init n (fun i -> float_of_int (1 lsl i))

let exact_ys xs = Array.map (fun a -> Wmm_core.Sensitivity.performance ~k:true_k ~a) xs

let off (fit : Wmm_core.Sensitivity.fit) = abs_float (fit.k -. true_k) /. true_k

let test_fit_with_noise_recovers () =
  let rng = Rng.create 99 in
  let xs = sizes 12 in
  let ys =
    Array.map (fun y -> y *. exp (Rng.gaussian rng ~mean:0. ~std:0.01)) (exact_ys xs)
  in
  let fit = Wmm_core.Sensitivity.fit_k ~xs ~ys in
  Alcotest.(check bool) "k recovered within 10%" true (off fit < 0.1);
  Alcotest.(check bool) "std error sane" true
    (Float.is_finite fit.k_error_percent && fit.k_error_percent > 0.)

let test_fit_rejects_mismatched () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Sensitivity.fit_k: xs/ys length mismatch") (fun () ->
      ignore (Wmm_core.Sensitivity.fit_k ~xs:[| 1.; 2. |] ~ys:[| 1. |]));
  Alcotest.check_raises "one point"
    (Invalid_argument "Sensitivity.fit_k: needs at least two points") (fun () ->
      ignore (Wmm_core.Sensitivity.fit_k ~xs:[| 1. |] ~ys:[| 1. |]))

let test_huber_resists_outlier () =
  let xs = sizes 12 in
  let ys = exact_ys xs in
  ys.(7) <- ys.(7) *. 8.;
  Alcotest.(check bool) "huber k within 2%" true
    (off (Wmm_core.Sensitivity.fit_k_robust ~xs ~ys) < 0.02);
  Alcotest.(check bool) "plain k degraded" true (off (Wmm_core.Sensitivity.fit_k ~xs ~ys) > 0.1)

let test_huber_matches_on_clean_data () =
  let xs = sizes 12 in
  let ys = exact_ys xs in
  Alcotest.(check bool) "robust fit = plain fit" true
    (Wmm_core.Sensitivity.fit_k_robust ~xs ~ys = Wmm_core.Sensitivity.fit_k ~xs ~ys)

(* Sensitivity model ------------------------------------------------ *)

let test_eq1_baseline () =
  (* At a = 1 (the nop baseline) performance is exactly 1. *)
  Alcotest.(check (float 1e-12)) "p(1) = 1" 1. (Wmm_core.Sensitivity.performance ~k:0.005 ~a:1.)

let test_eq2_known () =
  (* The paper's POWER numbers: k=0.01333, p=0.8753 imply a ~ 11.7 ns
     of extra cost (the lwsync -> sync swap). *)
  let a = Wmm_core.Sensitivity.cost_of_change ~k:0.0133 ~p:0.8753 in
  Alcotest.(check bool) "a in [10, 13]" true (a > 10. && a < 13.)

let prop_eq2_inverts_eq1 =
  QCheck.Test.make ~name:"eq2 inverts eq1" ~count:300
    QCheck.(pair (float_range 1e-4 0.05) (float_range 1. 1000.))
    (fun (k, a) ->
      let p = Wmm_core.Sensitivity.performance ~k ~a in
      abs_float (Wmm_core.Sensitivity.cost_of_change ~k ~p -. a) < 1e-6 *. a)

let prop_performance_decreasing =
  QCheck.Test.make ~name:"eq1 decreasing in a" ~count:300
    QCheck.(triple (float_range 1e-4 0.05) (float_range 1. 500.) (float_range 1. 100.))
    (fun (k, a, delta) ->
      Wmm_core.Sensitivity.performance ~k ~a
      >= Wmm_core.Sensitivity.performance ~k ~a:(a +. delta))

let test_fit_k_on_model () =
  let xs = Array.init 10 (fun i -> float_of_int (1 lsl i)) in
  let ys = Array.map (fun a -> Wmm_core.Sensitivity.performance ~k:0.0087 ~a) xs in
  let fit = Wmm_core.Sensitivity.fit_k ~xs ~ys in
  Alcotest.(check bool) "k recovered" true
    (abs_float (fit.Wmm_core.Sensitivity.k -. 0.0087) < 1e-5);
  Alcotest.(check bool) "well suited" true (Wmm_core.Sensitivity.well_suited fit)

let suite =
  [
    Alcotest.test_case "fit with noise" `Quick test_fit_with_noise_recovers;
    Alcotest.test_case "fit rejects mismatch" `Quick test_fit_rejects_mismatched;
    Alcotest.test_case "huber fit resists outlier" `Quick test_huber_resists_outlier;
    Alcotest.test_case "huber fit matches on clean data" `Quick
      test_huber_matches_on_clean_data;
    Alcotest.test_case "eq1 baseline" `Quick test_eq1_baseline;
    Alcotest.test_case "eq2 known value" `Quick test_eq2_known;
    QCheck_alcotest.to_alcotest prop_eq2_inverts_eq1;
    QCheck_alcotest.to_alcotest prop_performance_decreasing;
    Alcotest.test_case "fit_k on exact model" `Quick test_fit_k_on_model;
  ]
