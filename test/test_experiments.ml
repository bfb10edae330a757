(* Smoke tests for the experiment modules: every figure/table report
   must run and produce plausible output.  WMM_FAST is set so the
   whole set completes quickly. *)

let () = Unix.putenv "WMM_FAST" "1"

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_report name f fragments () =
  let report = f () in
  Alcotest.(check bool) (name ^ " non-empty") true (String.length report > 100);
  List.iter
    (fun fragment ->
      if not (contains report fragment) then
        Alcotest.failf "%s: missing fragment %S in report" name fragment)
    fragments

let test_fig1 =
  check_report "fig1" Wmm_experiments.Fig1.report [ "k=0.00277"; "measured: k=" ]

let test_fig1_fit_close () =
  let points = Wmm_experiments.Fig1.generate () in
  let xs = Array.of_list (List.map fst points) in
  let ys = Array.of_list (List.map snd points) in
  let fit = Wmm_core.Sensitivity.fit_k ~xs ~ys in
  Alcotest.(check bool) "within 10% of the paper's k" true
    (abs_float (fit.Wmm_core.Sensitivity.k -. 0.00277) /. 0.00277 < 0.1)

let test_fig2_3 =
  check_report "fig2_3" Wmm_experiments.Fig2_3.report
    [ "stp x9, xzr, [sp, #-16]!"; "std r11, -8, r1"; "cmpwi cr7, r11, 0" ]

let test_fig4 =
  check_report "fig4" Wmm_experiments.Fig4.report [ "arm"; "power"; "1024" ]

let test_fig4_shapes () =
  let series = Wmm_experiments.Fig4.series () in
  let arm = List.assoc "arm" series in
  let nostack = List.assoc "arm-nostack" series in
  (* Light variant no slower anywhere; both linear at the top end. *)
  List.iter2
    (fun (n, t) (n', t') ->
      Alcotest.(check int) "aligned" n n';
      Alcotest.(check bool) "nostack <= stack" true (t' <= t +. 1e-9))
    arm nostack

let suite =
  [
    Alcotest.test_case "fig1 report" `Quick test_fig1;
    Alcotest.test_case "fig1 fit accuracy" `Quick test_fig1_fit_close;
    Alcotest.test_case "fig2_3 report" `Quick test_fig2_3;
    Alcotest.test_case "fig4 report" `Quick test_fig4;
    Alcotest.test_case "fig4 series shape" `Quick test_fig4_shapes;
  ]

(* The heavyweight figure reports (5-10 and the tables) are exercised
   by `wmm_bench figure`; here we only smoke-test them under WMM_FAST
   when explicitly requested. *)
let slow_suite =
  [
    Alcotest.test_case "fig5 report (fast)" `Slow
      (check_report "fig5" Wmm_experiments.Fig5.report [ "spark"; "fitted k" ]);
    Alcotest.test_case "fig6 report (fast)" `Slow
      (check_report "fig6" Wmm_experiments.Fig6.report [ "StoreStore" ]);
    Alcotest.test_case "rankings report (fast)" `Slow
      (check_report "rankings" Wmm_experiments.Rankings.report [ "smp_mb"; "netperf" ]);
    Alcotest.test_case "rbd report (fast)" `Slow
      (check_report "rbd" Wmm_experiments.Rbd.report [ "read_barrier_depends"; "ctrl+isb" ]);
  ]
