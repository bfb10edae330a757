(* The experiment modules: every figure/table report must reproduce its
   fast-mode golden byte for byte.  WMM_FAST is set so the whole set
   completes quickly. *)

let () = Unix.putenv "WMM_FAST" "1"

open Wmm_experiments

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let golden_path path =
  if Sys.file_exists path then path else Filename.concat "test" path

(* The report that `WMM_FAST=1 wmm_bench figure ID --no-cache` prints.
   Its golden, test/data/figure_fast_ID.txt, is that stdout, so the
   newline [print_endline] adds is dropped.  fig5's golden is the
   benchmark ladder's copy, which is stored without it. *)
let expected_report id =
  if id = "fig5" then
    Test_cert.read_file (golden_path "../bench/ladder/expected/fig5_fast.txt")
  else
    let text = Test_cert.read_file (golden_path ("data/figure_fast_" ^ id ^ ".txt")) in
    String.sub text 0 (String.length text - 1)

let check_report id report () =
  Alcotest.(check string) (id ^ " report equals its golden") (expected_report id) (report ())

let test_fig1 = check_report "fig1" Fig1.report

let test_fig1_fit_close () =
  let points = Fig1.generate () in
  let xs = Array.of_list (List.map fst points) in
  let ys = Array.of_list (List.map snd points) in
  let fit = Wmm_core.Sensitivity.fit_k ~xs ~ys in
  Alcotest.(check bool) "within 10% of the paper's k" true
    (abs_float (fit.Wmm_core.Sensitivity.k -. 0.00277) /. 0.00277 < 0.1)

let test_fig2_3 = check_report "fig2_3" Fig2_3.report
let test_fig4 = check_report "fig4" Fig4.report

let test_fig4_shapes () =
  let series = Fig4.series () in
  let arm = List.assoc "arm" series in
  let nostack = List.assoc "arm-nostack" series in
  (* Light variant no slower anywhere; both linear at the top end. *)
  List.iter2
    (fun (n, t) (n', t') ->
      Alcotest.(check int) "aligned" n n';
      Alcotest.(check bool) "nostack <= stack" true (t' <= t +. 1e-9))
    arm nostack

let fault_plan spec =
  match Wmm_engine.Fault.parse spec with Ok p -> p | Error e -> Alcotest.fail e

(* Every sample task fails (an injected transient failure on each
   attempt, and no retries): each engine-backed report must still
   render, marking its cells failed or its fits degraded, instead of
   raising.  No sample simulates, so this is quick. *)
let test_all_samples_failed () =
  Wmm_engine.Fault.with_ambient (fault_plan "seed=1,transient=1x5") (fun () ->
      List.iter
        (fun (id, report, marker) ->
          let engine = Wmm_engine.Engine.create ~retries:0 ~backoff_s:0. () in
          let text =
            try report engine
            with e -> Alcotest.failf "%s raised %s" id (Printexc.to_string e)
          in
          let s = Wmm_engine.Engine.summary engine in
          Alcotest.(check bool) (id ^ ": every task failed") true
            (s.Wmm_engine.Telemetry.total > 0
            && s.Wmm_engine.Telemetry.failed = s.Wmm_engine.Telemetry.total);
          if not (contains text marker) then
            Alcotest.failf "%s: no %S cell in the all-failed report" id marker)
        [
          ("fig5", (fun engine -> Fig5.report ~engine ()), "degraded");
          ("fig6", (fun engine -> Fig6.report ~engine ()), "(no fit: insufficient points)");
          ("rankings", (fun engine -> Rankings.report ~engine ()), "failed: ");
          ("rbd", (fun engine -> Rbd.report ~engine ()), "failed: ");
          ("jvm_tables", (fun engine -> Jvm_tables.report ~engine ()), "failed: ");
        ])

let suite =
  [
    Alcotest.test_case "fig1 report" `Quick test_fig1;
    Alcotest.test_case "fig1 fit accuracy" `Quick test_fig1_fit_close;
    Alcotest.test_case "fig2_3 report" `Quick test_fig2_3;
    Alcotest.test_case "fig4 report" `Quick test_fig4;
    Alcotest.test_case "fig4 series shape" `Quick test_fig4_shapes;
    Alcotest.test_case "all samples failed: reports degrade" `Quick test_all_samples_failed;
  ]

(* The heavyweight figure reports, under WMM_FAST.  Counters and the
   optimizer are checked against their goldens by the CI figure step. *)
let slow_suite =
  [
    Alcotest.test_case "fig5 report (fast)" `Slow (check_report "fig5" Fig5.report);
    Alcotest.test_case "fig6 report (fast)" `Slow (check_report "fig6" Fig6.report);
    Alcotest.test_case "rankings report (fast)" `Slow
      (check_report "rankings" Rankings.report);
    Alcotest.test_case "rbd report (fast)" `Slow (check_report "rbd" Rbd.report);
    Alcotest.test_case "jvm_tables report (fast, 2 jobs)" `Slow
      (check_report "jvm_tables" (fun () ->
           Jvm_tables.report ~engine:(Wmm_engine.Engine.create ~jobs:2 ()) ()));
    (* `figure fig5 --robust-fit --inject-faults 'seed=2,outlier=0.05x10'`:
       the Huber fit on outlier-corrupted sweeps, pinned byte for byte. *)
    Alcotest.test_case "fig5 report (fast, robust, outliers)" `Slow
      (check_report "fig5_robust" (fun () ->
           Wmm_engine.Fault.with_ambient (fault_plan "seed=2,outlier=0.05x10") (fun () ->
               Fig5.report ~robust:true ())));
  ]
