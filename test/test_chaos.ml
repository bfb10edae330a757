(* The chaos harness, end to end: a small seeded run against the real
   wmm_bench binary must survive a kill -9, a cache corruption, a
   mid-stream disconnect and a deadline probe with verdicts identical
   to the pristine in-process computation and every fault accounted
   for.  Schedule determinism across runs with the same seed is
   checked structurally here and byte-for-byte by the CI smoke (two
   full runs, diffed). *)

let () = Unix.putenv "WMM_FAST" "1"

open Wmm_chaos

(* The bench binary is declared as a dune dependency and sits one
   directory over from this test executable inside _build; resolving
   relative to the executable works from any cwd. *)
let bin =
  match Sys.getenv_opt "WMM_BENCH_BIN" with
  | Some p -> p
  | None ->
      let build_root = Filename.dirname (Filename.dirname Sys.executable_name) in
      Filename.concat (Filename.concat build_root "bin") "wmm_bench.exe"

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wmm_chaos_test_%d_%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Fun.protect ~finally:(fun () -> Wmm_util.Fs.rm_rf dir) (fun () -> f dir)

let small_config dir =
  {
    (Chaos.default_config ~bin ~dir) with
    Chaos.seed = 1234;
    battery_limit = 4;
    kills = 1;
    corruptions = 1;
    disconnects = 1;
    deadline_probes = 1;
  }

let test_small_chaos_run () =
  if not (Sys.file_exists bin) then
    Alcotest.failf "wmm_bench binary not found at %s (cwd %s)" bin (Sys.getcwd ());
  with_temp_dir (fun dir ->
      let report = Chaos.run (small_config dir) in
      if not (Chaos.ok report) then
        Alcotest.failf "chaos run failed:\n%s" (Chaos.render report);
      Alcotest.(check (list (pair string string))) "no verdict mismatches" []
        report.Chaos.r_mismatches;
      Alcotest.(check (list string)) "no accounting failures" []
        report.Chaos.r_failures;
      Alcotest.(check int) "battery capped" 4 report.Chaos.r_battery;
      Alcotest.(check bool) "verdict lines cover the battery" true
        (List.length report.Chaos.r_verdicts >= report.Chaos.r_battery);
      List.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "verdict line shape: %s" line)
            true
            (String.length line > 8 && String.sub line 0 8 = "verdict|"))
        report.Chaos.r_verdicts;
      (* Every scheduled fault ran and left evidence. *)
      Alcotest.(check int) "kill executed" 1 report.Chaos.r_kills;
      Alcotest.(check int) "corruption executed" 1 report.Chaos.r_corruptions;
      Alcotest.(check int) "disconnect executed" 1 report.Chaos.r_disconnects;
      Alcotest.(check int) "torn append injected" 1 report.Chaos.r_torn_appends;
      Alcotest.(check int) "deadline probe answered deadline_exceeded"
        report.Chaos.r_deadline_probes report.Chaos.r_deadline_hits;
      Alcotest.(check bool) "quarantined .corrupt evidence on disk" true
        (report.Chaos.r_corrupt_files >= 1);
      Alcotest.(check bool) "kill forced client reconnects" true
        (report.Chaos.r_client_reconnects >= 1);
      Alcotest.(check bool) "final journal fsck found the torn line" true
        (report.Chaos.r_journal_fsck.Wmm_engine.Journal.j_torn >= 1))

let test_schedule_determinism () =
  (* The fault schedule and verdict section are pure functions of the
     seed: two runs with the same config must produce byte-identical
     verdict lists and identical fault counts.  (This is the slow,
     real-daemon version of the property; CI diffs the rendered
     output of two CLI runs the same way.) *)
  if not (Sys.file_exists bin) then
    Alcotest.failf "wmm_bench binary not found at %s" bin;
  let one () = with_temp_dir (fun dir -> Chaos.run (small_config dir)) in
  let a = one () and b = one () in
  if not (Chaos.ok a) then Alcotest.failf "first run failed:\n%s" (Chaos.render a);
  if not (Chaos.ok b) then Alcotest.failf "second run failed:\n%s" (Chaos.render b);
  Alcotest.(check (list string)) "verdict lines byte-identical across runs"
    a.Chaos.r_verdicts b.Chaos.r_verdicts;
  Alcotest.(check (list int)) "fault schedule identical across runs"
    [ a.Chaos.r_kills; a.Chaos.r_corruptions; a.Chaos.r_disconnects;
      a.Chaos.r_torn_appends; a.Chaos.r_deadline_probes ]
    [ b.Chaos.r_kills; b.Chaos.r_corruptions; b.Chaos.r_disconnects;
      b.Chaos.r_torn_appends; b.Chaos.r_deadline_probes ]

let suite =
  [
    Alcotest.test_case "small end-to-end chaos run" `Slow test_small_chaos_run;
    Alcotest.test_case "schedule deterministic across runs" `Slow
      test_schedule_determinism;
  ]
