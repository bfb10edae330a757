(* The execution engine: scheduling determinism, cache behaviour,
   crash isolation, telemetry. *)

let () = Unix.putenv "WMM_FAST" "1"

open Wmm_engine
open Wmm_core
open Wmm_experiments

let arch = Wmm_isa.Arch.Armv8

(* A deliberately tiny benchmark so each engine test runs in
   milliseconds. *)
let profile =
  { Wmm_workload.Dacapo.spark with Wmm_workload.Profile.threads = 2; units_per_thread = 30 }

let small_sweep engine =
  Experiment.run ~engine (fun batch ->
      Experiment.sweep_deferred batch ~samples:2 ~light:true ~iteration_counts:[ 4; 32 ]
        ~code_path:"engine test" ~base:(Exp_common.jvm_nop_base arch)
        ~inject:(fun cf ->
          Exp_common.jvm_platform ~inject_all:[ Wmm_costfn.Cost_function.uop cf ] arch)
        profile)

(* The reference procedure, written out directly: summarise each
   platform's raw samples, normalise every point against the base, fit
   eq. 1.  The engine path must reproduce it exactly. *)
let direct_sweep () =
  let summary platform =
    Wmm_util.Stats.summarise (Experiment.performance_values ~samples:2 profile platform)
  in
  let base = summary (Exp_common.jvm_nop_base arch) in
  let points =
    List.map
      (fun n ->
        let cf = Wmm_costfn.Cost_function.make ~light:true arch n in
        let test =
          summary
            (Exp_common.jvm_platform ~inject_all:[ Wmm_costfn.Cost_function.uop cf ] arch)
        in
        {
          Experiment.iterations = n;
          cost_ns = Wmm_costfn.Cost_function.standalone_ns cf;
          relative = Wmm_util.Stats.ratio_summary ~test ~base;
        })
      [ 4; 32 ]
  in
  let xs = Array.of_list (List.map (fun p -> p.Experiment.cost_ns) points) in
  let ys =
    Array.of_list (List.map (fun p -> p.Experiment.relative.Wmm_util.Stats.gmean) points)
  in
  {
    Experiment.benchmark = profile.Wmm_workload.Profile.name;
    arch;
    code_path = "engine test";
    points;
    dropped = 0;
    fit = Sensitivity.fit_k ~xs ~ys;
  }

let test_sequential_vs_parallel () =
  let seq = small_sweep (Engine.create ~jobs:1 ()) in
  let par = small_sweep (Engine.create ~jobs:4 ()) in
  Alcotest.(check bool) "jobs=4 sweep structurally equal to jobs=1" true (seq = par);
  Alcotest.(check bool) "deferred sweep equals direct sweep" true (seq = direct_sweep ())

let with_temp_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wmm_engine_test_%d_%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  Fun.protect
    ~finally:(fun () -> Wmm_util.Fs.rm_rf dir)
    (fun () -> f dir)

let test_cache_hit_on_second_run () =
  with_temp_cache (fun dir ->
      let first_engine = Engine.create ~jobs:1 ~cache:(Cache.create ~dir ()) () in
      let first = small_sweep first_engine in
      let s1 = Engine.summary first_engine in
      Alcotest.(check int) "first run computes everything" 0 s1.Telemetry.cached;
      Alcotest.(check bool) "first run stores results" true
        ((Cache.stats (Engine.cache first_engine)).Cache.stores > 0);
      let second_engine = Engine.create ~jobs:2 ~cache:(Cache.create ~dir ()) () in
      let second = small_sweep second_engine in
      let s2 = Engine.summary second_engine in
      Alcotest.(check int) "second run fully cached" s2.Telemetry.total
        s2.Telemetry.cached;
      Alcotest.(check int) "second run computes nothing" 0 s2.Telemetry.ran;
      Alcotest.(check bool) "cached result identical" true (first = second))

let test_failed_task_isolation () =
  let engine = Engine.create ~jobs:2 () in
  let tasks =
    [|
      Task.pure ~key:"ok-1" (fun () -> 1);
      Task.pure ~key:"boom" (fun () -> failwith "boom");
      Task.pure ~key:"ok-3" (fun () -> 3);
    |]
  in
  let results = Engine.run_all engine tasks in
  (match results.(0) with
  | Engine.Computed 1 -> ()
  | _ -> Alcotest.fail "task 0 should compute 1");
  (match results.(1) with
  | Engine.Failed msg ->
      Alcotest.(check bool) "failure message recorded" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "task 1 should fail");
  (match results.(2) with
  | Engine.Computed 3 -> ()
  | _ -> Alcotest.fail "task 2 should compute 3");
  let s = Engine.summary engine in
  Alcotest.(check int) "one failure in telemetry" 1 s.Telemetry.failed;
  Alcotest.(check int) "two tasks ran" 2 s.Telemetry.ran

let test_batch_dedupes_equal_keys () =
  let engine = Engine.create ~jobs:2 () in
  let batch = Engine.Batch.create () in
  let get_a = Engine.Batch.add batch (Task.pure ~key:"shared" (fun () -> 7)) in
  let get_b = Engine.Batch.add batch (Task.pure ~key:"shared" (fun () -> 7)) in
  Engine.Batch.run engine batch;
  Alcotest.(check int) "deduplicated to one task" 1 (Engine.summary engine).Telemetry.total;
  Alcotest.(check int) "both getters see the value" 14
    (Engine.get (get_a ()) + Engine.get (get_b ()))

let test_task_rng_deterministic () =
  let a = Task.rng_for "some/task/key" in
  let b = Task.rng_for "some/task/key" in
  let c = Task.rng_for "other/key" in
  Alcotest.(check int64) "same key, same stream" (Wmm_util.Rng.int64 a)
    (Wmm_util.Rng.int64 b);
  Alcotest.(check bool) "different keys decorrelated" true
    (List.init 8 (fun _ -> Wmm_util.Rng.int64 a)
    <> List.init 8 (fun _ -> Wmm_util.Rng.int64 c))

(* The served [stats] op's counter names, which the benchmark ladder,
   the chaos harness and CI read. *)
let stats_counter_names =
  [
    "requests"; "ok"; "request_errors"; "overloaded"; "computed"; "cache_hits";
    "journal_hits"; "dedup_joined"; "streamed_items"; "clients"; "hit_wall_total_us";
    "hit_wall_max_us"; "compute_wall_total_us"; "compute_wall_max_us"; "max_pending";
    "max_client_queue"; "deadline_exceeded"; "executor_recycles"; "client_retries";
  ]

let test_telemetry_json () =
  Alcotest.(check int) "telemetry schema version" 8 Telemetry.schema_version;
  let engine = Engine.create ~jobs:1 () in
  ignore (Engine.run_all engine [| Task.pure ~key:"t" (fun () -> ()) |]);
  Engine.set_exploration engine
    {
      Telemetry.explored = 42;
      pruned = 7;
      consistent = 17;
      revisits = 3;
      symmetry_skips = 2;
      explore_wall_s = 0.5;
    };
  let path = Filename.temp_file "wmm_telemetry" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Engine.write_telemetry engine path;
      let ic = open_in path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      List.iter
        (fun needle ->
          let found =
            let n = String.length needle and h = String.length body in
            let rec go i = i + n <= h && (String.sub body i n = needle || go (i + 1)) in
            go 0
          in
          if not found then Alcotest.failf "telemetry JSON missing %S" needle)
        [
          Printf.sprintf "\"schema_version\": %d" Telemetry.schema_version;
          "\"tasks_total\": 1";
          "\"tasks_ran\": 1";
          "\"cache\"";
          "\"outcome\": \"ran\"";
          "\"exploration\": {\"explored\": 42, \"pruned\": 7, \"consistent\": 17, \
           \"revisits\": 3, \"symmetry_skips\": 2,";
        ];
      let parse () =
        match Wmm_util.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
        | Ok v -> v
        | Error e -> Alcotest.failf "telemetry dump does not parse: %s" e
      in
      let dump = parse () in
      Alcotest.(check (option int)) "parsed schema version" (Some 8)
        (Wmm_util.Json.int_member "schema_version" dump);
      Alcotest.(check bool) "no server object without a daemon" true
        (Wmm_util.Json.member "server" dump = Some Wmm_util.Json.Null);
      let sv = Telemetry.create_server () in
      sv.Telemetry.requests <- 3;
      sv.Telemetry.hit_wall_max_s <- 0.25;
      Engine.set_server engine sv;
      Engine.write_telemetry engine path;
      match Wmm_util.Json.member "server" (parse ()) with
      | Some (Wmm_util.Json.Obj fields as server) ->
          Alcotest.(check (list string)) "server keys are the stats counters"
            stats_counter_names (List.map fst fields);
          Alcotest.(check (option int)) "counts carried" (Some 3)
            (Wmm_util.Json.int_member "requests" server);
          Alcotest.(check (option int)) "latency in whole microseconds" (Some 250_000)
            (Wmm_util.Json.int_member "hit_wall_max_us" server)
      | _ -> Alcotest.fail "server object missing after set_server")

(* ------------------------------------------------------------------ *)
(* Resilience: fault injection, retry recovery, checkpoint/resume,
   cache corruption, robust fitting.                                   *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  if not (contains hay needle) then Alcotest.failf "%s missing %S" what needle

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wmm_resilience_%d_%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Wmm_util.Fs.rm_rf dir) (fun () -> f dir)

let plan spec =
  match Fault.parse spec with
  | Ok p -> p
  | Error m -> Alcotest.failf "fault plan %S rejected: %s" spec m

let test_fault_plan_parse () =
  let p = plan "seed=7,transient=0.3x2,outlier=0.05x10,corrupt=0.1" in
  (match Fault.parse (Fault.to_string p) with
  | Ok p' -> Alcotest.(check string) "round trip" (Fault.to_string p) (Fault.to_string p')
  | Error m -> Alcotest.failf "canonical spec rejected: %s" m);
  Alcotest.(check bool) "none is none" true (Fault.is_none Fault.none);
  Alcotest.(check string) "none fingerprint empty" "" (Fault.fingerprint Fault.none);
  (match Fault.parse "transient=1.5" with
  | Ok _ -> Alcotest.fail "probability > 1 accepted"
  | Error _ -> ());
  (match Fault.parse "bogus=1" with
  | Ok _ -> Alcotest.fail "unknown fault kind accepted"
  | Error _ -> ());
  (* Decisions are pure functions of (plan, key, index). *)
  let always = plan "transient=1x1" in
  Alcotest.(check bool) "p=1 fails the first attempt" true
    (Fault.should_fail always ~key:"k" ~attempt:0);
  Alcotest.(check bool) "p=1 recovers after K attempts" false
    (Fault.should_fail always ~key:"k" ~attempt:1);
  Alcotest.(check bool) "none never fails" false
    (Fault.should_fail Fault.none ~key:"k" ~attempt:0);
  Alcotest.(check bool) "decision deterministic"
    (Fault.should_fail p ~key:"some/task" ~attempt:0)
    (Fault.should_fail p ~key:"some/task" ~attempt:0);
  let samples = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check bool) "no outlier plan leaves samples alone" true
    (Fault.perturb_samples always ~key:"k" samples == samples);
  Alcotest.(check bool) "perturbation deterministic" true
    (Fault.perturb_samples p ~key:"k" samples = Fault.perturb_samples p ~key:"k" samples)

let test_retry_recovers_bit_identical () =
  let clean = small_sweep (Engine.create ~jobs:1 ()) in
  let p = plan "seed=3,transient=1x2" in
  (* Every task fails its first two attempts; a retry budget of 2
     (three attempts) recovers the whole sweep, and because sample
     tasks are pure functions of their request the recovered sweep is
     bit-identical to the fault-free one. *)
  let recovered =
    Fault.with_ambient p (fun () ->
        let engine = Engine.create ~jobs:2 ~retries:2 ~backoff_s:0. () in
        let sweep = small_sweep engine in
        let s = Engine.summary engine in
        Alcotest.(check int) "no permanent failures" 0 s.Telemetry.failed;
        Alcotest.(check int) "every task needed retries" s.Telemetry.total
          s.Telemetry.retried;
        sweep)
  in
  Alcotest.(check bool) "recovered sweep bit-identical to clean run" true
    (clean = recovered)

let test_retry_budget_exhaustion_degrades () =
  (* Three injected failures against a budget of two retries: every
     task settles as Failed, and the sweep degrades (dropped points,
     unavailable fit) instead of aborting. *)
  let p = plan "seed=3,transient=1x3" in
  Fault.with_ambient p (fun () ->
      let engine = Engine.create ~jobs:2 ~retries:1 ~backoff_s:0. () in
      let sweep = small_sweep engine in
      let s = Engine.summary engine in
      Alcotest.(check int) "all tasks failed" s.Telemetry.total s.Telemetry.failed;
      Alcotest.(check int) "no surviving points" 0 (List.length sweep.Experiment.points);
      Alcotest.(check int) "dropped points reported" 2 sweep.Experiment.dropped;
      Alcotest.(check bool) "fit reported unavailable" false
        (Sensitivity.available sweep.Experiment.fit))

let test_deadline_overrun_not_stored () =
  with_temp_dir (fun dir ->
      let journal_dir = Filename.concat dir "journal" in
      let cache = Cache.create ~dir () in
      let journal = Journal.open_ ~dir:journal_dir ~run_id:"deadline" () in
      let engine = Engine.create ~jobs:1 ~cache ~soft_deadline_s:0. ~journal () in
      let task =
        Task.pure ~key:"sleepy" (fun () ->
            Unix.sleepf 0.01;
            42)
      in
      (match Engine.run engine task with
      | Engine.Failed msg ->
          Alcotest.(check bool) "overrun message recorded" true (String.length msg > 0)
      | _ -> Alcotest.fail "overrun task should be Failed");
      (* The overrun result must be discarded, not persisted: neither
         cache-stored nor journaled for replay. *)
      Alcotest.(check int) "nothing stored in cache" 0 (Cache.stats cache).Cache.stores;
      Alcotest.(check (option int)) "cache lookup misses" None
        (Cache.find cache ~key:"sleepy");
      let reopened = Journal.open_ ~dir:journal_dir ~run_id:"deadline" () in
      Alcotest.(check int) "nothing replayable in journal" 0 (Journal.loaded reopened))

let test_journal_resume_recomputes_only_missing () =
  with_temp_dir (fun dir ->
      let t n = Task.pure ~key:("jr-" ^ n) (fun () -> String.length n) in
      (* First (interrupted) run completes two of four tasks. *)
      let j1 = Journal.open_ ~dir ~run_id:"resume test/01" () in
      let e1 = Engine.create ~jobs:1 ~journal:j1 () in
      ignore (Engine.run_all e1 [| t "a"; t "bb" |]);
      (* The rerun replays those and computes only the remainder. *)
      let j2 = Journal.open_ ~dir ~run_id:"resume test/01" () in
      Alcotest.(check int) "two completed tasks on file" 2 (Journal.loaded j2);
      Alcotest.(check string) "run id survives sanitisation" (Journal.run_id j1)
        (Journal.run_id j2);
      let e2 = Engine.create ~jobs:2 ~journal:j2 () in
      let results = Engine.run_all e2 [| t "a"; t "bb"; t "ccc"; t "dddd" |] in
      (match (results.(0), results.(1)) with
      | Engine.Replayed 1, Engine.Replayed 2 -> ()
      | _ -> Alcotest.fail "journaled tasks should be replayed");
      (match (results.(2), results.(3)) with
      | Engine.Computed 3, Engine.Computed 4 -> ()
      | _ -> Alcotest.fail "unjournaled tasks should be computed");
      let s = Engine.summary e2 in
      Alcotest.(check int) "two tasks replayed" 2 s.Telemetry.replayed;
      Alcotest.(check int) "only the missing two ran" 2 s.Telemetry.ran)

let test_journal_skips_failed_and_torn_entries () =
  with_temp_dir (fun dir ->
      let j = Journal.open_ ~dir ~run_id:"torn" () in
      Journal.record_ok j ~key:"good" 7;
      Journal.record_failed j ~key:"bad" ~msg:"flaky crash";
      (* A foreign writer (or a pre-rename crash of an older format)
         leaves a torn line behind; load must skip it. *)
      let oc = open_out_gen [ Open_append ] 0o644 (Journal.path j) in
      output_string oc "{\"key\": \"torn";
      close_out oc;
      let reopened = Journal.open_ ~dir ~run_id:"torn" () in
      Alcotest.(check int) "only the ok entry is replayable" 1 (Journal.loaded reopened);
      Alcotest.(check (option int)) "ok entry replays" (Some 7)
        (Journal.replay reopened ~key:"good");
      Alcotest.(check (option int)) "failed entry never replays" None
        (Journal.replay reopened ~key:"bad");
      (* The next writer starts a fresh line: its record must not be
         swallowed by the torn fragment. *)
      Journal.record_ok reopened ~key:"after" 8;
      Journal.close reopened;
      let again = Journal.open_ ~dir ~run_id:"torn" () in
      Alcotest.(check int) "the record after the torn line replays" 2 (Journal.loaded again);
      Alcotest.(check (option int)) "its value is intact" (Some 8)
        (Journal.replay again ~key:"after");
      Alcotest.(check int) "only the torn line is dropped" 1 (Journal.dropped again))

(* The journal's on-disk format, pinned byte for byte: a key and a
   message holding a quote, a backslash, a newline and a control byte
   are escaped exactly so, and read back intact. *)
let test_journal_line_bytes () =
  with_temp_dir (fun dir ->
      let key = "k\"ey\\with\nnewline\001end" in
      let j = Journal.open_ ~dir ~run_id:"escapes" () in
      Journal.record_ok j ~key (42, "forty-two");
      Journal.record_failed j ~key ~msg:"boom \"quoted\"\n\001";
      Journal.close j;
      Alcotest.(check string) "journal bytes"
        "{\"key\": \"k\\\"ey\\\\with\\nnewline\\u0001end\", \"status\": \"ok\", \
         \"digest\": \"93f282b064d67425ef6b6ff8b44f7b8d\", \"value\": \
         \"8495a6be0000000c000000020000000700000006a06a29666f7274792d74776f\"}\n\
         {\"key\": \"k\\\"ey\\\\with\\nnewline\\u0001end\", \"status\": \"failed\", \
         \"msg\": \"boom \\\"quoted\\\"\\n\\u0001\"}\n"
        (read_file (Journal.path j));
      let reopened = Journal.open_ ~dir ~run_id:"escapes" () in
      Alcotest.(check int) "one replayable entry" 1 (Journal.loaded reopened);
      Alcotest.(check int) "nothing dropped" 0 (Journal.dropped reopened);
      Alcotest.(check (option (pair int string))) "value replays under the key"
        (Some (42, "forty-two")) (Journal.replay reopened ~key);
      (* An ok line without a digest cannot be verified: it is dropped. *)
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 (Journal.path j)
        (fun oc ->
          output_string oc
            (Printf.sprintf "{\"key\": \"bare\", \"status\": \"ok\", \"value\": \"%s\"}\n"
               (Journal.hex_encode (Marshal.to_string 5 []))));
      let again = Journal.open_ ~dir ~run_id:"escapes" () in
      Alcotest.(check int) "digest-less line dropped" 1 (Journal.dropped again);
      Alcotest.(check (option int)) "and never replayed" None (Journal.replay again ~key:"bare"))

let test_journal_hex_codec () =
  (* Every byte value encodes exactly as "%02x" did, and decodes back,
     in either case. *)
  let all = String.init 256 Char.chr in
  let printf_hex =
    String.concat "" (List.init 256 (fun c -> Printf.sprintf "%02x" c))
  in
  Alcotest.(check string) "encoding matches %02x" printf_hex (Journal.hex_encode all);
  Alcotest.(check string) "lowercase decodes" all (Journal.hex_decode printf_hex);
  Alcotest.(check string) "uppercase decodes" all
    (Journal.hex_decode (String.uppercase_ascii printf_hex));
  Alcotest.(check string) "empty" "" (Journal.hex_decode (Journal.hex_encode ""));
  List.iter
    (fun bad ->
      match Journal.hex_decode bad with
      | _ -> Alcotest.failf "malformed hex %S accepted" bad
      | exception Failure _ -> ())
    [ "0"; "abc"; "0g"; "g0"; "zz"; " 1"; "_f"; "0x"; "-1"; "ff\n" ]

let test_journal_append_two_concurrent_writers () =
  with_temp_dir (fun dir ->
      (* Two long-lived writers (the served daemon's shape: one
         handle per incarnation, O_APPEND fd, one write per record)
         interleave appends into the same run's journal.
         Every record must survive whole - no interleaved or torn
         lines. *)
      let n = 100 in
      let writer tag =
        let j = Journal.open_ ~dir ~run_id:"two writers" () in
        for i = 0 to n - 1 do
          Journal.record_ok j ~key:(Printf.sprintf "%s-%d" tag i) (i * 2);
          if i mod 7 = 0 then Thread.yield ()
        done;
        Journal.close j
      in
      let ta = Thread.create writer "a" and tb = Thread.create writer "b" in
      Thread.join ta;
      Thread.join tb;
      let reopened = Journal.open_ ~dir ~run_id:"two writers" () in
      Alcotest.(check int) "every record from both writers replayable" (2 * n)
        (Journal.loaded reopened);
      Alcotest.(check int) "no torn or interleaved lines" 0 (Journal.dropped reopened);
      Alcotest.(check (option int)) "writer a's payloads intact" (Some 66)
        (Journal.replay reopened ~key:"a-33");
      Alcotest.(check (option int)) "writer b's payloads intact" (Some 198)
        (Journal.replay reopened ~key:(Printf.sprintf "b-%d" (n - 1)));
      (* fsck agrees: nothing torn, nothing to compact. *)
      let r = Journal.fsck ~dir ~run_id:"two writers" () in
      Alcotest.(check int) "fsck sees every line" (2 * n) r.Journal.j_lines;
      Alcotest.(check int) "fsck finds no torn lines" 0 r.Journal.j_torn;
      Alcotest.(check bool) "fsck compacts nothing" false r.Journal.j_compacted)

let test_journal_fsck_compacts_damage () =
  with_temp_dir (fun dir ->
      let j = Journal.open_ ~dir ~run_id:"fsck" () in
      Journal.record_ok j ~key:"dup" 1;
      Journal.record_failed j ~key:"orphan" ~msg:"transient crash";
      Journal.record_ok j ~key:"dup" 2;
      (* duplicate: the rerun recomputed *)
      Journal.record_ok j ~key:"orphan" 3;
      (* supersedes the failure *)
      Journal.record_failed j ~key:"dead" ~msg:"permanent";
      Journal.close j;
      (* A crash mid-append tears the final line. *)
      let oc = open_out_gen [ Open_append ] 0o644 (Journal.path j) in
      output_string oc {|{"key": "torn|};
      close_out oc;
      let r = Journal.fsck ~dir ~run_id:"fsck" () in
      Alcotest.(check int) "all physical lines scanned" 6 r.Journal.j_lines;
      Alcotest.(check int) "ok records counted" 3 r.Journal.j_ok;
      Alcotest.(check int) "failed records counted" 2 r.Journal.j_failed;
      Alcotest.(check int) "torn line found" 1 r.Journal.j_torn;
      Alcotest.(check int) "duplicate found" 1 r.Journal.j_duplicates;
      Alcotest.(check int) "orphaned failure found" 1 r.Journal.j_orphans;
      Alcotest.(check int) "compacted to last-ok per key + live failures" 3
        r.Journal.j_kept;
      Alcotest.(check bool) "file rewritten" true r.Journal.j_compacted;
      (* The compacted journal loads clean and keeps the right records. *)
      let reopened = Journal.open_ ~dir ~run_id:"fsck" () in
      Alcotest.(check int) "two replayable entries" 2 (Journal.loaded reopened);
      Alcotest.(check int) "nothing dropped after compaction" 0
        (Journal.dropped reopened);
      Alcotest.(check (option int)) "duplicate resolved to the last record" (Some 2)
        (Journal.replay reopened ~key:"dup");
      Alcotest.(check (option int)) "superseding ok replays" (Some 3)
        (Journal.replay reopened ~key:"orphan");
      Alcotest.(check (option int)) "failure still never replays" None
        (Journal.replay reopened ~key:"dead");
      (* Idempotent: a second pass finds a clean file. *)
      let r2 = Journal.fsck ~dir ~run_id:"fsck" () in
      Alcotest.(check bool) "second fsck compacts nothing" false
        r2.Journal.j_compacted;
      Alcotest.(check int) "second fsck keeps the same lines" 3 r2.Journal.j_lines)

let count_corrupt_files dir =
  let rec go d =
    Array.to_list (Sys.readdir d)
    |> List.fold_left
         (fun acc f ->
           let p = Filename.concat d f in
           if Sys.is_directory p then acc + go p
           else if Filename.check_suffix f ".corrupt" then acc + 1
           else acc)
         0
  in
  go dir

let test_cache_verify_quarantine () =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir () in
      Cache.store cache ~key:"fragile" 1234;
      Alcotest.(check (option int)) "clean entry hits" (Some 1234)
        (Cache.find cache ~key:"fragile");
      Alcotest.(check bool) "fault injection garbles the entry" true
        (Cache.corrupt cache ~key:"fragile");
      (* The damaged read is a miss, counted, and the evidence kept. *)
      Alcotest.(check (option int)) "corrupt entry misses" None
        (Cache.find cache ~key:"fragile");
      let s = Cache.stats cache in
      Alcotest.(check int) "verify failure counted" 1 s.Cache.verify_failures;
      Alcotest.(check bool) "also counted as a cache error" true (s.Cache.errors >= 1);
      Alcotest.(check int) "damaged file quarantined as .corrupt" 1
        (count_corrupt_files dir);
      (* A re-store repopulates cleanly without touching the evidence. *)
      Cache.store cache ~key:"fragile" 1234;
      Alcotest.(check (option int)) "re-store repopulates" (Some 1234)
        (Cache.find cache ~key:"fragile");
      Alcotest.(check int) "quarantined evidence survives the re-store" 1
        (count_corrupt_files dir);
      (* fsck walks the repopulated cache and finds it clean. *)
      let r = Cache.fsck cache in
      Alcotest.(check int) "fsck verifies the clean entry" 1 r.Cache.f_ok;
      Alcotest.(check int) "fsck quarantines nothing further" 0 r.Cache.f_quarantined;
      Alcotest.(check bool) "corrupting a missing key reports false" false
        (Cache.corrupt cache ~key:"never-stored");
      (* The quarantined file is counted beside the entry, and clear
         removes both. *)
      (match Cache.disk_usage cache with
      | Some (count, _) -> Alcotest.(check int) "entry and quarantined file counted" 2 count
      | None -> Alcotest.fail "disk usage unavailable for a real cache");
      Alcotest.(check int) "clear removes the entry and the quarantined file" 2
        (Cache.clear cache);
      Alcotest.(check int) "no quarantined file left" 0 (count_corrupt_files dir))

let test_soft_deadline_cancels_mid_task () =
  (* A task that never returns on its own but polls the ambient
     cancellation token the way the explorer's backtracking loop does:
     the engine's soft deadline must stop it cooperatively, within
     milliseconds of the deadline rather than at task completion. *)
  let engine = Engine.create ~jobs:1 ~soft_deadline_s:0.05 () in
  let t0 = Unix.gettimeofday () in
  let polls = ref 0 in
  (match
     Engine.run engine
       (Task.pure ~key:"cooperative-spin" (fun () ->
            while Unix.gettimeofday () -. t0 < 10. do
              incr polls;
              Wmm_util.Cancel.check_ambient ()
            done;
            Alcotest.fail "cancellation never fired"))
   with
  | Engine.Failed msg ->
      Alcotest.(check bool) "failure carries a reason" true (String.length msg > 0)
  | _ -> Alcotest.fail "deadline-doomed task should settle as Failed");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "died mid-task, not at the 10s escape hatch" true
    (elapsed < 5.);
  Alcotest.(check bool) "the loop actually polled" true (!polls > 0);
  Alcotest.(check int) "cancelled task counted as failed" 1
    (Engine.summary engine).Telemetry.failed

(* A batch cancelled through [Engine.with_cancel] (a served request's
   deadline) publishes nothing: the attempt it stops mid-task settles
   without a failed record in the journal. *)
let test_cancelled_attempt_not_journaled () =
  with_temp_dir (fun dir ->
      let journal = Journal.open_ ~dir ~run_id:"cancelled" () in
      let token = Wmm_util.Cancel.create () in
      let engine = Engine.with_cancel (Engine.create ~jobs:1 ~journal ()) token in
      let t0 = Unix.gettimeofday () in
      let canceller =
        Thread.create
          (fun () ->
            Unix.sleepf 0.05;
            Wmm_util.Cancel.cancel token ~reason:"test")
          ()
      in
      let spin =
        Task.pure ~key:"cancelled-spin" (fun () ->
            while Unix.gettimeofday () -. t0 < 10. do
              Wmm_util.Cancel.check_ambient ()
            done;
            Alcotest.fail "cancellation never fired")
      in
      (match Engine.run_all engine [| spin |] with
      | _ -> Alcotest.fail "a cancelled batch must raise"
      | exception Wmm_util.Cancel.Cancelled _ -> ());
      Thread.join canceller;
      Journal.close journal;
      let r = Journal.fsck ~dir ~run_id:"cancelled" () in
      Alcotest.(check int) "no failed record" 0 r.Journal.j_failed)

let test_corrupted_cache_entry_recomputed () =
  with_temp_dir (fun dir ->
      let p = plan "seed=1,corrupt=1" in
      let c1 = Cache.create ~dir () in
      let e1 = Engine.create ~jobs:1 ~cache:c1 ~faults:p () in
      (match Engine.run e1 (Task.pure ~key:"poisoned" (fun () -> 13)) with
      | Engine.Computed 13 -> ()
      | _ -> Alcotest.fail "first run computes the value");
      Alcotest.(check int) "entry was stored (then garbled)" 1
        (Cache.stats c1).Cache.stores;
      (* A fresh engine over the same cache directory must detect the
         corruption and recompute rather than replay garbage. *)
      let c2 = Cache.create ~dir () in
      let e2 = Engine.create ~jobs:1 ~cache:c2 () in
      (match Engine.run e2 (Task.pure ~key:"poisoned" (fun () -> 13)) with
      | Engine.Computed 13 -> ()
      | _ -> Alcotest.fail "corrupt entry must recompute, not hit");
      Alcotest.(check bool) "corruption counted as cache error" true
        ((Cache.stats c2).Cache.errors >= 1);
      Alcotest.(check int) "recompute actually ran" 1 (Engine.summary e2).Telemetry.ran)

let test_cache_prune_and_clear () =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let engine = Engine.create ~jobs:1 ~cache () in
      ignore
        (Engine.run_all engine
           (Array.init 4 (fun i ->
                Task.pure ~key:(Printf.sprintf "prune-%d" i) (fun () ->
                    String.make 64 'x'))));
      (match Cache.disk_usage cache with
      | Some (count, bytes) ->
          Alcotest.(check int) "four entries on disk" 4 count;
          Alcotest.(check bool) "entries have size" true (bytes > 0)
      | None -> Alcotest.fail "disk usage unavailable for a real cache");
      (* Prune to zero budget deletes everything, oldest first. *)
      let removed = Cache.prune cache ~max_bytes:0 in
      Alcotest.(check int) "prune removes all entries" 4 removed;
      Alcotest.(check int) "prunes counted in stats" 4 (Cache.stats cache).Cache.pruned;
      (match Cache.disk_usage cache with
      | Some (count, _) -> Alcotest.(check int) "directory emptied" 0 count
      | None -> Alcotest.fail "disk usage unavailable after prune");
      ignore (Engine.run engine (Task.pure ~key:"again" (fun () -> 1)));
      Alcotest.(check int) "clear removes remaining entries" 1 (Cache.clear cache))

let test_pool_aggregates_failures () =
  (* A single failing task re-raises the original exception... *)
  (match Workqueue.run ~jobs:2 4 (fun i -> if i = 2 then failwith "only me") with
  | () -> Alcotest.fail "single failure should raise"
  | exception Failure m -> Alcotest.(check string) "original exception" "only me" m);
  (* ...while several are aggregated so none is silently swallowed. *)
  match Workqueue.run ~jobs:2 4 (fun i -> failwith (Printf.sprintf "task %d" i)) with
  | () -> Alcotest.fail "multiple failures should raise"
  | exception Workqueue.Multiple_failures msg ->
      check_contains "aggregate message" msg "4 tasks failed";
      check_contains "aggregate message" msg "task "

(* ------------------------------------------------------------------ *)
(* The persistent work queue and its sharing machinery (the served
   daemon's substrate): resubmittable pool, in-flight deduplication,
   sharded cache layout.                                               *)
(* ------------------------------------------------------------------ *)

let test_workqueue_submit_await () =
  let wq = Workqueue.create ~jobs:3 () in
  Alcotest.(check int) "worker count" 3 (Workqueue.jobs wq);
  let hs = List.init 20 (fun i -> Workqueue.submit wq (fun () -> i * i)) in
  let sum = List.fold_left (fun acc h -> acc + Workqueue.await h) 0 hs in
  Alcotest.(check int) "first wave completes" 2470 sum;
  (* The queue is persistent: a later wave reuses the warm workers. *)
  let h = Workqueue.submit wq (fun () -> 41 + 1) in
  Alcotest.(check int) "second wave on the same workers" 42 (Workqueue.await h);
  Alcotest.(check int) "submissions counted" 21 (Workqueue.submitted wq);
  (match Workqueue.await (Workqueue.submit wq (fun () -> failwith "wq boom")) with
  | _ -> Alcotest.fail "job exception should propagate to await"
  | exception Failure m -> Alcotest.(check string) "original exception" "wq boom" m);
  Workqueue.shutdown wq;
  Workqueue.shutdown wq;
  (* idempotent *)
  match Workqueue.submit wq (fun () -> 0) with
  | _ -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ()

(* A batch costs one submission per worker, however many tasks it has;
   every index still runs exactly once, and failures aggregate in index
   order. *)
let test_run_indexed_one_job_per_worker () =
  let wq = Workqueue.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Workqueue.shutdown wq)
    (fun () ->
      let before = Workqueue.submitted wq in
      let runs = Array.init 1000 (fun _ -> Atomic.make 0) in
      Workqueue.run_indexed wq 1000 (fun i -> Atomic.incr runs.(i));
      Alcotest.(check int) "two submissions for 1,000 tasks" 2
        (Workqueue.submitted wq - before);
      Alcotest.(check bool) "every index ran once" true
        (Array.for_all (fun r -> Atomic.get r = 1) runs);
      match
        Workqueue.run_indexed wq 6 (fun i ->
            if i = 4 || i = 1 then failwith (Printf.sprintf "task %d" i))
      with
      | () -> Alcotest.fail "failures should raise"
      | exception Workqueue.Multiple_failures msg ->
          check_contains "index order" msg
            "first: Failure(\"task 1\"); also: Failure(\"task 4\")")

let test_shared_pool_bit_identical () =
  (* The daemon's execution shape: several submitters race batches
     into one warm pool.  Every one of them must get results
     bit-identical to a sequential one-shot engine. *)
  let seq = small_sweep (Engine.create ~jobs:1 ()) in
  let wq = Workqueue.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Workqueue.shutdown wq)
    (fun () ->
      let results = Array.make 3 None in
      let threads =
        Array.init 3 (fun i ->
            Thread.create
              (fun () ->
                let engine = Engine.create ~pool:wq () in
                Alcotest.(check int) "engine takes jobs from the pool" 4
                  (Engine.jobs engine);
                results.(i) <- Some (small_sweep engine))
              ())
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Some sweep ->
              Alcotest.(check bool)
                (Printf.sprintf "submitter %d bit-identical to sequential" i)
                true (sweep = seq)
          | None -> Alcotest.failf "submitter %d produced no sweep" i)
        results)

let test_inflight_dedup_computes_once () =
  let inflight : int Inflight.t = Inflight.create () in
  let n = 8 in
  let computed = Atomic.make 0 in
  let results = Array.make n (0, false) in
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              Inflight.run inflight ~key:"shared" (fun () ->
                  (* The owner holds the computation open until every
                     other submitter has joined, making the overlap -
                     and thus the dedup - deterministic. *)
                  while (Inflight.stats inflight).Inflight.joined < n - 1 do
                    Thread.yield ()
                  done;
                  Atomic.incr computed;
                  42))
          ())
  in
  Array.iter Thread.join threads;
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get computed);
  Array.iter (fun (v, _) -> Alcotest.(check int) "every caller sees the value" 42 v) results;
  let joiners = Array.fold_left (fun acc (_, j) -> acc + if j then 1 else 0) 0 results in
  Alcotest.(check int) "everyone else joined" (n - 1) joiners;
  let s = Inflight.stats inflight in
  Alcotest.(check int) "stats count one computation" 1 s.Inflight.computed;
  Alcotest.(check int) "stats count the joiners" (n - 1) s.Inflight.joined;
  Alcotest.(check int) "nothing left active" 0 s.Inflight.active;
  (* A failed owner propagates to everyone but does not poison the
     key: the next run recomputes. *)
  (match Inflight.run inflight ~key:"boom" (fun () -> failwith "inflight boom") with
  | _ -> Alcotest.fail "owner failure should raise"
  | exception Failure m -> Alcotest.(check string) "owner re-raises" "inflight boom" m);
  let v, joined = Inflight.run inflight ~key:"boom" (fun () -> 5) in
  Alcotest.(check bool) "failed key retriable" true (v = 5 && not joined)

let test_cache_sharded_layout_and_legacy () =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir () in
      Cache.store cache ~key:"shard-me" 99;
      let shard_dirs () =
        List.filter
          (fun f -> String.length f = 2 && Sys.is_directory (Filename.concat dir f))
          (Array.to_list (Sys.readdir dir))
      in
      Alcotest.(check int) "entry lands in a shard subdirectory" 1
        (List.length (shard_dirs ()));
      Alcotest.(check (option int)) "sharded entry readable" (Some 99)
        (Cache.find cache ~key:"shard-me");
      (* No tmp droppings: publication is tmp + atomic rename. *)
      let rec tmp_files d =
        Array.to_list (Sys.readdir d)
        |> List.concat_map (fun f ->
               let p = Filename.concat d f in
               if Sys.is_directory p then tmp_files p
               else if contains f ".tmp" then [ p ]
               else [])
      in
      Alcotest.(check (list string)) "no tmp files left behind" [] (tmp_files dir);
      (* A flat entry at the top level, where older builds kept them,
         is still counted, so clear and prune can remove it. *)
      let shard = Filename.concat dir (List.hd (shard_dirs ())) in
      let file = (Sys.readdir shard).(0) in
      Sys.rename (Filename.concat shard file) (Filename.concat dir file);
      let fresh = Cache.create ~dir () in
      match Cache.disk_usage fresh with
      | Some (count, _) -> Alcotest.(check int) "accounting spans both layouts" 1 count
      | None -> Alcotest.fail "disk usage unavailable")

let fig5_style_sweep ?robust engine =
  let batch = Experiment.batch () in
  let finish =
    Experiment.sweep_deferred batch ~samples:8 ~light:true
      ~iteration_counts:[ 4; 16; 64; 256 ] ?robust ~code_path:"robust acceptance"
      ~base:(Exp_common.jvm_nop_base arch)
      ~inject:(fun cf ->
        Exp_common.jvm_platform ~inject_all:[ Wmm_costfn.Cost_function.uop cf ] arch)
      profile
  in
  Experiment.run_batch engine batch;
  finish ()

let test_robust_fit_survives_outliers () =
  let clean = fig5_style_sweep (Engine.create ~jobs:1 ()) in
  let k_clean = clean.Experiment.fit.Sensitivity.k in
  let p = plan "seed=2,outlier=0.05x10" in
  let plain_faulty =
    Fault.with_ambient p (fun () -> fig5_style_sweep (Engine.create ~jobs:1 ()))
  in
  let robust_faulty =
    Fault.with_ambient p (fun () ->
        fig5_style_sweep ~robust:true (Engine.create ~jobs:1 ()))
  in
  let rel x = abs_float (x -. k_clean) /. abs_float k_clean in
  let k_plain = plain_faulty.Experiment.fit.Sensitivity.k in
  let k_robust = robust_faulty.Experiment.fit.Sensitivity.k in
  if Sys.getenv_opt "WMM_PROBE" <> None then
    Printf.eprintf "[probe] k_clean=%g k_plain=%g (%.4f) k_robust=%g (%.4f)\n%!"
      k_clean k_plain (rel k_plain) k_robust (rel k_robust);
  Alcotest.(check bool) "plain fit degrades measurably (> 2% off)" true
    (rel k_plain > 0.02);
  Alcotest.(check bool) "robust fit stays within 2% of the clean estimate" true
    (rel k_robust < 0.02)

let test_telemetry_json_resilience () =
  with_temp_dir (fun dir ->
      let p = plan "seed=3,transient=1x1" in
      let j1 = Journal.open_ ~dir ~run_id:"telemetry" () in
      let e1 = Engine.create ~jobs:1 ~retries:2 ~backoff_s:0. ~faults:p ~journal:j1 () in
      ignore (Engine.run e1 (Task.pure ~key:"flaky" (fun () -> 9)));
      let path = Filename.concat dir "telemetry.json" in
      Engine.write_telemetry e1 path;
      let body = read_file path in
      List.iter
        (check_contains "retried-run telemetry" body)
        [
          "\"tasks_retried\": 1"; "\"attempts\": 2"; "\"outcome\": \"ran\"";
          "\"wall_s\""; "\"max_queue_depth\"";
        ];
      (* A resumed run reports the replay in the same schema. *)
      let j2 = Journal.open_ ~dir ~run_id:"telemetry" () in
      let e2 = Engine.create ~jobs:1 ~journal:j2 () in
      ignore (Engine.run e2 (Task.pure ~key:"flaky" (fun () -> 9)));
      Engine.write_telemetry e2 path;
      let body = read_file path in
      List.iter
        (check_contains "replayed-run telemetry" body)
        [ "\"tasks_replayed\": 1"; "\"outcome\": \"replayed\""; "\"attempts\": 0" ])

(* The load-bearing determinism property: however the scheduler
   interleaves tasks (any worker count, any submission order), the
   fitted k of a sweep is bit-identical to the sequential result. *)
let prop_scheduling_never_changes_k =
  let reference = lazy (small_sweep (Engine.create ~jobs:1 ())) in
  QCheck.Test.make ~name:"scheduling order never changes fitted k" ~count:6
    QCheck.(pair (int_range 1 4) (int_range 0 5))
    (fun (jobs, noise_tasks) ->
      (* Vary the two scheduling knobs - worker count and what else
         competes for the queue - while the sweep's own submission
         stays fixed.  The fitted k and every point must be
         bit-identical to the sequential reference. *)
      let engine = Engine.create ~jobs () in
      let batch = Experiment.batch () in
      let noise_before =
        List.init noise_tasks (fun i ->
            Engine.Batch.add batch
              (Task.make ~key:(Printf.sprintf "noise-%d" i) (fun rng ->
                   Wmm_util.Stats.summarise
                     (Array.init 4 (fun _ -> 1. +. Wmm_util.Rng.unit_float rng)))))
      in
      let finish =
        Experiment.sweep_deferred batch ~samples:2 ~light:true
          ~iteration_counts:[ 4; 32 ] ~code_path:"engine test"
          ~base:(Exp_common.jvm_nop_base arch)
          ~inject:(fun cf ->
            Exp_common.jvm_platform ~inject_all:[ Wmm_costfn.Cost_function.uop cf ]
              arch)
          profile
      in
      Experiment.run_batch engine batch;
      List.iter (fun get -> ignore (Engine.get (get ()))) noise_before;
      let sweep = finish () in
      let reference = Lazy.force reference in
      sweep.Experiment.fit.Sensitivity.k = reference.Experiment.fit.Sensitivity.k
      && sweep.Experiment.points = reference.Experiment.points)

let suite =
  [
    Alcotest.test_case "sequential vs parallel equality" `Quick
      test_sequential_vs_parallel;
    Alcotest.test_case "cache hit on second run" `Quick test_cache_hit_on_second_run;
    Alcotest.test_case "failed-task isolation" `Quick test_failed_task_isolation;
    Alcotest.test_case "batch dedupes equal keys" `Quick test_batch_dedupes_equal_keys;
    Alcotest.test_case "task rng determinism" `Quick test_task_rng_deterministic;
    Alcotest.test_case "telemetry json" `Quick test_telemetry_json;
    Alcotest.test_case "fault plan parsing" `Quick test_fault_plan_parse;
    Alcotest.test_case "retry recovers bit-identical" `Quick
      test_retry_recovers_bit_identical;
    Alcotest.test_case "retry budget exhaustion degrades" `Quick
      test_retry_budget_exhaustion_degrades;
    Alcotest.test_case "deadline overrun not persisted" `Quick
      test_deadline_overrun_not_stored;
    Alcotest.test_case "journal resume recomputes only missing" `Quick
      test_journal_resume_recomputes_only_missing;
    Alcotest.test_case "journal skips failed and torn entries" `Quick
      test_journal_skips_failed_and_torn_entries;
    Alcotest.test_case "journal line bytes" `Quick test_journal_line_bytes;
    Alcotest.test_case "journal hex codec" `Quick test_journal_hex_codec;
    Alcotest.test_case "journal append: two concurrent writers" `Quick
      test_journal_append_two_concurrent_writers;
    Alcotest.test_case "journal fsck compacts damage" `Quick
      test_journal_fsck_compacts_damage;
    Alcotest.test_case "cache verify quarantines and repopulates" `Quick
      test_cache_verify_quarantine;
    Alcotest.test_case "soft deadline cancels mid-task" `Quick
      test_soft_deadline_cancels_mid_task;
    Alcotest.test_case "cancelled attempt is not journaled" `Quick
      test_cancelled_attempt_not_journaled;
    Alcotest.test_case "corrupted cache entry recomputed" `Quick
      test_corrupted_cache_entry_recomputed;
    Alcotest.test_case "cache prune and clear" `Quick test_cache_prune_and_clear;
    Alcotest.test_case "pool aggregates failures" `Quick test_pool_aggregates_failures;
    Alcotest.test_case "workqueue submit and await" `Quick test_workqueue_submit_await;
    Alcotest.test_case "run_indexed submits one job per worker" `Quick
      test_run_indexed_one_job_per_worker;
    Alcotest.test_case "shared warm pool bit-identical" `Quick
      test_shared_pool_bit_identical;
    Alcotest.test_case "inflight dedup computes once" `Quick
      test_inflight_dedup_computes_once;
    Alcotest.test_case "cache sharded layout and legacy" `Quick
      test_cache_sharded_layout_and_legacy;
    Alcotest.test_case "robust fit survives outliers" `Quick
      test_robust_fit_survives_outliers;
    Alcotest.test_case "telemetry json resilience" `Quick
      test_telemetry_json_resilience;
    QCheck_alcotest.to_alcotest prop_scheduling_never_changes_k;
  ]
