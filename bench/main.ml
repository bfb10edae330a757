(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (sections 4.1-4.3.1) and then times the
   library's core operations with Bechamel.

   Usage: main.exe [SECTION ...] [--jobs N] [--no-cache] [--telemetry FILE]
                   [--inject-faults SPEC] [--retries N] [--resume RUN-ID]
                   [--robust-fit]

   With section names (e.g. `main.exe fig5 rankings`) only those
   sections run; without any, the full suite runs.  --jobs fans the
   heavyweight sweeps out across worker domains through wmm_engine;
   the result cache (under _wmm_cache/) makes re-runs incremental
   unless --no-cache is given.  Completed tasks are journaled under
   _wmm_cache/journal/, so an interrupted run resumes where it left
   off when rerun identically (or explicitly via --resume).

   Set WMM_FAST=1 to run a reduced version (fewer samples, smaller
   sweeps) in under a minute. *)

open Wmm_experiments

(* Snapshot the candidate-search counters into the run's telemetry so
   the JSON dump records how much exploration the run performed. *)
let record_exploration engine =
  let s = Wmm_model.Enumerate.global_stats () in
  Wmm_engine.Engine.set_exploration engine
    {
      Wmm_engine.Telemetry.explored = s.Wmm_model.Enumerate.generated;
      pruned = s.Wmm_model.Enumerate.pruned;
      consistent = s.Wmm_model.Enumerate.consistent;
      revisits = s.Wmm_model.Enumerate.revisits;
      symmetry_skips = s.Wmm_model.Enumerate.symmetry_skips;
      explore_wall_s = s.Wmm_model.Enumerate.wall_s;
    }

let section name f =
  let t0 = Unix.gettimeofday () in
  print_endline (f ());
  Printf.printf "[section %s: %.1fs]\n\n%!" name (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Litmus summary: the semantic layer's health, printed first because
   the performance results are only meaningful if the fencing
   strategies are semantically correct.                                *)
(* ------------------------------------------------------------------ *)

let litmus_summary () =
  let open Wmm_litmus in
  let open Wmm_model in
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer (Exp_common.header "Litmus battery (semantic substrate)");
  Buffer.add_char buffer '\n';
  let sound = ref 0 and total = ref 0 in
  List.iter
    (fun test ->
      List.iter
        (fun model ->
          match Test.expected_under test model with
          | None -> ()
          | Some _ ->
              let config =
                match model with
                | Axiomatic.Sc -> Wmm_machine.Relaxed.sc_config
                | Axiomatic.Tso -> Wmm_machine.Relaxed.tso_config
                | Axiomatic.Arm | Axiomatic.Power -> Wmm_machine.Relaxed.relaxed_config
                | Axiomatic.Rc11 -> Wmm_machine.Relaxed.sc_config
              in
              let v =
                if Exp_common.fast () then Check.run_random ~iterations:200 model config test
                else Check.run_exhaustive model config test
              in
              incr total;
              if Check.sound v then incr sound
              else Buffer.add_string buffer (Check.describe v ^ "\n"))
        Axiomatic.all_models)
    Library.all;
  Buffer.add_string buffer
    (Printf.sprintf "%d/%d test/model verdicts sound (operational vs axiomatic)" !sound
       !total);
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one per experiment family, timing the
   computational kernel that regenerates it.                           *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  let open Bechamel in
  let open Toolkit in
  let mp = Option.get (Wmm_litmus.Library.by_name "MP") in
  let sb = Option.get (Wmm_litmus.Library.by_name "SB") in
  let spark_streams =
    Wmm_workload.Generate.streams ~units_override:40 Wmm_workload.Dacapo.spark
      (Exp_common.jvm_nop_base Wmm_isa.Arch.Armv8)
      ~seed:3
  in
  let xs = Array.init 12 (fun i -> float_of_int (1 lsl i)) in
  let ys = Array.map (fun a -> Wmm_core.Sensitivity.performance ~k:0.003 ~a) xs in
  let tests =
    [
      Test.make ~name:"fig1/4: sensitivity curve fit"
        (Staged.stage (fun () -> Wmm_core.Sensitivity.fit_k ~xs ~ys));
      Test.make ~name:"fig5/6/9: simulator run (spark slice, 8 cores)"
        (Staged.stage (fun () ->
             Wmm_machine.Perf.run
               (Wmm_machine.Perf.config ~seed:5 Wmm_isa.Arch.Armv8)
               spark_streams));
      Test.make ~name:"litmus: axiomatic enumeration (MP)"
        (Staged.stage (fun () ->
             Wmm_model.Enumerate.allowed_outcomes Wmm_model.Axiomatic.Arm
               mp.Wmm_litmus.Test.program));
      Test.make ~name:"litmus: operational exhaustive (SB)"
        (Staged.stage (fun () ->
             Wmm_machine.Relaxed.enumerate Wmm_machine.Relaxed.relaxed_config
               sb.Wmm_litmus.Test.program));
      Test.make ~name:"fig2-4: cost function calibration"
        (Staged.stage (fun () ->
             Wmm_costfn.Cost_function.calibrate Wmm_isa.Arch.Armv8 [ 1; 16; 256; 1024 ]));
      Test.make ~name:"T2/T6: microbenchmark of a fence sequence"
        (Staged.stage (fun () ->
             Wmm_machine.Perf.sequence_cost_ns ~repetitions:200
               (Wmm_machine.Timing.for_arch Wmm_isa.Arch.Power7)
               [ Wmm_machine.Uop.Fence_full ]));
    ]
  in
  print_endline (Exp_common.header "Bechamel: core operation timings");
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |])
          (Instance.monotonic_clock :> Measure.witness)
          results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-48s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-48s (no estimate)\n" name)
        analysis)
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Fence inference: the analysis layer closes the loop - placements
   are derived from program structure, verified against the axiomatic
   models, and priced with the paper's sensitivity methodology.       *)
(* ------------------------------------------------------------------ *)

let analysis_summary ~engine () =
  let open Wmm_litmus in
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer
    (Exp_common.header "Fence inference (critical cycles -> verified-minimal placements)");
  Buffer.add_char buffer '\n';
  let names =
    if Exp_common.fast () then [ "SB"; "MP"; "IRIW" ]
    else
      [
        "SB"; "MP"; "LB"; "S"; "R"; "2+2W"; "WRC"; "IRIW"; "MP+dmb"; "SB+dmbs"; "CAS+one";
      ]
  in
  let tests = List.filter_map Library.by_name names in
  List.iter
    (fun arch ->
      let rows = Wmm_analysis.Infer.analyze_all ~engine ~arch tests in
      Buffer.add_string buffer
        (Wmm_analysis.Infer.render ~detail:(not (Exp_common.fast ())) arch rows);
      Buffer.add_char buffer '\n')
    [ Wmm_isa.Arch.Armv8; Wmm_isa.Arch.Power7 ];
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Differential conformance: the synthesized battery cross-checks the
   semantic layers against each other before anything is measured.    *)
(* ------------------------------------------------------------------ *)

let conform_summary ~engine () =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer
    (Exp_common.header "Conformance (synthesized battery, all semantic layers)");
  Buffer.add_char buffer '\n';
  let max_edges = if Exp_common.fast () then 3 else 4 in
  let limit = if Exp_common.fast () then 60 else 0 in
  let infer_limit = if Exp_common.fast () then 8 else 32 in
  List.iter
    (fun arch ->
      let family = Wmm_synth.Synth.generate ~max_edges arch in
      let tests =
        List.filteri
          (fun i _ -> limit = 0 || i < limit)
          (List.map (fun g -> g.Wmm_synth.Synth.g_test) family)
      in
      let report =
        Wmm_synth.Conform.run
          ~config:{ Wmm_synth.Conform.default_config with infer_limit }
          ~engine ~arch tests
      in
      Buffer.add_string buffer (Wmm_synth.Conform.render report);
      Buffer.add_char buffer '\n')
    [ Wmm_isa.Arch.Armv8; Wmm_isa.Arch.Power7 ];
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Language tier: compilation containment plus the lock-suite          *)
(* fencing-sensitivity ranking.                                        *)
(* ------------------------------------------------------------------ *)

let lang_summary ~engine () =
  let open Wmm_lang in
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer
    (Exp_common.header "Language tier (RC11, compilation schemes, lock suite)");
  Buffer.add_char buffer '\n';
  let battery =
    if Exp_common.fast () then
      List.map Locks.test_of Locks.all
      @ List.filter_map
          (fun n -> Option.map C11.lift_test (Wmm_litmus.Library.by_name n))
          [ "SB"; "MP"; "LB"; "IRIW"; "MP+rel+acq"; "SB+dmbs" ]
    else
      List.map C11.lift_test Wmm_litmus.Library.all @ List.map Locks.test_of Locks.all
  in
  let report = Contain.run ~engine battery in
  Buffer.add_string buffer (Contain.render report);
  Buffer.add_char buffer '\n';
  let locks = if Exp_common.fast () then [ Locks.dekker; Locks.cas_lock ] else Locks.all in
  let rows = Rank.run ~locks ~engine () in
  Buffer.add_string buffer (Rank.render rows);
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Command line: optional section filter plus engine flags.            *)
(* ------------------------------------------------------------------ *)

type options = {
  sections : string list;  (* empty = all *)
  jobs : int;
  use_cache : bool;
  telemetry_out : string option;
  faults : Wmm_engine.Fault.t;
  retries : int;
  resume : string option;
  robust : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe [SECTION ...] [--jobs N] [--no-cache] [--telemetry FILE]";
  prerr_endline
    "                [--inject-faults SPEC] [--retries N] [--resume RUN-ID] [--robust-fit]";
  prerr_endline
    "--jobs N: worker domains (0 = auto-detect via Domain.recommended_domain_count;";
  prerr_endline "          1 = sequential, the default)";
  prerr_endline "sections: litmus analysis conform lang fig1 fig2_3 fig4 fig5 fig6";
  prerr_endline "          jvm_tables rankings rbd counters optimizer bechamel";
  exit 2

let parse_options () =
  let rec go opts = function
    | [] -> { opts with sections = List.rev opts.sections }
    | ("--jobs" | "-j") :: n :: rest -> (
        match int_of_string_opt n with
        | Some jobs -> go { opts with jobs } rest
        | None -> usage ())
    | "--no-cache" :: rest -> go { opts with use_cache = false } rest
    | "--telemetry" :: file :: rest -> go { opts with telemetry_out = Some file } rest
    | "--inject-faults" :: spec :: rest -> (
        match Wmm_engine.Fault.parse spec with
        | Ok faults -> go { opts with faults } rest
        | Error msg ->
            Printf.eprintf "--inject-faults: %s\n" msg;
            usage ())
    | "--retries" :: n :: rest -> (
        match int_of_string_opt n with
        | Some retries when retries >= 0 -> go { opts with retries } rest
        | _ -> usage ())
    | "--resume" :: id :: rest -> go { opts with resume = Some id } rest
    | "--robust-fit" :: rest -> go { opts with robust = true } rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
    | name :: rest -> go { opts with sections = name :: opts.sections } rest
  in
  go
    {
      sections = [];
      jobs = 1;
      use_cache = true;
      telemetry_out = None;
      faults = Wmm_engine.Fault.none;
      retries = 2;
      resume = None;
      robust = false;
    }
    (List.tl (Array.to_list Sys.argv))

let () =
  let opts = parse_options () in
  Wmm_engine.Fault.set_ambient opts.faults;
  let robust = opts.robust in
  let cache =
    if opts.use_cache then Wmm_engine.Cache.create () else Wmm_engine.Cache.disabled
  in
  let journal =
    let run_id =
      match opts.resume with
      | Some id -> Some id
      | None when not opts.use_cache -> None
      | None ->
          Some
            (Wmm_engine.Journal.derived_run_id ~tag:"bench"
               [
                 String.concat "," opts.sections;
                 Wmm_engine.Cache.code_version ();
                 (if Exp_common.fast () then "fast" else "full");
                 Wmm_engine.Fault.fingerprint opts.faults;
                 string_of_bool robust;
               ])
    in
    Option.map
      (fun run_id ->
        let j = Wmm_engine.Journal.open_ ~run_id () in
        Printf.eprintf "journal: run id %s (%d completed tasks on file)\n%!" run_id
          (Wmm_engine.Journal.loaded j);
        j)
      run_id
  in
  let engine =
    Wmm_engine.Engine.create ~jobs:opts.jobs ~cache ~retries:opts.retries
      ~faults:opts.faults ?journal ()
  in
  let all_sections =
    [
      ("litmus", fun () -> section "litmus" litmus_summary);
      ("analysis", fun () -> section "analysis" (analysis_summary ~engine));
      ("conform", fun () -> section "conform" (conform_summary ~engine));
      ("lang", fun () -> section "lang" (lang_summary ~engine));
      ("fig1", fun () -> section "fig1" Fig1.report);
      ("fig2_3", fun () -> section "fig2_3" Fig2_3.report);
      ("fig4", fun () -> section "fig4" Fig4.report);
      ("fig5", fun () -> section "fig5" (Fig5.report ~engine ~robust));
      ("fig6", fun () -> section "fig6" (Fig6.report ~engine ~robust));
      ("jvm_tables", fun () -> section "jvm_tables" Jvm_tables.report);
      ("rankings", fun () -> section "rankings" (Rankings.report ~engine ~robust));
      ("rbd", fun () -> section "rbd" (Rbd.report ~engine ~robust));
      ("counters", fun () -> section "counters" Counters.report);
      ("optimizer", fun () -> section "optimizer" Optimizer_exp.report);
      ("bechamel", bechamel_section);
    ]
  in
  let selected =
    match opts.sections with
    | [] -> all_sections
    | names ->
        List.iter
          (fun name ->
            if not (List.mem_assoc name all_sections) then begin
              Printf.eprintf "unknown section %S; valid sections: %s\n" name
                (String.concat " " (List.map fst all_sections));
              usage ()
            end)
          names;
        List.filter (fun (name, _) -> List.mem name names) all_sections
  in
  let t0 = Unix.gettimeofday () in
  Printf.printf "WMM-Bench: reproducing 'Benchmarking Weak Memory Models' (PPoPP 2016)\n";
  Printf.printf "mode: %s | jobs: %d | cache: %s\n\n"
    (if Exp_common.fast () then "FAST (WMM_FAST set)" else "full")
    (Wmm_engine.Engine.jobs engine)
    (if opts.use_cache then Wmm_engine.Cache.default_dir else "off");
  List.iter (fun (_, run) -> run ()) selected;
  record_exploration engine;
  print_endline (Wmm_engine.Engine.render_summary engine);
  Option.iter
    (fun path ->
      try Wmm_engine.Engine.write_telemetry engine path
      with Sys_error msg -> Printf.eprintf "warning: cannot write telemetry: %s\n" msg)
    opts.telemetry_out;
  Printf.printf "total: %.1fs\n" (Unix.gettimeofday () -. t0)
