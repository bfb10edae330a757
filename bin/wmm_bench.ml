(* Command-line interface to the benchmark suite.

   Subcommands:
     list        - enumerate benchmarks, litmus tests and experiments
     litmus      - run litmus tests (operational vs axiomatic)
     asm         - show a litmus test or cost function as assembly
     micro       - microbenchmark fence instruction sequences
     sensitivity - fit a benchmark's sensitivity to a code path
     figure      - regenerate the paper's figures/tables (the ids given, or all)
     analyze     - infer, verify and cost-rank fence placements
     conform     - differential conformance over a synthesized battery
     serve       - long-running exploration daemon on a Unix socket
     query       - query a running daemon (single request or --stdin bulk)
     cache       - inspect, trim or fsck the result cache and journals
     chaos       - seeded fault-injection run against a live daemon *)

open Cmdliner

(* CLI usage errors: report what was wrong and what would have been
   valid, then exit non-zero - never a bare exception trace. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("wmm_bench: " ^ msg);
      exit 2)
    fmt

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

let experiment_ids =
  [
    "fig1"; "fig2_3"; "fig4"; "fig5"; "fig6"; "jvm_tables"; "rankings"; "rbd";
    "counters"; "optimizer";
  ]

let arch_conv =
  let parse s =
    match Wmm_isa.Arch.of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown architecture %S (arm | power)" s))
  in
  Arg.conv (parse, Wmm_isa.Arch.pp)

let arch_arg =
  Arg.(value & opt arch_conv Wmm_isa.Arch.Armv8 & info [ "arch" ] ~doc:"arm or power")

let mode_tag () = if Sys.getenv_opt "WMM_FAST" <> None then "fast" else "full"

(* A litmus-library test by name. *)
let library_test name =
  match Wmm_litmus.Library.by_name name with
  | Some t -> t
  | None -> die "unknown litmus test %S (see `wmm_bench list`)" name

(* The --arch value of analyze and conform: one architecture, or both. *)
let archs_of_string = function
  | "both" -> [ Wmm_isa.Arch.Armv8; Wmm_isa.Arch.Power7 ]
  | s -> (
      match Wmm_isa.Arch.of_string s with
      | Some a -> [ a ]
      | None ->
          die "unknown architecture %S; %s (or both)" s
            Wmm_registry.Registry.valid_arches_sentence)

(* ------------------------------------------------------------------ *)
(* Engine-backed batch runs (figure, analyze, conform, lang)           *)
(* ------------------------------------------------------------------ *)

type batch = {
  jobs : int;
  no_cache : bool;
  cache_dir : string;
  telemetry_out : string option;
  retries : int;
  resume : string option;
}

let batch_term =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the execution engine (0 = auto-detect via \
             Domain.recommended_domain_count; 1 = sequential)")
  in
  let no_cache = Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the result cache") in
  let cache_dir =
    Arg.(
      value
      & opt string Wmm_engine.Cache.default_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result cache directory")
  in
  let telemetry_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE" ~doc:"Dump run telemetry as JSON to $(docv)")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retries (with capped exponential backoff) for transient task failures")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"RUN-ID"
          ~doc:
            "Journal run id to resume: replays completed tasks from the cache \
             directory's $(b,journal/RUN-ID.jsonl) and computes only the remainder. \
             Without this flag a run id is derived from the request, so rerunning an \
             interrupted identical invocation resumes automatically.")
  in
  Term.(
    const (fun jobs no_cache cache_dir telemetry_out retries resume ->
        { jobs; no_cache; cache_dir; telemetry_out; retries; resume })
    $ jobs $ no_cache $ cache_dir $ telemetry_out $ retries $ resume)

(* Run [f] on an engine built from the batch flags (and the ambient
   fault plan), then record the exploration counters, print the run
   summary and write the telemetry.  The summary goes to stderr so
   stdout stays byte-identical across --jobs settings.  Automatic
   resume: identical requests derive identical run ids from [tag], the
   code version and [parts].  --no-cache opts out of reuse entirely,
   unless an explicit --resume asks for the journal anyway (journal
   entries are self-contained, so resume works cacheless). *)
let with_batch_engine b ~tag ~parts f =
  let cache =
    if b.no_cache then Wmm_engine.Cache.disabled
    else Wmm_engine.Cache.create ~dir:b.cache_dir ()
  in
  let run_id =
    match b.resume with
    | Some id -> Some id
    | None when b.no_cache -> None
    | None ->
        Some
          (Wmm_engine.Journal.derived_run_id ~tag
             (Wmm_engine.Cache.code_version () :: parts))
  in
  let journal =
    Option.map
      (fun run_id ->
        let dir = Filename.concat b.cache_dir "journal" in
        let j = Wmm_engine.Journal.open_ ~dir ~run_id () in
        Printf.eprintf "journal: run id %s (%d completed tasks on file)\n%!" run_id
          (Wmm_engine.Journal.loaded j);
        j)
      run_id
  in
  let engine =
    Wmm_engine.Engine.create ~jobs:b.jobs ~cache ~retries:b.retries ?journal ()
  in
  let result = f engine in
  Option.iter Wmm_engine.Journal.close journal;
  record_exploration engine;
  prerr_endline (Wmm_engine.Engine.render_summary engine);
  Option.iter
    (fun path ->
      try Wmm_engine.Engine.write_telemetry engine path
      with Sys_error msg -> Printf.eprintf "warning: cannot write telemetry: %s\n" msg)
    b.telemetry_out;
  result

(* ------------------------------------------------------------------ *)
(* Certificate emission helpers (litmus --certify / analyze --certify) *)
(* ------------------------------------------------------------------ *)

let cert_file_name name model =
  let safe s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
        | _ -> '-')
      s
  in
  Printf.sprintf "%s__%s.cert" (safe name) (safe model)

let write_cert dir name model cert =
  Wmm_util.Fs.mkdir_p dir;
  let path = Filename.concat dir (cert_file_name name model) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Wmm_cert.Certificate.to_string cert));
  path

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "JVM benchmarks (DaCapo subset + spark):";
    List.iter
      (fun (p : Wmm_workload.Profile.t) -> Printf.printf "  %s\n" p.Wmm_workload.Profile.name)
      Wmm_workload.Dacapo.all;
    print_endline "Kernel benchmarks:";
    List.iter
      (fun (p : Wmm_workload.Profile.t) -> Printf.printf "  %s\n" p.Wmm_workload.Profile.name)
      Wmm_workload.Kernelbench.all;
    print_endline "Litmus tests:";
    List.iter
      (fun (t : Wmm_litmus.Test.t) ->
        Printf.printf "  %-24s %s\n" t.Wmm_litmus.Test.name t.Wmm_litmus.Test.description)
      Wmm_litmus.Library.all;
    print_endline "Memory models:";
    List.iter (Printf.printf "  %s\n") (Wmm_registry.Registry.model_table ());
    print_endline "Lock workloads (see `lang`):";
    List.iter
      (fun (l : Wmm_lang.Locks.t) ->
        Printf.printf "  %-24s %s\n" l.Wmm_lang.Locks.name l.Wmm_lang.Locks.description)
      Wmm_lang.Locks.all;
    print_endline "Experiments (see `figure`):";
    List.iter (Printf.printf "  %s\n") experiment_ids
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks, litmus tests, models and experiments")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* litmus                                                              *)
(* ------------------------------------------------------------------ *)

let litmus_cmd =
  let open Wmm_litmus in
  let open Wmm_model in
  let test_arg =
    Arg.(value & opt (some string) None & info [ "test" ] ~doc:"Run a single named test")
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~doc:"Run a test from a litmus-format file")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Emit a proof-carrying certificate for every axiomatic verdict (witness \
             execution for allowed, candidate count for forbidden, whose candidates \
             the checker walks itself), checkable offline with `wmm_bench check`")
  in
  let cert_dir_arg =
    Arg.(
      value & opt string "_wmm_certs"
      & info [ "cert-dir" ] ~docv:"DIR" ~doc:"Directory certificates are written to")
  in
  let run test_name file certify cert_dir =
    let tests =
      match (test_name, file) with
      | _, Some path -> (
          match Parse.parse_file path with
          | Ok p -> [ p.Parse.test ]
          | Error e -> die "%s: %s" path e)
      | None, None -> Library.all
      | Some name, None -> [ library_test name ]
    in
    let unsound_verdicts = ref 0 and mismatches = ref 0 in
    List.iter
      (fun test ->
        List.iter
          (fun model ->
            let v =
              try Check.run_exhaustive model (Check.machine_config model) test
              with Failure msg -> die "%s: %s" test.Test.name msg
            in
            (* File-loaded tests have a placeholder annotation:
               only forbidden-observed counts as unsound there. *)
            let unsound =
              if file <> None then v.Check.observed && not v.Check.axiomatic_allowed
              else not (Check.sound v)
            in
            if unsound then incr unsound_verdicts;
            print_endline (Check.describe v);
            if certify then begin
              match Wmm_certify.Emit.litmus model test with
              | Error msg -> Printf.printf "  certificate: skipped (%s)\n" msg
              | Ok cert -> (
                  match Wmm_certify.Emit.agree ~allowed:v.Check.axiomatic_allowed cert with
                  | Ok cert ->
                      let path =
                        write_cert cert_dir test.Test.name (Axiomatic.model_name model) cert
                      in
                      Printf.printf "  certificate: %s\n" path
                  | Error msg ->
                      incr mismatches;
                      Printf.printf "  certificate: mismatch (%s)\n" msg)
            end)
          (Check.models_for ~parsed:(file <> None) test))
      tests;
    if !unsound_verdicts > 0 then Printf.printf "%d unsound verdicts\n" !unsound_verdicts;
    if !mismatches > 0 then Printf.printf "%d certificate mismatches\n" !mismatches;
    if !unsound_verdicts + !mismatches > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "litmus" ~doc:"Run litmus tests on the operational machine and the models")
    Term.(
      const run $ test_arg $ file_arg $ certify_arg $ cert_dir_arg)

(* ------------------------------------------------------------------ *)
(* litmus-table                                                        *)
(* ------------------------------------------------------------------ *)

let litmus_table_cmd =
  let open Wmm_litmus in
  let open Wmm_model in
  let run () =
    let table =
      Wmm_util.Table.create
        [ "test"; "SC"; "TSO"; "ARMv8"; "POWER"; "description" ]
        ~aligns:
          Wmm_util.Table.[ Left; Right; Right; Right; Right; Left ]
    in
    List.iter
      (fun (t : Test.t) ->
        let cell model =
          match Test.expected_under t model with
          | None -> "-"
          | Some _ -> if Check.axiomatic_allowed model t then "allow" else "forbid"
        in
        Wmm_util.Table.add_row table
          [
            t.Test.name;
            cell Axiomatic.Sc;
            cell Axiomatic.Tso;
            cell Axiomatic.Arm;
            cell Axiomatic.Power;
            t.Test.description;
          ])
      Library.all;
    Wmm_util.Table.print table
  in
  Cmd.v
    (Cmd.info "litmus-table"
       ~doc:"Print the full litmus verdict matrix (axiomatic models)")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* asm                                                                 *)
(* ------------------------------------------------------------------ *)

let asm_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Litmus test name, or 'costfn'")
  in
  let run arch name =
    if name = "costfn" then begin
      let cf = Wmm_costfn.Cost_function.make arch 1024 in
      List.iter print_endline (Wmm_costfn.Cost_function.assembly cf)
    end
    else print_string (Wmm_isa.Asm.program arch (library_test name).Wmm_litmus.Test.program)
  in
  Cmd.v (Cmd.info "asm" ~doc:"Print a litmus test or the cost function as assembly")
    Term.(const run $ arch_arg $ name_arg)

(* ------------------------------------------------------------------ *)
(* micro                                                               *)
(* ------------------------------------------------------------------ *)

let micro_cmd =
  let run arch =
    let open Wmm_machine in
    let timing = Timing.for_arch arch in
    let sequences =
      match arch with
      | Wmm_isa.Arch.Armv8 ->
          [
            ("dmb ish", [ Uop.Fence_full ]);
            ("dmb ishld", [ Uop.Fence_load ]);
            ("dmb ishst", [ Uop.Fence_store ]);
            ("isb", [ Uop.Fence_pipeline ]);
            ("ldar", [ Uop.Load_acquire 0 ]);
            ("stlr", [ Uop.Store_release 0 ]);
          ]
      | Wmm_isa.Arch.Power7 ->
          [
            ("sync", [ Uop.Fence_full ]);
            ("lwsync", [ Uop.Fence_lw ]);
            ("eieio", [ Uop.Fence_store ]);
            ("isync", [ Uop.Fence_pipeline ]);
          ]
    in
    List.iter
      (fun (name, sequence) ->
        Printf.printf "%-10s %6.1f ns\n" name (Perf.sequence_cost_ns timing sequence))
      sequences
  in
  Cmd.v
    (Cmd.info "micro" ~doc:"Microbenchmark fence sequences on the simulated machine")
    Term.(const run $ arch_arg)

(* ------------------------------------------------------------------ *)
(* sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

let sensitivity_cmd =
  let bench_arg =
    Arg.(
      value & opt string "spark" & info [ "bench" ] ~doc:"Benchmark name (JVM or kernel)")
  in
  let path_arg =
    Arg.(
      value & opt string "all"
      & info [ "path" ]
          ~doc:
            "Code path: 'all', an elemental barrier (StoreStore, ...), or a kernel macro \
             (smp_mb, read_barrier_depends, ...)")
  in
  let samples_arg = Arg.(value & opt int 6 & info [ "samples" ] ~doc:"Samples per point") in
  let run arch bench path samples =
    let open Wmm_experiments in
    let open Wmm_core in
    let open Wmm_workload in
    let open Wmm_platform in
    let names profiles =
      String.concat " " (List.map (fun (p : Profile.t) -> p.Profile.name) profiles)
    in
    (* A kernel-macro path selects a kernel benchmark; any other path
       is an elemental barrier (or all of them) of a JVM benchmark. *)
    let profile, light, base, inject =
      match Kernel.macro_of_name path with
      | Some macro ->
          let profile =
            match Kernelbench.by_name bench with
            | Some p -> p
            | None ->
                die "unknown kernel benchmark %S; valid kernel benchmarks: %s" bench
                  (names (Kernelbench.all @ Kernelbench.lmbench_parts))
          in
          ( profile,
            false,
            Exp_common.kernel_platform
              ~inject:[ (macro, [ Exp_common.nop_uop arch ~light:false ]) ]
              arch,
            fun cf ->
              Exp_common.kernel_platform
                ~inject:[ (macro, [ Wmm_costfn.Cost_function.uop cf ]) ]
                arch )
      | None ->
          let profile =
            match Dacapo.by_name bench with
            | Some p -> p
            | None ->
                die
                  "unknown JVM benchmark %S; valid JVM benchmarks: %s (a kernel \
                   benchmark needs a kernel-macro --path)"
                  bench (names Dacapo.all)
          in
          let elementals =
            if path = "all" then Barrier.all_elementals
            else
              match
                List.find_opt (fun e -> Barrier.elemental_name e = path) Barrier.all_elementals
              with
              | Some e -> [ e ]
              | None ->
                  die "unknown code path %S; valid paths: all %s (JVM) or %s (kernel)" path
                    (String.concat " " (List.map Barrier.elemental_name Barrier.all_elementals))
                    (String.concat " " (List.map Kernel.macro_name Kernel.all_macros))
          in
          let light = Exp_common.light_for arch in
          let inject uops = List.map (fun e -> (e, uops)) elementals in
          ( profile,
            light,
            Exp_common.jvm_platform ~inject:(inject [ Exp_common.nop_uop arch ~light ]) arch,
            fun cf ->
              Exp_common.jvm_platform
                ~inject:(inject [ Wmm_costfn.Cost_function.uop cf ])
                arch )
    in
    let sweep =
      Experiment.run (fun batch ->
          Experiment.sweep_deferred batch ~samples ~light ~code_path:path ~base ~inject
            profile)
    in
    Printf.printf "%s / %s / %s:\n" bench (Wmm_isa.Arch.name arch) path;
    List.iter
      (fun (pt : Experiment.sweep_point) ->
        Printf.printf "  a=%7.1f ns  p=%.4f\n" pt.Experiment.cost_ns
          pt.Experiment.relative.Wmm_util.Stats.gmean)
      sweep.Experiment.points;
    Printf.printf "fit: %s%s\n"
      (Exp_common.fmt_fit sweep.Experiment.fit)
      (if Sensitivity.well_suited sweep.Experiment.fit then "" else "  (unstable)")
  in
  Cmd.v
    (Cmd.info "sensitivity" ~doc:"Fit a benchmark's sensitivity to a code path (eq. 1)")
    Term.(const run $ arch_arg $ bench_arg $ path_arg $ samples_arg)

(* ------------------------------------------------------------------ *)
(* figure                                                              *)
(* ------------------------------------------------------------------ *)

let figure_cmd =
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment id; with none, every experiment runs, in `list` order")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject-faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection, e.g. \
             $(b,seed=7,transient=0.3x2,outlier=0.05x10,corrupt=0.1)")
  in
  let robust_arg =
    Arg.(
      value & flag
      & info [ "robust-fit" ]
          ~doc:
            "Robust estimation: MAD outlier rejection on raw samples and \
             Huber-weighted sensitivity fits")
  in
  let run ids batch faults_spec robust =
    let open Wmm_experiments in
    let faults =
      match faults_spec with
      | None -> Wmm_engine.Fault.none
      | Some spec -> (
          match Wmm_engine.Fault.parse spec with
          | Ok f -> f
          | Error msg -> die "--inject-faults: %s" msg)
    in
    (* Installed before any sample request is built: the experiment
       layer captures the ambient plan into each task's closure and
       cache key, and the engine takes it as its fault plan. *)
    Wmm_engine.Fault.set_ambient faults;
    let ids = if ids = [] then experiment_ids else ids in
    let report id =
      match id with
      | "fig1" -> fun _engine -> Fig1.report ()
      | "fig2_3" | "fig2" | "fig3" -> fun _engine -> Fig2_3.report ()
      | "fig4" -> fun _engine -> Fig4.report ()
      | "fig5" -> fun engine -> Fig5.report ~engine ~robust ()
      | "fig6" -> fun engine -> Fig6.report ~engine ~robust ()
      | "jvm_tables" | "t1" | "t2" | "t3" | "t4" ->
          fun engine -> Jvm_tables.report ~engine ~robust ()
      | "rankings" | "fig7" | "fig8" | "t5" ->
          fun engine -> Rankings.report ~engine ~robust ()
      | "rbd" | "fig9" | "fig10" | "t6" -> fun engine -> Rbd.report ~engine ~robust ()
      | "counters" -> fun _engine -> Counters.report ()
      | "optimizer" -> fun engine -> Optimizer_exp.report ~engine ~robust ()
      | other ->
          die "unknown experiment %S; valid ids: %s" other (String.concat " " experiment_ids)
    in
    let reports = List.map report ids in
    with_batch_engine batch
      ~tag:("figure-" ^ String.concat "-" ids)
      ~parts:
        (ids @ [ mode_tag (); Wmm_engine.Fault.fingerprint faults; string_of_bool robust ])
      (fun engine -> List.iter (fun report -> print_endline (report engine)) reports)
  in
  Cmd.v
    (Cmd.info "figure"
       ~doc:
         "Regenerate the paper's figures and tables, one report per experiment id, \
          on one engine")
    Term.(const run $ ids_arg $ batch_term $ faults_arg $ robust_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let tests_arg =
    Arg.(
      value & opt_all string []
      & info [ "test" ] ~docv:"NAME"
          ~doc:"Analyze the named litmus test (repeatable); default is the whole library")
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Analyze every test in the litmus library")
  in
  let arch_arg =
    Arg.(
      value & opt string "both"
      & info [ "arch" ] ~docv:"ARCH" ~doc:"arm, power, or both (the default)")
  in
  let no_cost_arg =
    Arg.(
      value & flag
      & info [ "no-cost" ] ~doc:"Skip the simulator cost-ranking phase (faster)")
  in
  let detail_arg =
    Arg.(
      value & flag
      & info [ "detail" ]
          ~doc:"Per-test breakdown: cost-ranked alternatives and minimality witnesses")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Emit a minimality certificate for every inferred placement: the fenced \
             program's forbidden candidate count plus a witness execution per dropped \
             fence, checkable offline with `wmm_bench check`")
  in
  let cert_dir_arg =
    Arg.(
      value & opt string "_wmm_certs"
      & info [ "cert-dir" ] ~docv:"DIR" ~doc:"Directory certificates are written to")
  in
  let run names all arch_s batch no_cost detail certify cert_dir =
    let archs = archs_of_string arch_s in
    let tests =
      if all || names = [] then Wmm_litmus.Library.all
      else List.map library_test names
    in
    with_batch_engine batch ~tag:"analyze"
      ~parts:
        ([ mode_tag (); arch_s; string_of_bool no_cost ]
        @ List.sort compare
            (List.map (fun (t : Wmm_litmus.Test.t) -> t.Wmm_litmus.Test.name) tests))
      (fun engine ->
        List.iter
          (fun arch ->
            let rows =
              Wmm_analysis.Infer.analyze_all ~with_cost:(not no_cost) ~engine ~arch tests
            in
            print_string (Wmm_analysis.Infer.render ~detail arch rows);
            print_newline ();
            if certify then
              List.iter
                (fun (row : Wmm_analysis.Infer.row) ->
                  match row.Wmm_analysis.Infer.status with
                  | Wmm_analysis.Infer.Inferred inf -> (
                      match
                        Wmm_certify.Emit.minimal row.Wmm_analysis.Infer.model
                          row.Wmm_analysis.Infer.test inf.Wmm_analysis.Infer.minimal
                      with
                      | Ok cert ->
                          let path =
                            write_cert cert_dir
                              (row.Wmm_analysis.Infer.test.Wmm_litmus.Test.name
                             ^ "__minimal")
                              (Wmm_model.Axiomatic.model_name row.Wmm_analysis.Infer.model)
                              cert
                          in
                          Printf.printf "certificate: %s\n" path
                      | Error msg ->
                          Printf.printf "certificate: %s skipped (%s)\n"
                            row.Wmm_analysis.Infer.test.Wmm_litmus.Test.name msg)
                  | _ -> ())
                rows)
          archs)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Infer fence placements for litmus tests: critical cycles, verified-minimal \
          insertion, cost-ranked alternatives")
    Term.(
      const run $ tests_arg $ all_arg $ arch_arg $ batch_term $ no_cost_arg $ detail_arg
      $ certify_arg $ cert_dir_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

(* Certificate validation.  Deliberately uses nothing but the
   [wmm_cert] library: no exploration engine, no operational machine,
   no shared code with the axiomatic core - a rejected certificate
   here means the producing pipeline (or the file) is wrong. *)
let check_cmd =
  let paths_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"Certificate file, or directory containing .cert files (repeatable)")
  in
  let run paths =
    let files =
      List.concat_map
        (fun p ->
          if not (Sys.file_exists p) then die "no such file or directory: %s" p;
          if Sys.is_directory p then
            Sys.readdir p |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".cert")
            |> List.sort compare
            |> List.map (Filename.concat p)
          else [ p ])
        paths
    in
    if files = [] then die "no certificates found under %s" (String.concat " " paths);
    let rejected = ref 0 in
    List.iter
      (fun path ->
        let content = In_channel.with_open_text path In_channel.input_all in
        match Wmm_cert.Checker.check_string content with
        | Ok cert ->
            Printf.printf "%-56s ok (%s, %s)\n" path
              (Wmm_cert.Certificate.claim_name cert.Wmm_cert.Certificate.claim)
              (Wmm_cert.Axioms.model_name cert.Wmm_cert.Certificate.model)
        | Error r ->
            incr rejected;
            Printf.printf "%-56s REJECTED %s\n" path (Wmm_cert.Checker.reason_string r))
      files;
    Printf.printf "%d certificate(s) checked, %d rejected\n" (List.length files)
      !rejected;
    if !rejected > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate verdict certificates with the independent checker (no exploration; \
          trusts only the certificate file and the checker's own replay and axioms)")
    Term.(const run $ paths_arg)

(* ------------------------------------------------------------------ *)
(* conform                                                             *)
(* ------------------------------------------------------------------ *)

let conform_cmd =
  let arch_arg =
    Arg.(
      value & opt string "both"
      & info [ "arch" ] ~docv:"ARCH" ~doc:"arm, power, or both (the default)")
  in
  let max_edges_arg =
    Arg.(
      value & opt int 4
      & info [ "max-edges" ] ~docv:"N"
          ~doc:"Relaxation-cycle size bound for the synthesized battery")
  in
  let limit_arg =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N"
          ~doc:"Cap the battery at the first $(docv) tests (0 = the whole family)")
  in
  let infer_limit_arg =
    Arg.(
      value & opt int 48
      & info [ "infer-limit" ] ~docv:"N"
          ~doc:"Tests run through the fence-inference layer (0 disables it)")
  in
  let run arch_s max_edges limit infer_limit batch =
    let archs = archs_of_string arch_s in
    if max_edges < 2 then die "--max-edges must be at least 2";
    let disagreements =
      with_batch_engine batch ~tag:"conform"
        ~parts:
          [
            arch_s; string_of_int max_edges; string_of_int limit; string_of_int infer_limit;
          ]
        (fun engine ->
          List.fold_left
            (fun n arch ->
              let tests = Wmm_synth.Synth.battery ~max_edges ~limit arch in
              let report =
                Wmm_synth.Conform.run
                  ~config:{ Wmm_synth.Conform.default_config with infer_limit }
                  ~engine ~arch tests
              in
              print_string (Wmm_synth.Conform.render report);
              print_newline ();
              n + List.length report.Wmm_synth.Conform.disagreements)
            0 archs)
    in
    if disagreements > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Differential conformance over a synthesized litmus battery: graph engine vs \
          reference enumeration, operational machine vs axiomatic models, fence \
          inference, certificates vs the independent checker; disagreements are shrunk \
          to minimal failing tests")
    Term.(
      const run $ arch_arg $ max_edges_arg $ limit_arg $ infer_limit_arg $ batch_term)

(* ------------------------------------------------------------------ *)
(* lang                                                                *)
(* ------------------------------------------------------------------ *)

let lang_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION" ~doc:"explore, conform, or rank")
  in
  let tests_arg =
    Arg.(
      value & opt_all string []
      & info [ "test" ] ~docv:"NAME"
          ~doc:
            "Lock-suite or litmus-library name (repeatable); default is the lock \
             suite (plus the lifted library for conform)")
  in
  let schemes_arg =
    Arg.(
      value & opt_all string []
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:
            "Compilation scheme (repeatable): arm-native, arm-fenced, power-sync; \
             default is every scheme (conform) or the canonical per-arch pair (rank)")
  in
  let limit_arg =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N" ~doc:"Battery cap (0 = the whole battery)")
  in
  let run action test_names scheme_names limit batch =
    let open Wmm_lang in
    let schemes ~default =
      match Catalog.select_schemes ~default scheme_names with
      | Ok schemes -> schemes
      | Error name ->
          die "unknown compilation scheme %S; valid schemes: %s" name
            (String.concat " " (List.map Compile.scheme_name Compile.all_schemes))
    in
    let resolve_tests ~default =
      match Catalog.select ~limit ~default test_names with
      | Ok tests -> tests
      | Error name ->
          die "unknown lang test %S (a lock name or a litmus-library name)" name
    in
    (* Every name is resolved here, before the engine and its journal
       exist, so a usage error opens no run. *)
    let job =
      match action with
      | "explore" ->
          let battery = resolve_tests ~default:Catalog.locks in
          fun _engine ->
            List.iter
              (fun (t : Wmm_litmus.Test.t) ->
                let outcomes, witness = Catalog.explore t in
                Printf.printf "explore|%s|outcomes=%d|witness=%s\n" t.Wmm_litmus.Test.name
                  outcomes
                  (if witness then "allow" else "forbid"))
              battery;
            false
      | "conform" ->
          let battery = resolve_tests ~default:Catalog.conform_default in
          let schemes = schemes ~default:Compile.all_schemes in
          fun engine ->
            let report = Contain.run ~schemes ~engine battery in
            print_string (Contain.render report);
            report.Contain.disagreements <> []
      | "rank" ->
          let locks =
            match Catalog.select_locks test_names with
            | Ok locks -> locks
            | Error name ->
                die "unknown lock %S; valid locks: %s" name
                  (String.concat " " (List.map (fun (l : Locks.t) -> l.Locks.name) Locks.all))
          in
          let schemes = schemes ~default:Rank.default_schemes in
          fun engine ->
            let rows = Rank.run ~schemes ~locks ~engine () in
            print_string (Rank.render ~schemes rows);
            List.iter (fun r -> print_endline (Rank.row_line r)) rows;
            false
      | other -> die "unknown lang action %S; valid actions: explore conform rank" other
    in
    let failed =
      with_batch_engine batch ~tag:"lang"
        ~parts:
          ([ action; string_of_int limit ]
          @ List.sort compare test_names @ List.sort compare scheme_names)
        job
    in
    if failed then exit 1
  in
  Cmd.v
    (Cmd.info "lang"
       ~doc:
         "The C11/RC11 language tier: explore RC11-allowed outcomes, check \
          compilation containment (hardware outcomes of the compiled program \
          must stay within the RC11-allowed set), or rank the lock suite by \
          fencing sensitivity under one-step memory-order weakenings")
    Term.(const run $ action_arg $ tests_arg $ schemes_arg $ limit_arg $ batch_term)

(* ------------------------------------------------------------------ *)
(* cache                                                               *)
(* ------------------------------------------------------------------ *)

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "wmm_served.sock"

let socket_arg =
  Arg.(
    value & opt string default_socket
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the daemon")

let serve_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains kept warm across requests (0 = auto-detect via \
             Domain.recommended_domain_count; 1 = sequential)")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Disable the result cache and the resume journal")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string Wmm_engine.Cache.default_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result cache directory")
  in
  let run_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "run-id" ] ~docv:"RUN-ID"
          ~doc:
            "Journal run id; defaults to a stable derived id, so a restarted daemon \
             resumes the journal of the previous one")
  in
  let executors_arg =
    Arg.(
      value & opt int 4
      & info [ "executors" ] ~docv:"N" ~doc:"Request-servicing threads")
  in
  let queue_bound_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Admitted-but-unfinished request bound; beyond it requests are shed with \
             a structured 'overloaded' reply")
  in
  let client_queue_bound_arg =
    Arg.(
      value & opt int 64
      & info [ "client-queue-bound" ] ~docv:"N"
          ~doc:
            "Buffered response lines per client before the producer blocks \
             (back-pressure on slow readers)")
  in
  let telemetry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Dump run telemetry (including the server request counters) as JSON to \
             $(docv) on shutdown")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Per-request log lines on stderr")
  in
  let run socket jobs no_cache cache_dir run_id executors queue_bound
      client_queue_bound telemetry_out verbose =
    if executors < 1 then die "--executors must be at least 1";
    if queue_bound < 1 then die "--queue-bound must be at least 1";
    if client_queue_bound < 1 then die "--client-queue-bound must be at least 1";
    Wmm_served.Server.serve
      {
        Wmm_served.Server.socket_path = socket;
        jobs;
        cache_dir = (if no_cache then None else Some cache_dir);
        run_id;
        executors;
        queue_bound;
        client_queue_bound;
        telemetry_out;
        verbose;
      }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the exploration daemon: a newline-delimited-JSON service over a \
          Unix-domain socket, with a warm domain pool, request-level caching, \
          in-flight deduplication and crash-resumable journaling")
    Term.(
      const run $ socket_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg $ run_id_arg
      $ executors_arg $ queue_bound_arg $ client_queue_bound_arg $ telemetry_arg
      $ verbose_arg)

let query_cmd =
  let op_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "Request op: litmus, analyze, conform, cache-stats, stats, ping, or \
             shutdown (required unless --stdin)")
  in
  let stdin_arg =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "Bulk mode: read one JSON request per stdin line, pipeline them all, and \
             print every response line as it arrives")
  in
  let tests_arg =
    Arg.(
      value & opt_all string []
      & info [ "test" ] ~docv:"NAME"
          ~doc:"Litmus test name (repeatable); default is the whole library")
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Send the litmus-format program in $(docv) as the query")
  in
  let model_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"MODEL"
          ~doc:"Restrict litmus checking to one model (see `wmm_bench list` models)")
  in
  let arch_s_arg =
    Arg.(
      value & opt string "arm"
      & info [ "arch" ] ~docv:"ARCH" ~doc:"arm or power (analyze / conform)")
  in
  let cost_arg =
    Arg.(
      value & flag
      & info [ "cost" ] ~doc:"Include the simulator cost-ranking phase (analyze)")
  in
  let max_edges_arg =
    Arg.(
      value & opt int 2
      & info [ "max-edges" ] ~docv:"N" ~doc:"Battery cycle-size bound (conform)")
  in
  let limit_arg =
    Arg.(
      value & opt int 64
      & info [ "limit" ] ~docv:"N" ~doc:"Battery size cap (conform)")
  in
  let infer_limit_arg =
    Arg.(
      value & opt int 16
      & info [ "infer-limit" ] ~docv:"N" ~doc:"Inference-layer cap (conform)")
  in
  let retries_arg =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Resends per request on an 'overloaded' shed or a dropped \
             connection before giving up (seeded-jitter backoff honouring the \
             server's retry_after_ms hint)")
  in
  let retry_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "retry-seed" ] ~docv:"SEED"
          ~doc:"Seed of the retry jitter stream (same seed, same schedule)")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline: an unanswered request is cut off with a \
             'deadline_exceeded' frame after $(docv) milliseconds")
  in
  let action_arg =
    Arg.(
      value & opt string "conform"
      & info [ "action" ] ~docv:"ACTION"
          ~doc:"Lang action: explore, conform, or rank (lang)")
  in
  let schemes_arg =
    Arg.(
      value & opt_all string []
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Compilation scheme (repeatable; lang)")
  in
  let run socket op stdin_mode tests file model arch_s cost max_edges limit
      infer_limit action schemes retries retry_seed deadline_ms =
    if retries < 0 then die "--retries must be non-negative";
    Option.iter
      (fun m ->
        if Wmm_registry.Registry.model_of_string m = None then
          die "unknown model %S; %s" m Wmm_registry.Registry.valid_models_sentence)
      model;
    let request_lines =
      if stdin_mode then begin
        let lines = ref [] in
        (try
           while true do
             let line = input_line stdin in
             if String.trim line <> "" then lines := line :: !lines
           done
         with End_of_file -> ());
        List.rev !lines
      end
      else begin
        let op =
          match op with Some op -> op | None -> die "OP required unless --stdin"
        in
        let open Wmm_util.Json in
        let str_list l = Arr (List.map (fun s -> Str s) l) in
        let fields =
          match op with
          | "litmus" ->
              (if tests = [] then [] else [ ("tests", str_list tests) ])
              @ (match file with
                | None -> []
                | Some path -> (
                    match In_channel.with_open_text path In_channel.input_all with
                    | text -> [ ("program", Str text) ]
                    | exception Sys_error e -> die "%s" e))
              @ (match model with None -> [] | Some m -> [ ("model", Str m) ])
          | "analyze" ->
              (if tests = [] then [] else [ ("tests", str_list tests) ])
              @ [ ("arch", Str arch_s); ("cost", Bool cost) ]
          | "conform" ->
              [
                ("arch", Str arch_s);
                ("max_edges", of_int max_edges);
                ("limit", of_int limit);
                ("infer_limit", of_int infer_limit);
              ]
          | "lang" ->
              [ ("action", Str action) ]
              @ (if tests = [] then [] else [ ("tests", str_list tests) ])
              @ (if schemes = [] then [] else [ ("schemes", str_list schemes) ])
              @ [ ("limit", of_int 0) ]
          | _ -> []
        in
        let fields =
          fields
          @
          match deadline_ms with
          | None -> []
          | Some d -> [ ("deadline_ms", of_int d) ]
        in
        [ to_string (Obj (("op", Str op) :: fields)) ]
      end
    in
    let policy =
      {
        Wmm_served.Client.default_policy with
        max_attempts = retries + 1;
        seed = retry_seed;
      }
    in
    (* Exit codes (documented in README): 0 all ok; 1 a per-request
       error or deadline_exceeded frame; 2 usage; 3 still overloaded
       after the retry budget; 4 transport failure.  Transport beats
       frame-level errors beats overload. *)
    match Wmm_served.Client.run_resilient ~socket_path:socket ~policy request_lines with
    | Error e ->
        prerr_endline ("wmm_bench: " ^ e);
        exit 4
    | Ok out ->
        let failed = ref false and overloaded = ref false in
        List.iter
          (fun line ->
            print_endline line;
            match Wmm_util.Json.str_member "status"
                    (Result.value ~default:Wmm_util.Json.Null
                       (Wmm_util.Json.parse line))
            with
            | Some "ok" -> ()
            | Some "overloaded" -> overloaded := true
            | _ -> failed := true)
          out.Wmm_served.Client.lines;
        if out.Wmm_served.Client.gave_up_overloaded <> [] then overloaded := true;
        if !failed then exit 1 else if !overloaded then exit 3
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Query a running exploration daemon (see $(b,serve)); prints the raw \
          newline-delimited-JSON responses.  Retries shed requests and replays \
          unanswered ones over a fresh connection if the daemon restarts.  \
          Exit codes: 0 all responses ok, 1 a request was answered with an \
          error or deadline_exceeded frame, 2 usage error, 3 still overloaded \
          after the retry budget, 4 transport failure")
    Term.(
      const run $ socket_arg $ op_arg $ stdin_arg $ tests_arg $ file_arg $ model_arg
      $ arch_s_arg $ cost_arg $ max_edges_arg $ limit_arg $ infer_limit_arg
      $ action_arg $ schemes_arg
      $ retries_arg $ retry_seed_arg $ deadline_arg)

(* ------------------------------------------------------------------ *)

let cache_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION" ~doc:"stats, clear, prune, or fsck")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string Wmm_engine.Cache.default_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result cache directory")
  in
  let max_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-mb" ] ~docv:"N" ~doc:"Size budget for prune, in megabytes")
  in
  let run_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "run-id" ] ~docv:"RUN-ID"
          ~doc:"Restrict fsck's journal scan to one run id (default: every \
                journal under the cache directory)")
  in
  let run action cache_dir max_mb run_id =
    let cache = Wmm_engine.Cache.create ~dir:cache_dir () in
    let usage () =
      match Wmm_engine.Cache.disk_usage cache with
      | Some (entries, bytes) ->
          Printf.printf "%s: %d entries, %.2f MB\n" cache_dir entries
            (float_of_int bytes /. (1024. *. 1024.))
      | None -> print_endline "cache disabled"
    in
    match action with
    | "stats" -> usage ()
    | "clear" ->
        Printf.printf "removed %d entries\n" (Wmm_engine.Cache.clear cache);
        usage ()
    | "prune" -> (
        match max_mb with
        | None -> die "cache prune requires --max-mb N"
        | Some mb when mb < 0 -> die "--max-mb must be non-negative"
        | Some mb ->
            Printf.printf "pruned %d entries (oldest first)\n"
              (Wmm_engine.Cache.prune cache ~max_bytes:(mb * 1024 * 1024));
            usage ())
    | "fsck" ->
        let r = Wmm_engine.Cache.fsck cache in
        Printf.printf
          "cache: scanned %d entries, %d verified, %d quarantined (.corrupt)\n"
          r.Wmm_engine.Cache.f_scanned r.Wmm_engine.Cache.f_ok
          r.Wmm_engine.Cache.f_quarantined;
        let journal_dir = Filename.concat cache_dir "journal" in
        let run_ids =
          match run_id with
          | Some id -> [ id ]
          | None -> (
              (* Journal filenames are the sanitised run ids, so the
                 directory listing IS the run-id list. *)
              match Sys.readdir journal_dir with
              | names ->
                  Array.to_list names
                  |> List.filter (fun n -> Filename.check_suffix n ".jsonl")
                  |> List.map (fun n -> Filename.chop_suffix n ".jsonl")
                  |> List.sort compare
              | exception Sys_error _ -> [])
        in
        List.iter
          (fun id ->
            let j =
              Wmm_engine.Journal.fsck ~dir:journal_dir ~run_id:id ()
            in
            Printf.printf
              "journal %s: %d lines, %d ok, %d failed, %d torn, %d duplicate, \
               %d orphaned; kept %d%s\n"
              id j.Wmm_engine.Journal.j_lines j.Wmm_engine.Journal.j_ok
              j.Wmm_engine.Journal.j_failed j.Wmm_engine.Journal.j_torn
              j.Wmm_engine.Journal.j_duplicates j.Wmm_engine.Journal.j_orphans
              j.Wmm_engine.Journal.j_kept
              (if j.Wmm_engine.Journal.j_compacted then " (compacted)" else ""))
          run_ids
    | other ->
        die "unknown cache action %S; valid actions: stats clear prune fsck" other
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect, trim or verify the result cache (stats | clear | prune | \
          fsck).  fsck digest-checks every cache entry (quarantining damaged \
          ones as .corrupt) and scans journals for torn, duplicate or orphaned \
          records, compacting when it finds any")
    Term.(const run $ action_arg $ cache_dir_arg $ max_mb_arg $ run_id_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let default_dir = Filename.concat (Filename.get_temp_dir_name ()) "wmm_chaos" in
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Fault-schedule seed: same seed + same binary = same faults and \
                the same verdict lines")
  in
  let dir_arg =
    Arg.(
      value & opt string default_dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Scratch directory for the daemon's socket and cache ($(b,wiped) \
                at the start of the run)")
  in
  let bin_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bin" ] ~docv:"PATH"
          ~doc:"wmm_bench binary to spawn as the daemon (default: this binary)")
  in
  let battery_arg =
    Arg.(
      value & opt int 0
      & info [ "battery" ] ~docv:"N"
          ~doc:"Cap the litmus battery at $(docv) tests (0 = whole library)")
  in
  let kills_arg =
    Arg.(value & opt int 3 & info [ "kills" ] ~docv:"N" ~doc:"kill -9 + restart cycles")
  in
  let corruptions_arg =
    Arg.(
      value & opt int 2
      & info [ "corruptions" ] ~docv:"N" ~doc:"Cache entries garbled on disk")
  in
  let disconnects_arg =
    Arg.(
      value & opt int 2
      & info [ "disconnects" ] ~docv:"N" ~doc:"Clients yanked mid-stream")
  in
  let probes_arg =
    Arg.(
      value & opt int 1
      & info [ "deadline-probes" ] ~docv:"N"
          ~doc:"Doomed requests that must be answered 'deadline_exceeded'")
  in
  let jobs_arg =
    Arg.(value & opt int 2 & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Daemon worker domains")
  in
  let executors_arg =
    Arg.(value & opt int 2 & info [ "executors" ] ~docv:"N" ~doc:"Daemon executor threads")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Pass the daemon's stderr through")
  in
  let run seed dir bin battery kills corruptions disconnects probes jobs executors
      verbose =
    if kills < 1 && corruptions > 0 then
      die "--corruptions needs --kills >= 1 (a live daemon's in-memory journal \
           shadows corrupted cache entries)";
    let bin = match bin with Some b -> b | None -> Sys.executable_name in
    let cfg =
      {
        (Wmm_chaos.Chaos.default_config ~bin ~dir) with
        Wmm_chaos.Chaos.seed;
        battery_limit = battery;
        kills;
        corruptions;
        disconnects;
        deadline_probes = probes;
        jobs;
        executors;
        verbose;
      }
    in
    let report = Wmm_chaos.Chaos.run cfg in
    print_string (Wmm_chaos.Chaos.render report);
    if not (Wmm_chaos.Chaos.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Drive a live daemon through a seeded fault schedule (kill -9, cache \
          corruption, torn journals, mid-stream disconnects, doomed deadlines) \
          and verify that battery verdicts stay identical to a pristine \
          one-shot computation and that every fault is accounted for in \
          telemetry.  Lines starting with 'verdict|' are deterministic for a \
          fixed seed and binary; exits 1 on any mismatch or accounting gap")
    Term.(
      const run $ seed_arg $ dir_arg $ bin_arg $ battery_arg $ kills_arg
      $ corruptions_arg $ disconnects_arg $ probes_arg $ jobs_arg $ executors_arg
      $ verbose_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "wmm_bench" ~version:"1.0.0"
      ~doc:"Benchmarking weak memory models (PPoPP 2016) - reproduction suite"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            list_cmd;
            litmus_cmd;
            litmus_table_cmd;
            asm_cmd;
            micro_cmd;
            sensitivity_cmd;
            figure_cmd;
            analyze_cmd;
            check_cmd;
            conform_cmd;
            lang_cmd;
            serve_cmd;
            query_cmd;
            cache_cmd;
            chaos_cmd;
          ]))
