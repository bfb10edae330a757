(* Test entry point.  Quick tests run by default; the exhaustive
   litmus / model soundness sweeps are registered as slow tests
   (alcotest runs both under `dune runtest`). *)

let () =
  Alcotest.run "wmm-bench"
    [
      ("rng", Test_rng.suite);
      ("stats", Test_stats.suite);
      ("fit", Test_fit.suite);
      ("table", Test_table.suite);
      ("isa", Test_isa.suite);
      ("relation", Test_relation.suite);
      ("model", Test_model.suite);
      ("explore", Test_explore.suite);
      ("relaxed-machine", Test_relaxed.suite);
      ("uop", Test_uop.suite);
      ("perf-machine", Test_perf.suite);
      ("memsys", Test_memsys.suite);
      ("simulator", Test_simulator.suite);
      ("costfn", Test_costfn.suite);
      ("platform", Test_platform.suite);
      ("workload", Test_workload.suite);
      ("core", Test_core.suite);
      ("engine", Test_engine.suite);
      ("served", Test_served.suite);
      ("chaos", Test_chaos.suite);
      ("litmus", Test_litmus.suite);
      ("fuzz", Test_fuzz.suite);
      ("litmus-parse", Test_parse.suite);
      ("analysis", Test_analysis.suite);
      ("synth", Test_synth.suite);
      ("conform", Test_conform.suite);
      ("cert", Test_cert.suite);
      ("cli", Test_cli.suite);
      ("optimizer+counters", Test_optimizer.suite);
      ("rmw", Test_rmw.suite);
      ("lang", Test_lang.suite);
      ("experiments", Test_experiments.suite);
      ("experiments-slow", Test_experiments.slow_suite);
    ]
