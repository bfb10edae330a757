open Wmm_isa
open Wmm_machine
open Wmm_platform
open Wmm_workload
open Wmm_core

(* A small quiet profile so experiment tests are fast and exact. *)
let tiny =
  Profile.make "tiny" ~threads:2 ~units_per_thread:60 ~unit_busy_cycles:800 ~unit_loads:8
    ~unit_stores:6 ~working_set:128 ~shared_locations:16 ~share_ratio:0.2
    ~jvm:{ Profile.volatile_loads = 1.; volatile_stores = 2.; cas = 0.; locks = 0.5 }
    ~noise:Profile.quiet

let arch = Arch.Armv8
let base = Generate.Jvm_platform (Jvm.default arch)

let inject_all uops = Generate.Jvm_platform (Jvm.with_injection_all (Jvm.default arch) uops)

let relative ?(samples = 3) ?seed profile ~base ~test =
  match
    Experiment.run (fun batch ->
        Experiment.relative_deferred batch ~samples ?seed ~label:"test" profile ~base ~test)
  with
  | Ok rel -> rel.Wmm_util.Stats.gmean
  | Error msg -> Alcotest.fail msg

let test_identical_configs_relative_one () =
  Alcotest.(check (float 1e-9)) "exactly 1" 1. (relative tiny ~base ~test:base)

let test_injection_slows () =
  Alcotest.(check bool) "slower" true
    (relative tiny ~base ~test:(inject_all [ Uop.Spin 256 ]) < 0.9)

let test_sweep_decreasing_and_fit () =
  let sweep =
    Experiment.run (fun batch ->
        Experiment.sweep_deferred batch ~samples:3 ~light:true ~code_path:"all"
          ~iteration_counts:[ 1; 8; 64; 512 ]
          ~base:(inject_all [ Uop.Nops 3 ])
          ~inject:(fun cf -> inject_all [ Wmm_costfn.Cost_function.uop cf ])
          tiny)
  in
  let ps =
    List.map (fun (p : Experiment.sweep_point) -> p.Experiment.relative.Wmm_util.Stats.gmean)
      sweep.Experiment.points
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 0.02 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "points decrease" true (decreasing ps);
  Alcotest.(check bool) "k positive" true (sweep.Experiment.fit.Sensitivity.k > 0.);
  Alcotest.(check bool) "fit converged" true sweep.Experiment.fit.Sensitivity.converged

let test_inferred_cost_roundtrip () =
  (* If we synthesise a relative performance from eq. 1, eq. 2
     recovers the cost. *)
  let fit = { Sensitivity.k = 0.004; k_error_percent = 1.; residual_ss = 0.; converged = true } in
  let p = Sensitivity.performance ~k:0.004 ~a:25. in
  let summary =
    { Wmm_util.Stats.n = 6; gmean = p; amean = p; ci = { Wmm_util.Stats.lo = p; hi = p };
      smin = p; smax = p }
  in
  let inferred = Experiment.inferred_cost_ns fit summary in
  Alcotest.(check bool) "round trip" true (abs_float (inferred -. 25.) < 1e-9)

let test_ranking_cells () =
  let kernel_tiny =
    Profile.make "ktiny" ~threads:2 ~units_per_thread:60 ~unit_busy_cycles:600 ~unit_loads:6
      ~unit_stores:4 ~working_set:128 ~shared_locations:16 ~share_ratio:0.2
      ~kernel:[ (Kernel.Smp_mb, 1.0); (Kernel.Read_once, 1.0) ]
      ~noise:Profile.quiet
  in
  let kernel_builder uops =
    let config =
      List.fold_left
        (fun c m -> Kernel.with_injection c m uops)
        (Kernel.default arch) Kernel.all_macros
    in
    Generate.Kernel_platform config
  in
  let path_builder macro uops =
    Generate.Kernel_platform (Kernel.with_injection (Kernel.default arch) macro uops)
  in
  (* A fixed 256-iteration cost function in one macro, against every
     macro padded with nops of the same size (the paper's Fig. 7 cell). *)
  let cf = Wmm_costfn.Cost_function.make arch 256 in
  let rel_of macro =
    relative ~samples:2 ~seed:23 kernel_tiny
      ~base:(kernel_builder [ Wmm_costfn.Cost_function.nop_padding arch cf ])
      ~test:(path_builder macro [ Wmm_costfn.Cost_function.uop cf ])
  in
  (* The benchmark invokes smp_mb but never smp_wmb: injecting into
     smp_mb must hurt, into smp_wmb must not. *)
  Alcotest.(check bool) "smp_mb impact" true (rel_of Kernel.Smp_mb < 0.95);
  Alcotest.(check bool) "smp_wmb no impact" true
    (abs_float (rel_of Kernel.Smp_wmb -. 1.) < 0.05)

let test_divergence_flag () =
  Alcotest.(check bool) "divergent" true
    (Experiment.divergence_interesting { Experiment.micro_ns = 2.; macro_ns = 10. });
  Alcotest.(check bool) "agreeing" false
    (Experiment.divergence_interesting { Experiment.micro_ns = 10.; macro_ns = 11. })

let test_measure_of_profile () =
  Alcotest.(check bool) "throughput for normal" true
    (Experiment.measure_of_profile tiny = Experiment.Throughput);
  Alcotest.(check bool) "response for osm_stack" true
    (Experiment.measure_of_profile Kernelbench.osm_stack = Experiment.Response_mean)

let suite =
  [
    Alcotest.test_case "identical configs ratio 1" `Quick test_identical_configs_relative_one;
    Alcotest.test_case "injection slows benchmark" `Quick test_injection_slows;
    Alcotest.test_case "sweep decreasing + fit" `Quick test_sweep_decreasing_and_fit;
    Alcotest.test_case "eq2 round trip via experiment" `Quick test_inferred_cost_roundtrip;
    Alcotest.test_case "ranking matrix" `Quick test_ranking_cells;
    Alcotest.test_case "divergence flag" `Quick test_divergence_flag;
    Alcotest.test_case "measure of profile" `Quick test_measure_of_profile;
  ]
