(* Quickstart: measure how sensitive a benchmark is to a fencing
   code path, then use the fitted model to price a fencing change.

   Run with:  dune exec examples/quickstart.exe *)

open Wmm_isa
open Wmm_machine
open Wmm_platform
open Wmm_workload
open Wmm_core

let () =
  let arch = Arch.Armv8 in

  (* 1. A platform: the mini-JVM with its default (JDK8-style) fencing
     strategy, and a workload profile: the spark benchmark. *)
  let base = Generate.Jvm_platform (Jvm.default arch) in
  let profile = Dacapo.spark in

  (* 2. How fast is it?  (Work units per microsecond.) *)
  let result = Bench_runner.run profile base ~seed:42 in
  Printf.printf "spark on %s: %.1f units/us (%d bus transactions)\n" (Arch.name arch)
    result.Bench_runner.throughput result.Bench_runner.stats.Perf.bus_transactions;

  (* 3. Fit the paper's sensitivity model (eq. 1): inject spin-loop
     cost functions of growing size into the StoreStore barrier code
     path and watch relative performance fall.  Every sample is a task:
     [Experiment.run] collects them into one batch, runs it on an
     engine (sequential by default) and then assembles the sweep. *)
  let inject uops =
    Generate.Jvm_platform (Jvm.with_injection (Jvm.default arch) Barrier.Store_store uops)
  in
  let cf n = Wmm_costfn.Cost_function.make ~light:true arch n in
  let sweep =
    Experiment.run (fun batch ->
        Experiment.sweep_deferred batch ~samples:4 ~light:true ~code_path:"StoreStore"
          ~base:(inject [ Wmm_costfn.Cost_function.nop_padding arch (cf 1) ])
          ~inject:(fun c -> inject [ Wmm_costfn.Cost_function.uop c ])
          profile)
  in
  List.iter
    (fun (pt : Experiment.sweep_point) ->
      Printf.printf "  cost %6.1f ns -> relative performance %.3f\n" pt.Experiment.cost_ns
        pt.Experiment.relative.Wmm_util.Stats.gmean)
    sweep.Experiment.points;
  let fit = sweep.Experiment.fit in
  Printf.printf "sensitivity k = %.5f (+-%.1f%%)\n" fit.Sensitivity.k
    fit.Sensitivity.k_error_percent;

  (* 4. Price a real fencing change with eq. 2: swap the StoreStore
     barrier from dmb ishst to a full dmb ish and convert the
     observed slowdown into nanoseconds per barrier. *)
  let swapped =
    Generate.Jvm_platform
      {
        (Jvm.default arch) with
        Jvm.elemental_override = [ (Barrier.Store_store, Uop.Fence_full) ];
      }
  in
  let rel =
    Experiment.run (fun batch ->
        Experiment.relative_deferred batch ~samples:4 ~label:"swap" profile ~base
          ~test:swapped)
    |> Result.get_ok
  in
  Printf.printf "dmb ishst -> dmb ish: %+.1f%% -> inferred cost %+.1f ns per barrier\n"
    ((rel.Wmm_util.Stats.gmean -. 1.) *. 100.)
    (Experiment.inferred_cost_ns fit rel)
