(* A full sensitivity portrait of one benchmark: spark, the paper's
   most sensitive and most stable macrobenchmark.

   Reproduces its slice of Figs. 5 and 6: overall sensitivity to the
   fencing strategy on both architectures, then the per-elemental
   breakdown showing StoreStore dominates.

   Run with:  dune exec examples/spark_sensitivity.exe *)

open Wmm_isa
open Wmm_platform
open Wmm_workload
open Wmm_core

let sweep arch elementals label =
  let light = arch = Arch.Armv8 in
  let cf1 = Wmm_costfn.Cost_function.make ~light arch 1 in
  let with_uops uops =
    Generate.Jvm_platform
      (List.fold_left
         (fun c e -> Jvm.with_injection c e uops)
         (Jvm.default arch) elementals)
  in
  let s =
    Experiment.run (fun batch ->
        Experiment.sweep_deferred batch ~samples:4 ~light ~code_path:label
          ~base:(with_uops [ Wmm_costfn.Cost_function.nop_padding arch cf1 ])
          ~inject:(fun c -> with_uops [ Wmm_costfn.Cost_function.uop c ])
          Dacapo.spark)
  in
  Printf.printf "  %-12s k=%.5f +-%4.1f%%  %s\n" label s.Experiment.fit.Sensitivity.k
    s.Experiment.fit.Sensitivity.k_error_percent
    (if Sensitivity.well_suited s.Experiment.fit then "stable" else "unstable");
  s

let () =
  List.iter
    (fun arch ->
      Printf.printf "spark on %s:\n" (Arch.long_name arch);
      let all = sweep arch Barrier.all_elementals "all barriers" in
      let per_elemental =
        List.map
          (fun e -> (e, sweep arch [ e ] (Barrier.elemental_name e)))
          Barrier.all_elementals
      in
      let dominant =
        List.fold_left
          (fun (best_e, best_k) (e, s) ->
            let k = s.Experiment.fit.Sensitivity.k in
            if k > best_k then (e, k) else (best_e, best_k))
          (Barrier.Load_load, 0.) per_elemental
      in
      Printf.printf "  -> most sensitive to %s (overall k %.5f)\n\n"
        (Barrier.elemental_name (fst dominant))
        all.Experiment.fit.Sensitivity.k)
    Arch.all
