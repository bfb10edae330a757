(** Paper Fig. 5: impact of increasing cost-function size when
    injected into all elemental memory barriers, for the eight JVM
    benchmarks on both architectures, with the fitted sensitivity k
    for each.

    Paper reference fits:
      h2         arm 0.00339+-6%  power 0.00251+-4%
      lusearch   arm 0.00213+-6%  power 0.00118+-5%
      spark      arm 0.00870+-6%  power 0.01227+-7%
      sunflow    arm 0.00187+-6%  power 0.00164+-7%
      tomcat     arm 0.00250+-3%  power 0.00397+-3%
      tradebeans arm 0.00262+-7%  power 0.00385+-2%
      tradesoap  arm 0.00238+-4%  power 0.00314+-2%
      xalan      arm 0.00606+-3%  power 0.00152+-14% (unstable)      *)

open Wmm_isa
open Wmm_util
open Wmm_costfn
open Wmm_workload
open Wmm_core

let paper_k = function
  | "h2", Arch.Armv8 -> 0.00339
  | "h2", Arch.Power7 -> 0.00251
  | "lusearch", Arch.Armv8 -> 0.00213
  | "lusearch", Arch.Power7 -> 0.00118
  | "spark", Arch.Armv8 -> 0.0087
  | "spark", Arch.Power7 -> 0.01227
  | "sunflow", Arch.Armv8 -> 0.00187
  | "sunflow", Arch.Power7 -> 0.00164
  | "tomcat", Arch.Armv8 -> 0.0025
  | "tomcat", Arch.Power7 -> 0.00397
  | "tradebeans", Arch.Armv8 -> 0.00262
  | "tradebeans", Arch.Power7 -> 0.00385
  | "tradesoap", Arch.Armv8 -> 0.00238
  | "tradesoap", Arch.Power7 -> 0.00314
  | "xalan", Arch.Armv8 -> 0.00606
  | "xalan", Arch.Power7 -> 0.00152
  | _ -> nan

let sweep_benchmark batch ?robust arch (profile : Profile.t) =
  let light = Exp_common.light_for arch in
  Experiment.sweep_deferred batch ~samples:(Exp_common.samples ()) ~light
    ~iteration_counts:(Exp_common.sweep_counts ())
    ?robust ~code_path:"all elemental barriers" ~base:(Exp_common.jvm_nop_base arch)
    ~inject:(fun cf ->
      Exp_common.jvm_platform ~inject_all:[ Cost_function.uop cf ] arch)
    profile

(* The full 8-benchmark x 2-architecture matrix is submitted as one
   engine batch, so every (benchmark, arch, cost size) sample runs as
   an independent task across the worker domains. *)
let all_sweeps ?robust batch =
  let pending =
    List.concat_map
      (fun arch ->
        List.map (fun p -> (arch, sweep_benchmark batch ?robust arch p)) Dacapo.all)
      Arch.all
  in
  fun () -> List.map (fun (arch, finish) -> (arch, finish ())) pending

let report ?engine ?robust () =
  let sweeps = Experiment.run ?engine (all_sweeps ?robust) in
  let fits = Table.create [ "benchmark"; "arch"; "fitted k"; "paper k"; "stable?" ] in
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer
    (Exp_common.header "Figure 5: sensitivity to all elemental barriers (JVM)");
  Buffer.add_char buffer '\n';
  List.iter
    (fun (arch, (sweep : Experiment.sweep)) ->
      Table.add_row fits
        [
          sweep.Experiment.benchmark;
          Arch.name arch;
          Exp_common.fmt_sweep_fit sweep;
          Table.float_cell ~decimals:5 (paper_k (sweep.Experiment.benchmark, arch));
          (if not (Sensitivity.available sweep.Experiment.fit) then "degraded"
           else if Sensitivity.well_suited sweep.Experiment.fit then "yes"
           else "unstable");
        ])
    sweeps;
  Buffer.add_string buffer (Table.render fits);
  Buffer.add_string buffer "\n\nRelative performance vs cost function size (ns):\n";
  List.iter
    (fun (arch, (sweep : Experiment.sweep)) ->
      Buffer.add_string buffer
        (Printf.sprintf "%s/%s: " sweep.Experiment.benchmark (Arch.name arch));
      List.iter
        (fun (pt : Experiment.sweep_point) ->
          Buffer.add_string buffer
            (Printf.sprintf "(%.1f, %.3f) " pt.Experiment.cost_ns
               pt.Experiment.relative.Stats.gmean))
        sweep.Experiment.points;
      Buffer.add_string buffer
        (Table.sparkline
           (Array.of_list
              (List.map
                 (fun (pt : Experiment.sweep_point) -> pt.Experiment.relative.Stats.gmean)
                 sweep.Experiment.points)));
      Buffer.add_char buffer '\n')
    sweeps;
  Buffer.contents buffer
