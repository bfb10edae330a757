(** The paper's section 6 future work, realised:

    - redundant-barrier elimination as a model JIT optimisation, with
      an ablation showing what barrier coalescing is worth per
      benchmark;
    - the "dedicated cost function IR node" idea: probes placed at
      every site where the optimisation fires, so the sensitivity of
      a benchmark to the *optimisation code path* can be fitted with
      eq. 1 like any other code path;
    - model-based extrapolation (a Coz-style virtual speedup): use a
      fitted k to *predict* the gain from making a code path cheaper,
      then validate the prediction against actually performing the
      elimination. *)

open Wmm_isa
open Wmm_util
open Wmm_machine
open Wmm_platform
open Wmm_workload
open Wmm_core

let arch = Arch.Armv8

let samples () = if Exp_common.fast () then 3 else 6

(* Run a profile with the optimiser applied to the generated streams. *)
let run_optimised ?probe (profile : Profile.t) platform ~seed =
  let streams = Generate.streams profile platform ~seed in
  let optimised, eliminated = Optimizer.optimise_streams ?probe streams in
  let config = Perf.config ~seed ~cores:(max 1 (Array.length optimised)) arch in
  let stats = Perf.run config optimised in
  (Perf.wall_ns config stats, eliminated)

let run_plain (profile : Profile.t) platform ~seed =
  let streams = Generate.streams profile platform ~seed in
  let config = Perf.config ~seed ~cores:(max 1 (Array.length streams)) arch in
  let stats = Perf.run config streams in
  Perf.wall_ns config stats

let ablation () =
  let table =
    Table.create
      [ "benchmark"; "fences eliminated"; "speedup from coalescing"; "per 1k uops" ]
  in
  List.iter
    (fun (profile : Profile.t) ->
      let platform = Generate.Jvm_platform (Jvm.default arch) in
      let seeds = List.init (samples ()) (fun i -> 101 + (i * 37)) in
      let base = List.map (fun seed -> run_plain profile platform ~seed) seeds in
      let optimised = List.map (fun seed -> run_optimised profile platform ~seed) seeds in
      let eliminated = snd (List.hd optimised) in
      let speedup =
        Stats.geometric_mean (Array.of_list base)
        /. Stats.geometric_mean (Array.of_list (List.map fst optimised))
      in
      let uops =
        Array.fold_left
          (fun acc s -> acc + Array.length s)
          0
          (Generate.streams ~units_override:profile.Profile.units_per_thread profile
             platform ~seed:101)
      in
      Table.add_row table
        [
          profile.Profile.name;
          string_of_int eliminated;
          Table.percent_cell (speedup -. 1.);
          Printf.sprintf "%.1f" (1000. *. float_of_int eliminated /. float_of_int uops);
        ])
    [ Dacapo.spark; Dacapo.h2; Dacapo.xalan; Dacapo.sunflow ];
  table

(* Sensitivity of a benchmark to the optimisation code path itself:
   probes at elimination sites, swept like any other code path. *)
let optimisation_sensitivity (profile : Profile.t) =
  let platform = Generate.Jvm_platform (Jvm.default arch) in
  let seeds = List.init (samples ()) (fun i -> 211 + (i * 61)) in
  let measure probe =
    Stats.geometric_mean
      (Array.of_list (List.map (fun seed -> fst (run_optimised ?probe profile platform ~seed)) seeds))
  in
  let base_time = measure (Some (Uop.Nops 3)) in
  let counts = if Exp_common.fast () then [ 8; 64; 512 ] else [ 1; 4; 16; 64; 256; 512 ] in
  let points =
    List.map
      (fun n ->
        let cf = Wmm_costfn.Cost_function.make ~light:true arch n in
        let time = measure (Some (Wmm_costfn.Cost_function.uop cf)) in
        (Wmm_costfn.Cost_function.standalone_ns cf, base_time /. time))
      counts
  in
  let xs = Array.of_list (List.map fst points) in
  let ys = Array.of_list (List.map snd points) in
  (points, Sensitivity.fit_k ~xs ~ys)

(* Predicted-vs-actual: use the all-barriers sensitivity to predict
   the gain of barrier coalescing, then compare with the measured
   ablation. *)
let extrapolation ?engine ?robust (profile : Profile.t) =
  let platform = Generate.Jvm_platform (Jvm.default arch) in
  let sweep =
    Experiment.run ?engine (fun batch ->
        Experiment.sweep_deferred batch ~samples:(samples ()) ~light:true ?robust
          ~code_path:"all" ~iteration_counts:(Exp_common.sweep_counts ())
          ~base:(Exp_common.jvm_nop_base arch)
          ~inject:(fun cf ->
            Exp_common.jvm_platform ~inject_all:[ Wmm_costfn.Cost_function.uop cf ] arch)
          profile)
  in
  let k = sweep.Experiment.fit.Sensitivity.k in
  (* The elimination removes a fraction of barrier time; predict via
     eq. 1 evaluated below the baseline (a < 1 is a speedup). *)
  let predicted savings_ns = Sensitivity.performance ~k ~a:(1. -. savings_ns) in
  let seeds = List.init (samples ()) (fun i -> 311 + (i * 29)) in
  let base = List.map (fun seed -> run_plain profile platform ~seed) seeds in
  let optimised = List.map (fun seed -> fst (run_optimised profile platform ~seed)) seeds in
  let actual =
    Stats.geometric_mean (Array.of_list base)
    /. Stats.geometric_mean (Array.of_list optimised)
  in
  (* How many ns per invocation would explain the actual speedup? *)
  let implied = Sensitivity.cost_of_change ~k ~p:actual in
  (k, actual, implied, predicted)

let report ?engine ?robust () =
  let buffer = Buffer.create 2048 in
  Buffer.add_string buffer
    (Exp_common.header "Section 6: barrier coalescing and optimisation code paths");
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer (Table.render (ablation ()));
  Buffer.add_string buffer "\n\nSensitivity to the coalescing optimisation (probe at every site):\n";
  List.iter
    (fun (profile : Profile.t) ->
      let _, fit = optimisation_sensitivity profile in
      Buffer.add_string buffer
        (Printf.sprintf "  %-8s %s\n" profile.Profile.name (Exp_common.fmt_fit fit)))
    [ Dacapo.spark; Dacapo.h2 ];
  let k, actual, implied, predicted = extrapolation ?engine ?robust Dacapo.spark in
  Buffer.add_string buffer
    (Printf.sprintf
       "\nModel extrapolation (spark): fitted k=%.5f; coalescing speedup measured %+.1f%%,\n\
        implying %.1f ns saved per barrier invocation (eq. 2).  Model prediction for a\n\
        1 ns saving: %+.1f%%; for 2 ns: %+.1f%%.\n"
       k
       ((actual -. 1.) *. 100.)
       (-.implied)
       ((predicted 1. -. 1.) *. 100.)
       ((predicted 2. -. 1.) *. 100.));
  Buffer.contents buffer
