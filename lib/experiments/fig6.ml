(** Paper Fig. 6: spark's sensitivity to each elemental memory
    barrier in turn.  StoreStore dominates on both architectures
    (paper: arm 0.00885, power 0.01333), with POWER showing very low
    LoadLoad / StoreLoad sensitivity (its port emits fewer of them).

    Paper reference fits:
      LoadLoad   arm 0.00580+-4%  power 0.00102+-3%
      LoadStore  arm 0.00592+-3%  power 0.00743+-7%
      StoreLoad  arm 0.00507+-4%  power 0.00093+-7%
      StoreStore arm 0.00885+-3%  power 0.01333+-4%                  *)

open Wmm_isa
open Wmm_util
open Wmm_costfn
open Wmm_platform
open Wmm_workload
open Wmm_core

let paper_k = function
  | Barrier.Load_load, Arch.Armv8 -> 0.0058
  | Barrier.Load_load, Arch.Power7 -> 0.00102
  | Barrier.Load_store, Arch.Armv8 -> 0.00592
  | Barrier.Load_store, Arch.Power7 -> 0.00743
  | Barrier.Store_load, Arch.Armv8 -> 0.00507
  | Barrier.Store_load, Arch.Power7 -> 0.00093
  | Barrier.Store_store, Arch.Armv8 -> 0.00885
  | Barrier.Store_store, Arch.Power7 -> 0.01333

let sweep_elemental batch ?robust arch elemental =
  let light = Exp_common.light_for arch in
  Experiment.sweep_deferred batch ~samples:(Exp_common.samples ()) ~light
    ~iteration_counts:(Exp_common.sweep_counts ())
    ?robust
    ~code_path:(Barrier.elemental_name elemental)
    ~base:
      (Exp_common.jvm_platform
         ~inject:[ (elemental, [ Exp_common.nop_uop arch ~light ]) ]
         arch)
    ~inject:(fun cf ->
      Exp_common.jvm_platform ~inject:[ (elemental, [ Cost_function.uop cf ]) ] arch)
    Dacapo.spark

let report ?engine ?robust () =
  let sweeps =
    Experiment.run ?engine (fun batch ->
        let pending =
          List.concat_map
            (fun arch ->
              List.map
                (fun elemental ->
                  (arch, elemental, sweep_elemental batch ?robust arch elemental))
                Barrier.all_elementals)
            Arch.all
        in
        fun () -> List.map (fun (arch, e, finish) -> (arch, e, finish ())) pending)
  in
  let table = Table.create [ "barrier"; "arch"; "fitted k"; "paper k" ] in
  List.iter
    (fun (arch, elemental, sweep) ->
      Table.add_row table
        [
          Barrier.elemental_name elemental;
          Arch.name arch;
          Exp_common.fmt_sweep_fit sweep;
          Table.float_cell ~decimals:5 (paper_k (elemental, arch));
        ])
    sweeps;
  String.concat "\n"
    [
      Exp_common.header "Figure 6: spark sensitivity per elemental barrier";
      "StoreStore should dominate on both architectures.";
      Table.render table;
    ]
