(** Paper section 4.3: the Linux-kernel fixed-cost ranking
    experiments.

    - T5 (in-text): padding every macro with nops alongside its usual
      barriers costs a mean 1.9% across benchmarks, worst 6.6%
      (netperf).  All later kernel results compare against this
      nop-padded base case.
    - Fig. 7: sum of relative performance per macro across all
      benchmarks when a 1024-iteration cost function is injected into
      that macro alone.  smp_mb, read_once and read_barrier_depends
      have the most impact.
    - Fig. 8: the same data summed per benchmark: netperf_tcp,
      lmbench and netperf_udp are most sensitive; h2 and spark are
      almost completely insensitive (they coordinate concurrency
      inside the VM). *)

open Wmm_isa
open Wmm_util
open Wmm_platform
open Wmm_workload
open Wmm_core

let arch = Arch.Armv8

(* Fig. 8's eleven rows: osm_stack contributes an (avg) and a (max)
   reading from the same runs. *)
let benchmarks () = Kernelbench.all

let measures_of (p : Profile.t) =
  match p.Profile.measurement with
  | Profile.Response _ ->
      [ (p.Profile.name ^ " (avg)", Experiment.Response_mean);
        (p.Profile.name ^ " (max)", Experiment.Response_max) ]
  | Profile.Throughput -> [ (p.Profile.name, Experiment.Throughput) ]

(* ------------------------------------------------------------------ *)
(* T5: nop padding.                                                    *)
(* ------------------------------------------------------------------ *)

let nop_padding_deferred ?robust batch =
  let nops = Exp_common.nop_uop arch ~light:false in
  let pending =
    List.concat_map
      (fun (profile : Profile.t) ->
        List.map
          (fun (label, measure) ->
            ( label,
              Experiment.relative_deferred batch ~samples:(Exp_common.samples ())
                ~measure ?robust ~label:("t5 nop " ^ label) profile
                ~base:(Exp_common.kernel_platform arch)
                ~test:(Exp_common.kernel_platform ~inject_all:[ nops ] arch) ))
          (measures_of profile))
      (benchmarks ())
  in
  fun () ->
    let table = Table.create [ "benchmark"; "relative perf"; "change" ] in
    (* A failed sample renders as a failed cell; the aggregates run
       over the cells that survive. *)
    let drops =
      List.filter_map
        (fun (label, finish) ->
          let rel = finish () in
          Table.add_row table (label :: Exp_common.relative_cells rel);
          match rel with Ok r -> Some r.Stats.gmean | Error _ -> None)
        pending
    in
    let mean = Exp_common.mean_or_nan drops in
    let worst = if drops = [] then nan else List.fold_left min 1. drops in
    ( table,
      Printf.sprintf "mean drop %.1f%% (paper 1.9%%), worst %.1f%% (paper 6.6%%, netperf)"
        ((1. -. mean) *. 100.)
        ((1. -. worst) *. 100.) )

(* ------------------------------------------------------------------ *)
(* Figs. 7 and 8: the 14-macro x 11-benchmark matrix.                  *)
(* ------------------------------------------------------------------ *)

type matrix_cell = {
  benchmark : string;
  macro : Kernel.macro;
  relative : Stats.summary;
}

let matrix_deferred ?robust batch =
  let spin = if Exp_common.fast () then 256 else 1024 in
  let cf = Wmm_costfn.Cost_function.make arch spin in
  let samples = if Exp_common.fast () then 2 else 3 in
  let base_platform =
    Exp_common.kernel_platform
      ~inject_all:[ Wmm_costfn.Cost_function.nop_padding arch cf ]
      arch
  in
  let pending =
    List.concat_map
      (fun (profile : Profile.t) ->
        List.map
          (fun (label, measure) ->
            let base_get =
              Experiment.summary_deferred batch
                (Experiment.sample_request ~samples ~measure ?robust
                   ~label:("rank base " ^ label) profile base_platform)
            in
            let test_gets =
              List.map
                (fun macro ->
                  let test_platform =
                    Exp_common.kernel_platform
                      ~inject:[ (macro, [ Wmm_costfn.Cost_function.uop cf ]) ]
                      arch
                  in
                  ( macro,
                    Experiment.summary_deferred batch
                      (Experiment.sample_request ~samples ~measure ?robust
                         ~label:
                           (Printf.sprintf "rank %s x %s" label
                              (Kernel.macro_name macro))
                         profile test_platform) ))
                Kernel.all_macros
            in
            (label, base_get, test_gets))
          (measures_of profile))
      (benchmarks ())
  in
  fun () ->
    List.concat_map
      (fun (label, base_get, test_gets) ->
        match base_get () with
        | Error _ -> []
        | Ok base ->
            List.filter_map
              (fun (macro, test_get) ->
                match test_get () with
                | Ok test ->
                    Some
                      {
                        benchmark = label;
                        macro;
                        relative = Stats.ratio_summary ~test ~base;
                      }
                | Error _ -> None)
              test_gets)
      pending

let fig7 cells =
  let table = Table.create [ "macro"; "sum of relative performance" ] in
  let sums =
    List.map
      (fun macro ->
        let total =
          List.fold_left
            (fun acc c -> if c.macro = macro then acc +. c.relative.Stats.gmean else acc)
            0. cells
        in
        (macro, total))
      Kernel.all_macros
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  List.iter
    (fun (macro, total) ->
      Table.add_row table [ Kernel.macro_name macro; Table.float_cell ~decimals:2 total ])
    sums;
  (table, sums)

let fig8 cells =
  let table = Table.create [ "benchmark"; "sum of relative performance" ] in
  let names = List.sort_uniq compare (List.map (fun c -> c.benchmark) cells) in
  let sums =
    List.map
      (fun name ->
        let total =
          List.fold_left
            (fun acc c -> if c.benchmark = name then acc +. c.relative.Stats.gmean else acc)
            0. cells
        in
        (name, total))
      names
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  List.iter
    (fun (name, total) ->
      Table.add_row table [ name; Table.float_cell ~decimals:2 total ])
    sums;
  (table, sums)

let report ?engine ?robust () =
  let (nop_table, nop_summary), cells =
    Experiment.run ?engine (fun batch ->
        let nop_finish = nop_padding_deferred ?robust batch in
        let matrix_finish = matrix_deferred ?robust batch in
        fun () -> (nop_finish (), matrix_finish ()))
  in
  let fig7_table, _ = fig7 cells in
  let fig8_table, _ = fig8 cells in
  String.concat "\n"
    [
      Exp_common.header "In-text table: kernel macro nop padding (4.3)";
      Table.render nop_table;
      nop_summary;
      "";
      Exp_common.header "Figure 7: macro impact ranking (sum over benchmarks, ascending = most impact)";
      "Paper: smp_mb, read_once, read_barrier_depends have the most impact;";
      "mb/rmb/wmb and the acquire/release macros the least.";
      Table.render fig7_table;
      "";
      Exp_common.header "Figure 8: benchmark sensitivity ranking (sum over macros)";
      "Paper: netperf_tcp, lmbench, netperf_udp most sensitive; h2 and spark";
      "almost completely insensitive.";
      Table.render fig8_table;
    ]
