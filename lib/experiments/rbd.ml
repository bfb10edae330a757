(** Paper section 4.3.1: the read_barrier_depends investigation.

    - Fig. 9: sensitivity of the six most macro-sensitive benchmarks
      to the read_barrier_depends code path.  Paper fits: ebizzy
      0.00106+-10%, xalan 0.00038+-10%, netperf_udp 0.00943+-8%,
      osm (avg) 0.00019+-10%, lmbench 0.00525+-10%, netperf_tcp
      0.00355+-10%.
    - Fig. 10: relative performance of the candidate
      read_barrier_depends implementations (base case, ctrl,
      ctrl+isb, dmb ishld, dmb ish, la/sr) on those benchmarks.
      ctrl+isb is unreasonable; dmb ishld / dmb ish are the best
      orderings; xalan actually improves with dmb ishld.
    - T6 (in-text): per-invocation costs inferred from lmbench (ctrl
      4.6, ctrl+isb 24.5, dmb ishld 10.7, dmb ish 11.0, la/sr 21.7
      ns) versus the mean over the other benchmarks (10.1, 24.5, 1.8,
      10.7, 15.9 ns): ctrl and dmb ishld diverge, revealing branch-
      prediction and buffer-state effects microbenchmarks miss. *)

open Wmm_isa
open Wmm_util
open Wmm_platform
open Wmm_workload
open Wmm_core

let arch = Arch.Armv8

let paper_k = function
  | "ebizzy" -> 0.00106
  | "xalan" -> 0.00038
  | "netperf_udp" -> 0.00943
  | "osm_stack" -> 0.00019
  | "lmbench" -> 0.00525
  | "netperf_tcp" -> 0.00355
  | _ -> nan

let subjects () =
  [
    Kernelbench.ebizzy;
    Kernelbench.xalan;
    Kernelbench.netperf_udp;
    Kernelbench.osm_stack;
    Kernelbench.lmbench;
    Kernelbench.netperf_tcp;
  ]

let rbd_sweep batch ?robust (profile : Profile.t) =
  Experiment.sweep_deferred batch ~samples:(Exp_common.samples ())
    ~iteration_counts:(Exp_common.sweep_counts ())
    ?robust ~code_path:"read_barrier_depends"
    ~base:
      (Exp_common.kernel_platform
         ~inject:[ (Kernel.Read_barrier_depends, [ Exp_common.nop_uop arch ~light:false ]) ]
         arch)
    ~inject:(fun cf ->
      Exp_common.kernel_platform
        ~inject:[ (Kernel.Read_barrier_depends, [ Wmm_costfn.Cost_function.uop cf ]) ]
        arch)
    profile

let fig9_deferred ?robust batch =
  let pending = List.map (fun p -> (p, rbd_sweep batch ?robust p)) (subjects ()) in
  fun () ->
    let table = Table.create [ "benchmark"; "fitted k"; "paper k" ] in
    let sweeps =
      List.map (fun (p, finish) -> (p, (finish () : Experiment.sweep))) pending
    in
    List.iter
      (fun ((p : Profile.t), (sweep : Experiment.sweep)) ->
        Table.add_row table
          [
            p.Profile.name;
            Exp_common.fmt_sweep_fit sweep;
            Table.float_cell ~decimals:5 (paper_k p.Profile.name);
          ])
      sweeps;
    (table, sweeps)

(* ------------------------------------------------------------------ *)
(* Fig. 10: candidate implementations.                                 *)
(* ------------------------------------------------------------------ *)

let strategies = Kernel.all_rbd_strategies

(* The base-case sample of each benchmark is shared by all five
   strategies: equal task keys are deduplicated inside the batch. *)
let fig10_deferred ?robust batch =
  let pending =
    List.map
      (fun (profile : Profile.t) ->
        let rels =
          List.filter_map
            (fun strategy ->
              if strategy = Kernel.Rbd_none then None
              else
                Some
                  ( strategy,
                    Experiment.relative_deferred batch
                      ~samples:(Exp_common.samples ())
                      ?robust
                      ~label:
                        (Printf.sprintf "fig10 %s / %s" profile.Profile.name
                           (Kernel.rbd_name strategy))
                      profile
                      ~base:(Exp_common.kernel_platform ~rbd:Kernel.Rbd_none arch)
                      ~test:(Exp_common.kernel_platform ~rbd:strategy arch) ))
            strategies
        in
        (profile, rels))
      (subjects ())
  in
  fun () ->
    let table =
      Table.create
        ("benchmark"
        :: List.map Kernel.rbd_name
             (List.filter (fun s -> s <> Kernel.Rbd_none) strategies))
    in
    let cells =
      List.map
        (fun ((profile : Profile.t), rels) ->
          let finished =
            List.map (fun (strategy, finish) -> (strategy, finish ())) rels
          in
          Table.add_row table
            (profile.Profile.name
            :: List.map
                 (fun (_, outcome) ->
                   match outcome with
                   | Ok rel -> Exp_common.fmt_pct_change rel
                   | Error _ -> "failed")
                 finished);
          ( profile,
            List.filter_map
              (fun (strategy, outcome) ->
                match outcome with Ok rel -> Some (strategy, rel) | Error _ -> None)
              finished ))
        pending
    in
    (table, cells)

(* ------------------------------------------------------------------ *)
(* T6: inferred per-invocation costs (eq. 2) per strategy.             *)
(* ------------------------------------------------------------------ *)

let paper_t6 = function
  | Kernel.Rbd_ctrl -> (4.6, 10.1)
  | Kernel.Rbd_ctrl_isb -> (24.5, 24.5)
  | Kernel.Rbd_dmb_ishld -> (10.7, 1.8)
  | Kernel.Rbd_dmb_ish -> (11.0, 10.7)
  | Kernel.Rbd_la_sr -> (21.7, 15.9)
  | Kernel.Rbd_none -> (0., 0.)

let t6 sweeps cells =
  let table =
    Table.create
      [ "strategy"; "a from lmbench (ns)"; "paper"; "mean a others (ns)"; "paper" ]
  in
  let fit_for name =
    let _, sweep =
      List.find (fun ((p : Profile.t), _) -> p.Profile.name = name) sweeps
    in
    sweep.Experiment.fit
  in
  List.iter
    (fun strategy ->
      if strategy <> Kernel.Rbd_none then begin
        (* Cells missing because their sample failed are excluded
           from the aggregates. *)
        let cost_for (profile : Profile.t) =
          match
            List.find_opt
              (fun ((p : Profile.t), _) ->
                p == profile || p.Profile.name = profile.Profile.name)
              cells
          with
          | None -> None
          | Some (_, rels) ->
              Option.map
                (Experiment.inferred_cost_ns (fit_for profile.Profile.name))
                (List.assoc_opt strategy rels)
        in
        let lmbench_cost =
          match cost_for Kernelbench.lmbench with Some c -> c | None -> nan
        in
        let others =
          List.filter
            (fun (p : Profile.t) -> p.Profile.name <> "lmbench")
            (subjects ())
        in
        let other_costs = List.filter_map cost_for others in
        let mean_others = Exp_common.mean_or_nan other_costs in
        let paper_lm, paper_others = paper_t6 strategy in
        Table.add_row table
          [
            Kernel.rbd_name strategy;
            Table.float_cell ~decimals:1 lmbench_cost;
            Table.float_cell ~decimals:1 paper_lm;
            Table.float_cell ~decimals:1 mean_others;
            Table.float_cell ~decimals:1 paper_others;
          ]
      end)
    strategies;
  table

(* The paper aggregates lmbench as the arithmetic mean of its twelve
   sub-benchmarks after comparison to the base case; this table shows
   the parts individually for one strategy. *)
let lmbench_parts_deferred ?robust batch =
  let samples = if Exp_common.fast () then 2 else 4 in
  let pending =
    List.map
      (fun (part : Profile.t) ->
        ( part,
          Experiment.relative_deferred batch ~samples ?robust
            ~label:("lmbench part " ^ part.Profile.name)
            part
            ~base:(Exp_common.kernel_platform ~rbd:Kernel.Rbd_none arch)
            ~test:(Exp_common.kernel_platform ~rbd:Kernel.Rbd_dmb_ish arch) ))
      Kernelbench.lmbench_parts
  in
  fun () ->
    let table = Table.create [ "lmbench part"; "dmb ish vs base"; "change" ] in
    let changes =
      List.filter_map
        (fun ((part : Profile.t), finish) ->
          let rel = finish () in
          Table.add_row table (part.Profile.name :: Exp_common.relative_cells rel);
          match rel with Ok r -> Some r.Stats.gmean | Error _ -> None)
        pending
    in
    let mean = Exp_common.mean_or_nan changes in
    Table.add_row table
      [ "arithmetic mean"; Printf.sprintf "%.4f" mean;
        Printf.sprintf "%+.1f%%" ((mean -. 1.) *. 100.) ];
    table

let report ?engine ?robust () =
  let (fig9_table, sweeps), (fig10_table, cells), lmbench_table =
    Experiment.run ?engine (fun batch ->
        let fig9_finish = fig9_deferred ?robust batch in
        let fig10_finish = fig10_deferred ?robust batch in
        let lmbench_finish = lmbench_parts_deferred ?robust batch in
        fun () -> (fig9_finish (), fig10_finish (), lmbench_finish ()))
  in
  String.concat "\n"
    [
      Exp_common.header "Figure 9: sensitivity to read_barrier_depends";
      Table.render fig9_table;
      "";
      Exp_common.header "Figure 10: read_barrier_depends strategy comparison (vs base case)";
      Table.render fig10_table;
      "";
      Exp_common.header "In-text table: inferred per-invocation costs (eq. 2), lmbench vs others";
      Table.render (t6 sweeps cells);
      "Divergence between the two columns marks strategies with complex";
      "context-dependent behaviour (the paper highlights ctrl and dmb ishld).";
      "";
      Exp_common.header "lmbench sub-benchmarks (aggregated by arithmetic mean, as in the paper)";
      Table.render lmbench_table;
    ]
