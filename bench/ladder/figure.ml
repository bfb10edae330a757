(* fig5: the paper side.  One op is one [Fig5.report] in fast mode on a
   two-job engine with caching off; its check is byte-identity with the
   checked-in report.  The traced run adds a sequential figure and a
   sequential replica of the figure's sample set, which calls the
   simulator layers ([Generate.streams], [Perf.run]) with
   [Bench_runner]'s arguments and then [Sensitivity.fit_k], so their
   time can be attributed from outside the program. *)

open Wmm_isa
open Wmm_workload
open Wmm_machine
open Common
module Engine = Wmm_engine.Engine
module Fig5 = Wmm_experiments.Fig5
module Exp_common = Wmm_experiments.Exp_common

let jobs = 2

let golden = Filename.concat data "expected/fig5_fast.txt"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The smoke run stands in one sweep (one benchmark on one arch, five
   engine tasks) for the sixteen of the figure. *)
let sweeps (c : ctx) =
  let all = List.concat_map (fun arch -> List.map (fun p -> (arch, p)) Dacapo.all) Arch.all in
  if c.smoke then [ List.hd all ] else all

let figure c engine =
  if c.smoke then begin
    let batch = Wmm_core.Experiment.batch () in
    let finish =
      List.map (fun (arch, p) -> Fig5.sweep_benchmark batch arch p) (sweeps c)
    in
    Wmm_core.Experiment.run_batch engine batch;
    String.concat "\n"
      (List.map
         (fun f -> Exp_common.fmt_sweep_fit (f () : Wmm_core.Experiment.sweep))
         finish)
  end
  else Fig5.report ~engine ()

let check c t ~ms report =
  let ok, msg =
    if c.smoke then (report <> "", "the one-sweep slice rendered nothing")
    else
      match read_file golden with
      | expected -> (report = expected, "report differs from " ^ golden)
      | exception Sys_error e -> (false, e)
  in
  op t ~lat_ms:ms ok (fun () -> msg)

(* Set-up is engine creation plus one cold simulated run of the
   figure's first sample, so first-touch costs stay out of the timed
   figure. *)
let setup c =
  Unix.putenv "WMM_FAST" "1";
  let engine = Engine.create ~jobs () in
  let arch, p = List.hd (sweeps c) in
  ignore (Bench_runner.run p (Exp_common.jvm_nop_base arch) ~seed:11);
  engine

let timed_figure c t engine =
  settle ();
  let a = now_s () in
  let report = figure c engine in
  let wall = now_s () -. a in
  check c t ~ms:(wall *. 1e3) report;
  wall

let run c engine =
  let t = tally () in
  let wall = timed_figure c t engine in
  e2e_report t ~rates:[| 1. /. wall |] ~rss_mb:(vm_hwm_mb "self")

(* ------------------------------------------------------------------ *)
(* The sequential replica.                                              *)
(* ------------------------------------------------------------------ *)

type perf = {
  mutable uops : int;
  mutable cycles : int;
  mutable fence_stalls : int;
  mutable requests : int;
}

(* One simulated run, as [Bench_runner.simulate] makes it. *)
let simulate pf (p : Profile.t) platform ~units ~seed =
  let arch = Generate.platform_arch platform in
  let streams =
    Span.with_ "workload.generate" (fun () ->
        Generate.streams ~units_override:units p platform ~seed)
  in
  let config = Perf.config ~seed ~cores:(max 1 (Array.length streams)) arch in
  let s = Span.with_ "machine.perf" (fun () -> Perf.run config streams) in
  pf.uops <- pf.uops + s.Perf.uops_executed;
  pf.cycles <- pf.cycles + s.Perf.wall_cycles;
  pf.fence_stalls <- pf.fence_stalls + s.Perf.fence_stall_cycles;
  Perf.wall_ns config s

(* One sample request: [Exp_common.samples ()] measured runs after two
   warm-up seeds from seed 11, as [Experiment.performance_values] draws
   them.  The value is the noiseless performance (1 / time), which is
   all the fit replica needs. *)
let sample pf (p : Profile.t) platform =
  pf.requests <- pf.requests + 1;
  Span.with_ ~op:pf.requests "op.sample" (fun () ->
      Array.init (Exp_common.samples ()) (fun i ->
          let seed = 11 + ((2 + i) * 1009) in
          match p.Profile.measurement with
          | Profile.Throughput ->
              1. /. simulate pf p platform ~units:p.Profile.units_per_thread ~seed
          | Profile.Response requests ->
              let units = max 1 (p.Profile.units_per_thread / requests) in
              let times =
                Array.init requests (fun r ->
                    simulate pf p platform ~units ~seed:(seed + (r * 131)))
              in
              ignore (simulate pf p platform ~units:1 ~seed);
              1. /. Wmm_util.Stats.mean times))

let replica c pf =
  List.iter
    (fun (arch, p) ->
      let light = Exp_common.light_for arch in
      let base = Wmm_util.Stats.geometric_mean (sample pf p (Exp_common.jvm_nop_base arch)) in
      let points =
        List.map
          (fun n ->
            let cf = Wmm_costfn.Cost_function.make ~light arch n in
            let platform =
              Exp_common.jvm_platform ~inject_all:[ Wmm_costfn.Cost_function.uop cf ] arch
            in
            ( Wmm_costfn.Cost_function.standalone_ns cf,
              Wmm_util.Stats.geometric_mean (sample pf p platform) /. base ))
          (Exp_common.sweep_counts ())
      in
      let xs = Array.of_list (List.map fst points) and ys = Array.of_list (List.map snd points) in
      ignore (Span.with_ "core.fit" (fun () -> Wmm_core.Sensitivity.fit_k ~xs ~ys)))
    (sweeps c)

let task_ms c engine =
  let path = Filename.concat c.scratch "engine.json" in
  Engine.write_telemetry engine path;
  let tasks =
    match Result.map (Wmm_served.Json.member "tasks") (Wmm_served.Json.parse (read_file path)) with
    | Ok (Some (Wmm_served.Json.Arr ts)) -> ts
    | _ -> []
  in
  Array.of_list
    (List.filter_map
       (fun j -> Option.map (fun s -> s *. 1e3) (Metrics.float_member "wall_s" j))
       tasks)

let trace c engine =
  let t = tally () in
  let figure_s = timed_figure c t engine in
  let s = Engine.summary engine in
  let ms = task_ms c engine in
  (* The sequential figure, one span, for the true 2-job scaling. *)
  Span.enabled := true;
  let seq_engine = Engine.create ~jobs:1 () in
  let seq_s =
    Span.with_ "fig5.report" (fun () -> timed_figure c t seq_engine)
  in
  let pf = { uops = 0; cycles = 0; fence_stalls = 0; requests = 0 } in
  settle ();
  let a = now_s () in
  replica c pf;
  let replica_s = now_s () -. a in
  Span.enabled := false;
  let tasks = s.Wmm_engine.Telemetry.total in
  if pf.requests <> tasks then
    fail t (Printf.sprintf "replica made %d sample requests, the engine ran %d tasks" pf.requests tasks);
  let perf_busy = covered_s [ "machine.perf" ] in
  layer_report t
    ~counters:
      ([
         ("machine.perf.uops", float_of_int pf.uops);
         ("machine.perf.sim_cycles", float_of_int pf.cycles);
         ("machine.perf.fence_stall_cycles", float_of_int pf.fence_stalls);
         ("machine.perf.uops_per_s", float_of_int pf.uops /. perf_busy);
         ("engine.tasks", float_of_int tasks);
         ("engine.busy_s", s.Wmm_engine.Telemetry.busy_s);
         ("engine.task_ms_p50", Metrics.percentile ms 50.);
         ("engine.task_ms_p99", Metrics.percentile ms 99.);
         ("engine.speedup_estimate", s.Wmm_engine.Telemetry.speedup_estimate);
         ("engine.scaling", seq_s /. figure_s);
       ]
      @ trace_health ~untraced_s:seq_s ~traced_s:replica_s
          ~covered_s:(covered_s [ "workload.generate"; "machine.perf"; "core.fit" ]))
