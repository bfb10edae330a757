open Wmm_util
open Wmm_isa
open Wmm_costfn
open Wmm_workload

type measure = Throughput | Response_mean | Response_max

let measure_of_profile (p : Profile.t) =
  match p.Profile.measurement with
  | Profile.Throughput -> Throughput
  | Profile.Response _ -> Response_mean

let value_of measure (r : Bench_runner.result) =
  match measure with
  | Throughput -> r.Bench_runner.throughput
  | Response_mean -> 1. /. r.Bench_runner.response_mean_ns
  | Response_max -> 1. /. r.Bench_runner.response_max_ns

(* Warm-up runs are discarded, as the paper does for JIT warm-up; for
   the simulator they only advance the seed sequence, which keeps sample
   seeds aligned between base and test cases. *)
let warmups = 2

let performance_values ?(samples = 6) ?(seed = 11) ?measure profile platform =
  let measure = match measure with Some m -> m | None -> measure_of_profile profile in
  let seeds = List.init samples (fun i -> seed + ((warmups + i) * 1009)) in
  let results = Bench_runner.samples profile platform ~seeds in
  Array.of_list (List.map (value_of measure) results)

type sweep_point = { iterations : int; cost_ns : float; relative : Stats.summary }

type sweep = {
  benchmark : string;
  arch : Arch.t;
  code_path : string;
  points : sweep_point list;
  dropped : int;
  fit : Sensitivity.fit;
}

let default_iteration_counts = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ]

(* ------------------------------------------------------------------ *)
(* Samples as engine tasks: every figure's atomic measurement is one  *)
(* cacheable, parallelisable [performance_values] summary.            *)
(* ------------------------------------------------------------------ *)

type sample_request = {
  sr_profile : Profile.t;
  sr_platform : Generate.platform;
  sr_samples : int;
  sr_seed : int;
  sr_measure : measure;
  sr_robust : bool;
  sr_plan : Wmm_engine.Fault.t;
  sr_label : string;
}

let sample_request ?(samples = 6) ?(seed = 11) ?measure ?(robust = false) ~label profile
    platform =
  let measure = match measure with Some m -> m | None -> measure_of_profile profile in
  {
    sr_profile = profile;
    sr_platform = platform;
    sr_samples = samples;
    sr_seed = seed;
    sr_measure = measure;
    sr_robust = robust;
    (* Captured once, here: the plan that perturbs this request's raw
       samples is fixed when the task is built, not when it runs. *)
    sr_plan = Wmm_engine.Fault.ambient ();
    sr_label = label;
  }

let sample_key r =
  (* Everything that determines the summary, canonically serialised
     ([No_sharing] so physically different but structurally equal
     configurations produce the same bytes).  The label is display
     metadata and deliberately excluded; the robust flag and the
     fault fingerprint are included so perturbed or robustly-filtered
     summaries never pollute (or reuse) clean cache entries. *)
  let payload =
    Marshal.to_string
      (r.sr_profile, r.sr_platform, r.sr_samples, warmups, r.sr_seed, r.sr_measure)
      [ Marshal.No_sharing ]
  in
  let fp = Wmm_engine.Fault.fingerprint r.sr_plan in
  Printf.sprintf "sample/v2|%s|%s%s%s" r.sr_profile.Profile.name
    (Digest.to_hex (Digest.string payload))
    (if r.sr_robust then "|robust" else "")
    (if fp = "" then "" else "|faults=" ^ fp)

let sample_task r =
  let key = sample_key r in
  Wmm_engine.Task.pure ~key ~label:r.sr_label (fun () ->
      let values =
        performance_values ~samples:r.sr_samples ~seed:r.sr_seed ~measure:r.sr_measure
          r.sr_profile r.sr_platform
      in
      let values = Wmm_engine.Fault.perturb_samples r.sr_plan ~key values in
      let values = if r.sr_robust then Stats.reject_outliers values else values in
      Stats.summarise values)

type batch = Stats.summary Wmm_engine.Engine.Batch.t

let batch () = Wmm_engine.Engine.Batch.create ()
let run_batch engine b = Wmm_engine.Engine.Batch.run engine b

let submit b r = Wmm_engine.Engine.Batch.add b (sample_task r)

let run ?engine producer =
  let engine =
    match engine with Some e -> e | None -> Wmm_engine.Engine.sequential ()
  in
  let b = batch () in
  let finish = producer b in
  run_batch engine b;
  finish ()

let summary_deferred b r =
  let get = submit b r in
  fun () -> Wmm_engine.Engine.value (get ())

let relative_deferred b ?(samples = 6) ?(seed = 11) ?measure ?robust ~label profile ~base
    ~test =
  let test_get =
    submit b
      (sample_request ~samples ~seed ?measure ?robust ~label:(label ^ " [test]") profile
         test)
  in
  let base_get =
    submit b
      (sample_request ~samples ~seed ?measure ?robust ~label:(label ^ " [base]") profile
         base)
  in
  fun () ->
    match
      (Wmm_engine.Engine.value (test_get ()), Wmm_engine.Engine.value (base_get ()))
    with
    | Ok t, Ok bse -> Ok (Stats.ratio_summary ~test:t ~base:bse)
    | Error e, _ | _, Error e -> Error e

let sweep_deferred b ?(samples = 6) ?(seed = 11) ?(light = false) ?iteration_counts
    ?robust ~code_path ~base ~inject profile =
  let arch = Generate.platform_arch base in
  let counts =
    match iteration_counts with Some c -> c | None -> default_iteration_counts
  in
  let label suffix =
    Printf.sprintf "%s/%s/%s %s" profile.Profile.name (Arch.name arch) code_path suffix
  in
  let base_get =
    submit b (sample_request ~samples ~seed ?robust ~label:(label "base") profile base)
  in
  let point_gets =
    List.map
      (fun n ->
        let cf = Cost_function.make ~light arch n in
        let get =
          submit b
            (sample_request ~samples ~seed ?robust
               ~label:(label (Printf.sprintf "n=%d" n))
               profile (inject cf))
        in
        (n, cf, get))
      counts
  in
  let robust = robust = Some true in
  fun () ->
    let total = List.length counts in
    let assemble points =
      (* Degradation, not abortion: with too few surviving points the
         sweep reports an unavailable fit and the figure annotates the
         dropped cells; the rest of the report still renders. *)
      let dropped = total - List.length points in
      let fit =
        if List.length points < 2 then Sensitivity.unavailable
        else
          let xs = Array.of_list (List.map (fun p -> p.cost_ns) points) in
          let ys = Array.of_list (List.map (fun p -> p.relative.Stats.gmean) points) in
          if robust then Sensitivity.fit_k_robust ~xs ~ys else Sensitivity.fit_k ~xs ~ys
      in
      { benchmark = profile.Profile.name; arch; code_path; points; dropped; fit }
    in
    match Wmm_engine.Engine.value (base_get ()) with
    | Error _ ->
        (* No base case: every point is normalised against it, so the
           whole sweep degrades. *)
        assemble []
    | Ok base_summary ->
        List.filter_map
          (fun (n, cf, get) ->
            match Wmm_engine.Engine.value (get ()) with
            | Ok test_summary ->
                Some
                  {
                    iterations = n;
                    cost_ns = Cost_function.standalone_ns cf;
                    relative = Stats.ratio_summary ~test:test_summary ~base:base_summary;
                  }
            | Error _ -> None)
          point_gets
        |> assemble

let inferred_cost_ns (fit : Sensitivity.fit) (relative : Stats.summary) =
  Sensitivity.cost_of_change ~k:fit.Sensitivity.k ~p:relative.Stats.gmean

type divergence = { micro_ns : float; macro_ns : float }

let divergence_interesting d =
  let denom = Float.max (abs_float d.micro_ns) 1e-9 in
  abs_float (d.macro_ns -. d.micro_ns) /. denom > 0.5
