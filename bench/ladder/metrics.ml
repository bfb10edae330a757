(* The metric catalog, the statistics the ladder reports, and the JSON
   it prints.  BENCHMARK.json at the repository root mirrors [end_to_end]
   and [per_layer]; the smoke test checks that the two agree. *)

module Json = Wmm_served.Json

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }

let better_name = function Lower -> "lower" | Higher -> "higher"

let e name unit_ better bound = { name; unit_; better; bound = Some bound }
let l name unit_ better = { name; unit_; better; bound = None }

(* Regression bounds are shares of the parent's median.  They are set
   by the run-to-run spread of ten seeds on a shared two-vCPU host,
   where slow phases lasting longer than a run moved throughput and
   tail latency of the memory-heavy workloads by up to 20%; set-up time
   gets the largest bound. *)
let end_to_end =
  [
    e "setup_s" "s" Lower 0.25;
    e "ops_per_s" "ops/s" Higher 0.24;
    e "latency_ms_p50" "ms" Lower 0.24;
    e "latency_ms_p99" "ms" Lower 0.24;
    e "peak_rss_mb" "MB" Lower 0.2;
  ]

let per_layer =
  [
    l "litmus.parse.busy_s" "s" Lower;
    l "litmus.parse.calls" "count" Lower;
    l "model.explore.busy_s" "s" Lower;
    l "model.explore.calls" "count" Lower;
    l "model.explore.p50_ms" "ms" Lower;
    l "model.explore.p99_ms" "ms" Lower;
    l "model.explored" "count" Lower;
    l "model.consistent" "count" Lower;
    l "model.pruned" "count" Higher;
    l "model.revisits" "count" Lower;
    l "model.symmetry_skips" "count" Higher;
    l "model.useful_ratio" "ratio" Higher;
    l "machine.relaxed.busy_s" "s" Lower;
    l "machine.relaxed.calls" "count" Lower;
    l "machine.relaxed.outcomes" "count" Lower;
    l "certify.emit.busy_s" "s" Lower;
    l "certify.emit.calls" "count" Lower;
    l "certify.skipped" "count" Lower;
    l "cert.serialize.busy_s" "s" Lower;
    l "cert.bytes" "bytes" Lower;
    l "cert.check.busy_s" "s" Lower;
    l "cert.rejected" "count" Lower;
    l "synth.generate.busy_s" "s" Lower;
    l "synth.tests" "count" Higher;
    l "workload.generate.busy_s" "s" Lower;
    l "workload.generate.calls" "count" Lower;
    l "machine.perf.busy_s" "s" Lower;
    l "machine.perf.calls" "count" Lower;
    l "machine.perf.uops" "count" Lower;
    l "machine.perf.sim_cycles" "count" Lower;
    l "machine.perf.fence_stall_cycles" "count" Lower;
    l "machine.perf.uops_per_s" "1/s" Higher;
    l "core.fit.busy_s" "s" Lower;
    l "core.fit.calls" "count" Lower;
    l "engine.tasks" "count" Lower;
    l "engine.busy_s" "s" Lower;
    l "engine.task_ms_p50" "ms" Lower;
    l "engine.task_ms_p99" "ms" Lower;
    l "engine.speedup_estimate" "x" Higher;
    l "engine.scaling" "x" Higher;
    l "served.roundtrip.busy_s" "s" Lower;
    l "served.computed" "count" Lower;
    l "served.hits" "count" Higher;
    l "served.hit_ms_mean" "ms" Lower;
    l "served.compute_ms_mean" "ms" Lower;
    l "served.overloaded" "count" Lower;
    l "trace.coverage" "ratio" Higher;
    l "trace.overhead" "ratio" Lower;
  ]

(* The counts that repeat exactly for a fixed seed: the only counts a
   later change may cite. *)
let exact_counts =
  [
    "model.explored"; "model.consistent"; "model.pruned"; "model.revisits";
    "model.symmetry_skips"; "machine.relaxed.outcomes"; "cert.bytes"; "machine.perf.uops";
    "machine.perf.sim_cycles"; "machine.perf.fence_stall_cycles"; "engine.tasks";
    "served.computed"; "served.hits"; "synth.tests";
  ]

let find name = List.find (fun m -> m.name = name) (end_to_end @ per_layer)

(* ------------------------------------------------------------------ *)
(* Statistics.                                                          *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let percentile a p = if Array.length a = 0 then nan else Wmm_util.Stats.percentile a p
let median a = percentile a 50.

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(n=4), the rule the run-set spread is judged
   by. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let ci95 a =
  if Array.length a < 2 then (nan, nan)
  else
    let i = Wmm_util.Stats.confidence_interval a in
    (i.Wmm_util.Stats.lo, i.Wmm_util.Stats.hi)

(* ------------------------------------------------------------------ *)
(* JSON.                                                                *)
(* ------------------------------------------------------------------ *)

(* Every digit the float carries: the shortest of %.15g / %.17g that
   reads back exactly. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let jnum f = Json.Raw (num (if Float.is_finite f then f else 0.))

let metric_json name v = (name, Json.Obj [ ("value", jnum v); ("unit", Json.Str (find name).unit_) ])

let float_member name j =
  match Json.member name j with Some (Json.Num f) -> Some f | _ -> None
