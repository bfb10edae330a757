open Wmm_util
open Wmm_isa
open Wmm_workload

(** Running benchmarks across fencing strategies and extracting the
    paper's measurements: relative performance with compounded
    errors and variable-cost sensitivity sweeps with fitted [k].

    Every measurement reduces to one procedure, the paper's: discarded
    warm-ups, then [samples] runs summarised by a geometric mean with
    a Student-t interval.  Each such summary is one [wmm_engine] task.
    Figure code first {e submits} all its samples into a shared
    {!batch}, the batch is fanned out across worker domains (and
    served from the result cache and journal) by {!run_batch}, and
    only then are the finalizer closures invoked to assemble sweeps,
    ratios and tables from the completed summaries.  Assembly depends
    only on task results, never on completion order, so output is
    bit-identical for any [--jobs] setting.  {!run} does all three
    steps. *)

type measure = Throughput | Response_mean | Response_max

val measure_of_profile : Profile.t -> measure
(** [Response_mean] for response-mode profiles, else [Throughput]. *)

val performance_values :
  ?samples:int ->
  ?seed:int ->
  ?measure:measure ->
  Profile.t ->
  Generate.platform ->
  float array
(** The raw per-sample performance values ([samples] of them, default
    6, after two discarded warm-up runs).  Higher is better for every
    measure (response times are inverted).  The body of every sample
    task, and the seam where fault-injected outlier perturbation and
    robust filtering apply, before summarisation. *)

(** {1 Variable-cost sensitivity sweeps} *)

type sweep_point = {
  iterations : int;  (** Cost-function loop count. *)
  cost_ns : float;  (** Its calibrated standalone execution time. *)
  relative : Stats.summary;  (** Performance relative to the nop base case. *)
}

type sweep = {
  benchmark : string;
  arch : Arch.t;
  code_path : string;
  points : sweep_point list;
  dropped : int;
      (** Sweep points whose sample task failed permanently; they are
          excluded from [points] and from the fit, and annotated in
          the figures. *)
  fit : Sensitivity.fit;
}

(** {1 Batches of sample tasks} *)

type sample_request

val sample_request :
  ?samples:int ->
  ?seed:int ->
  ?measure:measure ->
  ?robust:bool ->
  label:string ->
  Profile.t ->
  Generate.platform ->
  sample_request
(** One {!performance_values} summary (default 6 samples from seed
    11, the profile's own measure).  [label] is only used in
    telemetry.  With [robust] (default false) the raw samples pass
    through MAD-based outlier rejection before summarisation.  The
    ambient fault plan ({!Wmm_engine.Fault.ambient}) is captured into
    the request: its outlier perturbation applies to the raw samples,
    and its fingerprint becomes part of the cache key.  Requests with
    equal content share one task in a batch. *)

type batch = Stats.summary Wmm_engine.Engine.Batch.t

val batch : unit -> batch
val run_batch : Wmm_engine.Engine.t -> batch -> unit

val run : ?engine:Wmm_engine.Engine.t -> (batch -> unit -> 'a) -> 'a
(** [run ?engine submit] creates a batch, lets [submit] add its
    samples and return a finalizer, runs the batch on [engine]
    (default: a fresh {!Wmm_engine.Engine.sequential}) and returns the
    finalizer's value. *)

val summary_deferred :
  batch -> sample_request -> unit -> (Stats.summary, string) result

val relative_deferred :
  batch ->
  ?samples:int ->
  ?seed:int ->
  ?measure:measure ->
  ?robust:bool ->
  label:string ->
  Profile.t ->
  base:Generate.platform ->
  test:Generate.platform ->
  unit ->
  (Stats.summary, string) result
(** Normalised performance of [test] against [base] with the paper's
    pessimistic error compounding: submits the base and test samples,
    returns a finalizer.  [Error] when either sample failed. *)

val sweep_deferred :
  batch ->
  ?samples:int ->
  ?seed:int ->
  ?light:bool ->
  ?iteration_counts:int list ->
  ?robust:bool ->
  code_path:string ->
  base:Generate.platform ->
  inject:(Wmm_costfn.Cost_function.t -> Generate.platform) ->
  Profile.t ->
  unit ->
  sweep
(** Run the benchmark across increasing cost-function sizes injected
    by [inject], normalise each against the nop-padded [base], and
    fit the sensitivity model.  Default iteration counts are powers
    of two from 1 to 512 (covering the paper's 2^0..2^8 ns x-axis).
    Submits the base sample and one sample per cost size, returns a
    finalizer assembling the sweep.  Failed points are dropped from
    the fit and counted in [dropped] (crash isolation); a failed base
    - or fewer than two surviving points - degrades the whole sweep
    to [Sensitivity.unavailable] instead of raising.  With [robust]
    the samples are outlier-filtered and the fit is Huber-weighted
    ({!Sensitivity.fit_k_robust}). *)

(** {1 Cost inference (eq. 2) and micro/macro divergence} *)

val inferred_cost_ns : Sensitivity.fit -> Stats.summary -> float
(** Per-invocation cost (ns) a fencing change must have to explain
    the observed relative performance, given the benchmark's fitted
    sensitivity. *)

type divergence = {
  micro_ns : float;  (** In-vitro: microbenchmark of the sequences. *)
  macro_ns : float;  (** In-vivo: inferred from the benchmark. *)
}

val divergence_interesting : ?threshold:float -> divergence -> bool
(** True when in-vitro and in-vivo disagree by more than [threshold]
    (default 50%) relatively - which the paper reads as the benchmark
    exercising memory-system state that microbenchmarks cannot. *)
