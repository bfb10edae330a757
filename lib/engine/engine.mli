(** The experiment execution engine.

    An engine fans independent tasks (see {!Task}) out across a pool
    of worker domains, consults the run journal and the result cache
    before computing, isolates per-task crashes, retries transient
    failures with capped exponential backoff, and accumulates run
    telemetry.  One engine is created per run (CLI invocation, bench
    harness run, test); its telemetry spans every batch submitted to
    it.

    Because tasks are pure functions of their key-derived inputs and
    results are written back by submission index, output is
    bit-identical for any [jobs] setting and any scheduling
    interleaving - including runs where transient faults were
    injected and recovered by retry. *)

type t

type 'a outcome =
  | Computed of 'a
  | Cached of 'a  (** Served from the result cache. *)
  | Replayed of 'a  (** Served from the resume journal. *)
  | Failed of string
      (** The task raised (crash isolation) and could not be
          recovered by retrying, or overran the soft deadline when
          one was configured. *)

val create :
  ?jobs:int ->
  ?pool:Workqueue.t ->
  ?cache:Cache.t ->
  ?soft_deadline_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?faults:Fault.t ->
  ?journal:Journal.t ->
  unit ->
  t
(** [jobs] defaults to 1 (sequential; [0] means all domains as
    reported by [Domain.recommended_domain_count]); [cache] to
    {!Cache.disabled}.  Every task's RNG stream derives from its key
    alone ({!Task.rng_for}).

    [pool], when given, is a persistent {!Workqueue} shared with the
    caller (and possibly with other engines): batches submit to it
    instead of spinning up a one-shot pool, [jobs] is taken from the
    queue, and the engine never shuts it down.  This is how the
    served daemon keeps one set of warm worker domains across every
    request.  Because results land by submission index and task RNGs
    derive from keys, output is bit-identical across [jobs] settings,
    pool sharing, and concurrent [run_all] calls from several
    threads.

    [soft_deadline_s], when given, marks any task whose wall-clock
    exceeds it as [Failed].  The deadline is enforced twice: a
    cooperative cancellation token fires mid-task (the explorer's
    backtracking loop and the operational machine poll it, so even a
    pathological task stops within milliseconds of the deadline), and
    a post-hoc wall-clock check catches tasks that never polled.
    Enabling it trades run-to-run determinism of failure marking for
    boundedness.  Overrun results are discarded: neither cached nor
    journaled.

    [retries] (default 2) is how many times a transiently-failing
    attempt is retried before the task settles as [Failed];
    [backoff_s] (default 0.05) seeds the capped exponential backoff
    ([backoff_s * 2^attempt], capped at 2s) slept between attempts.
    Only exceptions classified transient by {!Fault.transient_exn}
    are retried.

    [faults] is the injection plan (defaults to {!Fault.ambient}[ ()],
    which the CLI sets from [--inject-faults]).  [journal], when
    given, replays completed results from a previous interrupted run
    and records every settled task for the next one. *)

val sequential : unit -> t
(** Fresh single-threaded engine with caching disabled: the drop-in
    default for library callers that were previously direct calls. *)

val jobs : t -> int
val cache : t -> Cache.t
val journal : t -> Journal.t option

val with_cancel : t -> Wmm_util.Cancel.t -> t
(** [with_cancel t token] is [t] with [token] as the parent of every
    per-task cancellation token in batches submitted through the
    returned handle.  All mutable state (telemetry, cache, pool) is
    shared with [t] — this scopes cancellation per submission, which
    is how the served daemon enforces one request's [deadline_ms]
    without disturbing concurrent requests.  Tasks observe
    cancellation cooperatively (the explorer and the operational
    machine poll the ambient token) and settle as [Failed]; a
    cancelled attempt is never retried, cached or journaled. *)

val run_all : t -> 'a Task.t array -> 'a outcome array
(** Execute one batch.  Result [i] corresponds to task [i].  Per
    task: journal replay is consulted first, then the cache, then up
    to [1 + retries] attempts run.  Once the token of {!with_cancel}
    has fired, tasks not yet started are skipped, and the batch raises
    {!Wmm_util.Cancel.Cancelled} when the running ones have settled. *)

val run : t -> 'a Task.t -> 'a outcome

val value : 'a outcome -> ('a, string) result
val get : 'a outcome -> 'a
(** Raises [Failure] with the recorded message on [Failed]. *)

val set_exploration : t -> Telemetry.exploration -> unit
(** Attach candidate-search counters (an [Enumerate.global_stats]
    snapshot taken by the harness) to this run's telemetry. *)

val set_server : t -> Telemetry.server -> unit
(** Attach served-daemon request counters to this run's telemetry
    (the daemon calls this before every summary/dump). *)

val summary : t -> Telemetry.summary
val render_summary : t -> string
val write_telemetry : t -> string -> unit
(** Dump summary plus per-task records as JSON to the given path. *)

(** A batch under construction: collect tasks from several
    independent producers (e.g. every sweep of a figure), run them
    as one fan-out, then read each producer's results back through
    the getter [add] returned.  Tasks with equal keys are
    deduplicated - the second [add] returns the first's getter. *)
module Batch : sig
  type engine := t
  type 'a t

  val create : unit -> 'a t

  val add : 'a t -> 'a Task.t -> unit -> 'a outcome
  (** The returned getter raises [Invalid_argument] until {!run} has
      been called on the batch. *)

  val run : engine -> 'a t -> unit
end
