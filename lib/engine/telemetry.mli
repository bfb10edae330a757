(** Run telemetry: what the engine did, how long each task took, and
    a structured end-of-run summary.

    Records accumulate across every batch an engine executes; the
    summary aggregates them together with the cache counters.  The
    whole data set can be rendered as a human-readable block or
    dumped as JSON ([wmm_bench figure ... --telemetry out.json]). *)

type outcome =
  | Ran  (** Computed by a worker. *)
  | Cache_hit  (** Served from the result cache. *)
  | Replayed  (** Served from a resume journal ([--resume]). *)
  | Failed of string  (** The task raised; the message is recorded. *)

type record = {
  label : string;
  key : string;
  wall_s : float;  (** Task wall-clock (0 for cache hits). *)
  queue_depth : int;  (** Tasks not yet started when this one began. *)
  outcome : outcome;
  attempts : int;
      (** Attempts the engine made (1 = first try succeeded; 0 for
          cache hits and journal replays, which never ran at all). *)
}

type exploration = {
  explored : int;  (** Complete executions the search reached. *)
  pruned : int;  (** Search subtrees cut by the viability screen. *)
  consistent : int;  (** Executions the model allowed. *)
  revisits : int;  (** rf promises to future writes. *)
  symmetry_skips : int;  (** Combos and insertion points cut by symmetry. *)
  explore_wall_s : float;  (** Wall-clock spent inside exploration. *)
}
(** Counters from the candidate-execution search
    ([Enumerate.global_stats] snapshot), attached to a run's
    telemetry by the harness that drove the engine. *)

type server = {
  mutable requests : int;
  mutable ok : int;
  mutable request_errors : int;
  mutable overloaded : int;  (** Requests shed with a structured reply. *)
  mutable computed : int;  (** Requests that ran their computation. *)
  mutable cache_hits : int;  (** Requests answered from the result cache. *)
  mutable journal_hits : int;  (** Requests answered from the resume journal. *)
  mutable dedup_joined : int;
      (** Requests that joined an identical in-flight computation. *)
  mutable streamed_items : int;  (** Response objects written (>= requests). *)
  mutable clients : int;  (** Connections accepted over the lifetime. *)
  mutable hit_wall_total_s : float;
      (** Latency over cache/journal/dedup answers. *)
  mutable hit_wall_max_s : float;
  mutable compute_wall_total_s : float;  (** Latency over computed answers. *)
  mutable compute_wall_max_s : float;
  mutable max_pending : int;  (** Peak admitted-but-unfinished requests. *)
  mutable max_client_queue : int;  (** Peak per-client response backlog. *)
  mutable deadline_exceeded : int;
      (** Requests answered with a structured [deadline_exceeded] frame. *)
  mutable executor_recycles : int;
      (** Executor threads quarantined after overrunning a deadline and
          replaced with a fresh one. *)
  mutable client_retries : int;
      (** Requests that arrived marked as client-side retries
          (an envelope [retry] count > 0). *)
}
(** Request counters from the served daemon ({!Wmm_served}), attached
    to its engine's telemetry so one JSON dump describes both the
    request traffic and the task work it caused.  The daemon counts
    into one record under its own lock and attaches a copy. *)

val create_server : unit -> server
(** All counters zero. *)

val server_fields : server -> (string * Wmm_util.Json.t) list
(** The counters under the served [stats] op's names and units, in
    declaration order; each [*_s] latency becomes whole microseconds
    under [*_us].  The [stats] answer and the dump's [server] object
    both render the counters through this list. *)

type t

val create : unit -> t

val add : t -> record -> unit
(** Thread-safe; call from worker domains. *)

val set_exploration : t -> exploration -> unit
(** Attach exploration counters to the run (last call wins). *)

val set_server : t -> server -> unit
(** Attach served-daemon request counters (last call wins). *)

val add_batch_wall : t -> float -> unit
(** Accumulate the wall-clock of one engine batch (the denominator
    of the speedup estimate). *)

val records : t -> record list
(** In insertion (completion) order. *)

type summary = {
  jobs : int;
  total : int;
  ran : int;
  cached : int;
  replayed : int;  (** Tasks served from the resume journal. *)
  retried : int;  (** Tasks that needed more than one attempt. *)
  failed : int;
  wall_s : float;  (** Total batch wall-clock. *)
  busy_s : float;  (** Sum of per-task wall-clocks. *)
  speedup_estimate : float;
      (** [busy_s /. wall_s]: how much faster the run was than a
          sequential execution of the same (uncached) tasks. *)
  max_queue_depth : int;
  cache : Cache.stats;
  exploration : exploration option;
      (** Present when the harness recorded exploration counters. *)
  server : server option;
      (** Present when a served daemon recorded request counters. *)
}

val summary : jobs:int -> cache:Cache.stats -> t -> summary

val render_summary : summary -> string
(** Multi-line human-readable block, e.g. for stderr. *)

val schema_version : int
(** Version of the JSON layout written by {!write_json}, included as the
    dump's [schema_version] field; bumped on layout changes so
    downstream parsers can evolve safely. *)

val write_json : path:string -> summary -> record list -> unit
(** Write the full run as one line of JSON: the [schema_version], the
    summary fields, plus a [tasks] array with per-task label,
    wall-clock, queue depth, attempts and outcome. *)
