(** Seeded fault-injection harness for the exploration daemon.

    A chaos run drives a {e live} [wmm_bench serve] process (spawned
    as a child) through a deterministic, seed-derived schedule of
    faults — [kill -9] mid-battery, cache entries corrupted on disk,
    journal lines torn or whole journals deleted, clients yanked
    mid-stream, deadline-doomed requests — while a resilient client
    keeps replaying a fixed litmus battery.  At the end it asserts
    two things:

    - {b verdicts}: every battery request's response items are
      line-for-line identical to what a pristine in-process run of
      the same requests computes ({!Wmm_served.Ops.compute} on a
      sequential engine — the same code path a one-shot CLI run
      takes);
    - {b accounting}: every injected fault is visible in a telemetry
      counter or an on-disk artefact (quarantined [.corrupt] files,
      [verify_failures], [deadline_exceeded], [executor_recycles],
      [client_retries]), i.e. nothing was silently swallowed.

    The schedule is a pure function of [seed], so a failing run is
    replayed exactly by re-running with the same seed against the
    same binary.  Wall-clock interleaving (which executor got which
    request, how many retries a kill cost) is {e not} deterministic —
    only the verdicts and the fault schedule are, which is what the
    report separates. *)

type config = {
  seed : int;  (** Root of the fault schedule; same seed, same faults. *)
  bin : string;  (** Path to the [wmm_bench] binary to spawn. *)
  socket_path : string;
  cache_dir : string;
      (** Scratch directory, {b wiped at the start of the run}. *)
  battery_limit : int;
      (** Cap on battery size; [0] = the whole litmus library. *)
  kills : int;  (** [kill -9] + restart cycles. *)
  corruptions : int;  (** Cache entries garbled on disk (distinct keys). *)
  disconnects : int;  (** Clients dropped mid-stream. *)
  deadline_probes : int;
      (** Doomed requests that must die by [deadline_ms]. *)
  slow_iterations : int;
      (** Iteration count of the slow random-mode requests kept in
          flight across kills (bigger = safer overlap, slower run). *)
  jobs : int;  (** Worker domains of the spawned daemon. *)
  executors : int;  (** Executor threads of the spawned daemon. *)
  verbose : bool;  (** Pass the daemon's stderr through. *)
}

val default_config : bin:string -> dir:string -> config
(** Seed 7; socket and cache under [dir]; whole library; 3 kills, 2
    corruptions, 2 disconnects, 1 deadline probe; 100k-iteration slow
    requests; 2 worker domains, 2 executors; quiet. *)

type report = {
  r_battery : int;  (** Requests in the battery. *)
  r_verdicts : string list;
      (** One deterministic [verdict|<id>|<seq>|<item>] line per
          response item of the final battery wave, battery order.
          Byte-identical across runs with the same seed and binary —
          this is what CI diffs. *)
  r_mismatches : (string * string) list;
      (** Battery ids whose final-wave items differ from the pristine
          in-process computation, with a short detail. *)
  r_kills : int;
  r_corruptions : int;
  r_disconnects : int;
  r_torn_appends : int;
  r_lost_journals : int;
  r_deadline_probes : int;
  r_deadline_hits : int;
      (** Probes actually answered with [deadline_exceeded]. *)
  r_client_retries : int;  (** Resends by the resilient client. *)
  r_client_reconnects : int;
  r_counters : (string * int) list;
      (** Server telemetry counters summed across daemon
          incarnations (each [kill -9] resets the live counters, so
          the harness snapshots after every wave and sums the largest
          value each incarnation reported). *)
  r_corrupt_files : int;
      (** Quarantined [.corrupt] files on disk once the daemon has
          stopped, before the final fsck. *)
  r_journal_fsck : Wmm_engine.Journal.fsck_report;
  r_cache_fsck : Wmm_engine.Cache.fsck_report;
  r_failures : string list;
      (** Accounting violations; empty on a clean run. *)
  r_log : string list;  (** Chronological fault/wave log. *)
}

val ok : report -> bool
(** No verdict mismatches and no accounting failures. *)

val run : config -> report
(** Execute one chaos run.  Spawns and finally terminates the daemon;
    wipes and repopulates [cache_dir].  Raises [Failure] only when
    the daemon cannot be started at all — every in-run fault is part
    of the game and lands in the report instead. *)

val render : report -> string
(** Human-readable multi-line report: the deterministic verdict lines
    first (the CI-diffable section), then the fault log, counters and
    the verdict/accounting summary. *)
