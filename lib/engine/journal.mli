(** Checkpoint/resume journal: a JSONL record of completed task
    outcomes, one file per run id under [_wmm_cache/journal/].

    The engine appends every settled task to the journal as it runs;
    when a run is interrupted (crash, kill, deadline) a rerun with the
    same run id replays the journaled results and computes only the
    remainder.  Unlike the result cache, journal entries are
    self-contained (the marshalled value is embedded hex-encoded in
    the line), so resume works even under [--no-cache].

    Durability discipline: every record is one [write(2)] of a whole
    line to an O_APPEND descriptor, so an append costs O(line) and
    concurrent writers never interleave inside a record.  A crash can
    tear at most the final line; unparseable lines (torn appends,
    foreign writers) are skipped on load, and {!fsck} compacts them
    away.  A writer whose journal ends in a torn line starts its first
    record on a fresh line, so the fragment never swallows it.

    Line format (one JSON object per line):
    {v
    {"key": "<task key>", "status": "ok", "digest": "<md5 hex>", "value": "<hex marshal>"}
    {"key": "<task key>", "status": "failed", "msg": "<message>"}
    v}
    The digest is the MD5 of the raw marshalled value and is checked
    on load: a flipped bit inside the payload would otherwise still
    parse and replay as a plausible wrong result.  Lines without the
    field (older journals) load unverified.  Failed entries are
    recorded for post-mortems but never replayed: the failure may
    have been transient. *)

type t

val hex_encode : string -> string
(** Lowercase hex, two digits per byte: the value field's encoding. *)

val hex_decode : string -> string
(** Inverse of {!hex_encode}; accepts either case.  Raises [Failure]
    on an odd length or a byte that is not a hex digit. *)

val default_dir : string
(** [_wmm_cache/journal]. *)

val derived_run_id : tag:string -> string list -> string
(** [derived_run_id ~tag parts] builds a stable run id from a
    human-readable tag plus a short digest of [parts] (figure id,
    code version, fault fingerprint, ...): rerunning the identical
    request derives the identical id, so resume-on-rerun is
    automatic without the user naming runs. *)

val open_ : ?dir:string -> run_id:string -> unit -> t
(** Open (creating lazily on first append) the journal for [run_id],
    loading any entries a previous run left behind.  The run id is
    sanitised to filename-safe characters. *)

val path : t -> string
val run_id : t -> string

val loaded : t -> int
(** Number of distinct replayable (ok) entries found on open. *)

val dropped : t -> int
(** Number of lines skipped on open as torn, digest-mismatched or
    foreign.  Nonzero after a crash mid-append (expected, at most the
    final line per crashed writer) or after on-disk damage. *)

val replay : t -> key:string -> 'a option
(** The journaled value for [key], if a completed entry exists.  The
    caller must expect the same type the value was recorded at (task
    keys version their payload type, as with the cache). *)

val record_ok : t -> key:string -> 'a -> unit
(** Journal a completed task.  Thread-safe; called by worker domains
    as tasks settle. *)

val record_failed : t -> key:string -> msg:string -> unit
(** Journal a permanently-failed task (recomputed on resume). *)

val close : t -> unit
(** Close the descriptor the first append opened (a no-op when nothing
    was appended).  A later append reopens it. *)

(** {1 Offline verification} *)

type fsck_report = {
  j_lines : int;       (** physical lines scanned *)
  j_ok : int;          (** parseable ok records (incl. duplicates) *)
  j_failed : int;      (** parseable failed records *)
  j_torn : int;        (** unparseable or digest-mismatched lines *)
  j_duplicates : int;  (** ok records whose key already appeared *)
  j_orphans : int;     (** failed records superseded by an ok for the key *)
  j_kept : int;        (** lines surviving compaction *)
  j_compacted : bool;  (** whether the file was rewritten *)
}

val fsck : ?dir:string -> run_id:string -> unit -> fsck_report
(** Scan the journal for [run_id] and, when any torn, duplicate or
    orphan record is found, compact it via tmp + atomic rename down
    to the last ok per key (first-seen order) plus never-superseded
    failures.  Safe against concurrent readers (they see either file
    version); do not run against a journal something is actively
    appending to — compaction would discard appends racing the
    rename.  A missing journal reports all zeros. *)
