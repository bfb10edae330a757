(** Content-addressed result cache.

    Each cached entry lives in its own file under the cache
    directory, named by the hex MD5 of [version ^ key] and sharded
    into 256 subdirectories by the digest's first two hex characters
    so concurrent writers (daemon workers, parallel CLIs) spread
    their directory traffic.  The version tag defaults to a digest of
    the running executable, so results computed by a stale binary are
    never reused after a rebuild; the task key carries everything
    else that determines the result (benchmark profile, platform
    configuration, sample counts, seeds).

    Each entry stores a magic marker, its key, an MD5 of the
    marshalled value and the value itself; a lookup only succeeds
    when the stored key matches exactly, which guards against digest
    collisions.  As with any marshalling cache, the caller must
    ensure that equal keys imply equal result {e types}.

    All operations are safe to call concurrently from multiple
    domains {e and} multiple processes sharing one directory:
    counters are mutex-protected and stores write to a temporary file
    made unique by PID, domain id and a process-global counter before
    an atomic rename. *)

type t

type stats = {
  hits : int;
  misses : int;
  stores : int;
  errors : int;
  pruned : int;
  verify_failures : int;
}
(** [errors] counts unreadable or corrupt entries (treated as
    misses) and failed writes; [pruned] counts entries deleted by
    {!clear} or {!prune} through this handle; [verify_failures]
    counts entries whose stored payload digest did not match on read
    (a subset of [errors]) — each one was quarantined to a
    [.corrupt] file and reported as a miss. *)

val default_dir : string
(** ["_wmm_cache"]. *)

val disabled : t
(** A cache that never hits and never stores. *)

val create : ?dir:string -> ?version:string -> unit -> t
(** [dir] defaults to {!default_dir}; [version] to
    {!code_version}[ ()]. *)

val enabled : t -> bool
val dir : t -> string option

val code_version : unit -> string
(** Hex MD5 of the running executable, or ["unversioned"] when it
    cannot be read.  Computed once. *)

val find : t -> key:string -> 'a option
(** Entries are verified on read: each stores an MD5 of its
    marshalled payload, and a mismatch (or any unmarshalable bytes)
    is treated as a miss, counted in [verify_failures], and the
    damaged file renamed to [<hex>.corrupt] beside its shard so the
    evidence survives while the next {!store} repopulates cleanly. *)

val store : t -> key:string -> 'a -> unit
val stats : t -> stats

(** {1 Maintenance}

    Offline housekeeping for the [wmm_bench cache] subcommand.  Only
    files ending in [.cache] are touched; journals and in-flight
    temporaries are left alone. *)

val disk_usage : t -> (int * int) option
(** [(entry count, total bytes)] currently on disk; [None] for the
    disabled cache. *)

val clear : t -> int
(** Delete every cache entry; returns how many were removed. *)

val prune : t -> max_bytes:int -> int
(** Evict oldest-first (by mtime, i.e. store order) until the cache
    fits in [max_bytes]; returns how many entries were removed. *)

type fsck_report = {
  f_scanned : int;      (** entries examined *)
  f_ok : int;           (** digest-verified clean *)
  f_quarantined : int;  (** damaged, renamed to [.corrupt] *)
}

val fsck : t -> fsck_report
(** Walk every [.cache] file (shard subdirectories and the top level)
    and verify its stored payload digest, quarantining damaged files
    exactly as {!find} would; a file that is not an entry in this
    module's format counts as damaged.  Filename digests embed the {e writing} binary's version,
    so fsck checks payload integrity only — it never judges the
    key→filename mapping.  Quarantines are counted into
    [verify_failures]/[errors] on this handle. *)

val corrupt : t -> key:string -> bool
(** Garble the on-disk entry for [key] in place (fault injection:
    exercises corrupt-entry detection on the next {!find}).  Returns
    false when no entry exists. *)
