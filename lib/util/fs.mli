(** Directory helpers shared by the cache, the journal, the CLI and
    the chaos harness. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents (mode 0o755).  A
    directory that appears concurrently ([EEXIST]) is not an error. *)

val rm_rf : string -> unit
(** Remove a file, or a directory and everything under it, without
    following symbolic links.  A path that does not exist is not an
    error. *)
