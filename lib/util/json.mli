(** A minimal JSON value type with a parser and printer: the one JSON
    codec of the program.  Served frames, telemetry dumps, resume
    journal lines and the exploration report are all built as a {!t}
    and printed by {!to_string}; frames and journal lines are read
    back through {!parse}.

    A purpose-built recursive-descent parser over the full JSON
    grammar (objects, arrays, strings with escapes, numbers, booleans,
    null) beats pulling in a dependency the toolchain does not ship.
    Numbers are held as OCaml floats ({!int_member} rounds when a
    field is semantically integral). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** Insertion order preserved. *)
  | Raw of string
      (** Pre-serialized JSON spliced verbatim by {!to_string}; never
          produced by {!parse}.  Lets cached response items (stored as
          their serialized text) be framed without a re-parse. *)

val parse : string -> (t, string) result
(** Parse one JSON value (leading/trailing whitespace allowed;
    trailing garbage is an error).  Errors carry a byte offset. *)

val to_string : t -> string
(** Compact single-line rendering (never contains a raw newline, so a
    rendered value is always a valid NDJSON frame).  Members and
    elements are separated by [", "], names from values by [": "].
    Integral numbers print without a decimal point, others with six
    significant digits; non-finite numbers print as [null]. *)

val of_int : int -> t

(** {1 Object accessors} — all return [None] on a non-object or a
    missing/mistyped field. *)

val member : string -> t -> t option
val str_member : string -> t -> string option
val int_member : string -> t -> int option
val bool_member : string -> t -> bool option

val list_member : string -> t -> string list option
(** A field holding an array of strings. *)
