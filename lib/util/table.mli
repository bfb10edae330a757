(** Plain-text tables and data series for experiment reports.

    Every figure and table regenerated by the bench harness is
    rendered through this module so output stays uniform and easy to
    diff against EXPERIMENTS.md. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table.  Default alignment is [Left] for
    the first column and [Right] for the rest, matching the usual
    label-then-numbers layout. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells; longer
    rows raise [Invalid_argument]. *)

val render : t -> string
(** Render with a header underline and two-space column gaps. *)

val print : t -> unit

val float_cell : ?decimals:int -> float -> string
(** Fixed-point rendering, defaulting to 4 decimals. *)

val percent_cell : ?decimals:int -> float -> string
(** [percent_cell 0.031] is ["+3.1%"]; negative values get a minus
    sign.  The argument is a fraction, not a percentage. *)

val scientific_cell : float -> string

val series : name:string -> xs:float array -> ys:float array -> string
(** Render an (x, y) data series, one point per line, prefixed by the
    series name: suitable for regenerating a figure's underlying
    data. *)

val sparkline : float array -> string
(** One-line unicode sketch of a series, for quick visual checks in
    terminal output. *)
