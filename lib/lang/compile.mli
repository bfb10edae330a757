open Wmm_isa
open Wmm_litmus

(** Compilation of C11 accesses and fences to ARM and POWER
    instruction sequences — the documented mapping tables, one scheme
    per (architecture, style).

    Compiled relaxed loads carry a degenerate [cbnz dst, +0]: an
    architectural no-op that creates a control dependency to every
    later store, preserving the [po U rf] acyclicity RC11 guarantees
    but the dependency-free hardware models would otherwise lose. *)

type scheme =
  | Arm_native  (** ldar / stlr half-barrier instructions *)
  | Arm_fenced  (** pre-ARMv8 style: dmb / ctrl-isb sequences *)
  | Power_sync  (** leading-sync convention: sync / lwsync *)

val all_schemes : scheme list
val scheme_name : scheme -> string
val scheme_of_string : string -> scheme option
val scheme_arch : scheme -> Arch.t

val compile_instr : scheme -> Instr.t -> Instr.t list

val compile_thread : scheme -> Program.thread -> Program.thread
(** Expands each instruction and recomputes relative branch offsets
    against the compiled layout. *)

val compile_program : scheme -> Program.t -> Program.t
(** Renames to ["name@scheme"]. *)

val compile_test : scheme -> Test.t -> Test.t
(** Inserted instructions write no registers, so the register and
    memory conditions carry over verbatim; [expected] is dropped. *)
