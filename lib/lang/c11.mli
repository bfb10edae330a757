open Wmm_isa
open Wmm_litmus

(** C11 language-tier program builders and the library lift.

    Access modes reuse {!Instr.order}: [rlx] is [Plain] (every access
    in this tier is atomic), [acq_rel] and [sc] exist only at the
    language level until {!Compile} lowers them to ARM/POWER
    sequences.  RMWs are single-attempt exclusive pairs — spurious
    failure only adds outcomes, so it never endangers compilation
    containment. *)

val rlx : Instr.order
val acq : Instr.order
val rel : Instr.order
val acq_rel : Instr.order
val sc : Instr.order

val mode_name : Instr.order -> string

val load : mode:Instr.order -> dst:Instr.reg -> loc:Instr.loc -> Instr.t
val store : mode:Instr.order -> value:Instr.value -> loc:Instr.loc -> Instr.t
val store_reg : mode:Instr.order -> src:Instr.reg -> loc:Instr.loc -> Instr.t

val fence_acq : Instr.t
val fence_rel : Instr.t
val fence_acq_rel : Instr.t
val fence_sc : Instr.t

val cas :
  status:Instr.reg ->
  old:Instr.reg ->
  tmp:Instr.reg ->
  expected:Instr.value ->
  desired:Instr.value ->
  loc:Instr.loc ->
  mode_r:Instr.order ->
  mode_w:Instr.order ->
  Instr.t list
(** Single-attempt compare-and-swap; [status] reads 0 iff the swap
    happened. *)

val exchange :
  status:Instr.reg ->
  old:Instr.reg ->
  desired:Instr.value ->
  loc:Instr.loc ->
  mode_r:Instr.order ->
  mode_w:Instr.order ->
  Instr.t list

val lift_barrier : Instr.barrier -> Instr.barrier
val lift_instr : Instr.t -> Instr.t

val lift_test : Test.t -> Test.t
(** One instruction maps to one instruction, so branch offsets and
    register conditions survive unchanged; the [expected] annotations
    are dropped (they speak about hardware models). *)

val lifted_library : unit -> Test.t list
(** The full hardware litmus library lifted to C11 accesses. *)
