open Wmm_isa
open Wmm_machine
open Wmm_platform
open Wmm_workload
open Wmm_core

(** Shared plumbing for the per-figure experiment modules: platform
    builders, formatting, and the fast-mode switch. *)

val fast : unit -> bool
(** True when the WMM_FAST environment variable is set: experiments
    drop to two samples and a reduced sweep so the full suite runs in
    seconds (used by tests). *)

val samples : unit -> int
(** 6 normally (the paper's "six or more samples"), 2 in fast mode. *)

val sweep_counts : unit -> int list
(** Cost-function iteration counts for sweeps: powers of two covering
    the paper's 2^0..2^8 ns axis (trimmed in fast mode). *)

val jvm_platform :
  ?mode:Jvm.mode ->
  ?lock_patch:bool ->
  ?overrides:(Barrier.elemental * Uop.t) list ->
  ?inject_all:Uop.t list ->
  ?inject:(Barrier.elemental * Uop.t list) list ->
  Arch.t ->
  Generate.platform

val kernel_platform :
  ?rbd:Kernel.rbd_strategy ->
  ?inject:(Kernel.macro * Uop.t list) list ->
  ?inject_all:Uop.t list ->
  Arch.t ->
  Generate.platform

val light_for : Arch.t -> bool
(** The scratch-register cost-function variant applies to the JVM on
    ARMv8 (x9 is available there). *)

val jvm_nop_base : Arch.t -> Generate.platform
(** The paper's base case: every elemental barrier padded with a nop
    sequence the size of the cost function. *)

val kernel_nop_base : Arch.t -> Generate.platform

val nop_uop : Arch.t -> light:bool -> Uop.t

val fmt_fit : Sensitivity.fit -> string
(** "k=0.00277 +-2.5%", or "(no fit: insufficient points)" for an
    {!Sensitivity.unavailable} fit from a degraded sweep. *)

val fmt_sweep_fit : Experiment.sweep -> string
(** {!fmt_fit} of the sweep's fit, annotated with the number of
    dropped (permanently failed) sweep points, if any. *)

val fmt_summary : Wmm_util.Stats.summary -> string
(** "0.9873 [0.9717, 1.0032]". *)

val fmt_pct_change : Wmm_util.Stats.summary -> string
(** Relative performance as a percentage change: "-1.9%". *)

val relative_cells : (Wmm_util.Stats.summary, string) result -> string list
(** The two table cells of a relative performance, {!fmt_summary} and
    {!fmt_pct_change}; a failed sample renders as ["failed: msg"; "-"]. *)

val mean_or_nan : float list -> float
(** The arithmetic mean, or [nan] (rendered "nan": unavailable) when
    every cell it aggregates failed. *)

val header : string -> string
(** Section banner for report output. *)
