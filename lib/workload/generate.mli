open Wmm_machine
open Wmm_platform

(** Compile a workload profile into per-core micro-op streams under a
    platform fencing configuration. *)

type platform = Jvm_platform of Jvm.config | Kernel_platform of Kernel.config

val platform_arch : platform -> Wmm_isa.Arch.t

val streams :
  ?units_override:int -> Profile.t -> platform -> seed:int -> Uop.packed array array
(** One stream per effective thread.  Generation is deterministic in
    [seed]; different seeds vary the noise draws and access patterns
    but not the rates.  [units_override] replaces
    [units_per_thread] (used to slice response-mode runs into
    requests). *)
