open Wmm_model

(** The standard litmus test battery.

    Classic shapes (SB, MP, LB, S, R, 2+2W, WRC, IRIW, ISA2, CoRR,
    CoWW) plus fenced and dependency variants for both ARMv8 and
    POWER, each annotated with the verdicts of the axiomatic models.
    Verdicts follow the published tables of Alglave et al. ("Herding
    cats") and the ARMv8 memory model: e.g. IRIW with address
    dependencies is forbidden on (other-multi-copy-atomic) ARMv8 but
    allowed on POWER. *)

val all : Test.t list

val coherence : Test.t list
(** Same-location sanity tests, forbidden under every model. *)

val common : Test.t list
(** Unfenced shapes meaningful under every model. *)

val atomics : Test.t list
(** Load-exclusive / store-exclusive shapes: read-modify-write
    atomicity holds under every model. *)

val arm : Test.t list
(** Tests using ARMv8 barriers / load-acquire / store-release. *)

val power : Test.t list
(** Tests using POWER sync / lwsync / isync. *)

val for_model : Axiomatic.model -> Test.t list
(** The tests carrying an expectation for the given model. *)

val by_name : string -> Test.t option
