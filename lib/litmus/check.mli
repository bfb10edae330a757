open Wmm_model
open Wmm_machine

(** Run litmus tests on the operational machine and compare with the
    axiomatic verdicts. *)

type verdict = {
  test : Test.t;
  model : Axiomatic.model;
  axiomatic_allowed : bool;
      (** Whether any model-consistent candidate execution satisfies
          the test condition. *)
  expected : bool option;  (** The library's annotation, if any. *)
  observed : bool;  (** Whether the operational machine reached it. *)
  observations : int;
      (** How many of the machine's reachable final states satisfy
          the test condition. *)
  total : int;  (** How many final states the machine can reach. *)
}

val axiomatic_allowed : Axiomatic.model -> Test.t -> bool

val machine_config : Axiomatic.model -> Relaxed.config
(** The operational machine that checks a model's verdicts: SC and TSO
    have their own, ARMv8 and POWER share the relaxed one.  No machine
    implements the language tier; the SC machine's outcomes are a
    sound subset of the RC11-allowed set, so RC11 goes to it. *)

val models_for : parsed:bool -> Test.t -> Axiomatic.model list
(** The models a test's verdicts are checked under, in
    [Axiomatic.all_models] order: those the test is annotated for, plus
    ARMv8 and POWER for a [parsed] test (from a litmus file or an
    inline program), which carries no annotations. *)

val run_exhaustive : Axiomatic.model -> Relaxed.config -> Test.t -> verdict
(** Every reachable final state of the operational machine
    ({!Relaxed.enumerate}), then the axiomatic verdict.  Raises
    [Failure] when the machine search visits more than 500,000
    states; the axiomatic search has not started then. *)

val sound : verdict -> bool
(** No forbidden outcome was observed, and the axiomatic verdict
    matches the library's annotation when present.  Because the
    operational machine is deliberately less permissive than the
    axiomatic models (it never speculates), [observed = false] with
    [axiomatic_allowed = true] is sound (a coverage gap, not a
    bug). *)

val describe : verdict -> string
