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
  observed : bool;
      (** Whether the operational machine reaches a final state that
          satisfies the test condition. *)
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

val machine_observes : Relaxed.config -> Test.t -> bool
(** Whether the operational machine reaches a final state that
    satisfies the test condition, registers and memory: the machine
    half of {!run_exhaustive}.  The search ({!Relaxed.exists_outcome})
    stops at the first such state and skips every state in which a
    finished thread's registers already contradict the condition.
    Raises [Failure] when it visits more than 500,000 states. *)

val run_exhaustive : Axiomatic.model -> Relaxed.config -> Test.t -> verdict
(** The machine's answer ({!machine_observes}), then the axiomatic
    verdict.  Raises [Failure] when the machine search visits more
    than 500,000 states, before the axiomatic search starts, and when
    the program has more than 200,000 run combinations, before the
    axiomatic search lists them ({!Wmm_model.Enumerate}). *)

val sound : verdict -> bool
(** No forbidden outcome was observed, and the axiomatic verdict
    matches the library's annotation when present.  Because the
    operational machine is deliberately less permissive than the
    axiomatic models (it never speculates), [observed = false] with
    [axiomatic_allowed = true] is sound (a coverage gap, not a
    bug). *)

val describe : verdict -> string
