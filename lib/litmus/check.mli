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
  observations : int;  (** How many runs / states reached it. *)
  total : int;  (** Runs or states explored. *)
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

val run_random :
  ?iterations:int -> ?seed:int -> Axiomatic.model -> Relaxed.config -> Test.t -> verdict
(** Randomly scheduled executions (default 2000). *)

val run_exhaustive :
  ?max_states:int -> Axiomatic.model -> Relaxed.config -> Test.t -> verdict
(** Exhaustive state-space exploration of the operational machine. *)

val sound : verdict -> bool
(** No forbidden outcome was observed, and the axiomatic verdict
    matches the library's annotation when present.  Because the
    operational machine is deliberately less permissive than the
    axiomatic models (it never speculates), [observed = false] with
    [axiomatic_allowed = true] is sound (a coverage gap, not a
    bug). *)

val describe : verdict -> string
