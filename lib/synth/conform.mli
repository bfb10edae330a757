open Wmm_isa
open Wmm_model
open Wmm_litmus

(** Differential conformance: cross-check the semantic layers of the
    suite against each other over a (typically synthesized) test
    battery, and shrink any disagreement to a minimal failing test.

    Three layers are compared:

    - {b explore}: the graph engine
      ({!Enumerate.allowed_outcomes}) against an independent outcome
      oracle, by default generate-and-filter over the certificates'
      candidate walk ({!Enumerate.filtered_outcomes}), for every
      model under check.  The two must produce identical outcome
      sets.
    - {b machine}: the operational machine
      ({!Wmm_machine.Relaxed.enumerate}) against the axiomatic
      models.  The machine is documented to exhibit a subset of the
      allowed behaviours, so every machine-reachable final state must
      be axiomatically allowed (under the matching model/config
      pairing: SC machine vs SC, TSO machine vs TSO, relaxed machine
      vs the architecture's model).
    - {b inference}: static fence inference ({!Wmm_analysis.Infer})
      must resolve every test — already forbidden, beyond fences, or
      a verified-minimal placement whose minimality witnesses check
      out.  An [Unfixed] result or a failed witness is a
      disagreement.

    A fifth layer, {b certificate}, closes the loop on the axiomatic
    side itself: every verdict of the battery is certified
    ({!Wmm_certify.Emit}) and the certificate revalidated by the
    independent checker ({!Wmm_cert.Checker}), which replays threads,
    recounts and walks the rf/co candidate space and re-applies the
    axioms from its own transcription.  A rejected certificate is a
    disagreement.

    A fourth layer, {b containment}, is produced by the language tier
    ({!Wmm_lang.Contain}): outcomes of a compiled program under the
    target hardware model must be a subset of the RC11-allowed
    outcomes of the source program.  It reuses this module's
    disagreement shape and shrinker.

    All model checks run as engine tasks with content-derived keys,
    so conformance runs fan out across domains and replay from
    cache/journal exactly like the analysis pipeline. *)

type layer = Explore | Machine | Inference | Containment | Certificate

val layer_name : layer -> string

type disagreement = {
  layer : layer;
  model : Axiomatic.model option;  (** [None] for inference rows. *)
  test : Test.t;  (** The original failing test. *)
  shrunk : Test.t;  (** Greedily minimised; equal to [test] when no
                        reduction preserves the failure. *)
  detail : string;  (** What disagreed, human-readable. *)
}

type report = {
  arch : Arch.t;
  tests : int;  (** Battery size. *)
  explore_checks : int;
  machine_checks : int;  (** Machine comparisons that ran. *)
  machine_skipped : int;
      (** Machine enumerations that hit the state bound (recorded,
          not failed: subset checks are vacuous there). *)
  infer_checks : int;
  cert_checks : int;  (** Certificate emission+check rounds that ran. *)
  cert_skipped : int;
      (** Verdicts whose certificate was skipped (emission failure or
          size cap). *)
  disagreements : disagreement list;
}

type oracle = {
  oracle_id : string;
      (** Versioned identifier, part of every task key: two oracles
          with different behaviour must carry different ids. *)
  outcomes : Axiomatic.model -> Program.t -> Enumerate.outcome list;
}

val walk_oracle : oracle
(** {!Enumerate.filtered_outcomes} under id ["walk/v1"]. *)

type config = {
  models : Axiomatic.model list option;
      (** Models for the explore layer; [None] means
          {!Synth.verdict_models} of the architecture. *)
  oracle : oracle;
  machine : bool;  (** Run the machine layer. *)
  infer_limit : int;
      (** Inference-layer battery cap (it is the expensive layer);
          the first [infer_limit] tests are analysed.  [0] disables
          the layer. *)
  certificates : bool;  (** Run the certificate layer. *)
}

val default_config : config
(** Walk oracle, default models, machine and certificate layers on,
    [infer_limit = 48]. *)

val run :
  ?config:config -> engine:Wmm_engine.Engine.t -> arch:Arch.t -> Test.t list -> report

val shrink : (Test.t -> bool) -> Test.t -> Test.t
(** [shrink still_fails t] greedily removes threads, instructions and
    condition conjuncts while [still_fails] keeps holding, to a
    fixpoint.  Exposed for the planted-bug tests. *)

val render : report -> string
(** Summary plus, per disagreement, the shrunk test in litmus
    syntax. *)
