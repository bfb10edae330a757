open Wmm_isa
open Wmm_model
open Wmm_litmus

(** diy-style litmus-test synthesis: compile relaxation cycles (see
    {!Cycle}) into well-formed {!Test.t} values, prune isomorphs via
    {!Canon}, and name the results after the classic families.

    Compilation unifies locations along communication and same-location
    edges (rejecting cycles whose distinct-location edges collapse),
    derives per-location coherence chains (at most two writes per
    location, totally ordered by the cycle's co and rf;fr edges),
    solves store values so that every read's expected value is
    well-defined (data-dependent stores forward their source read's
    value), and emits the standard instruction idioms: xor-self plus
    add for address dependencies, a register store for data
    dependencies, compare-and-branch-over-nothing for control
    dependencies.  The condition constrains every read, and pins the
    coherence order of two-write locations through a final-memory
    clause, so the condition is reachable exactly when the model
    admits an execution containing the cycle. *)

type generated = {
  g_test : Test.t;  (** [expected = []]; see {!with_verdicts}. *)
  g_cycle : Cycle.t option;  (** [None] for the CAS family. *)
  g_canon : string;  (** {!Canon.of_test} of [g_test]. *)
}

val compile : Arch.t -> Cycle.t -> Test.t option
(** [None] when the cycle has no consistent location/coherence/value
    assignment (e.g. distinct-location edges that unify, three writes
    to one location, or contradictory coherence constraints). *)

val cas_tests : unit -> Test.t list
(** The exclusive-access (ldxr/add/stxr race) family: both threads
    attempt an increment; conditions enumerate observed values,
    success flags and final memory. *)

val generate : ?max_edges:int -> ?atomics:bool -> Arch.t -> generated list
(** The deduplicated family for an architecture at the given cycle
    bound (default {!Cycle.default_max_edges}), deterministically
    ordered, with unique names ([~n] suffixes break the rare naming
    ties).  [atomics] (default: true on ARMv8 only, since exclusives
    print in ARM syntax) appends {!cas_tests}. *)

val battery : max_edges:int -> limit:int -> Arch.t -> Test.t list
(** The conformance battery: the tests of {!generate} at [max_edges],
    capped at the first [limit] (0 = the whole family). *)

val verdict_models : Arch.t -> Axiomatic.model list
(** [Sc; Tso; model_for_arch arch] — the models a generated test's
    verdicts are computed under. *)

val with_verdicts : ?models:Axiomatic.model list -> Arch.t -> Test.t -> Test.t
(** Fill [expected] by exhaustive axiomatic exploration. *)

val covers : generated list -> Test.t -> generated option
(** The family member isomorphic to the given test (by canonical
    form), if any. *)

val verdict_table : ?max_edges:int -> Arch.t list -> string
(** One ["name|arch|model|allow"]-style line per (generated test,
    verdict model) pair, in family order: the golden-table format the
    test suite asserts (see [test/data/synth_golden.txt]). *)
