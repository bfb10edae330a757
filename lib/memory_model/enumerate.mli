open Wmm_isa
(** Exhaustive enumeration of candidate executions for litmus
    programs (a small herd-style engine).

    The enumeration proceeds in two phases.  Phase one discovers the
    set of values each location can carry by interpreting every
    thread against a growing value pool until fixpoint (this handles
    stores whose value or address depends on loaded values, as in
    dependency litmus tests).  Phase two generates, for every
    combination of per-load value choices, the thread event
    sequences with their address / data / control dependencies, then
    explores the space of reads-from assignments and coherence orders
    by incremental execution-graph enumeration: events are added in
    program order, reads extend the graph with rf choices (future
    writes via promised "revisit" edges), writes pick coherence
    insertion points, and the model's complete monotone consistency
    check screens every step, so each maximal consistent execution is
    reached exactly once and no leaf is wasted.  Structurally
    identical threads are quotiented by symmetry ({!Symmetry}) and the
    outcome set re-expanded.  Certificate claims come from a flat
    generate-and-test {!walk} over the same run combinations.

    Every search raises [Failure] when a thread runs more than 1024
    interpreted steps, or when a program has more than 200,000 run
    combinations (choices of one run per thread), before it lists
    them. *)

type outcome = {
  registers : ((int * Instr.reg) * Instr.value) list;
      (** Final value of every register written by each thread,
          sorted by (thread, register). *)
  memory : (Instr.loc * Instr.value) list;  (** Sorted by location. *)
}

val compare_outcome : outcome -> outcome -> int

val pp_outcome : Program.t -> Format.formatter -> outcome -> unit

val outcome_to_string : Program.t -> outcome -> string

type stats = {
  generated : int;  (** Complete executions the search reached. *)
  pruned : int;  (** Subtrees cut by the per-step screens. *)
  consistent : int;
      (** Executions the model allows; every leaf is consistent, so
          this equals [generated]. *)
  revisits : int;  (** rf promises to writes not yet in the graph. *)
  symmetry_skips : int;
      (** Run combos and coherence insertion points skipped by the
          symmetry canonicity constraint. *)
  wall_s : float;  (** Wall-clock seconds spent exploring. *)
}

val zero_stats : stats

val allowed_outcomes : Axiomatic.model -> Program.t -> outcome list
(** Deduplicated, sorted final states of the model-consistent
    executions, by the graph engine. *)

val allowed_outcomes_stats : Axiomatic.model -> Program.t -> outcome list * stats
(** [allowed_outcomes] plus the exploration counters for this call. *)

val exists_outcome : Axiomatic.model -> Program.t -> (outcome -> bool) -> bool
(** Whether any model-consistent candidate's final state satisfies
    the predicate.  Stops at the first witness, so forbidden-outcome
    checks on permissive models return as soon as the outcome is
    found rather than enumerating the full space. *)

val outcome_allowed : Axiomatic.model -> Program.t -> outcome -> bool
(** Membership test used by the litmus checker.  Register values not
    mentioned in [outcome.registers] are ignored (partial match);
    same for memory.  Early-exits via {!exists_outcome}. *)

val global_stats : unit -> stats
(** Cumulative exploration counters since start (or the last
    {!reset_global_stats}).  Thread/domain-safe; harnesses snapshot
    this into run telemetry. *)

val reset_global_stats : unit -> unit

(** {2 The candidate walk}

    Every well-formed candidate execution of a program, run
    combination by run combination, in one canonical order: rf
    choices lexicographic in read order (reads and writes by event
    id), then each location's coherence permutations lexicographic,
    locations ascending.  An allowed certificate's witness is the
    first match in this order. *)

type walk =
  | Witness of Execution.t * outcome
      (** The first candidate whose final state satisfies the
          predicate and which the model allows. *)
  | Exhausted of int  (** There is none: the number of candidates walked. *)

val walk : Axiomatic.model -> Program.t -> (outcome -> bool) -> walk
(** One pass over the candidates that stops at the first witness.
    Relations are built, and the model consulted, only for candidates
    whose final state passes. *)

val filtered_outcomes : Axiomatic.model -> Program.t -> outcome list
(** Generate and filter over the same walk: the deduplicated, sorted
    final states of every candidate the model allows. *)

val combinations :
  Program.t -> (Execution.t * ((int * Instr.reg) * Instr.value) list) list
(** Each feasible run combination's rf/co-free execution and final
    registers, in the walk's order; the input of an independent
    candidate enumerator. *)
