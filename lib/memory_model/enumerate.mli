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
    outcome set re-expanded.  {!Reference}, the pre-rewrite
    generate-and-filter path, is kept as the test oracle. *)

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

val candidate_executions :
  ?fuel:int -> Program.t -> (Execution.t * outcome) list
(** All well-formed candidate executions with their final states, in
    a fixed order (rf assigned fewest-candidates-first, then coherence
    per location); certificate witnesses are the first match in it.
    [fuel] caps interpreted steps per thread (default 1024) so
    accidentally looping programs fail fast: exceeding it raises
    [Failure]. *)

val first_witness :
  Axiomatic.model ->
  Program.t ->
  (outcome -> bool) ->
  (Execution.t * outcome) option
(** The first candidate, in {!candidate_executions}' order, whose
    final state satisfies the predicate and which the model allows.
    Walks the same candidates but stops at the witness, and builds an
    execution only for candidates whose final state passes. *)

val allowed_outcomes : Axiomatic.model -> Program.t -> outcome list
(** Deduplicated, sorted final states of the model-consistent
    executions (CI-asserted equal to {!Reference}). *)

val allowed_outcomes_stats :
  ?fuel:int -> Axiomatic.model -> Program.t -> outcome list * stats
(** [allowed_outcomes] plus the exploration counters for this call. *)

val exists_outcome :
  ?fuel:int -> Axiomatic.model -> Program.t -> (outcome -> bool) -> bool
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

(** The pre-rewrite generate-and-filter path: materialize the full
    cartesian product of rf choices and per-location co permutations,
    filter by well-formedness, then filter by the model.  Kept as the
    oracle for golden tests, as the baseline the perf benchmark
    measures the search against, and as the exhaustive candidate list
    of forbidden certificates. *)
module Reference : sig
  val permutations : 'a list -> 'a list list
  (** All permutations; duplicate elements are kept positionally
      distinct (a list of length [n] always yields [n!] entries). *)

  val cartesian : 'a list list -> 'a list list

  val candidate_executions :
    ?fuel:int -> Program.t -> (Execution.t * outcome) list

  val allowed_outcomes : Axiomatic.model -> Program.t -> outcome list
end
