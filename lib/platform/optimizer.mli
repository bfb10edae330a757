open Wmm_machine

(** Redundant-barrier elimination, and the paper's section 6
    proposal of probing *optimisation* code paths.

    JIT compilers coalesce adjacent memory barriers: two fences with
    no memory access between them can be merged into the stronger of
    the two.  This module implements that peephole over micro-op
    streams, and - following the paper's future-work suggestion of "a
    dedicated cost function IR node ... added to code paths where a
    given optimisation occurs or would occur" - can mark every
    elimination site with a probe micro-op so the sensitivity of a
    benchmark to the optimisation itself can be fitted with eq. 1. *)

type result = {
  stream : Uop.packed array;
  eliminated : int;  (** Fences removed by coalescing. *)
}

val strength : Uop.Kind.t -> int option
(** Fence-strength lattice rank: [Fence_full] (3) > [Fence_lw] (2) >
    [Fence_load] / [Fence_store] (1); [None] for non-fences. *)

val subsumes : Uop.Kind.t -> Uop.Kind.t -> bool
(** [subsumes a b]: does executing [a] render an adjacent [b]
    redundant?  A full fence subsumes everything; [lwsync] subsumes
    the load and store fences; every fence subsumes a duplicate of
    itself. *)

val eliminate : ?probe:Uop.t -> Uop.packed array -> result
(** One pass of redundant-fence elimination: within every run of
    consecutive non-memory micro-ops, fences subsumed by a stronger
    (or equal) fence in the same run are removed.  When [probe] is
    given it is inserted at every elimination site - the paper's
    optimisation-path cost-function node. *)

val optimise_streams :
  ?probe:Uop.t -> Uop.packed array array -> Uop.packed array array * int
(** Apply [eliminate] to each core's stream; returns the optimised
    streams and the total number of fences eliminated. *)
