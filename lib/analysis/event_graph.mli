open Wmm_isa

(** Static event graphs: the conflict-graph abstraction of Shasha and
    Snir, lifted from {!Wmm_isa.Program} instruction listings.

    Each thread is abstractly interpreted once, fall-through (litmus
    branches are the degenerate [cbnz r, +0] control-dependency
    idiom), with constant propagation over registers so that the
    library's [xor r,r / add r,#loc] artificial-address idiom
    resolves to a concrete location.  The result is the set of
    static memory accesses, the program-order edges between them
    (annotated with intervening fences and static dependencies), and
    enough information to decide which po edges a given memory model
    preserves (see {!Critical}). *)

type access = {
  node : int;  (** Graph-wide id, dense from 0, in (thread, index) order. *)
  tid : int;
  index : int;  (** Instruction index within the thread. *)
  is_write : bool;
  loc : Instr.loc option;
      (** Statically resolved location; [None] when the address could
          not be resolved, in which case the access conflicts with
          every other-thread access (a wildcard). *)
  order : Instr.order;
  exclusive : bool;
  value : Instr.value option;
      (** For writes, the statically resolved stored value; [None]
          for reads and for stores of dynamically computed values
          (e.g. data-dependency stores of a loaded register). *)
}

type po_edge = {
  src : access;
  dst : access;
  fences : Instr.barrier list;
      (** Barriers appearing strictly between the two accesses. *)
  addr_dep : bool;  (** [dst]'s address depends on a value read by [src]. *)
  data_dep : bool;  (** [dst]'s stored value depends on [src]. *)
  ctrl_dep : bool;  (** [dst] is control-dependent on [src]. *)
  ctrl_pipeline : Instr.barrier list;
      (** Pipeline barriers (isb/isync) between the two that are
          themselves control-dependent on [src]: the ctrl+isb /
          ctrl+isync restoration idiom. *)
}

type t = {
  program : Program.t;
  accesses : access list;  (** Ascending [node]. *)
  edges : po_edge list;
      (** Every ordered same-thread pair of accesses, nearest first. *)
}

val extract : Program.t -> t

val same_loc : access -> access -> bool
(** True only when both locations resolved statically and are equal. *)

val conflict : access -> access -> bool
(** Different threads, at least one write, locations compatible
    (equal, or at least one unresolved). *)

val edge_kind : po_edge -> Wmm_platform.Barrier.elemental
(** Classify by endpoint directions: LoadLoad, LoadStore, StoreLoad
    or StoreStore. *)
