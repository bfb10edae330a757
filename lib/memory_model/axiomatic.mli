open Wmm_isa
(** Axiomatic consistency predicates.

    Five models are provided:

    - [Sc]: sequential consistency — acyclic(po U com).
    - [Tso]: total store order (x86-style) — SC-per-location plus
      acyclicity of ppo U rfe U co U fr where ppo drops write->read
      pairs unless restored by a full fence.
    - [Arm]: the ARMv8 "external consistency" style model —
      SC-per-location plus acyclicity of the ordered-before relation
      (observed-external U dependency-ordered U barrier-ordered).
      ARMv8 is other-multi-copy-atomic, which this captures.
    - [Power]: the herding-cats POWER model — SC-per-location,
      no-thin-air (acyclic hb), observation (irreflexive
      fre;prop;hb^* ), propagation (acyclic co U prop).  POWER is
      non-multi-copy-atomic: IRIW with address dependencies stays
      allowed, unlike ARMv8.
    - [Rc11]: the C11/RC11 language-level model (see {!Rc11}) —
      coherence (irreflexive hb;eco?), atomicity, SC (acyclic psc)
      and no-thin-air as acyclicity of po U rf, over access modes
      rlx/acq/rel/acq_rel/sc and C11 fences.

    Simplifications relative to the full published models are noted
    in DESIGN.md: preserved-program-order is dependency-based (addr,
    data, ctrl-to-writes, isync/isb restoration) without the
    rdw/detour refinements, and read-modify-write atomicity is not
    modelled (no rmw events are generated). *)

type model = Sc | Tso | Arm | Power | Rc11

val all_models : model list

val hardware_models : model list
(** The models a machine can implement directly: everything but the
    language-tier [Rc11]. *)

val model_name : model -> string

val model_for_arch : Arch.t -> model
(** [Armv8 -> Arm], [Power7 -> Power]. *)

val consistent : model -> Execution.t -> bool
(** Whether a (well-formed) candidate execution is allowed. *)

val violations : model -> Execution.t -> string list
(** Names of the axioms the execution violates; empty iff
    [consistent]. *)

(** {2 Hoisted checking for the exploration core}

    Checking one candidate decomposes into a per-run [static] part
    (event masks, program order, fence orders, dependency-based
    preserved program order) and a per-candidate (rf, co) part.  The
    enumerator prepares the static context once per run combination
    and then checks thousands of rf/co assignments against it without
    rebuilding anything. *)

type static

type base
(** The model-independent slice of a [static]: event masks, program
    order, dependency/rmw relations, per-kind fence projections and
    control-fence restorations.  Built once per candidate shape and
    shared by every model via {!of_base}, so checking one test under
    all five models hoists the expensive scans out of the per-model
    loop. *)

val prepare_base : Execution.t -> base
(** Precompute the model-independent context.  The [rf] and [co]
    fields of the execution are ignored. *)

val of_base : model -> base -> static
(** Assemble a model's [static] from a shared {!base} with cheap
    unions/restrictions of the precomputed parts. *)

val prepare : model -> Execution.t -> static
(** [of_base model (prepare_base x)].  The [rf] and [co] fields of
    the execution are ignored. *)

val violations_static : static -> rf:Bitrel.t -> co:Bitrel.t -> string list
(** [violations] with the static work hoisted; [rf]/[co] are dense
    relations over the same event ids as the prepared execution. *)

val consistent_static : static -> rf:Bitrel.t -> co:Bitrel.t -> bool

val residual_consistent : static -> rf:Bitrel.t -> co:Bitrel.t -> bool
(** Consistency of a {e complete} candidate on which {!prune_viable}
    has just passed: only the axioms not already implied by the
    pruning core are evaluated (none for SC/TSO/ARM; observation and
    propagation for POWER).  Calling this without a passing
    [prune_viable] on the same complete rf/co is unsound. *)

val prune_possible : static -> bool
(** Whether {!prune_viable} can ever fail for this context.  [false]
    means the pruning core is provably acyclic for every rf/co (the
    search may skip the per-node screen); the leaf checks are still
    required. *)

val prune_viable : static -> rf:Bitrel.t -> co:Bitrel.t -> bool
(** Sound necessary condition for a {e partial} rf/co assignment to
    have any consistent completion: the model's monotone core (whose
    edges only grow as rf/co edges are added) must be acyclic and
    atomicity unviolated.  [false] means every completion of the
    partial candidate is inconsistent, so the search can cut the
    subtree; [true] promises nothing - complete candidates still need
    {!consistent_static}. *)
